"""Property tests: ``StringCodec.encode`` equals the per-symbol reference.

``normalize`` checks a value's symbols with one ``str.strip`` call and
``encode`` reads digits from a dict.  Over random text (lower case,
digits, the pad symbol, non-ASCII, too long) and non-strings, on both
alphabets, the result or the error message must equal the reference
below: the normalize-pad-and-fold construction of Sec. V-B, checked and
folded one symbol at a time.
"""

from hypothesis import given, settings, strategies as st

from repro.core.encoding import (
    EXTENDED_ALPHABET,
    PAD_CHAR,
    STRING_ALPHABET,
    StringCodec,
)
from repro.errors import EncodingError

CODECS = [
    StringCodec(width=1),
    StringCodec(width=5),
    StringCodec(width=8),
    StringCodec(width=6, alphabet=EXTENDED_ALPHABET),
]


def reference_normalize(codec, value):
    if value is None:
        raise EncodingError("NULL must be handled before encoding")
    if not isinstance(value, str):
        raise EncodingError(f"expected str, got {type(value).__name__}")
    upper = value.upper()
    if len(upper) > codec.width:
        raise EncodingError(
            f"string {value!r} longer than declared width {codec.width}"
        )
    for ch in upper:
        if ch == PAD_CHAR or ch not in codec.alphabet:
            raise EncodingError(
                f"character {ch!r} outside the A-Z alphabet in {value!r}"
                if codec.alphabet is STRING_ALPHABET
                else f"character {ch!r} outside the alphabet in {value!r}"
            )
    return upper


def reference_encode(codec, value):
    padded = reference_normalize(codec, value).ljust(codec.width, PAD_CHAR)
    number = 0
    for ch in padded:
        number = number * len(codec.alphabet) + codec.alphabet.index(ch)
    return number


def outcome(fn, codec, value):
    try:
        return ("ok", fn(codec, value))
    except EncodingError as exc:
        return ("error", str(exc))


values = st.one_of(
    st.text(alphabet="abcxyzABCXYZ019*- ", max_size=10),
    st.text(max_size=9),
    st.sampled_from(["", "ß", "ﬀ", "Ǆ", "abc", "*", "A*B", "0", "Z" * 9]),
    st.integers(),
    st.none(),
)


@settings(max_examples=400, deadline=None)
@given(codec=st.sampled_from(CODECS), value=values)
def test_encode_equals_reference(codec, value):
    expected = outcome(reference_encode, codec, value)
    assert outcome(lambda c, v: c.encode(v), codec, value) == expected
    assert outcome(lambda c, v: c.normalize(v), codec, value) == outcome(
        reference_normalize, codec, value
    )
    if expected[0] == "ok":
        assert codec.decode(expected[1]) == codec.normalize(value)
