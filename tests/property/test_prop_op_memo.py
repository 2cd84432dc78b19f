"""Property tests: the order-preserving split memo is transparent.

Each :class:`OrderPreservingScheme` memoizes the n shares of the values it
has shared, clearing the memo at :data:`SPLIT_MEMO_LIMIT` entries.  Over
random domains, labels and thresholds, and across evictions, ``split``
and ``share`` must equal an uncached evaluation of ``polynomial_for(v)``;
a caller mutating a returned list must not change later results; and
schemes with different secrets or labels must never see each other's
entries.
"""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import order_preserving
from repro.core.order_preserving import IntegerDomain, OrderPreservingScheme
from repro.core.secrets import generate_client_secrets
from repro.errors import DomainError


def uncached(scheme, value):
    polynomial = scheme.polynomial_for(value)
    return [polynomial.evaluate(x) for x in scheme.secrets.evaluation_points]


@st.composite
def schemes(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    lo = draw(st.integers(min_value=-(10**6), max_value=10**6))
    hi = lo + draw(st.integers(min_value=0, max_value=300))
    return OrderPreservingScheme(
        generate_client_secrets(n, seed=draw(st.integers(0, 2**16))),
        IntegerDomain(lo, hi),
        threshold=draw(st.integers(min_value=2, max_value=n)),
        label=draw(st.text(min_size=1, max_size=8)),
    )


@settings(max_examples=60, deadline=None)
@given(scheme=schemes(), data=st.data())
def test_memoized_shares_equal_uncached_evaluation(scheme, data):
    domain = scheme.domain
    values = data.draw(
        st.lists(st.integers(domain.lo, domain.hi), min_size=1, max_size=40)
    )
    with pytest.MonkeyPatch.context() as patch:
        # a small bound, so a few dozen values cross it many times
        patch.setattr(order_preserving, "SPLIT_MEMO_LIMIT", 7)
        check_against_uncached(scheme, values + values)


def check_against_uncached(scheme, values):
    for value in values:
        expected = uncached(scheme, value)
        shares = scheme.split(value)
        assert shares == expected
        shares[0] += 1  # a caller's edit stays with the caller
        shares.append(-1)
        assert scheme.split(value) == expected
        for index in range(scheme.n_providers):
            assert scheme.share(value, index) == expected[index]
        assert len(scheme._memo) <= order_preserving.SPLIT_MEMO_LIMIT


def test_past_the_real_bound():
    secrets = generate_client_secrets(5, seed=3)
    limit = order_preserving.SPLIT_MEMO_LIMIT
    scheme = OrderPreservingScheme(secrets, IntegerDomain(0, 2 * limit), threshold=3)
    first = {value: scheme.split(value) for value in range(limit + 10)}
    assert len(scheme._memo) <= limit
    for value in (0, 1, limit - 1, limit, limit + 9):
        assert scheme.split(value) == first[value] == uncached(scheme, value)


@settings(max_examples=40, deadline=None)
@given(
    seeds=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
    labels=st.tuples(st.text(min_size=1, max_size=6), st.text(min_size=1, max_size=6)),
    values=st.lists(st.integers(0, 500), min_size=1, max_size=20),
)
def test_schemes_never_share_entries(seeds, labels, values):
    domain = IntegerDomain(0, 500)
    a = OrderPreservingScheme(generate_client_secrets(4, seed=seeds[0]), domain, 3, labels[0])
    b = OrderPreservingScheme(generate_client_secrets(4, seed=seeds[1]), domain, 3, labels[1])
    for value in values:
        a.split(value)
    for value in values:
        assert b.split(value) == uncached(b, value)
        assert a.split(value) == uncached(a, value)
    if seeds[0] != seeds[1] or labels[0] != labels[1]:
        assert all(a.split(v) != b.split(v) for v in values)


def test_out_of_domain_values_raise_and_are_not_memoized():
    scheme = OrderPreservingScheme(
        generate_client_secrets(3, seed=1), IntegerDomain(0, 9), threshold=2
    )
    for _ in range(2):
        with pytest.raises(DomainError):
            scheme.split(10)
        with pytest.raises(DomainError):
            scheme.share(-1, 0)
    assert scheme._memo == {}


def test_threads_sharing_one_scheme_get_uncached_results():
    """Client threads share a table's schemes; with a tiny bound and a
    short switch interval, concurrent splits, shares and clears must
    still return exactly the uncached shares."""
    scheme = OrderPreservingScheme(
        generate_client_secrets(5, seed=9), IntegerDomain(0, 63), threshold=3
    )
    expected = {value: uncached(scheme, value) for value in range(64)}
    failures = []

    def work(offset):
        for step in range(400):
            value = (offset * 7 + step) % 64
            if scheme.split(value) != expected[value]:
                failures.append(("split", value))
            index = step % 5
            if scheme.share(value, index) != expected[value][index]:
                failures.append(("share", value))

    previous = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(order_preserving, "SPLIT_MEMO_LIMIT", 5)
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
