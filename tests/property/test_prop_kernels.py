"""Property tests: batched kernels are bit-identical to the naive paths.

The kernel layer (:mod:`repro.core.kernels`) replaces per-value polynomial
construction and per-cell Lagrange interpolation with cached power tables
and cached basis weights.  These tests pin the contract that made the swap
safe: for random ``(n, k)`` shapes and random data, the batched paths
produce *exactly* the bytes the naive reference paths produce — including
over-determined reconstruction where more than ``k`` shares are supplied.
The order-preserving batches of :meth:`TableSharing.reconstruct_rows` are
held to the cell-by-cell ``Fraction`` decode the same way, errors included.
"""

import contextlib
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import kernels
from repro.core.field import DEFAULT_FIELD
from repro.core.polynomial import (
    IntegerPolynomial,
    interpolate_integer_constant,
    lagrange_constant_term,
    random_field_polynomial,
)
from repro.core.scheme import TableSharing
from repro.core.secrets import generate_client_secrets
from repro.core.shamir import ShamirScheme
from repro.errors import ReconstructionError
from repro.sim.rng import DeterministicRNG
from repro.sqlengine.schema import (
    TableSchema,
    decimal_column,
    integer_column,
    string_column,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
shapes = st.tuples(
    st.integers(min_value=1, max_value=7),  # n
    st.integers(min_value=1, max_value=7),  # k (clamped to n below)
)
value_lists = st.lists(
    st.integers(min_value=0, max_value=DEFAULT_FIELD.modulus - 1),
    min_size=1,
    max_size=25,
)


def _scheme(n: int, k: int, seed: int) -> ShamirScheme:
    return ShamirScheme(generate_client_secrets(n, seed=seed), min(k, n))


def _naive_split(scheme, values, rng):
    """Pre-kernel reference: fresh polynomial + Horner per value."""
    return [
        random_field_polynomial(
            scheme.field, v, scheme.threshold - 1, rng
        ).evaluate_many(scheme.secrets.evaluation_points)
        for v in values
    ]


def _naive_reconstruct(scheme, shares):
    """Pre-kernel reference: Lagrange basis rebuilt for this one cell."""
    chosen = sorted(shares.items())[: scheme.threshold]
    points = [(scheme.secrets.point_for(i), y) for i, y in chosen]
    return lagrange_constant_term(scheme.field, points)


@given(shape=shapes, values=value_lists, seed=seeds)
@settings(max_examples=100, deadline=None)
def test_split_batch_matches_naive(shape, values, seed):
    """Kernel split_batch emits the byte-identical shares, same RNG stream."""
    n, k = shape
    scheme = _scheme(n, k, seed % 1000)
    naive = _naive_split(scheme, values, DeterministicRNG(seed, "ker"))
    batched = scheme.split_batch(values, DeterministicRNG(seed, "ker"))
    assert batched == naive


@given(shape=shapes, values=value_lists, seed=seeds)
@settings(max_examples=100, deadline=None)
def test_batch_reconstruct_matches_naive(shape, values, seed):
    """Batched reconstruction equals per-cell naive interpolation exactly."""
    n, k = shape
    scheme = _scheme(n, k, seed % 1000)
    share_rows = scheme.split_batch(values, DeterministicRNG(seed, "r"))
    cells = [
        {i: row[i] for i in range(scheme.threshold)} for row in share_rows
    ]
    naive = [_naive_reconstruct(scheme, c) for c in cells]
    assert scheme.reconstruct_batch(cells) == naive == values


@given(shape=shapes, values=value_lists, seed=seeds, extra=st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_overdetermined_reconstruction(shape, values, seed, extra):
    """Supplying more than k shares changes nothing: both paths pick the
    same lowest-index quorum and agree with the secrets."""
    n, k = shape
    scheme = _scheme(n, k, seed % 1000)
    width = min(scheme.threshold + extra, n)
    share_rows = scheme.split_batch(values, DeterministicRNG(seed, "o"))
    cells = [{i: row[i] for i in range(width)} for row in share_rows]
    naive = [_naive_reconstruct(scheme, c) for c in cells]
    assert scheme.reconstruct_batch(cells) == naive == values
    for cell, value in zip(cells, values):
        assert scheme.reconstruct(cell) == value


@given(values=value_lists, seed=seeds)
@settings(max_examples=50, deadline=None)
def test_mixed_quorum_shapes_in_one_batch(values, seed):
    """A single batch may mix quorum subsets (different providers answered
    different rows); grouping by evaluation-point tuple must not reorder
    or cross-contaminate results."""
    scheme = _scheme(5, 3, seed % 1000)
    share_rows = scheme.split_batch(values, DeterministicRNG(seed, "m"))
    quorums = ((0, 1, 2), (1, 3, 4), (0, 2, 4))
    cells = [
        {i: row[i] for i in quorums[idx % len(quorums)]}
        for idx, row in enumerate(share_rows)
    ]
    assert scheme.reconstruct_batch(cells) == values


def test_weight_cache_hit_across_batch():
    """One weight-table build serves every subsequent cell of a batch."""
    scheme = _scheme(5, 3, 7)
    values = list(range(50))
    share_rows = scheme.split_batch(values, DeterministicRNG(7, "c"))
    cells = [{i: row[i] for i in range(3)} for row in share_rows]
    kernels.clear_kernel_caches()
    assert scheme.reconstruct_batch(cells) == values
    stats = kernels.kernel_stats()
    assert stats.weight_misses == 1
    # per-cell path reuses the same cached weights
    for cell, value in zip(cells, values):
        assert scheme.reconstruct(cell) == value
    assert kernels.kernel_stats().weight_misses == 1
    assert kernels.kernel_stats().weight_hits >= len(cells)


# ---------------------------------------------------------------------------
# order-preserving batches: TableSharing.reconstruct_rows
# ---------------------------------------------------------------------------

OP_SCHEMA = TableSchema(
    "P",
    (
        integer_column("id", 1, 100_000),
        string_column("name", 6, nullable=True),
        decimal_column("price", 0, 1000, scale=2, nullable=True),
        integer_column("secret", -500, 500, searchable=False, nullable=True),
    ),
    primary_key="id",
)
OP_COLUMNS = ("id", "name", "price")
N_PROVIDERS = 5

backends = pytest.mark.parametrize("backend", kernels.available_backends())


@contextlib.contextmanager
def _backend(name):
    previous = kernels.set_kernel_backend(name)
    try:
        yield
    finally:
        kernels.set_kernel_backend(previous)


def _sharing(k: int = 3, seed: int = 5) -> TableSharing:
    return TableSharing(
        OP_SCHEMA,
        generate_client_secrets(N_PROVIDERS, seed=seed),
        k,
        DeterministicRNG(seed),
    )


def _reference_rows(sharing, share_rows_list):
    """The cell-by-cell decode the batched path replaces.

    Column-major, one cell at a time, ``Fraction`` interpolation through
    :func:`interpolate_integer_constant`; random columns decode after
    the column's NULL checks, as the batched path does.
    """
    k = sharing.threshold
    for share_rows in share_rows_list:
        if len(share_rows) < k:
            raise ReconstructionError(
                f"need shares from at least k={k} providers, "
                f"got {len(share_rows)}"
            )
    out = [{} for _ in share_rows_list]
    field = sharing.random_scheme.field
    for column in sharing.schema.column_names:
        random_cells = []
        for position, share_rows in enumerate(share_rows_list):
            shares = {i: row.get(column) for i, row in share_rows.items()}
            non_null = {i: s for i, s in shares.items() if s is not None}
            if not non_null:
                out[position][column] = None
                continue
            if len(non_null) != len(shares):
                raise ReconstructionError(
                    f"column {column}: NULL-presence disagreement across "
                    f"providers {sorted(set(shares) - set(non_null))}"
                )
            chosen = sorted(non_null.items())[:k]
            points = [(sharing.secrets.point_for(i), s) for i, s in chosen]
            if sharing.is_searchable(column):
                encoded = interpolate_integer_constant(points)
                domain = sharing.op_scheme(column).domain
                if not domain.contains(encoded):
                    raise ReconstructionError(
                        f"reconstructed value {encoded} outside domain "
                        f"[{domain.lo}, {domain.hi}]; shares are corrupt"
                    )
                out[position][column] = sharing.decode(column, encoded)
            else:
                random_cells.append((position, points))
        for position, points in random_cells:
            element = lagrange_constant_term(field, points)
            out[position][column] = sharing.decode(
                column, field.decode_signed(element)
            )
    return out


def _outcome(decode, sharing, share_rows_list):
    """Rows, or the (type, message) of the error the decode raised."""
    try:
        return decode(sharing, share_rows_list)
    except ReconstructionError as exc:
        return type(exc), str(exc)


def _batched(sharing, share_rows_list):
    return sharing.reconstruct_rows(share_rows_list)


plain_rows = st.lists(
    st.fixed_dictionaries(
        {
            "id": st.integers(1, 100_000),
            "name": st.none() | st.text("ABCXYZ", min_size=1, max_size=6),
            "price": st.none()
            | st.integers(0, 100_000).map(lambda c: Decimal(c) / 100),
            "secret": st.none() | st.integers(-500, 500),
        }
    ),
    min_size=1,
    max_size=30,
)
quorum_picks = st.lists(
    st.sets(st.integers(0, N_PROVIDERS - 1), min_size=2, max_size=N_PROVIDERS),
    min_size=1,
    max_size=30,
)


def _quorum_rows(sharing, rows, picks):
    """Each row's share rows from a per-row provider subset (≥ k)."""
    k = sharing.threshold
    out = []
    for position, row in enumerate(rows):
        shares = sharing.share_row(row)
        pick = set(picks[position % len(picks)])
        for extra in range(N_PROVIDERS):
            if len(pick) >= k:
                break
            pick.add(extra)
        out.append({i: shares[i] for i in sorted(pick)})
    return out


@backends
@given(rows=plain_rows, picks=quorum_picks, k=st.integers(2, 4), seed=seeds)
@settings(max_examples=60, deadline=None)
def test_op_batch_matches_cell_by_cell(backend, rows, picks, k, seed):
    """Random point subsets, mixed quorum shapes in one result and NULL
    columns decode exactly as the cell-by-cell ``Fraction`` path, and
    round-trip to the plaintext."""
    sharing = _sharing(k, seed % 1000)
    share_rows_list = _quorum_rows(sharing, rows, picks)
    with _backend(backend):
        batched = sharing.reconstruct_rows(share_rows_list)
    assert batched == _reference_rows(sharing, share_rows_list) == rows


@given(
    xs=st.lists(st.integers(1, 1 << 20), min_size=1, max_size=6, unique=True),
    values=st.lists(st.integers(-(1 << 40), 1 << 40), min_size=1, max_size=20),
    seed=seeds,
)
@settings(max_examples=100, deadline=None)
def test_interpolate_integers_matches_fraction_path(xs, values, seed):
    """The integer kernel equals ``interpolate_integer_constant`` per cell,
    exact integers and non-integers alike."""
    rng = DeterministicRNG(seed, "int")
    vectors = []
    for value in values:
        coeffs = (value,) + tuple(
            rng.randint(0, 1 << 40) for _ in range(len(xs) - 1)
        )
        ys = IntegerPolynomial(coeffs).evaluate_many(xs)
        if rng.random() < 0.3:
            ys[rng.randint(0, len(ys) - 1)] += rng.randint(1, 1000)
        vectors.append(ys)
    got = kernels.interpolate_integers(xs, vectors)
    for ys, value in zip(vectors, got):
        try:
            expected = interpolate_integer_constant(list(zip(xs, ys)))
        except ReconstructionError as exc:
            assert str(exc) == str(kernels.non_integer_error(value))
        else:
            assert value == expected and type(value) is int


@backends
@given(
    rows=plain_rows,
    picks=quorum_picks,
    victim=st.tuples(
        st.integers(0, 10_000), st.sampled_from(("name", "price", "secret"))
    ),
)
@settings(max_examples=40, deadline=None)
def test_null_presence_disagreement_matches(backend, rows, picks, victim):
    """A share flipped to or from NULL raises the same error, for the same
    cell, as the cell-by-cell path."""
    sharing = _sharing()
    share_rows_list = _quorum_rows(sharing, rows, picks)
    position, column = victim
    share_rows = share_rows_list[position % len(share_rows_list)]
    provider = sorted(share_rows)[-1]
    cell = share_rows[provider].get(column)
    share_rows[provider][column] = 1 if cell is None else None
    with _backend(backend):
        got = _outcome(_batched, sharing, share_rows_list)
    want = _outcome(_reference_rows, sharing, share_rows_list)
    assert got == want
    assert got[0] is ReconstructionError
    assert "NULL-presence disagreement" in got[1]


_BIG_ROWS = [
    {
        "id": 1 + (i * 7919) % 100_000,
        "name": None if i % 7 == 0 else "ABC"[: 1 + i % 3] + "XYZ"[: i % 4],
        "price": Decimal(i % 1000) / 4,
        "secret": (i * 31) % 1001 - 500,
    }
    for i in range(1000)
]
_BIG_SHARING = _sharing()
_BIG_SHARES = [_BIG_SHARING.share_row(row) for row in _BIG_ROWS]


def _big_batch():
    """1000 rows, fresh share-row dicts, three quorum shapes."""
    shapes = ((0, 1, 2), (1, 3, 4), (0, 2, 4), (0, 1, 2, 3, 4))
    return [
        {i: dict(shares[i]) for i in shapes[position % len(shapes)]}
        for position, shares in enumerate(_BIG_SHARES)
    ]


@backends
@given(
    tampers=st.lists(
        st.tuples(
            st.integers(0, 999),
            st.sampled_from(OP_COLUMNS),
            st.integers(0, 2),
            st.none() | st.integers(1, 1000),
        ),
        min_size=1,
        max_size=3,
    )
)
# a tampered cell ahead of a NULL-presence flip in the same column
@example(tampers=[(10, "id", 0, 1), (500, "id", 1, None)])
@settings(max_examples=25, deadline=None)
def test_tampered_share_in_large_batch_raises_first_cell(backend, tampers):
    """Tampered order-preserving shares anywhere in a 1000-row batch raise
    a ReconstructionError for the first bad cell in result order, with the
    cell-by-cell path's message; one tamper always raises.  An offset of
    None flips the share to or from NULL instead."""
    batch = _big_batch()
    for position, column, slot, offset in tampers:
        share_rows = batch[position]
        provider = sorted(share_rows)[slot]  # inside the decoding quorum
        share = share_rows[provider][column]
        if offset is None:
            share_rows[provider][column] = 1 if share is None else None
        elif share is not None:
            share_rows[provider][column] = share + offset
    with _backend(backend):
        got = _outcome(_batched, _BIG_SHARING, batch)
    want = _outcome(_reference_rows, _BIG_SHARING, batch)
    assert got == want
    position, column, _, offset = tampers[0]
    if len(tampers) == 1 and (
        offset is None or _BIG_ROWS[position][column] is not None
    ):
        assert got[0] is ReconstructionError


@backends
def test_out_of_domain_integer_raises_domain_error(backend):
    """Shares of an integer polynomial whose constant lies outside the
    column's domain still raise the domain error."""
    sharing = _sharing()
    xs = sharing.secrets.evaluation_points
    batch = _big_batch()[:50]
    hi = sharing.op_scheme("id").domain.hi
    bad = IntegerPolynomial((hi + 5, 11, 13)).evaluate_many(xs)
    for i, share_rows in batch[20].items():
        share_rows["id"] = bad[i]
    with _backend(backend):
        got = _outcome(_batched, sharing, batch)
    assert got == _outcome(_reference_rows, sharing, batch)
    assert got == (
        ReconstructionError,
        f"reconstructed value {hi + 5} outside domain [1, {hi}]; "
        "shares are corrupt",
    )


def test_op_weight_lookups_count_one_per_cell():
    """The rational hit/miss counters record one lookup per OP cell."""
    sharing = _sharing()
    batch = [
        {i: shares[i] for i in (0, 1, 2)} for shares in _BIG_SHARES[:40]
    ]
    op_cells = sum(
        1
        for shares in _BIG_SHARES[:40]
        for column in OP_COLUMNS
        if shares[0][column] is not None
    )
    kernels.clear_kernel_caches()
    sharing.reconstruct_rows(batch)
    stats = kernels.kernel_stats()
    assert stats.rational_misses == 1
    assert stats.rational_hits + stats.rational_misses == op_cells
