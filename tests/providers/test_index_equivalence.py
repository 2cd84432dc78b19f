"""Property tests: bulk index loads equal the incremental index paths.

:meth:`SortedShareIndex.bulk_load` folds a batch into the sorted entries
with one C-level sort.  For any interleaving of bulk batches (duplicate
shares, empty batches, batches wholly below or above the entries already
held), single inserts and removes, the entries must equal the sorted
multiset of everything applied, and the numpy mirror's probes
(``vector_range``/``vector_count``) must agree with the bisect probes.
:meth:`ShareTable.insert_many` must leave the same columns, indexes,
``version`` and undo history as the same rows inserted one at a time —
including when a batch holds an invalid row.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.errors import ProviderError
from repro.providers.storage import ShareTable, SortedShareIndex

HAS_NUMPY = "numpy" in kernels.available_backends()

#: a narrow share range makes duplicate shares common; the wide tail
#: reaches past uint64, where the mirror must decline
shares = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.integers(min_value=1 << 64, max_value=1 << 70),
)
bounds = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=45),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
)


@pytest.fixture(autouse=True)
def numpy_backend():
    """Run on the numpy backend when installed, so the mirror is live."""
    if HAS_NUMPY:
        previous = kernels.set_kernel_backend("numpy")
        try:
            yield
        finally:
            kernels.set_kernel_backend(previous)
    else:
        yield


def check_probes(index, reference, probes):
    assert index.entries_in_order() == sorted(reference)
    assert len(index) == len(reference)
    for low, high, low_inclusive, high_inclusive in probes:
        flags = {"low_inclusive": low_inclusive, "high_inclusive": high_inclusive}
        expected = index.range_row_ids(low, high, **flags)
        assert expected == [
            rid
            for share, rid in sorted(reference)
            if (low is None or share > low or (low_inclusive and share == low))
            and (high is None or share < high or (high_inclusive and share == high))
        ]
        vector = index.vector_range(low, high, **flags)
        count = index.vector_count(low, high, **flags)
        if not HAS_NUMPY:
            assert vector is None and count is None
        elif vector is not None:
            assert [int(rid) for rid in vector] == expected
            assert count == len(expected)
        else:
            assert count is None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_interleaved_index_operations_equal_sorted_multiset(data):
    index = SortedShareIndex("c")
    reference = []
    next_rid = 0
    for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
        op = data.draw(
            st.sampled_from(["bulk", "below", "above", "empty", "insert", "remove"])
        )
        if op == "remove" and reference:
            entry = data.draw(st.sampled_from(sorted(reference)))
            index.remove(*entry)
            reference.remove(entry)
        elif op == "insert":
            entry = (data.draw(shares), next_rid)
            next_rid += 1
            index.insert(*entry)
            reference.append(entry)
        elif op != "remove":
            size = 0 if op == "empty" else data.draw(st.integers(1, 30))
            batch_shares = data.draw(st.lists(shares, min_size=size, max_size=size))
            if op == "below" and reference:
                floor = min(reference)[0]
                batch_shares = [floor - 1 - (s % 50) for s in batch_shares]
            elif op == "above" and reference:
                ceiling = max(reference)[0]
                batch_shares = [ceiling + 1 + (s % 50) for s in batch_shares]
            if data.draw(st.booleans()) and batch_shares:
                # duplicate shares within the batch
                batch_shares += batch_shares[: len(batch_shares) // 2 + 1]
            batch = []
            for share in batch_shares:
                batch.append((share, next_rid))
                next_rid += 1
            index.bulk_load(data.draw(st.permutations(batch)))
            reference.extend(batch)
        probes = data.draw(
            st.lists(
                st.tuples(bounds, bounds, st.booleans(), st.booleans()),
                min_size=1,
                max_size=4,
            )
        )
        check_probes(index, reference, probes)


COLUMNS = ["a", "b", "v"]

valid_rows = st.fixed_dictionaries(
    {"a": st.integers(0, 20)},
    optional={"b": st.one_of(st.none(), st.integers(0, 20)), "v": st.integers()},
)
invalid_rows = st.fixed_dictionaries({"zzz": st.integers(0, 3)})


@st.composite
def batches(draw):
    """Row batches over a small row-id space, so re-used ids (within a
    batch or across batches) are common; some rows name unknown columns."""
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        rows = draw(
            st.lists(
                st.tuples(
                    st.integers(0, 40),
                    st.one_of(valid_rows, valid_rows, valid_rows, invalid_rows),
                ),
                min_size=1,
                max_size=12,
            )
        )
        epoch = draw(st.one_of(st.none(), st.integers(0, 200)))
        out.append((rows, epoch))
    return out


def table_state(table):
    return (
        table.rows,
        table.all_row_ids(),
        {column: table.index_for(column).entries_in_order() for column in ("a", "b")},
        table.version,
        list(table.history),
        table.epoch,
        table.history_floor,
    )


@settings(max_examples=150, deadline=None)
@given(batches())
def test_insert_many_equals_single_inserts(sequence):
    bulk = ShareTable("T", COLUMNS, searchable=["a", "b"], history_retention=50)
    single = ShareTable("T", COLUMNS, searchable=["a", "b"], history_retention=50)
    for rows, epoch in sequence:
        bulk_error = single_error = None
        try:
            assert bulk.insert_many([(rid, dict(r)) for rid, r in rows], epoch) == len(rows)
        except ProviderError as exc:
            bulk_error = str(exc)
        try:
            for rid, values in rows:
                single.insert(rid, dict(values), epoch=epoch)
        except ProviderError as exc:
            single_error = str(exc)
        assert bulk_error == single_error
        assert table_state(bulk) == table_state(single)


def test_empty_batch_changes_only_the_epoch():
    """An empty batch is not n=0 single inserts in one respect: a stamped
    empty RPC still advances the table's epoch high-water mark."""
    table = ShareTable("T", COLUMNS, searchable=["a", "b"])
    table.insert_many([(1, {"a": 1})], epoch=3)
    before = table_state(table)
    assert table.insert_many([], epoch=7) == 0
    after = table_state(table)
    assert after[:5] == before[:5]
    assert (before[5], after[5]) == (3, 7)
