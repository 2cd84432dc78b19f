"""Unit tests for the simulated network and byte accounting."""

from collections import OrderedDict, defaultdict
from decimal import Decimal
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.network import (
    LatencyModel,
    NetworkStats,
    SimulatedNetwork,
    measure_bytes,
)


class TestMeasureBytes:
    def test_primitives(self):
        assert measure_bytes(None) == 1
        assert measure_bytes(True) == 1
        assert measure_bytes(0) == 3  # 2 header + 1 magnitude byte
        assert measure_bytes(255) == 3
        assert measure_bytes(256) == 4
        assert measure_bytes(1.5) == 9

    def test_big_integers_cost_more(self):
        small = measure_bytes(100)
        huge = measure_bytes(2**200)
        assert huge > small + 20

    def test_negative_magnitude(self):
        assert measure_bytes(-256) == measure_bytes(256)

    def test_strings_and_bytes(self):
        assert measure_bytes("abc") == 5
        assert measure_bytes(b"abc") == 5
        assert measure_bytes("é") == 2 + 2  # UTF-8 two bytes

    def test_decimal(self):
        assert measure_bytes(Decimal("1.25")) == 2 + 4

    def test_containers(self):
        assert measure_bytes([1, 2]) == 4 + 3 + 3
        assert measure_bytes((1,)) == 4 + 3
        assert measure_bytes({"a": 1}) == 4 + 3 + 3

    def test_nested(self):
        payload = {"rows": [[1, {"k": 2}]]}
        assert measure_bytes(payload) > 0

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            measure_bytes(object())


class TestLatencyModel:
    def test_transfer_time(self):
        model = LatencyModel(rtt_seconds=0.1, bandwidth_bits_per_second=1000)
        # 125 bytes = 1000 bits → 1 s + half-RTT
        assert model.transfer_seconds(125) == pytest.approx(1.05)


class TestNetworkStats:
    def test_per_link_breakdown(self):
        stats = NetworkStats()
        stats.record("c", "s1", 100)
        stats.record("c", "s2", 50)
        stats.record("s1", "c", 30)
        assert stats.bytes_between("c", "s1") == 100
        assert stats.bytes_to("c") == 30
        assert stats.bytes_from("c") == 150
        assert stats.messages_sent == 3
        assert stats.snapshot() == {"messages": 3, "bytes": 180}


class TestSimulatedNetwork:
    def test_send_accounts(self):
        network = SimulatedNetwork()
        size = network.send("a", "b", {"x": [1, 2, 3]})
        assert size == measure_bytes({"x": [1, 2, 3]})
        assert network.total_bytes == size
        assert network.total_messages == 1
        assert network.modelled_seconds > 0

    def test_reset(self):
        network = SimulatedNetwork()
        network.send("a", "b", 42)
        network.reset()
        assert network.total_bytes == 0
        assert network.modelled_seconds == 0.0


def _reference_measure_bytes(payload: object) -> int:
    """The recursive ``isinstance`` sizer, frozen as the oracle for the
    type-dispatched one: every size must stay byte-identical."""
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        magnitude = abs(payload)
        return 2 + max(1, (magnitude.bit_length() + 7) // 8)
    if isinstance(payload, float):
        return 9
    if isinstance(payload, Decimal):
        return 2 + len(str(payload))
    if isinstance(payload, str):
        return 2 + len(payload.encode("utf-8"))
    if isinstance(payload, bytes):
        return 2 + len(payload)
    if isinstance(payload, (list, tuple)):
        return 4 + sum(_reference_measure_bytes(item) for item in payload)
    if isinstance(payload, dict):
        return 4 + sum(
            _reference_measure_bytes(k) + _reference_measure_bytes(v)
            for k, v in payload.items()
        )
    if hasattr(payload, "wire_size"):
        return payload.wire_size()
    raise TypeError(
        f"cannot size object of type {type(payload).__name__} for the wire"
    )


class Color(IntEnum):
    RED = 1
    BLUE = 300


class Sized:
    def __init__(self, size: int) -> None:
        self.size = size

    def wire_size(self) -> int:
        return self.size


leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.just(0),
    st.integers(),
    st.integers(max_value=-1),
    st.integers(min_value=2**100, max_value=2**400),
    st.integers(min_value=-(2**400), max_value=-(2**100)),
    st.decimals(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False),
    st.binary(max_size=20),
    st.text(max_size=12),
    st.sampled_from(list(Color)),
    st.integers(0, 1000).map(Sized),
)
keys = st.one_of(st.text(max_size=8), st.integers(), st.booleans())
payloads = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
        st.dictionaries(keys, children, max_size=5).map(OrderedDict),
        st.dictionaries(keys, children, max_size=5).map(
            lambda d: defaultdict(list, d)
        ),
    ),
    max_leaves=40,
)


class TestMeasureBytesMatchesReference:
    @given(payload=payloads)
    @settings(max_examples=300, deadline=None)
    def test_generated_payloads(self, payload):
        assert measure_bytes(payload) == _reference_measure_bytes(payload)

    def test_share_row_response(self):
        payload = {
            "rows": [
                (row_id, {"eid": 2**95 + row_id, "name": -(2**118), "x": None})
                for row_id in range(50)
            ],
            "epoch": 0,
        }
        assert measure_bytes(payload) == _reference_measure_bytes(payload)

    @pytest.mark.parametrize(
        "payload", [object(), [1, {"k": object()}], ({2: 3j},)]
    )
    def test_unknown_type_error_unchanged(self, payload):
        with pytest.raises(TypeError) as want:
            _reference_measure_bytes(payload)
        with pytest.raises(TypeError) as got:
            measure_bytes(payload)
        assert str(got.value) == str(want.value)
