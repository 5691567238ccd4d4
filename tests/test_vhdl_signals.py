"""Unit tests for VHDL signal expansion of Tydi ports."""

from repro.ir.model import Port, PortDirection
from repro.spec.logical_types import Bit, Group, LogicalType, Stream
from repro.vhdl import signals
from repro.vhdl.signals import data_width_of, last_width_of, port_signals, vhdl_identifier, vhdl_type


def stream_port(name="data", direction=PortDirection.IN, **kwargs):
    return Port(name, Stream.new(Group.of("G", a=Bit(8), b=Bit(8)), **kwargs), direction)


class TestVhdlType:
    def test_single_bit(self):
        assert vhdl_type(1) == "std_logic"
        assert vhdl_type(0) == "std_logic"

    def test_vector(self):
        assert vhdl_type(16) == "std_logic_vector(15 downto 0)"


class TestPortSignals:
    def test_input_port_directions(self):
        signals = {s.origin: s for s in port_signals(stream_port(direction=PortDirection.IN))}
        assert signals["valid"].mode == "in"
        assert signals["ready"].mode == "out"
        assert signals["data"].mode == "in"

    def test_output_port_directions(self):
        signals = {s.origin: s for s in port_signals(stream_port(direction=PortDirection.OUT))}
        assert signals["valid"].mode == "out"
        assert signals["ready"].mode == "in"
        assert signals["data"].mode == "out"

    def test_signal_names_prefixed_with_port(self):
        signals = port_signals(stream_port(name="input"))
        assert all(s.name.startswith("input_") for s in signals)

    def test_data_width(self):
        signals = {s.origin: s for s in port_signals(stream_port())}
        assert signals["data"].width == 16

    def test_dimension_adds_last(self):
        signals = {s.origin: s for s in port_signals(stream_port(dimension=2))}
        assert signals["last"].width == 2

    def test_non_stream_port_gets_handshake(self):
        port = Port("raw", Bit(8), PortDirection.IN)
        signals = {s.origin: s for s in port_signals(port)}
        assert set(signals) == {"valid", "ready", "data"}
        assert signals["data"].width == 8

    def test_declaration_rendering(self):
        decl = port_signals(stream_port())[0].declaration()
        assert " : in " in decl or " : out " in decl


class TestWidthHelpers:
    def test_data_width_of(self):
        assert data_width_of(stream_port()) == 16
        assert data_width_of(Port("x", Bit(5), PortDirection.IN)) == 5

    def test_last_width_of(self):
        assert last_width_of(stream_port(dimension=3)) == 3
        assert last_width_of(stream_port()) == 0
        assert last_width_of(Port("x", Bit(5), PortDirection.IN)) == 0

    def test_identifier_sanitized(self):
        assert vhdl_identifier("my port") == "my_port"


class TestPortSignalsMemo:
    """``port_signals`` is memoised on (name, direction, logical type)."""

    def test_structurally_equal_anonymous_types_give_equal_signals(self):
        first = Stream.new(Group.of(None, a=Bit(8), b=Bit(4)), dimension=1)
        second = Stream.new(Group.of(None, a=Bit(8), b=Bit(4)), dimension=1)
        assert first is not second  # anonymous types are never interned
        assert port_signals(Port("p", first, PortDirection.IN)) == port_signals(
            Port("p", second, PortDirection.IN)
        )

    def test_name_and_direction_are_part_of_the_key(self):
        logical_type = Stream.new(Bit(8), dimension=1)
        base = port_signals(Port("p", logical_type, PortDirection.IN))
        renamed = port_signals(Port("q", logical_type, PortDirection.IN))
        flipped = port_signals(Port("p", logical_type, PortDirection.OUT))
        assert [s.name for s in renamed] == [s.name.replace("p_", "q_", 1) for s in base]
        assert {s.tydi_port for s in renamed} == {"q"}
        assert [s.mode for s in flipped] == [
            "in" if s.mode == "out" else "out" for s in base
        ]

    def test_returned_list_is_fresh(self):
        port = stream_port(name="fresh")
        first = port_signals(port)
        expected = list(first)
        first.clear()
        first.append("junk")
        assert port_signals(port) == expected
        assert port_signals(port) is not port_signals(port)

    def test_unhashable_type_skips_the_memo(self):
        class Opaque(LogicalType):
            __hash__ = None

            def bit_width(self):
                return 3

            def to_tydi(self):
                return "Opaque"

        port = Port("raw", Opaque(), PortDirection.OUT)
        signals = {s.origin: s for s in port_signals(port)}
        assert set(signals) == {"valid", "ready", "data"}
        assert signals["data"].width == 3
        assert signals["ready"].mode == "in"

    def test_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(signals, "_PORT_SIGNALS_CAPACITY", 4)
        signals._port_signals_memo.clear()
        for index in range(10):
            names = {s.name for s in port_signals(stream_port(name=f"p{index}"))}
            assert f"p{index}_valid" in names
        assert len(signals._port_signals_memo) <= 4
