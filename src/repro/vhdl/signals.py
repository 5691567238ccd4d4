"""Physical-signal expansion of Tydi ports into VHDL port/signal declarations.

Each logical ``Stream`` port expands into a valid/ready handshake plus data,
last, strobe, index and user wires (see :mod:`repro.spec.physical`).  Signal
direction in the VHDL entity depends on both the port direction and the
signal role: forward signals of an input port are ``in`` while its ready is
``out``, and vice versa for output ports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.model import Implementation, Port, PortDirection, Project
from repro.spec.logical_types import Stream
from repro.spec.physical import PhysicalSignal, expand_stream
from repro.utils.names import sanitize_identifier


def vhdl_identifier(name: str) -> str:
    """Sanitise a name into a VHDL identifier."""
    return sanitize_identifier(name)


def vhdl_type(width: int) -> str:
    """VHDL type for a signal of ``width`` bits."""
    if width <= 1:
        return "std_logic"
    return f"std_logic_vector({width - 1} downto 0)"


@dataclass(frozen=True)
class VhdlPortSignal:
    """One VHDL-level port signal derived from a Tydi port."""

    name: str
    width: int
    mode: str  # "in" | "out"
    origin: str  # name of the physical-stream signal ("data", "valid", ...)
    tydi_port: str

    def declaration(self) -> str:
        return f"{self.name} : {self.mode} {vhdl_type(self.width)}"

    def signal_declaration(self, prefix: str = "") -> str:
        return f"signal {prefix}{self.name} : {vhdl_type(self.width)};"


def _signal_mode(port_direction: PortDirection, signal: PhysicalSignal) -> str:
    """VHDL mode of one physical signal on an entity port."""
    forward_in = port_direction is PortDirection.IN
    if signal.role == "forward":
        return "in" if forward_in else "out"
    return "out" if forward_in else "in"


#: Bound of the :func:`port_signals` memo; at capacity it is cleared
#: wholesale, like the logical-type intern table.
_PORT_SIGNALS_CAPACITY = 4096
_port_signals_memo: dict[tuple, tuple[VhdlPortSignal, ...]] = {}


def port_signals(port: Port) -> list[VhdlPortSignal]:
    """Expand a Tydi port into its VHDL port signals.

    Non-stream ports (which the DRC flags with a warning) are rendered as a
    plain data bus with a valid/ready handshake so the output is still
    self-consistent.

    Memoised on everything the expansion reads -- the port's name,
    direction and (immutable, structurally hashed) logical type -- so each
    distinct port type is expanded once rather than once per instance port.
    Every call returns a fresh list; an unhashable type skips the memo.
    """
    key = (port.name, port.direction, port.logical_type)
    try:
        cached = _port_signals_memo.get(key)
    except TypeError:
        return list(_expand_port(port))
    if cached is None:
        cached = _expand_port(port)
        if len(_port_signals_memo) >= _PORT_SIGNALS_CAPACITY:
            _port_signals_memo.clear()
        _port_signals_memo[key] = cached
    return list(cached)


def _expand_port(port: Port) -> tuple[VhdlPortSignal, ...]:
    base = vhdl_identifier(port.name)
    if isinstance(port.logical_type, Stream):
        return tuple(
            VhdlPortSignal(
                name=f"{base}_{signal.name}",
                width=signal.width,
                mode=_signal_mode(port.direction, signal),
                origin=signal.name,
                tydi_port=port.name,
            )
            for signal in expand_stream(port.logical_type).signals
        )
    width = max(1, port.logical_type.bit_width())
    forward_mode = "in" if port.direction is PortDirection.IN else "out"
    reverse_mode = "out" if port.direction is PortDirection.IN else "in"
    return (
        VhdlPortSignal(f"{base}_valid", 1, forward_mode, "valid", port.name),
        VhdlPortSignal(f"{base}_ready", 1, reverse_mode, "ready", port.name),
        VhdlPortSignal(f"{base}_data", width, forward_mode, "data", port.name),
    )


#: Interconnect signals created for one connection, by physical role
#: (``"valid"``, ``"data"``, ...).  Shared by the HDL backends: VHDL signals
#: and Verilog wires carry the same names.
Net = dict[str, VhdlPortSignal]


def connection_nets(
    project: Project, implementation: Implementation
) -> tuple[list[Net], dict[str, Net]]:
    """One net per connection of ``implementation``, plus the endpoint map.

    Each net copies the source port's signals under a
    ``net_<index>_<source>`` prefix.  The map sends both endpoints of a
    connection (``str(PortRef)``) to its net; later connections win, as
    emission has always resolved duplicates.
    """
    nets: list[Net] = []
    endpoint_net: dict[str, Net] = {}
    for index, connection in enumerate(implementation.connections):
        source_port = project.resolve_port(implementation, connection.source)
        prefix = f"net_{index}_{vhdl_identifier(str(connection.source)).lower()}"
        net = {
            signal.origin: VhdlPortSignal(
                name=f"{prefix}_{signal.origin}",
                width=signal.width,
                mode=signal.mode,
                origin=signal.origin,
                tydi_port=signal.tydi_port,
            )
            for signal in port_signals(source_port)
        }
        nets.append(net)
        endpoint_net[str(connection.source)] = net
        endpoint_net[str(connection.sink)] = net
    return nets, endpoint_net


def data_width_of(port: Port) -> int:
    """Total data width of a port (used by the primitive generators)."""
    if isinstance(port.logical_type, Stream):
        return max(1, expand_stream(port.logical_type).signal("data").width) if any(
            s.name == "data" for s in expand_stream(port.logical_type).signals
        ) else 1
    return max(1, port.logical_type.bit_width())


def last_width_of(port: Port) -> int:
    """Width of the ``last`` signal of a port, 0 when absent."""
    if isinstance(port.logical_type, Stream):
        physical = expand_stream(port.logical_type)
        for signal in physical.signals:
            if signal.name == "last":
                return signal.width
    return 0
