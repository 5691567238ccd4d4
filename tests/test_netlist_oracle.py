"""Independent netlist oracle for the HDL backends.

The goldens pin the emitted bytes; this suite checks what the bytes *mean*.
It parses the VHDL port maps and Verilog instantiations back into
``(instance, port, net)`` triples -- resolving the ``<=`` / ``assign``
aliases that wire an implementation's own ports to its nets -- and asserts
that they describe exactly the IR connection graph: every connection is one
net joining its two endpoints, no net joins anything else, and each port
signal lands on the net signal of the same physical role (``valid`` on
``valid``, ``ready`` on ``ready``, ...).  From the port modes of the entity,
component and module declarations it also checks that every net signal has
exactly one driver, on the side of its role: the connection's source drives
the forward signals and its sink drives ``ready``.

The parser knows only the HDL syntax and the naming convention that a
port's signals are ``<port>_<role>``; it reuses nothing from the emitters,
so an emitter refactor that rewires a design cannot also rewrite the
oracle.  The corpora are the randomized designs of :mod:`repro.testing`
and the TPC-H designs.
"""

from __future__ import annotations

import random
import re
from collections import defaultdict

import pytest

from repro.backends import get_backend
from repro.lang.compile import compile_sources
from repro.testing import build_chain_design, build_random_design, mutate_design
from repro.utils.names import sanitize_identifier

#: The parsed form of one implementation: endpoint ``(instance, port)``
#: (``instance`` is ``None`` for the implementation's own ports) -> net.
Netlist = dict[tuple[str | None, str], str]

#: Port signal -> mode (``"in"`` / ``"out"``) of one entity, component or module.
Modes = dict[str, str]

_VHDL_ENTITY = re.compile(r"^entity (\w+) is\n  port \(\n(.*?)\n  \);$", re.M | re.S)
_VHDL_COMPONENT = re.compile(r"^  component (\w+) is\n    port \(\n(.*?)\n    \);$", re.M | re.S)
_VHDL_MODE = re.compile(r"^\s*(\w+) : (in|out) ", re.M)
_VHDL_INSTANCE = re.compile(r"^  (\w+) : (\w+)\n    port map \(\n(.*?)\n    \);$", re.M | re.S)
_VHDL_MAPPING = re.compile(r"^\s*(\w+) => (.+?),?$")
_VHDL_ALIAS = re.compile(r"^  (\w+) <= (\w+);$", re.M)
_VERILOG_MODULE = re.compile(r"^module (\w+) \(\n(.*?)\n\);$", re.M | re.S)
_VERILOG_MODE = re.compile(r"^\s*(input|output)\s+wire (?:\[\d+:0\] )?(\w+),?$", re.M)
_VERILOG_INSTANCE = re.compile(r"^  (\w+) (\w+) \(\n(.*?)\n  \);$", re.M | re.S)
_VERILOG_MAPPING = re.compile(r"^\s*\.(\w+)\((.*)\),?$")
_VERILOG_ALIAS = re.compile(r"^  assign (\w+) = (\w+);$", re.M)
_VERILOG_MODES = {"input": "in", "output": "out"}

_UNCONNECTED = {"", "open", "'0'", "(others => '0')"}

#: The one physical role that travels sink -> source; every other role
#: (valid, data, last, strb, ...) travels source -> sink.
_REVERSE_ROLE = "ready"


def _split_role(signal: str) -> tuple[str, str]:
    """``"a_b_valid"`` -> ``("a_b", "valid")``: roles never contain ``_``."""
    stem, _, role = signal.rpartition("_")
    assert stem and role, f"malformed signal name {signal!r}"
    return stem, role


class _Endpoints:
    """One implementation's endpoint -> net bindings and net drivers.

    Every signal of a port must land on one net in its own role; a port
    signal drives its net when its declared mode says it does (an
    instance's ``out`` signals, the implementation's own ``in`` signals).
    """

    def __init__(self, where: str, net_signals: set[str]) -> None:
        self.where = where
        self.net_signals = net_signals
        self.bindings: Netlist = {}
        #: Net signal -> the endpoints that drive it.
        self.drivers: dict[str, list[tuple[str | None, str]]] = defaultdict(list)

    def bind(self, instance: str | None, port_signal: str, net_signal: str, drives: bool) -> None:
        port, role = _split_role(port_signal)
        net, net_role = _split_role(net_signal)
        assert role == net_role, f"{self.where}: {port_signal} wired to {net_signal}"
        endpoint = (instance, port)
        previous = self.bindings.setdefault(endpoint, net)
        assert previous == net, f"{self.where}: {endpoint} spans nets {previous} and {net}"
        if drives:
            self.drivers[net_signal].append(endpoint)


def _bind_instance(endpoints: _Endpoints, instance: str, modes: Modes, port_signal: str, net: str) -> None:
    mode = modes.get(port_signal)
    assert mode, f"{endpoints.where}: {instance}.{port_signal} has no declared mode"
    endpoints.bind(instance, port_signal, net, drives=mode == "out")


def _bind_alias(endpoints: _Endpoints, own: Modes, left: str, right: str) -> None:
    """One continuous assignment ``left <= right`` between a net signal and
    an own-port signal: an own input drives its net, an own output reads it."""
    if left in endpoints.net_signals:
        assert own.get(right) == "in", f"{endpoints.where}: net {left} driven by non-input {right}"
        endpoints.bind(None, right, left, drives=True)
    else:
        assert right in endpoints.net_signals, f"{endpoints.where}: {left} = {right} touches no net"
        assert own.get(left) == "out", f"{endpoints.where}: non-output {left} driven by net {right}"
        endpoints.bind(None, left, right, drives=False)


def _vhdl_modes(body: str) -> Modes:
    return dict(_VHDL_MODE.findall(body))


def vhdl_netlist(files: dict[str, str], filename: str) -> _Endpoints:
    """Parse one structural VHDL architecture into bindings and drivers.

    Port modes come from the file's own entity and the component
    declarations of its architecture.
    """
    text = files[filename]
    nets = set(re.findall(r"^  signal (\w+) :", text, re.M))
    endpoints = _Endpoints(f"vhdl {filename}", nets)
    (_, own_ports), = _VHDL_ENTITY.findall(text)
    own = _vhdl_modes(own_ports)
    components = {name: _vhdl_modes(body) for name, body in _VHDL_COMPONENT.findall(text)}
    for instance, component, body in _VHDL_INSTANCE.findall(text):
        for line in body.splitlines():
            match = _VHDL_MAPPING.match(line)
            assert match, f"unparsed port map line {line!r}"
            port_signal, target = match.groups()
            if port_signal in ("clk", "rst") or target in _UNCONNECTED:
                continue
            assert target in nets, f"{instance}.{port_signal} => undeclared {target}"
            _bind_instance(endpoints, instance, components[component], port_signal, target)
    for left, right in _VHDL_ALIAS.findall(text):
        _bind_alias(endpoints, own, left, right)
    return endpoints


def _verilog_modules(files: dict[str, str]) -> dict[str, Modes]:
    """Every module declared across one emission -> its port modes."""
    modules: dict[str, Modes] = {}
    for text in files.values():
        for name, ports in _VERILOG_MODULE.findall(text):
            modes = {signal: _VERILOG_MODES[mode] for mode, signal in _VERILOG_MODE.findall(ports)}
            assert modules.setdefault(name, modes) == modes, f"module {name} declared twice"
    return modules


def verilog_netlist(files: dict[str, str], filename: str) -> _Endpoints:
    """Parse one structural Verilog module into bindings and drivers.

    Port modes come from the module declarations of the whole emission
    (an instantiated module is declared in its own unit file).
    """
    text = files[filename]
    nets = set(re.findall(r"^  wire (?:\[\d+:0\] )?(\w+);$", text, re.M))
    endpoints = _Endpoints(f"verilog {filename}", nets)
    modules = _verilog_modules(files)
    (own_name, _), = _VERILOG_MODULE.findall(text)
    for module, instance, body in _VERILOG_INSTANCE.findall(text):
        for line in body.splitlines():
            match = _VERILOG_MAPPING.match(line)
            assert match, f"unparsed instantiation line {line!r}"
            port_signal, target = match.groups()
            if port_signal in ("clk", "rst") or target in _UNCONNECTED:
                continue
            assert target in nets, f"{instance}.{port_signal} -> undeclared {target}"
            _bind_instance(endpoints, instance, modules[module], port_signal, target)
    for left, right in _VERILOG_ALIAS.findall(text):
        _bind_alias(endpoints, modules[own_name], left, right)
    return endpoints


def _nets(bindings: Netlist) -> set[frozenset]:
    grouped: dict[str, set] = defaultdict(set)
    for endpoint, net in bindings.items():
        grouped[net].add(endpoint)
    return {frozenset(members) for members in grouped.values()}


def _endpoint(ref) -> tuple[str | None, str]:
    return (ref.instance, sanitize_identifier(ref.port))


def _ir_nets(implementation) -> set[frozenset]:
    """The IR connection graph: one two-endpoint net per connection."""
    return {
        frozenset({_endpoint(connection.source), _endpoint(connection.sink)})
        for connection in implementation.connections
    }


def assert_drivers_follow_roles(parsed: _Endpoints, implementation) -> None:
    """Every net signal has exactly one driver, on the side of its role:
    the connection's source drives the forward signals, its sink ``ready``."""
    connections = {}
    for connection in implementation.connections:
        connections[_endpoint(connection.source)] = connection
        connections[_endpoint(connection.sink)] = connection
    for signal in sorted(parsed.net_signals):
        drivers = parsed.drivers.get(signal, [])
        assert len(drivers) == 1, f"{parsed.where}: {signal} has drivers {drivers}"
        (driver,) = drivers
        connection = connections[driver]
        side = connection.sink if _split_role(signal)[1] == _REVERSE_ROLE else connection.source
        assert driver == _endpoint(side), f"{parsed.where}: {signal} driven by {driver}"


def assert_netlists_match_ir(project) -> int:
    """Check both HDL backends against ``project``; return nets checked."""
    emitted = {
        "vhdl": (get_backend("vhdl").emit(project), vhdl_netlist, ".vhd"),
        "verilog": (get_backend("verilog").emit(project), verilog_netlist, ".v"),
    }
    checked = 0
    for implementation in project.implementations.values():
        if implementation.external:
            continue
        expected = _ir_nets(implementation)
        assert len(expected) == len(implementation.connections), (
            f"{implementation.name}: an endpoint is shared by two connections"
        )
        for backend, (files, parse, suffix) in emitted.items():
            parsed = parse(files, f"{implementation.name}{suffix}")
            assert _nets(parsed.bindings) == expected, f"{backend} {implementation.name}"
            assert_drivers_follow_roles(parsed, implementation)
        checked += len(expected)
    return checked


# -- the parsers on a hand-checked design ------------------------------------

PIPELINE = """
type byte_t = Stream(Bit(8), d=1);
streamlet stage_s { input: byte_t in, output: byte_t out, }
external impl stage_i of stage_s;
streamlet top_s { i: byte_t in, o: byte_t out, }
impl top_i of top_s {
    instance a(stage_i),
    instance b(stage_i),
    i => a.input,
    a.output => b.input,
    b.output => o,
}
top top_i;
"""


def _pipeline_project():
    return compile_sources([(PIPELINE, "pipeline.td")], include_stdlib=False).project


#: Per backend: the unit file of ``top_i``, its parser, and the line that
#: opens instance ``b``.
_PIPELINE_FILES = {
    "vhdl": ("top_i.vhd", vhdl_netlist, "  b : stage_s\n"),
    "verilog": ("top_i.v", verilog_netlist, "  stage_s b (\n"),
}


def _pipeline_files(backend: str) -> tuple[dict[str, str], str]:
    """The emission of the pipeline design and the text of ``top_i``'s unit."""
    filename = _PIPELINE_FILES[backend][0]
    files = get_backend(backend).emit(_pipeline_project())
    return files, files[filename]


def _parse_edited(backend: str, files: dict[str, str], text: str) -> _Endpoints:
    filename, parse, _ = _PIPELINE_FILES[backend]
    return parse({**files, filename: text}, filename)


@pytest.mark.parametrize("backend", sorted(_PIPELINE_FILES))
def test_parser_recovers_the_pipeline_triples(backend):
    files, text = _pipeline_files(backend)
    bindings = _parse_edited(backend, files, text).bindings
    assert {(instance, port) for instance, port in bindings} == {
        (None, "i"), ("a", "input"), ("a", "output"), ("b", "input"), ("b", "output"), (None, "o"),
    }
    assert bindings[(None, "i")] == bindings[("a", "input")]
    assert bindings[("a", "output")] == bindings[("b", "input")]
    assert bindings[("b", "output")] == bindings[(None, "o")]
    assert len(set(bindings.values())) == 3


@pytest.mark.parametrize("backend", sorted(_PIPELINE_FILES))
def test_parser_recovers_the_pipeline_drivers(backend):
    files, text = _pipeline_files(backend)
    parsed = _parse_edited(backend, files, text)
    assert parsed.drivers == {
        "net_0_i_valid": [(None, "i")],
        "net_0_i_data": [(None, "i")],
        "net_0_i_last": [(None, "i")],
        "net_0_i_ready": [("a", "input")],
        "net_1_a_output_valid": [("a", "output")],
        "net_1_a_output_data": [("a", "output")],
        "net_1_a_output_last": [("a", "output")],
        "net_1_a_output_ready": [("b", "input")],
        "net_2_b_output_valid": [("b", "output")],
        "net_2_b_output_data": [("b", "output")],
        "net_2_b_output_last": [("b", "output")],
        "net_2_b_output_ready": [(None, "o")],
    }
    assert_drivers_follow_roles(parsed, _pipeline_project().implementations["top_i"])


@pytest.mark.parametrize("backend", sorted(_PIPELINE_FILES))
def test_oracle_rejects_a_rewired_port(backend):
    project = _pipeline_project()
    files, text = _pipeline_files(backend)
    head, header, tail = text.partition(_PIPELINE_FILES[backend][2])
    # b.input moves from a.output's net onto the design input's net.
    rewired = head + header + tail.replace("net_1_a_output_", "net_0_i_")
    assert rewired != text
    expected = _ir_nets(project.implementations["top_i"])
    assert _nets(_parse_edited(backend, files, text).bindings) == expected
    assert _nets(_parse_edited(backend, files, rewired).bindings) != expected


@pytest.mark.parametrize("backend, old, new", [
    ("vhdl", "input_valid => net_0_i_valid", "input_valid => net_0_i_ready"),
    ("verilog", ".input_valid(net_0_i_valid)", ".input_valid(net_0_i_ready)"),
])
def test_oracle_rejects_a_swapped_role(backend, old, new):
    files, text = _pipeline_files(backend)
    swapped = text.replace(old, new, 1)
    assert swapped != text
    with pytest.raises(AssertionError, match="wired to"):
        _parse_edited(backend, files, swapped)


def test_oracle_rejects_a_half_moved_port():
    files, text = _pipeline_files("vhdl")
    head, header, tail = text.partition(_PIPELINE_FILES["vhdl"][2])
    moved = head + header + tail.replace(
        "input_valid => net_1_a_output_valid", "input_valid => net_0_i_valid", 1
    )
    assert moved != text
    with pytest.raises(AssertionError, match="spans nets"):
        _parse_edited("vhdl", files, moved)


@pytest.mark.parametrize("backend, declared_in, old, new", [
    ("vhdl", "top_i.vhd", "      input_data : in ", "      input_data : out "),
    ("verilog", "stage_i.v", "  input  wire [7:0] input_data,", "  output wire [7:0] input_data,"),
], ids=["vhdl", "verilog"])
def test_oracle_rejects_a_net_driven_from_both_ends(backend, declared_in, old, new):
    # The instantiated component's data input declared as an output: the
    # net from ``i`` is then driven by both of its endpoints.
    files, text = _pipeline_files(backend)
    edited = {**files, declared_in: files[declared_in].replace(old, new, 1)}
    assert edited != files
    parsed = _parse_edited(backend, edited, edited[_PIPELINE_FILES[backend][0]])
    with pytest.raises(AssertionError, match=r"net_0_i_data has drivers \[\('a', 'input'\), \(None, 'i'\)\]"):
        assert_drivers_follow_roles(parsed, _pipeline_project().implementations["top_i"])


def test_oracle_rejects_an_undriven_ready():
    # The component's ready declared as an input: nothing drives the
    # ready of the net from ``i`` any more.
    files, text = _pipeline_files("vhdl")
    edited = text.replace("      input_ready : out ", "      input_ready : in ", 1)
    assert edited != text
    parsed = _parse_edited("vhdl", files, edited)
    with pytest.raises(AssertionError, match=r"net_0_i_ready has drivers \[\]"):
        assert_drivers_follow_roles(parsed, _pipeline_project().implementations["top_i"])


def test_oracle_rejects_a_forward_signal_driven_by_the_sink():
    # ``a``'s valid declared as an output and the assignment from ``i``
    # dropped: the net's valid keeps one driver, but it is the sink.
    files, text = _pipeline_files("vhdl")
    edited = text.replace("      input_valid : in ", "      input_valid : out ", 1)
    edited = edited.replace("  net_0_i_valid <= i_valid;\n", "", 1)
    assert edited.count("net_0_i_valid") == text.count("net_0_i_valid") - 1
    parsed = _parse_edited("vhdl", files, edited)
    with pytest.raises(AssertionError, match=r"net_0_i_valid driven by \('a', 'input'\)"):
        assert_drivers_follow_roles(parsed, _pipeline_project().implementations["top_i"])


# -- the oracle over the corpora ---------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_random_designs(seed):
    rng = random.Random(seed)
    sources = build_random_design(rng)
    assert assert_netlists_match_ir(compile_sources(sources).project) > 0
    edited, _ = mutate_design(rng, sources)
    assert assert_netlists_match_ir(compile_sources(edited).project) > 0


@pytest.mark.parametrize("steps", [1, 4, 9])
def test_chain_designs(steps):
    assert assert_netlists_match_ir(compile_sources(build_chain_design(steps)).project) > steps


def test_tpch_designs(compiled_queries):
    for name, result in compiled_queries.items():
        assert assert_netlists_match_ir(result.project) > 0, name
