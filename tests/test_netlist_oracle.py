"""Independent netlist oracle for the HDL backends.

The goldens pin the emitted bytes; this suite checks what the bytes *mean*.
It parses the VHDL port maps and Verilog instantiations back into
``(instance, port, net)`` triples -- resolving the ``<=`` / ``assign``
aliases that wire an implementation's own ports to its nets -- and asserts
that they describe exactly the IR connection graph: every connection is one
net joining its two endpoints, no net joins anything else, and each port
signal lands on the net signal of the same physical role (``valid`` on
``valid``, ``ready`` on ``ready``, ...).

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

_VHDL_INSTANCE = re.compile(r"^  (\w+) : (\w+)\n    port map \(\n(.*?)\n    \);$", re.M | re.S)
_VHDL_MAPPING = re.compile(r"^\s*(\w+) => (.+?),?$")
_VHDL_ALIAS = re.compile(r"^  (\w+) <= (\w+);$", re.M)
_VERILOG_INSTANCE = re.compile(r"^  (\w+) (\w+) \(\n(.*?)\n  \);$", re.M | re.S)
_VERILOG_MAPPING = re.compile(r"^\s*\.(\w+)\((.*)\),?$")
_VERILOG_ALIAS = re.compile(r"^  assign (\w+) = (\w+);$", re.M)

_UNCONNECTED = {"", "open", "'0'", "(others => '0')"}


def _split_role(signal: str) -> tuple[str, str]:
    """``"a_b_valid"`` -> ``("a_b", "valid")``: roles never contain ``_``."""
    stem, _, role = signal.rpartition("_")
    assert stem and role, f"malformed signal name {signal!r}"
    return stem, role


class _Endpoints:
    """Collects one implementation's endpoint -> net bindings, checking
    that every signal of a port lands on one net in its own role."""

    def __init__(self, where: str) -> None:
        self.where = where
        self.bindings: Netlist = {}

    def bind(self, instance: str | None, port_signal: str, net_signal: str) -> None:
        port, role = _split_role(port_signal)
        net, net_role = _split_role(net_signal)
        assert role == net_role, f"{self.where}: {port_signal} wired to {net_signal}"
        endpoint = (instance, port)
        previous = self.bindings.setdefault(endpoint, net)
        assert previous == net, f"{self.where}: {endpoint} spans nets {previous} and {net}"


def _bind_alias(endpoints: _Endpoints, left: str, right: str, nets: set[str]) -> None:
    """One continuous assignment between a net signal and an own-port signal."""
    if left in nets:
        endpoints.bind(None, right, left)
    else:
        assert right in nets, f"{endpoints.where}: {left} = {right} touches no net"
        endpoints.bind(None, left, right)


def vhdl_netlist(text: str) -> Netlist:
    """Parse one structural VHDL architecture into endpoint -> net bindings."""
    endpoints = _Endpoints("vhdl")
    nets = set(re.findall(r"^  signal (\w+) :", text, re.M))
    for instance, _component, body in _VHDL_INSTANCE.findall(text):
        for line in body.splitlines():
            match = _VHDL_MAPPING.match(line)
            assert match, f"unparsed port map line {line!r}"
            port_signal, target = match.groups()
            if port_signal in ("clk", "rst") or target in _UNCONNECTED:
                continue
            assert target in nets, f"{instance}.{port_signal} => undeclared {target}"
            endpoints.bind(instance, port_signal, target)
    for left, right in _VHDL_ALIAS.findall(text):
        _bind_alias(endpoints, left, right, nets)
    return endpoints.bindings


def verilog_netlist(text: str) -> Netlist:
    """Parse one structural Verilog module body into endpoint -> net bindings."""
    endpoints = _Endpoints("verilog")
    nets = set(re.findall(r"^  wire (?:\[\d+:0\] )?(\w+);$", text, re.M))
    for _module, instance, body in _VERILOG_INSTANCE.findall(text):
        for line in body.splitlines():
            match = _VERILOG_MAPPING.match(line)
            assert match, f"unparsed instantiation line {line!r}"
            port_signal, target = match.groups()
            if port_signal in ("clk", "rst") or target in _UNCONNECTED:
                continue
            assert target in nets, f"{instance}.{port_signal} -> undeclared {target}"
            endpoints.bind(instance, port_signal, target)
    for left, right in _VERILOG_ALIAS.findall(text):
        _bind_alias(endpoints, left, right, nets)
    return endpoints.bindings


def _nets(bindings: Netlist) -> set[frozenset]:
    grouped: dict[str, set] = defaultdict(set)
    for endpoint, net in bindings.items():
        grouped[net].add(endpoint)
    return {frozenset(members) for members in grouped.values()}


def _ir_nets(implementation) -> set[frozenset]:
    """The IR connection graph: one two-endpoint net per connection."""

    def endpoint(ref):
        return (ref.instance, sanitize_identifier(ref.port))

    return {
        frozenset({endpoint(connection.source), endpoint(connection.sink)})
        for connection in implementation.connections
    }


def assert_netlists_match_ir(project) -> int:
    """Check both HDL backends against ``project``; return nets checked."""
    vhdl = get_backend("vhdl").emit(project)
    verilog = get_backend("verilog").emit(project)
    checked = 0
    for implementation in project.implementations.values():
        if implementation.external:
            continue
        expected = _ir_nets(implementation)
        assert len(expected) == len(implementation.connections), (
            f"{implementation.name}: an endpoint is shared by two connections"
        )
        name = implementation.name
        assert _nets(vhdl_netlist(vhdl[f"{name}.vhd"])) == expected, f"vhdl {name}"
        assert _nets(verilog_netlist(verilog[f"{name}.v"])) == expected, f"verilog {name}"
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


@pytest.mark.parametrize("backend", sorted(_PIPELINE_FILES))
def test_parser_recovers_the_pipeline_triples(backend):
    filename, parse, _ = _PIPELINE_FILES[backend]
    bindings = parse(get_backend(backend).emit(_pipeline_project())[filename])
    assert {(instance, port) for instance, port in bindings} == {
        (None, "i"), ("a", "input"), ("a", "output"), ("b", "input"), ("b", "output"), (None, "o"),
    }
    assert bindings[(None, "i")] == bindings[("a", "input")]
    assert bindings[("a", "output")] == bindings[("b", "input")]
    assert bindings[("b", "output")] == bindings[(None, "o")]
    assert len(set(bindings.values())) == 3


@pytest.mark.parametrize("backend", sorted(_PIPELINE_FILES))
def test_oracle_rejects_a_rewired_port(backend):
    filename, parse, b_header = _PIPELINE_FILES[backend]
    project = _pipeline_project()
    text = get_backend(backend).emit(project)[filename]
    head, header, tail = text.partition(b_header)
    # b.input moves from a.output's net onto the design input's net.
    rewired = head + header + tail.replace("net_1_a_output_", "net_0_i_")
    assert rewired != text
    assert _nets(parse(text)) == _ir_nets(project.implementations["top_i"])
    assert _nets(parse(rewired)) != _ir_nets(project.implementations["top_i"])


@pytest.mark.parametrize("backend, old, new", [
    ("vhdl", "input_valid => net_0_i_valid", "input_valid => net_0_i_ready"),
    ("verilog", ".input_valid(net_0_i_valid)", ".input_valid(net_0_i_ready)"),
])
def test_oracle_rejects_a_swapped_role(backend, old, new):
    filename, parse, _ = _PIPELINE_FILES[backend]
    text = get_backend(backend).emit(_pipeline_project())[filename]
    swapped = text.replace(old, new, 1)
    assert swapped != text
    with pytest.raises(AssertionError, match="wired to"):
        parse(swapped)


def test_oracle_rejects_a_half_moved_port():
    filename, parse, b_header = _PIPELINE_FILES["vhdl"]
    text = get_backend("vhdl").emit(_pipeline_project())[filename]
    head, header, tail = text.partition(b_header)
    moved = head + header + tail.replace(
        "input_valid => net_1_a_output_valid", "input_valid => net_0_i_valid", 1
    )
    assert moved != text
    with pytest.raises(AssertionError, match="spans nets"):
        parse(moved)


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
