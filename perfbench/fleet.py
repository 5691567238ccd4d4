"""The 16-file fleet design and independent checks of its emitted HDL.

The fleet is the repository's canonical compile workload (the same text
as ``benchmarks/corpus.py``'s ``fleet_workload(16, width)``): 15 files,
each a ``for``-expanded serial chain of ``width`` instances, plus a top
that wires the 15 chains in series -- ``15 * width + 15`` instances.

The checks below know nothing about the compiler.  They read the
instance/port-map structure out of the VHDL and Verilog text and compare
it with the chain geometry the generator placed: every instance exists
with the right component, and every chain link joins one instance's
output stream to the next one's input stream on all four signals.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

NUM_WIDE = 15
SIGNALS = ("valid", "ready", "data", "last")


def wide_text(index: int, width: int) -> str:
    return f"""
type link{index}_t = Stream(Bit(8), d=1);
streamlet step{index}_s {{ i: link{index}_t in, o: link{index}_t out, }}
external impl step{index}_i of step{index}_s;
streamlet wide{index}_s {{ feed: link{index}_t in, result: link{index}_t out, }}
impl wide{index}_i of wide{index}_s {{
    instance pu(step{index}_i) [{width}],
    feed => pu[0].i,
    for i in 0->{width - 1} {{
        pu[i].o => pu[i+1].i,
    }}
    pu[{width - 1}].o => result,
}}
"""


def top_text() -> str:
    last = NUM_WIDE - 1
    lines = [
        "streamlet top_s { feed: link0_t in, result: link%d_t out, }" % last,
        "impl top_i of top_s {",
    ]
    lines += [f"    instance w{index}(wide{index}_i)," for index in range(NUM_WIDE)]
    lines.append("    feed => w0.feed,")
    lines += [f"    w{index}.result => w{index + 1}.feed," for index in range(NUM_WIDE - 1)]
    lines.append(f"    w{last}.result => result,")
    lines += ["}", "top top_i;"]
    return "\n".join(lines) + "\n"


def fleet_files(width: int) -> dict[str, str]:
    """``{filename: text}`` of the whole fleet at one chain width."""
    files = {f"wide{index}.td": wide_text(index, width) for index in range(NUM_WIDE)}
    files["top.td"] = top_text()
    return files


def seeded_order(seed: int) -> list[str]:
    """The fleet's file names in a seed-determined order (command-line order)."""
    names = [f"wide{index}.td" for index in range(NUM_WIDE)] + ["top.td"]
    random.Random(seed).shuffle(names)
    return names


def instance_count(width: int) -> int:
    return NUM_WIDE * width + NUM_WIDE


# ---------------------------------------------------------------------------
# Structure extraction
# ---------------------------------------------------------------------------

_VHDL_INSTANCE = re.compile(
    r"^\s*(?P<name>\w+)\s*:\s*(?P<comp>\w+)\s*\n\s*port map\s*\((?P<body>.*?)\);", re.MULTILINE | re.DOTALL
)
_VHDL_ASSOC = re.compile(r"(\w+)\s*=>\s*(\w+)")
_VHDL_ASSIGN = re.compile(r"^\s*(\w+)\s*<=\s*(\w+)\s*;", re.MULTILINE)
_VERILOG_INSTANCE = re.compile(r"^\s*(?P<comp>\w+)\s+(?P<name>\w+)\s*\((?P<body>.*?)\);", re.MULTILINE | re.DOTALL)
_VERILOG_ASSOC = re.compile(r"\.(\w+)\((\w+)\)")
_VERILOG_ASSIGN = re.compile(r"^\s*assign\s+(\w+)\s*=\s*(\w+)\s*;", re.MULTILINE)


@dataclass
class Structure:
    """One module body: instances with their port maps, plus net aliases."""

    instances: dict[str, tuple[str, dict[str, str]]]
    parent: dict[str, str]

    def net(self, name: str) -> str:
        while self.parent.get(name, name) != name:
            name = self.parent[name]
        return name

    def join(self, a: str, b: str) -> None:
        ra, rb = self.net(a), self.net(b)
        if ra != rb:
            self.parent[ra] = rb

    def pin(self, instance: str, port: str) -> str:
        """The net one instance's port is wired to ('' if unconnected)."""
        entry = self.instances.get(instance)
        if entry is None or port not in entry[1]:
            return ""
        return self.net(entry[1][port])


def _structure(text: str, instance_re: re.Pattern, assoc_re: re.Pattern, assign_re: re.Pattern) -> Structure:
    instances = {}
    for match in instance_re.finditer(text):
        if match["comp"] == "module":  # a Verilog module header, not an instance
            continue
        instances[match["name"]] = (match["comp"], dict(assoc_re.findall(match["body"])))
    structure = Structure(instances, {})
    for left, right in assign_re.findall(text):
        structure.join(left, right)
    return structure


def vhdl_structure(text: str) -> Structure:
    return _structure(text, _VHDL_INSTANCE, _VHDL_ASSOC, _VHDL_ASSIGN)


def verilog_structure(text: str) -> Structure:
    return _structure(text, _VERILOG_INSTANCE, _VERILOG_ASSOC, _VERILOG_ASSIGN)


# ---------------------------------------------------------------------------
# Geometry checks
# ---------------------------------------------------------------------------


def _check_chain(
    structure: Structure,
    stages: list[tuple[str, str]],
    in_port: str,
    out_port: str,
    feed: str,
    result: str,
) -> list[str]:
    """One serial chain of ``(instance, component)`` stages between two ports.

    ``feed -> stages[0] -> ... -> stages[-1] -> result``: every stage
    exists with its component, nothing else is instantiated, and each
    link is one net on all four stream signals.
    """
    problems = []
    names = [name for name, _ in stages]
    extra = set(structure.instances) - set(names)
    if extra:
        problems.append(f"unexpected instances {sorted(extra)[:3]}")
    for name, component in stages:
        entry = structure.instances.get(name)
        if entry is None:
            problems.append(f"missing instance {name}")
        elif entry[0] != component:
            problems.append(f"{name} instantiates {entry[0]}, expected {component}")
    if problems:
        return problems
    for signal in SIGNALS:
        ends = [structure.net(f"{feed}_{signal}")]
        for name in names:
            ends += [structure.pin(name, f"{in_port}_{signal}"), structure.pin(name, f"{out_port}_{signal}")]
        ends.append(structure.net(f"{result}_{signal}"))
        for k in range(0, len(ends), 2):
            if not ends[k] or ends[k] != ends[k + 1]:
                where = names[k // 2 - 1] if k else feed
                problems.append(f"link after {where} broken on {signal}")
                return problems
    return problems


def check_fleet_outputs(files: dict[str, str], widths: int | list[int], language: str) -> list[str]:
    """Check one backend's fleet output; returns the problems found.

    ``widths`` is the chain width of every wide file (one int: all equal).
    """
    if isinstance(widths, int):
        widths = [widths] * NUM_WIDE
    suffix, parse = (".vhd", vhdl_structure) if language == "vhdl" else (".v", verilog_structure)
    chains = {
        f"wide{index}_i{suffix}": ([(f"pu_{k}", f"step{index}_s") for k in range(width)], "i", "o")
        for index, width in enumerate(widths)
    }
    chains[f"top_i{suffix}"] = ([(f"w{index}", f"wide{index}_s") for index in range(NUM_WIDE)], "feed", "result")
    problems: list[str] = []
    found = 0
    for filename, (stages, in_port, out_port) in chains.items():
        if filename not in files:
            problems.append(f"{language}: {filename} missing")
            continue
        structure = parse(files[filename])
        found += sum(1 for name, _ in stages if name in structure.instances)
        chain = _check_chain(structure, stages, in_port, out_port, "feed", "result")
        problems += [f"{language} {filename}: {problem}" for problem in chain]
    expected = sum(widths) + NUM_WIDE
    if found != expected:
        problems.append(f"{language}: {found} instances, expected {expected}")
    return problems
