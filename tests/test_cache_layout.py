"""The cache's persistent layout and its corruption discipline, per namespace.

Every cache namespace -- the whole-result ``result`` tier and the five stage
tiers ``ast``, ``eval``, ``iringest``, ``backend`` and ``sim`` -- writes one
pickled payload per key to local disk (``<cache_dir>/<key>.pkl`` for
``result``, ``<cache_dir>/stages/<ns>-<key>.pkl`` for the others) and the
same bytes to the remote tier under ``<ns>:<key>``.  Stores written by one
release must stay warm for the next, so the layout is pinned here exactly.
A corrupt artefact in any namespace, on disk or remote, must be a counted
miss that is recomputed -- never an exception.
"""

from __future__ import annotations

import pickle
import re
import shutil

import pytest

from repro.interchange import emit_document
from repro.lang import compile_sources
from repro.pipeline import CompilationCache
from repro.sim import SimulationPlan
from repro.workspace import Workspace

PIPELINE = (
    "type num = Stream(Bit(32), d=1);\n"
    "streamlet top_s { values: num in, total: num out, }\n"
    "impl top_i of top_s {\n"
    "    instance k(const_int_generator_i<type num, 10>),\n"
    "    instance add(adder_i<type num, type num>),\n"
    "    instance acc(sum_i<type num, type num>),\n"
    "    values => add.lhs,\n"
    "    k.output => add.rhs,\n"
    "    add.output => acc.input,\n"
    "    acc.output => total,\n"
    "}\n"
    "top top_i;\n"
)

ECHO = """
type byte_t = Stream(Bit(8), d=1);
streamlet echo_s { i: byte_t in, o: byte_t out, }
impl echo_i of echo_s { i => o, }
top echo_i;
"""

DOCUMENT = emit_document(compile_sources([(ECHO, "echo.td")]).project)
PLAN = SimulationPlan(stimuli={"values": [1, 2, 3]})
OPTIONS = {"targets": ("vhdl",)}

NAMESPACES = ("result", "ast", "eval", "iringest", "backend", "sim")
KEY = "[0-9a-f]{64}"
STAGE_FILE = re.compile(f"stages/(ast|eval|iringest|backend|sim)-({KEY})\\.pkl")
RESULT_FILE = re.compile(f"({KEY})\\.pkl")
REMOTE_KEY = re.compile(f"({'|'.join(NAMESPACES)}):({KEY})")

#: Well-formed pickle streams whose opcodes raise at load time.
TYPE_ERROR_BLOB = b"\x80\x05K\x01)R."  # calls the int 1: TypeError
OVERFLOW_BLOB = b"\x80\x05\x8e\xff\xff\xff\xff\xff\xff\xff\x7f"  # OverflowError


class FakeRemote:
    """A synchronous in-process stand-in for ``RemoteCacheClient``."""

    def __init__(self, entries: dict[str, bytes] | None = None) -> None:
        self.entries = dict(entries or {})
        self.corrupt: list[str] = []

    def get(self, key: str) -> bytes | None:
        return self.entries.get(key)

    def put(self, key: str, payload: bytes) -> None:
        self.entries[key] = payload

    def note_corrupt(self, key: str) -> None:
        self.corrupt.append(key)


def _exercise(cache: CompilationCache):
    """Compile, simulate and ingest through ``cache``; what a user sees."""
    workspace = Workspace(cache=cache, options=OPTIONS)
    workspace.add_design("pipe", {"pipe.td": PIPELINE})
    workspace.add_ir_design("doc", DOCUMENT)
    compiled = workspace.result("pipe").outputs["vhdl"]
    report = workspace.simulate("pipe", PLAN)
    ingested = workspace.result("doc").outputs["vhdl"]
    return compiled, report.summary(), report.outputs, ingested


def _disk_artefacts(cache_dir) -> dict[str, dict[str, bytes]]:
    """``{namespace: {key: payload}}`` of every file under ``cache_dir``."""
    found: dict[str, dict[str, bytes]] = {namespace: {} for namespace in NAMESPACES}
    for path in sorted(cache_dir.rglob("*")):
        if path.is_dir():
            continue
        relative = path.relative_to(cache_dir).as_posix()
        if match := RESULT_FILE.fullmatch(relative):
            namespace, key = "result", match[1]
        elif match := STAGE_FILE.fullmatch(relative):
            namespace, key = match[1], match[2]
        else:
            raise AssertionError(f"unexpected cache file {relative!r}")
        found[namespace][key] = path.read_bytes()
    return found


def _remote_artefacts(remote: FakeRemote) -> dict[str, dict[str, bytes]]:
    found: dict[str, dict[str, bytes]] = {namespace: {} for namespace in NAMESPACES}
    for name, payload in remote.entries.items():
        match = REMOTE_KEY.fullmatch(name)
        assert match, f"unexpected remote key {name!r}"
        found[match[1]][match[2]] = payload
    return found


def _path_of(cache_dir, namespace: str, key: str):
    if namespace == "result":
        return cache_dir / f"{key}.pkl"
    return cache_dir / "stages" / f"{namespace}-{key}.pkl"


def test_disk_and_remote_layout_is_pinned(tmp_path):
    remote = FakeRemote()
    _exercise(CompilationCache(cache_dir=tmp_path, remote=remote))
    disk = _disk_artefacts(tmp_path)
    for namespace in NAMESPACES:
        assert disk[namespace], f"no {namespace} artefact on disk"
    # Every store is pickled once: the remote holds the same keys with
    # byte-identical payloads.
    assert _remote_artefacts(remote) == disk


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("warm")
    remote = FakeRemote()
    expected = _exercise(CompilationCache(cache_dir=cache_dir, remote=remote))
    return cache_dir, remote, expected


def _corrupted(payload: bytes, blob: str) -> bytes:
    if blob == "truncated":
        return payload[: len(payload) // 2]
    return {"type-error": TYPE_ERROR_BLOB, "overflow": OVERFLOW_BLOB}[blob]


@pytest.mark.parametrize("blob", ["type-error", "overflow", "truncated"])
@pytest.mark.parametrize("namespace", NAMESPACES)
def test_corrupt_disk_artefact_is_a_counted_miss(warm, tmp_path, namespace, blob):
    warm_dir, _, expected = warm
    cache_dir = tmp_path / "cache"
    shutil.copytree(warm_dir, cache_dir)
    artefacts = _disk_artefacts(cache_dir)
    for key, payload in artefacts[namespace].items():
        _path_of(cache_dir, namespace, key).write_bytes(_corrupted(payload, blob))
    if namespace != "result":
        for key in artefacts["result"]:  # force the staged path
            _path_of(cache_dir, "result", key).unlink()

    cache = CompilationCache(cache_dir=cache_dir)
    assert _exercise(cache) == expected
    stats = cache.stats if namespace == "result" else cache.stages.stats
    assert stats.disk_errors >= 1
    # The corrupt copies were dropped and rewritten by the recompute.
    rewritten = _disk_artefacts(cache_dir)[namespace]
    assert set(rewritten) == set(artefacts[namespace])
    for payload in rewritten.values():
        pickle.loads(payload)


@pytest.mark.parametrize("blob", ["type-error", "overflow", "truncated"])
@pytest.mark.parametrize("namespace", NAMESPACES)
def test_corrupt_remote_artefact_is_a_counted_miss(warm, tmp_path, namespace, blob):
    _, warm_remote, expected = warm
    entries = dict(warm_remote.entries)
    for name, payload in warm_remote.entries.items():
        if name.startswith(f"{namespace}:"):
            entries[name] = _corrupted(payload, blob)
        elif namespace != "result" and name.startswith("result:"):
            del entries[name]  # force the staged path
    remote = FakeRemote(entries)

    cache_dir = tmp_path / "cache"
    assert _exercise(CompilationCache(cache_dir=cache_dir, remote=remote)) == expected
    assert any(name.startswith(f"{namespace}:") for name in remote.corrupt)
    # A corrupt remote payload is never promoted to the local disk tier.
    for artefacts in _disk_artefacts(cache_dir).values():
        for payload in artefacts.values():
            pickle.loads(payload)


#: Backend unit keys of the TPC-H Q1 top implementation, as released stores
#: hold them.  A change here orphans every cached unit in existing
#: ``.tydi-cache/`` directories and remote stores.
Q1_TOP_UNIT_KEYS = {
    "vhdl": "cd8c9112df288290b607f54b1d24d98c2cb12e4cd47f5c08dad51e318d5b776c",
    "verilog": "72cc00171ba852f20ab03d31eb4ff9e9cc715bf1708659d944a5ecdb33abb4da",
}


@pytest.mark.parametrize("backend", sorted(Q1_TOP_UNIT_KEYS))
def test_tpch_backend_unit_key_is_pinned(compiled_queries, tmp_path, backend):
    from repro.backends import get_backend, implementation_fingerprint
    from repro.pipeline import StageCache

    project = compiled_queries["q1"].project
    top = project.implementations[project.top]
    cache = StageCache(cache_dir=tmp_path)
    key = Q1_TOP_UNIT_KEYS[backend]
    assert cache.backend_unit_key(get_backend(backend), implementation_fingerprint(project, top)) == key
    # emit_backend keys every unit the same way, so the top's unit lands
    # under the pinned name.
    cache.emit_backend(project, get_backend(backend))
    assert (tmp_path / "stages" / f"backend-{key}.pkl").is_file()
    assert len(list((tmp_path / "stages").glob("backend-*.pkl"))) == len(project.implementations)
