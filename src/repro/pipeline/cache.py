"""Content-addressed compilation cache.

The frontend of Figure 3 is deterministic: the same source texts compiled
with the same options always produce the same :class:`~repro.lang.compile.
CompilationResult` (and therefore the same textual Tydi-IR).  That makes
compilation outputs *content-addressable* -- a stable fingerprint of the
inputs is a complete identity for the output artefact.

:func:`fingerprint_sources` computes that fingerprint: a SHA-256 over

* a cache-format version salt (so layout changes invalidate old stores),
* the compile options, serialised with sorted keys,
* the standard-library source text (when ``include_stdlib`` is set, so
  stdlib edits across revisions invalidate persistent caches), and
* every ``(filename, source_text)`` pair in order.

:class:`CompilationCache` stores pickled results under those keys in a
bounded in-memory LRU, optionally backed by an on-disk store (conventionally
``.tydi-cache/``) that survives across processes -- which is what lets the
process-pool executor of :mod:`repro.pipeline.batch` share warm artefacts
with its workers.

Cached results are returned *as-is* (no defensive copy): treat a
:class:`~repro.lang.compile.CompilationResult` obtained through the cache as
immutable.  Results loaded from disk are fresh pickle round-trips and are
never aliased with a result some other compilation already holds.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.lang.compile import CompilationResult

#: Bump when the pickle layout or fingerprint recipe changes; old on-disk
#: entries then simply miss instead of deserialising stale artefacts.
CACHE_VERSION = 2

#: Schema version of the *per-stage* artefacts (parse ASTs, evaluate
#: snapshots, backend unit outputs, see :mod:`repro.pipeline.stages`).  It
#: participates in every fingerprint -- whole-result keys included -- so
#: entries written by an older stage layout (e.g. the PR-1 whole-result-only
#: cache) are never deserialised into the new layout: they simply miss.
#: v2: ``CompilationResult`` gained the ``outputs`` field and the stage
#: cache its backend-output tier.
#: v3: the options normal form gained the ``backend_options`` key
#: (:class:`repro.lang.compile.CompileOptions`), so every pre-workspace
#: fingerprint recipe is orphaned wholesale.
#: v4: option values hash through :func:`canonical_option_repr` instead of
#: raw ``repr`` (mappings render sorted by key), so semantically identical
#: options always share one fingerprint -- a prerequisite for keying the
#: *shared* remote tier, where an order-dependent key would fragment (and
#: pollute) the whole fleet's cache.
#: v5: the AST/token dataclasses grew ``slots=True`` and logical types are
#: interned at the constructor (``repro.spec.logical_types``), changing the
#: pickle layout of cached parse/evaluate artefacts; entries pickled by the
#: pre-slots layout must miss rather than deserialise into the new classes.
#: v6: the stage cache gained the ``sim:`` tier (pickled
#: :class:`repro.sim.harness.SimulationReport` keyed on evaluate fingerprint
#: plus plan fingerprint); the salt bump keeps pre-sim stores from mixing
#: with the new namespace layout.
#: v7: the stage cache gained the ``iringest:`` tier (pickled post-ingest
#: projects of Tydi-IR interchange documents, keyed on the document
#: fingerprint; see :meth:`repro.pipeline.stages.StageCache.compile_ir`),
#: and the ``Project`` pickle layout may now carry interned interchange
#: types; the salt bump keeps pre-interchange stores from mixing with the
#: new namespace layout.
STAGE_SCHEMA_VERSION = 7

#: Default directory name for the on-disk store.
DEFAULT_CACHE_DIR = ".tydi-cache"


# The one normalisation shared with compile_sources, so fingerprints agree
# no matter which layer computed them (the lang layer owns the definition).
from repro.lang.compile import CompileOptions, normalize_sources  # noqa: E402


def canonical_option_repr(value: object) -> str:
    """A deterministic rendering of one option value for fingerprinting.

    ``repr`` of a dict depends on key insertion order, so two semantically
    identical option sets (e.g. ``backend_options`` mappings built in
    different orders) would fingerprint differently -- a spurious local
    miss, and a fleet-cache polluter once keys address a shared remote
    tier.  Mappings therefore render sorted by key (recursively), sets
    sorted by element rendering; sequences keep their order, which *is*
    significant.  Everything else falls back to ``repr``.
    """
    if isinstance(value, Mapping):
        items = sorted(
            (canonical_option_repr(k), canonical_option_repr(v))
            for k, v in value.items()
        )
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(canonical_option_repr(v) for v in value)) + "}"
    if isinstance(value, tuple):
        inner = ", ".join(canonical_option_repr(v) for v in value)
        return "(" + inner + ("," if len(value) == 1 else "") + ")"
    if isinstance(value, list):
        return "[" + ", ".join(canonical_option_repr(v) for v in value) + "]"
    return repr(value)


def fingerprint_sources(
    sources: Sequence[tuple[str, str]] | Sequence[str],
    options: "Mapping[str, object] | CompileOptions | None" = None,
) -> str:
    """Stable SHA-256 content hash of a compilation's inputs.

    ``options`` is either the canonical :class:`~repro.lang.compile.
    CompileOptions` or a legacy options mapping; both hash through the same
    ``{option: value}`` normal form (:meth:`CompileOptions.as_dict`), so
    every layer computes identical content addresses.
    """
    import repro

    if isinstance(options, CompileOptions):
        options = options.as_dict()
    options = dict(options or {})
    hasher = hashlib.sha256()
    # The cache-format salt, the per-stage schema version and the compiler's
    # own version all participate: a new compiler release invalidates
    # persistent artefacts automatically, without anyone remembering to bump
    # CACHE_VERSION, and a stage-layout change orphans PR-1-era entries.
    hasher.update(
        f"tydi-cache-v{CACHE_VERSION}.{STAGE_SCHEMA_VERSION}:compiler-{repro.__version__}".encode()
    )
    for key in sorted(options):
        hasher.update(b"\x00opt\x00")
        hasher.update(key.encode())
        hasher.update(b"=")
        hasher.update(canonical_option_repr(options[key]).encode())
    if options.get("include_stdlib", True):
        from repro.stdlib.source import STDLIB_SOURCE

        hasher.update(b"\x00stdlib\x00")
        hasher.update(STDLIB_SOURCE.encode())
    for text, filename in normalize_sources(sources):
        hasher.update(b"\x00file\x00")
        hasher.update(filename.encode())
        hasher.update(b"\x00")
        hasher.update(text.encode())
    return hasher.hexdigest()


#: Subdirectory of the cache dir holding per-stage artefacts.
STAGE_DIR_NAME = "stages"


def stage_salt() -> str:
    """The salt every per-stage key starts with (format, schema, compiler)."""
    import repro

    return f"tydi-stage-v{CACHE_VERSION}.{STAGE_SCHEMA_VERSION}:compiler-{repro.__version__}"


def file_fingerprint(text: str, filename: str) -> str:
    """Stable content address of one source file (text + diagnostic name).

    The key of the per-file parse tier, and what a
    :class:`~repro.workspace.Workspace` diffs to find the files an edit
    changed.  The filename participates because it is embedded in spans,
    diagnostics and stage logs: the same text under a different name is a
    different parse artefact.
    """
    hasher = hashlib.sha256()
    hasher.update(stage_salt().encode())
    hasher.update(b"\x00file\x00")
    hasher.update(filename.encode())
    hasher.update(b"\x00")
    hasher.update(text.encode())
    return hasher.hexdigest()


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via write-to-temp-then-rename.

    Concurrent readers either see the old complete file or the new complete
    file, never a torn write.  Shared by the whole-result cache and the
    per-stage cache (:mod:`repro.pipeline.stages`).  Raises ``OSError`` for
    the caller to account.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


#: A ``*.tmp`` file older than this is a leak from a crashed writer
#: (``atomic_write_bytes`` holds its temp file for milliseconds, not
#: minutes) and is reclaimed during budget enforcement.
TMP_SWEEP_AGE_S = 300.0


def evict_lru_files(
    root: Path, max_bytes: int, *, tmp_sweep_age_s: float = TMP_SWEEP_AGE_S
) -> int:
    """Delete the least-recently-used ``*.pkl`` artefacts under ``root``.

    Scans recursively (the per-stage tier lives in a ``stages/``
    subdirectory of the whole-result store), sums artefact sizes, and
    unlinks oldest-mtime-first until the total is within ``max_bytes``.
    Loads refresh mtimes, so mtime order *is* recency order.  Returns the
    number of files deleted; unreadable or already-gone files are skipped.

    ``*.tmp`` files are the write-in-progress side of
    :func:`atomic_write_bytes`; a writer SIGKILLed between ``mkstemp`` and
    ``os.replace`` leaks one forever.  Every enforcement pass therefore
    sweeps tmp files older than ``tmp_sweep_age_s`` (uncounted -- garbage
    collection, not eviction) and charges the *fresh* ones, which are
    about to become artefacts, against the byte budget.
    """
    entries: list[tuple[float, int, Path]] = []
    total = 0
    now = time.time()
    for path in root.rglob("*.tmp"):
        try:
            stat = path.stat()
        except OSError:
            continue
        if now - stat.st_mtime >= tmp_sweep_age_s:
            try:
                path.unlink()
            except OSError:
                pass
            continue
        total += stat.st_size
    for path in root.rglob("*.pkl"):
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((stat.st_mtime, stat.st_size, path))
        total += stat.st_size
    if total <= max_bytes:
        return 0
    evicted = 0
    for _, size, path in sorted(entries):
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        evicted += 1
        if total <= max_bytes:
            break
    return evicted


class CacheTier:
    """One cache namespace: a bounded memory LRU over disk and remote copies.

    Every cache in this package -- the whole-result ``result`` tier of
    :class:`CompilationCache` and the ``ast`` / ``eval`` / ``iringest`` /
    ``backend`` / ``sim`` tiers of :class:`repro.pipeline.stages.StageCache`
    -- is one instance of this class, owned by the cache whose ``_lock``,
    ``stats`` and ``remote`` it uses:

    * **Lookup** (:meth:`get`) walks memory -> ``<disk_dir>/<file_prefix>
      <key>.pkl`` -> the remote under ``<namespace>:<key>``.  A remote hit is
      promoted to the disk tier (the bytes already are the disk format)
      without being re-uploaded.
    * **Store** (:meth:`put`) pickles the value once; the same bytes feed the
      disk file and the remote's write-behind queue.  Disk-budget
      enforcement is the owner's call.
    * **Corruption** -- any exception from unpickling, or a value of the
      wrong type, makes that copy a miss: a local copy is dropped (counted in
      ``disk_errors``), a remote one is reported to the client's ``corrupt``
      counter, and the lookup falls through to the next tier.
    * **Memory representation** -- by default the memory tier holds the
      value itself, served as-is (treat it as immutable).  A
      ``fresh_copies`` tier holds the pickle bytes instead and unpickles on
      every use, for values the caller goes on to mutate.

    ``expected_type`` is a ``"module:Name"`` path, resolved only when a
    payload is decoded, so constructing a tier imports nothing.  ``hits`` /
    ``misses`` / ``stores`` / ``evictions`` name the owner's ``stats``
    fields counting lookups served, lookups missed, fresh stores and memory
    evictions (``None``: not counted).  The stage tiers count their misses
    as stores, so a computation that raises counts nothing.
    """

    def __init__(
        self,
        owner,
        namespace: str,
        expected_type: str,
        *,
        capacity: int,
        disk_dir: Optional[Path] = None,
        file_prefix: str = "",
        fresh_copies: bool = False,
        hits: str = "hits",
        stores: str = "stores",
        misses: Optional[str] = None,
        evictions: Optional[str] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"{namespace} tier capacity must be >= 1")
        self.owner = owner
        self.namespace = namespace
        self.expected_type = expected_type
        self.capacity = capacity
        self.disk_dir = disk_dir
        self.file_prefix = file_prefix
        self.fresh_copies = fresh_copies
        self._hits, self._stores = hits, stores
        self._misses, self._evictions = misses, evictions
        self._memory: OrderedDict[str, object] = OrderedDict()

    def _path(self, key: str) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        return self.disk_dir / f"{self.file_prefix}{key}.pkl"

    def get(self, key: str):
        """The value under ``key`` from the first tier holding a good copy,
        or ``None`` on a miss."""
        owner = self.owner
        with owner._lock:
            held = self._memory.get(key)
            if held is not None:
                self._memory.move_to_end(key)
                if not self.fresh_copies:
                    self._count(self._hits)
                    return held
        path = self._path(key)
        source, value = "memory", None
        if held is not None:  # a fresh_copies tier's pickle bytes
            value = self._decode(held)
            if value is None:
                self._drop_local(key, path)
        if value is None and path is not None:
            held = self._disk_read(path)
            if held is not None:
                source, value = "disk", self._decode(held)
                if value is None:
                    self._drop_local(key, path)
        remote = owner.remote
        if value is None and remote is not None:
            held = remote.get(f"{self.namespace}:{key}")
            if held is not None:
                source, value = "remote", self._decode(held)
                if value is None:
                    note = getattr(remote, "note_corrupt", None)
                    if note is not None:
                        note(f"{self.namespace}:{key}")
                elif path is not None:
                    self._disk_write(path, held)
        with owner._lock:
            if value is None:
                self._count(self._misses)
                return None
            self._count(self._hits)
            if source == "disk":
                self._count("disk_hits")
            if source != "memory":
                self._insert(key, held if self.fresh_copies else value)
        return value

    def put(self, key: str, value, *, persist: bool = True) -> None:
        """Store a freshly computed value in memory and, unless ``persist``
        is false (another process already wrote the disk copy), on disk and
        remote."""
        owner = self.owner
        with owner._lock:
            self._count(self._stores)
            if not self.fresh_copies:
                self._insert(key, value)
        path = self._path(key) if persist else None
        remote = owner.remote if persist else None
        if not self.fresh_copies and path is None and remote is None:
            return
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            with owner._lock:
                self._count("disk_errors")
            return
        if self.fresh_copies:
            with owner._lock:
                self._insert(key, payload)
        if path is not None:
            self._disk_write(path, payload)
        if remote is not None:
            remote.put(f"{self.namespace}:{key}", payload)

    def fetch(self, key: str, compute):
        """:meth:`get`, or on a miss ``compute()`` and :meth:`put` its value.

        Errors raised by ``compute`` propagate and nothing is stored."""
        value = self.get(key)
        if value is None:
            value = compute()
            self.put(key, value)
        return value

    def absorb_hit(self, key: str, value) -> None:
        """Count a disk hit another process served and warm memory with it."""
        with self.owner._lock:
            self._count(self._hits)
            self._count("disk_hits")
            self._insert(key, value)

    def clear(self) -> None:
        with self.owner._lock:
            self._memory.clear()

    def __len__(self) -> int:
        with self.owner._lock:
            return len(self._memory)

    # -- internals (``_count`` and ``_insert`` run under the owner's lock) ----

    def _count(self, field_name: Optional[str]) -> None:
        if field_name is not None:
            stats = self.owner.stats
            setattr(stats, field_name, getattr(stats, field_name) + 1)

    def _insert(self, key: str, held) -> None:
        self._memory[key] = held
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self._count(self._evictions)

    def _decode(self, payload: bytes):
        try:
            value = pickle.loads(payload)
            module, _, name = self.expected_type.partition(":")
            if isinstance(value, getattr(importlib.import_module(module), name)):
                return value
        except Exception:
            pass
        return None

    def _drop_local(self, key: str, path: Optional[Path]) -> None:
        with self.owner._lock:
            self._count("disk_errors")
            self._memory.pop(key, None)
        if path is not None:
            try:
                path.unlink()
            except OSError:
                pass

    def _disk_read(self, path: Path) -> Optional[bytes]:
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            with self.owner._lock:
                self._count("disk_errors")
            return None
        try:
            os.utime(path)  # refresh mtime: LRU recency for eviction
        except OSError:
            pass
        return payload

    def _disk_write(self, path: Path, payload: bytes) -> None:
        try:
            atomic_write_bytes(path, payload)
        except OSError:
            with self.owner._lock:
                self._count("disk_errors")
            return
        with self.owner._lock:
            self._count("disk_stores")


@dataclass
class StageStats:
    """Counters describing how a :class:`~repro.pipeline.stages.StageCache`
    has been used."""

    parse_hits: int = 0
    parse_misses: int = 0
    evaluate_hits: int = 0
    evaluate_misses: int = 0
    ingest_hits: int = 0
    ingest_misses: int = 0
    backend_hits: int = 0
    backend_misses: int = 0
    sim_hits: int = 0
    sim_misses: int = 0
    disk_hits: int = 0
    disk_stores: int = 0
    disk_errors: int = 0
    disk_evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "parse_hits": self.parse_hits,
            "parse_misses": self.parse_misses,
            "evaluate_hits": self.evaluate_hits,
            "evaluate_misses": self.evaluate_misses,
            "ingest_hits": self.ingest_hits,
            "ingest_misses": self.ingest_misses,
            "backend_hits": self.backend_hits,
            "backend_misses": self.backend_misses,
            "sim_hits": self.sim_hits,
            "sim_misses": self.sim_misses,
            "disk_hits": self.disk_hits,
            "disk_stores": self.disk_stores,
            "disk_errors": self.disk_errors,
            "disk_evictions": self.disk_evictions,
        }

    def reset(self) -> None:
        self.parse_hits = self.parse_misses = 0
        self.evaluate_hits = self.evaluate_misses = 0
        self.ingest_hits = self.ingest_misses = 0
        self.backend_hits = self.backend_misses = 0
        self.sim_hits = self.sim_misses = 0
        self.disk_hits = self.disk_stores = self.disk_errors = 0
        self.disk_evictions = 0


@dataclass
class CacheStats:
    """Counters describing how a :class:`CompilationCache` has been used."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_stores: int = 0
    disk_errors: int = 0
    disk_evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_stores": self.disk_stores,
            "disk_errors": self.disk_errors,
            "disk_evictions": self.disk_evictions,
        }

    def reset(self) -> None:
        self.hits = self.misses = self.stores = self.evictions = 0
        self.disk_hits = self.disk_stores = self.disk_errors = 0
        self.disk_evictions = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class CompilationCache:
    """Bounded in-memory LRU of compilation results, with optional disk tier.

    Parameters
    ----------
    max_entries:
        In-memory LRU capacity; the least-recently-used entry is evicted on
        overflow (it stays on disk if a ``cache_dir`` is configured).
    cache_dir:
        When set, every stored result is also pickled to
        ``<cache_dir>/<key>.pkl`` and in-memory misses fall through to disk.
        The directory is created lazily on first store.
    max_disk_bytes:
        When set, the on-disk store (whole-result artefacts *and* the
        per-stage tier under ``<cache_dir>/stages/``) is bounded: after every
        disk store, least-recently-used artefacts are deleted until the total
        is within budget (``stats.disk_evictions`` counts them).
    remote:
        The shared remote L2 tier: a ``host:port`` endpoint string (a
        :class:`~repro.pipeline.remote.RemoteCacheClient` is built from
        it) or an existing client instance, shared with the per-stage
        sub-cache.  Lookup order is memory -> disk -> remote; remote hits
        are promoted into the local tiers, stores upload asynchronously
        (write-behind), and a dead or slow remote degrades to local-only
        -- it can never fail a compile.

    The results live in one :class:`CacheTier` (namespace ``result``).  The
    per-stage sub-cache (:class:`repro.pipeline.stages.StageCache`, exposed
    as ``.stages``) shares this cache's disk directory, byte budget and
    remote; ``compile_sources`` compiles whole-result misses through it, so
    a one-file edit of an N-file design re-parses only the edited file.

    The cache is thread-safe: the batch driver's thread executor shares one
    instance across all workers.
    """

    max_entries: int = 128
    cache_dir: Optional[str | Path] = None
    max_disk_bytes: Optional[int] = None
    remote: Optional[object] = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.max_disk_bytes is not None and self.max_disk_bytes < 0:
            raise ValueError("max_disk_bytes must be >= 0")
        if self.cache_dir is not None:
            self.cache_dir = Path(self.cache_dir)
        self._lock = threading.Lock()
        self._results = CacheTier(
            self,
            "result",
            "repro.lang.compile:CompilationResult",
            capacity=self.max_entries,
            disk_dir=self.cache_dir,
            misses="misses",
            evictions="evictions",
        )
        if isinstance(self.remote, str):
            from repro.pipeline.remote import RemoteCacheClient

            self.remote = RemoteCacheClient.from_url(self.remote)
        self._stages = None
        self._stages_lock = threading.Lock()
        # Apply the budget to whatever is already on disk: a store that only
        # ever *hits* would otherwise never shrink after a budget decrease.
        if self.cache_dir is not None and self.cache_dir.is_dir():
            self.enforce_disk_budget()

    @property
    def stages(self):
        """The per-stage sub-cache (:class:`~repro.pipeline.stages.StageCache`).

        Built on first use, so a whole-result hit never imports the staged
        pipeline.
        """
        if self._stages is None:
            with self._stages_lock:
                if self._stages is None:
                    from repro.pipeline.stages import StageCache

                    self._stages = StageCache(
                        cache_dir=self.cache_dir,
                        max_disk_bytes=self.max_disk_bytes,
                        remote=self.remote,
                    )
        return self._stages

    def stage_stats_snapshot(self) -> dict[str, int]:
        """:meth:`stages`' counter snapshot; all zero while it was never used."""
        if self._stages is None:
            return StageStats().as_dict()
        return self._stages.stats_snapshot()

    # -- keying ---------------------------------------------------------------

    def key_for(
        self,
        sources: Sequence[tuple[str, str]] | Sequence[str],
        options: "Mapping[str, object] | CompileOptions | None" = None,
    ) -> str:
        """Content-address of one compilation (see :func:`fingerprint_sources`)."""
        return fingerprint_sources(sources, options)

    # -- lookup / store -------------------------------------------------------

    def get(self, key: str) -> Optional["CompilationResult"]:
        """Return the cached result for ``key`` or ``None`` on a miss.

        Lookup order: in-memory LRU, local disk, then the remote tier
        (when one is configured).  A remote hit is promoted into both
        local tiers so the next process start over the same ``cache_dir``
        hits disk without touching the network.
        """
        return self._results.get(key)

    def put(self, key: str, result: "CompilationResult", *, disk: bool = True) -> None:
        """Store a result under its content address (memory, disk, remote).

        ``disk=False`` populates only the in-memory tier -- used when the
        on-disk artefact is known to exist already (e.g. a process-pool
        worker stored it), to avoid re-pickling the result.  The remote
        upload (when a remote is configured) is write-behind: the pickled
        payload is queued and the compile path never waits on the network.
        """
        self._results.put(key, result, persist=disk)
        if disk:
            self.enforce_disk_budget()

    def absorb_hit(self, key: str, result: "CompilationResult") -> None:
        """Fold in a hit observed by another process over the same disk store.

        Process-pool workers do their lookups in their own cache instances;
        the parent calls this per warm result so its stats reflect the batch
        ("cached" designs <=> recorded hits) and its memory tier warms up.
        """
        self._results.absorb_hit(key, result)

    def clear(self, *, disk: bool = False) -> None:
        """Drop the in-memory tiers (and, optionally, the on-disk store).

        Cascades to the per-stage sub-cache: a cleared cache serves no warm
        artefacts of any kind, and ``disk=True`` reclaims the whole
        directory including ``stages/`` and stale ``.tmp`` leaks from
        crashed writers.
        """
        self._results.clear()
        if disk and self.cache_dir is not None and self.cache_dir.is_dir():
            for pattern in ("*.pkl", "*.tmp"):
                for path in self.cache_dir.rglob(pattern):
                    try:
                        path.unlink()
                    except OSError:
                        with self._lock:
                            self.stats.disk_errors += 1
        # An unbuilt stage cache holds nothing in memory, and the sweep
        # above already reclaimed its disk artefacts under ``stages/``.
        if self._stages is not None:
            self._stages.clear(disk=disk)

    def __len__(self) -> int:
        return len(self._results)

    def stats_snapshot(self) -> dict[str, object]:
        """A consistent copy of the counters, taken under the cache lock.

        :attr:`stats` is mutated under ``self._lock``; reading it lock-free
        (as ``stats.as_dict()`` does) can observe a torn set of counters --
        e.g. a ``hits`` that already includes a lookup whose ``disk_hits``
        increment it misses.  Status endpoints (``Workspace.stats``, the
        compile service's ``stats`` method, the CLI JSON payloads) read
        through this snapshot instead.  With a remote tier configured the
        snapshot carries its per-tier counters under a nested ``"remote"``
        key (hits / misses / bytes / errors / endpoint health).
        """
        with self._lock:
            snapshot: dict[str, object] = dict(self.stats.as_dict())
        if self.remote is not None:
            remote_snapshot = getattr(self.remote, "stats_snapshot", None)
            snapshot["remote"] = (
                remote_snapshot() if remote_snapshot is not None else None
            )
        return snapshot

    def enforce_disk_budget(self) -> int:
        """Apply ``max_disk_bytes`` to the on-disk store (both tiers)."""
        if self.cache_dir is None or self.max_disk_bytes is None:
            return 0
        evicted = evict_lru_files(self.cache_dir, self.max_disk_bytes)
        if evicted:
            with self._lock:
                self.stats.disk_evictions += evicted
        return evicted
