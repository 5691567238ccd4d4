"""The per-process worker loop of the compile worker pool, and its framing.

One worker process owns one :class:`~repro.workspace.Workspace` (the warm
shard memory: its parse/evaluate/backend stage tiers and per-design memos
serve every design hashed onto this shard) wrapped in a ``workers=0``
:class:`~repro.server.service.CompileService`, and speaks a
**length-prefixed pickle** protocol over two inherited pipe file
descriptors -- jobs in, results out:

* frame    = ``!Q`` big-endian payload length + ``pickle`` payload
* parent -> worker: ``("job", job_id, request_dict)`` |
  ``("stats", token)`` | ``("report", token)`` | ``("ping", token)`` |
  EOF (close) = drain and exit
* worker -> parent: ``("result", job_id, envelope)`` |
  ``("stats"|"report", token, payload)`` | ``("pong", token, pid)``

The worker is strictly serial (one job at a time, FIFO), which is what
makes the pool protocol trivial: the parent's per-worker dispatcher thread
writes one frame and reads one frame; a short read means the worker died
mid-job.  All request semantics -- validation, did-you-mean errors,
structured :class:`~repro.errors.TydiError` envelopes -- come from the
same :meth:`CompileService.dispatch` code path the in-process server uses,
so pooled and threaded serving are differentially identical
(``tests/test_pool.py``).

Workers are forked *after* the parent warmed the stdlib parse (see
:func:`repro.server.pool.warm_stdlib`), so every worker starts with the
~200-line stdlib AST already in memory instead of paying the ~60ms parse
on its first job.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import sys
from typing import Any, Mapping, Optional, Sequence

#: Frame header: one unsigned 64-bit big-endian payload length.
FRAME_HEADER = struct.Struct("!Q")

#: Sanity bound on one frame (a corrupt header must not trigger a
#: multi-gigabyte allocation; real envelopes are bounded by the NDJSON
#: protocol's 64 MiB line limit well before this).
MAX_FRAME_BYTES = 256 * 1024 * 1024


def write_frame(fd: int, obj: Any) -> None:
    """Write one length-prefixed pickle frame to a pipe fd."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(payload)} bytes exceeds the pool bound")
    data = FRAME_HEADER.pack(len(payload)) + payload
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def read_frame(fd: int) -> Optional[Any]:
    """Read one frame; ``None`` on EOF or a truncated frame (peer died)."""
    header = _read_exactly(fd, FRAME_HEADER.size)
    if header is None:
        return None
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame header claims {length} bytes (corrupt stream?)")
    payload = _read_exactly(fd, length)
    if payload is None:
        return None
    return pickle.loads(payload)


def _read_exactly(fd: int, length: int) -> Optional[bytes]:
    chunks = []
    remaining = length
    while remaining:
        try:
            chunk = os.read(fd, remaining)
        except OSError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def worker_main(
    index: int,
    job_fd: int,
    result_fd: int,
    config: Mapping[str, Any],
    close_fds: Sequence[int] = (),
) -> None:
    """The worker process entry point: serve frames until EOF.

    ``config`` carries the workspace wiring (``cache_dir`` /
    ``max_cache_mb`` / ``options``) shared by every worker -- the on-disk
    cache tiers are multi-process safe (atomic writes), so workers sharing
    one ``cache_dir`` share cold artefacts while keeping their in-memory
    tiers private to their shard.

    ``close_fds`` lists pipe fds this fork inherited but must not hold:
    its own copies of the parent-side ends, and every *other* worker's
    pipe ends (a fork copies the whole fd table).  Closing them is what
    makes EOF semantics work -- the parent closing a job pipe must be the
    *last* open write end, or drain never reaches the worker; a crashed
    worker's result pipe must EOF in the parent, or crashes go undetected.
    """
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass  # already closed, or a stale snapshot entry: both fine
    # The parent owns lifecycle: Ctrl-C to the process group must not kill
    # workers mid-drain (the parent closes the job pipe instead).
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass

    from repro.server.service import CompileService
    from repro.workspace import Workspace

    # remote_cache travels as an endpoint string: the client (socket +
    # writer thread) must be created here, after the fork, never inherited.
    workspace = Workspace(
        cache_dir=config.get("cache_dir"),
        max_cache_mb=config.get("max_cache_mb"),
        remote_cache=config.get("remote_cache"),
        options=config.get("options"),
        label=f"worker-{index}",
    )
    service = CompileService(workspace=workspace, jobs=1)
    try:
        while True:
            message = read_frame(job_fd)
            if message is None:
                break  # parent closed the pipe (drain) or vanished
            kind = message[0]
            if kind == "job":
                _, job_id, request = message
                envelope = service.dispatch(request)
                write_frame(result_fd, ("result", job_id, envelope))
            elif kind == "stats":
                write_frame(result_fd, ("stats", message[1], workspace.stats()))
            elif kind == "report":
                write_frame(result_fd, ("report", message[1], workspace.report()))
            elif kind == "ping":
                write_frame(result_fd, ("pong", message[1], os.getpid()))
            elif kind == "exit":
                break
            # Unknown kinds are skipped (a newer parent speaking to an
            # older worker fails loudly elsewhere; never crash the shard).
    except (BrokenPipeError, KeyboardInterrupt):  # pragma: no cover
        pass
    finally:
        service.close()
        try:
            os.close(result_fd)
        except OSError:  # pragma: no cover - already closed
            pass
    sys.exit(0)
