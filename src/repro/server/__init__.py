"""``repro.server``: the async compile service over one shared Workspace.

The long-lived daemon face of the toolchain: one
:class:`~repro.server.service.CompileService` wraps either one
:class:`~repro.workspace.Workspace` (the ``workers=0`` in-process thread
path) or a :class:`~repro.server.pool.WorkerPool` of forked worker
processes with designs sharded across them by stable name hash
(``workers=N``); an asyncio transport
(:class:`~repro.server.transport.TydiServer`) speaks pipelined
newline-delimited JSON over TCP plus a minimal HTTP/1.1 POST endpoint, and
:class:`~repro.server.client.CompileClient` is the synchronous client the
``tydi-serve request`` CLI and the test suites drive it with.

:mod:`repro.server.cachesvc` is the sibling daemon (``tydi-serve cache``):
the shared remote L2 cache every compile session pointed at it with
``--remote-cache`` shares (see :mod:`repro.pipeline.remote`).

See ``docs/server.md`` for the protocol reference and the worker-pool
architecture.
"""

from repro import lazy_exports

__all__ = [
    "CacheServer",
    "CacheServerThread",
    "CacheStore",
    "CompileClient",
    "CompileService",
    "LatencyHistogram",
    "MAX_PIPELINE_REQUESTS",
    "MethodMetrics",
    "POOLED_METHODS",
    "PROTOCOL_VERSION",
    "RemoteCompileError",
    "ServerThread",
    "TydiServer",
    "WorkerPool",
    "http_post",
    "serve",
    "shard_for",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.server.cachesvc": ("CacheServer", "CacheServerThread", "CacheStore"),
        "repro.server.client": ("CompileClient", "http_post"),
        "repro.server.metrics": ("LatencyHistogram", "MethodMetrics"),
        "repro.server.pool": ("POOLED_METHODS", "WorkerPool", "shard_for"),
        "repro.server.protocol": ("PROTOCOL_VERSION", "RemoteCompileError"),
        "repro.server.service": ("CompileService",),
        "repro.server.transport": ("MAX_PIPELINE_REQUESTS", "ServerThread", "TydiServer", "serve"),
    },
)
