"""Asyncio transports of the compile service: NDJSON over TCP, plus HTTP.

One listening socket speaks both protocols -- the first line of a
connection decides:

* **NDJSON** (the native protocol): every line is one JSON request, every
  response one JSON line, many requests per connection.  The connection
  is **pipelined**: requests are handled concurrently and responses may
  return *out of request order* -- the echoed ``id`` pairs them -- so one
  slow cold compile never blocks the faster requests behind it.  A
  strictly request/response client (one request in flight, like
  :meth:`repro.server.client.CompileClient.request`) still observes
  perfectly ordered responses.  At most
  :data:`MAX_PIPELINE_REQUESTS` requests are in flight per connection;
  beyond that the server stops reading the socket (TCP backpressure).
* **HTTP/1.1** (the interop escape hatch): a ``POST`` whose body is the
  same JSON request document; the response is the JSON envelope with
  ``Content-Type: application/json``.  One request per connection
  (``Connection: close``), so ``curl`` works against a running daemon::

      curl -s http://127.0.0.1:4780/ -d '{"method": "ping"}'

Everything is stdlib ``asyncio`` -- no third-party HTTP framework; the
HTTP support is deliberately minimal (POST only, no keep-alive, no
chunked bodies) because the NDJSON protocol is the production path.

Shutdown is drain-first: the service's ``shutdown`` method completes only
after every in-flight request finished, so by the time the transport
winds down, every response has been written.  Idle connections parked in
a read are woken by an in-loop closing event rather than having their
sockets yanked mid-write.

:class:`ServerThread` runs the whole stack on a background thread's event
loop -- the harness the tests, the stress suite and the throughput
benchmark drive a real server through.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
from collections import deque
from typing import Any, Mapping, Optional

from repro.server import protocol
from repro.server.protocol import MAX_MESSAGE_BYTES, error_envelope
from repro.server.service import CompileService

#: In-flight request bound per NDJSON connection: past this the server
#: stops reading the socket, which surfaces to the peer as TCP
#: backpressure (the pool's bounded queues provide the structured-error
#: form of backpressure at the next layer down).
MAX_PIPELINE_REQUESTS = 64

#: Pending watch-event bound per NDJSON connection: a slow reader drops
#: the *oldest* undelivered events (each later frame carries a ``dropped``
#: count) instead of buffering without bound or stalling the notifier.
WATCH_QUEUE_DEPTH = 16


class _WatchState:
    """Per-connection ``watch_design`` state: tokens, queue, flusher.

    The service's notifier threads call :meth:`deliver` (thread-safe,
    never blocks); events land in a bounded drop-oldest queue on the
    event loop and a single flusher task writes them as NDJSON frames
    under the connection's write lock -- so event frames interleave with,
    but never tear, pipelined response frames.  Event frames carry an
    ``"event"`` key and ``"id": null``; clients pair responses by ``id``
    and buffer anything with an ``"event"`` key.
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        self.loop = loop
        self.writer = writer
        self.write_lock = write_lock
        self.tokens: list[int] = []
        self.events: deque[dict[str, Any]] = deque()
        self.dropped = 0
        self.ready = asyncio.Event()
        self.flusher: Optional["asyncio.Task[None]"] = None

    def deliver(self, event: dict[str, Any]) -> None:
        """Queue one event from any thread (the service's notifier)."""
        self.loop.call_soon_threadsafe(self._push, event)

    def _push(self, event: dict[str, Any]) -> None:
        if len(self.events) >= WATCH_QUEUE_DEPTH:
            self.events.popleft()
            self.dropped += 1
        self.events.append(event)
        self.ready.set()

    def ensure_flusher(self) -> None:
        if self.flusher is None:
            self.flusher = self.loop.create_task(self._flush())

    async def _flush(self) -> None:
        while True:
            await self.ready.wait()
            self.ready.clear()
            while self.events:
                frame = dict(self.events.popleft())
                frame["id"] = None
                if self.dropped:
                    frame["dropped"] = self.dropped
                    self.dropped = 0
                try:
                    async with self.write_lock:
                        self.writer.write(_encode(frame))
                        await self.writer.drain()
                except (ConnectionError, RuntimeError):
                    return  # the peer went away; the read loop cleans up

    def close(self, service: CompileService) -> None:
        for token in self.tokens:
            service.remove_watch(token)
        self.tokens.clear()
        if self.flusher is not None:
            self.flusher.cancel()
            self.flusher = None


def _encode(envelope: dict[str, Any]) -> bytes:
    """One compact JSON line (the NDJSON frame; also the HTTP body).

    Responses beyond ``MAX_MESSAGE_BYTES`` are replaced with an error
    envelope: a peer reading with the documented line bound would only see
    a truncated, unparseable line otherwise.
    """
    payload = json.dumps(envelope, separators=(",", ":")).encode() + b"\n"
    if len(payload) > MAX_MESSAGE_BYTES:
        from repro.errors import TydiServerError

        oversized = error_envelope(
            envelope.get("id"),
            TydiServerError(
                f"response of {len(payload)} bytes exceeds the protocol bound "
                f"of {MAX_MESSAGE_BYTES} (split the design or query fewer outputs)"
            ),
        )
        payload = json.dumps(oversized, separators=(",", ":")).encode() + b"\n"
    return payload


class TydiServer:
    """The asyncio front of one :class:`~repro.server.service.CompileService`.

    ``port=0`` binds an ephemeral port; :attr:`address` reports the real
    one after :meth:`start`.  The server stops when the service's
    ``shutdown`` method has drained (or :meth:`stop` is called locally);
    in-flight responses are written before their connections close.
    """

    def __init__(
        self,
        service: CompileService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop: Optional[asyncio.Event] = None
        self._closing: Optional[asyncio.Event] = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set["asyncio.Task[None]"] = set()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def start(self) -> tuple[str, int]:
        self._stop = asyncio.Event()
        self._closing = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            limit=MAX_MESSAGE_BYTES,
        )
        self.port = self.address[1]
        return self.address

    async def serve_until_shutdown(self) -> None:
        """Block until a shutdown is requested, then close down cleanly."""
        assert self._stop is not None, "call start() first"
        await self._stop.wait()
        if self._closing is not None:
            self._closing.set()  # wake connections parked in a read
        server, self._server = self._server, None
        if server is not None:
            server.close()
            # Give connection handlers time to flush in-flight responses
            # (the drain path means they are already computed); only then
            # force-close whatever is left.
            if self._conn_tasks:
                await asyncio.wait(set(self._conn_tasks), timeout=10.0)
            for writer in list(self._connections):
                with contextlib.suppress(Exception):
                    writer.close()
            await server.wait_closed()
        self.service.close()

    def stop(self) -> None:
        """Request shutdown from inside the loop (idempotent)."""
        self.service.shutdown_requested.set()
        if self._closing is not None:
            self._closing.set()
        if self._stop is not None:
            self._stop.set()

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._connections.add(writer)
        try:
            # Raced against closing like every later read: a client that
            # connects and never sends must not stall shutdown.
            first = await self._read_or_closing(reader)
            if not first:
                return
            if _looks_like_http(first):
                await self._serve_http(first, reader, writer)
            else:
                await self._serve_ndjson(first, reader, writer)
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ValueError,  # a line beyond MAX_MESSAGE_BYTES (StreamReader limit)
        ):
            pass  # a vanished or misframing peer is its own problem
        finally:
            self._connections.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()
            if self.service.shutdown_requested.is_set() and self._stop is not None:
                self._stop.set()

    async def _serve_ndjson(
        self,
        first_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """The pipelined request loop of one NDJSON connection.

        Every request line becomes its own task; a per-connection write
        lock keeps response frames whole while letting them interleave in
        completion order.  The read loop races the next line against the
        server's closing event, so an idle connection never holds
        shutdown hostage and a closing connection still finishes writing
        what it already accepted.
        """
        assert self._closing is not None
        write_lock = asyncio.Lock()
        slots = asyncio.Semaphore(MAX_PIPELINE_REQUESTS)
        watch_state = _WatchState(asyncio.get_running_loop(), writer, write_lock)
        tasks: set["asyncio.Task[None]"] = set()
        line: Optional[bytes] = first_line
        error: Optional[BaseException] = None
        try:
            while line:
                stripped = line.strip()
                if stripped:
                    await slots.acquire()
                    response_task = asyncio.create_task(
                        self._respond_one(stripped, writer, write_lock, slots, watch_state)
                    )
                    tasks.add(response_task)
                    response_task.add_done_callback(tasks.discard)
                if self._closing.is_set() or self.service.shutdown_requested.is_set():
                    break
                line = await self._read_or_closing(reader)
        except (ConnectionError, asyncio.IncompleteReadError, ValueError) as exc:
            error = exc
        finally:
            if tasks:  # flush accepted work before the connection dies
                await asyncio.gather(*tasks, return_exceptions=True)
            watch_state.close(self.service)
        if error is not None:
            raise error

    async def _read_or_closing(self, reader: asyncio.StreamReader) -> Optional[bytes]:
        """The next request line, or ``None`` once the server is closing."""
        assert self._closing is not None
        read_task = asyncio.create_task(reader.readline())
        closing_task = asyncio.create_task(self._closing.wait())
        try:
            await asyncio.wait(
                {read_task, closing_task}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for pending in (read_task, closing_task):
                if not pending.done():
                    pending.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await pending
        if read_task.cancelled():
            return None
        return read_task.result()  # may raise: handled by the caller

    async def _respond_one(
        self,
        payload: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        slots: asyncio.Semaphore,
        watch_state: Optional[_WatchState] = None,
    ) -> None:
        try:
            message: Any = None
            try:
                message = json.loads(payload)
            except ValueError:
                pass
            if (
                watch_state is not None
                and isinstance(message, Mapping)
                and message.get("method") == "watch_design"
            ):
                envelope = self._register_watch(message, watch_state)
            else:
                envelope = await self._handle_raw(payload)
            async with write_lock:
                writer.write(_encode(envelope))
                await writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # the peer (or the transport) went away mid-response
        finally:
            slots.release()

    def _register_watch(
        self, message: Mapping[str, Any], watch_state: _WatchState
    ) -> dict[str, Any]:
        """Handle ``watch_design`` on a streaming connection.

        This is the transport-level twin of the service handler (which can
        only reject the method): the subscription is bound to *this*
        connection's event queue, and torn down when the connection
        closes.  Rejections during drain and parameter validation mirror
        the service's behaviour so both paths answer identically.
        """
        import time as _time

        start = _time.perf_counter()
        request_id = protocol.recover_request_id(message)
        try:
            request_id, _, params = protocol.parse_request(message)
            protocol.unknown_params_check(params, ("design", "plan"), "watch_design")
            design = protocol.require_param(params, "design", str, "watch_design")
            if self.service.draining.is_set():
                from repro.errors import TydiDrainingError

                raise TydiDrainingError(
                    "service is draining for shutdown; 'watch_design' rejected"
                )
            plan = params.get("plan")
            if plan is not None and not isinstance(plan, Mapping):
                from repro.errors import TydiServerError

                raise TydiServerError(
                    f"watch_design: 'plan' must be a JSON object, "
                    f"got {type(plan).__name__}"
                )
            from repro.sim.harness import SimulationPlan

            SimulationPlan.coerce(plan)  # reject malformed plans up front
            token = self.service.add_watch(design, watch_state.deliver, plan)
            watch_state.tokens.append(token)
            watch_state.ensure_flusher()
            envelope = protocol.success_envelope(
                request_id,
                {
                    "design": design,
                    "watching": True,
                    "watch": token,
                    "queue_depth": WATCH_QUEUE_DEPTH,
                },
            )
        except Exception as exc:
            envelope = error_envelope(request_id, exc)
        ok = bool(envelope.get("ok"))
        self.service._count("watch_design", ok=ok)
        self.service.metrics.record(
            "watch_design", _time.perf_counter() - start, ok=ok
        )
        return envelope

    async def _handle_raw(self, payload: bytes) -> dict[str, Any]:
        try:
            message = json.loads(payload)
        except ValueError as exc:
            from repro.errors import TydiServerError

            return error_envelope(None, TydiServerError(f"request is not valid JSON: {exc}"))
        return await self.service.handle(message)

    async def _serve_http(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        from repro.errors import TydiServerError

        parts = request_line.decode("latin-1").split()
        method = parts[0].upper() if parts else ""
        content_length = 0
        while True:  # drain headers
            header = await reader.readline()
            if not header or header in (b"\r\n", b"\n"):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = -1
        if method != "POST":
            envelope = error_envelope(
                None, TydiServerError(f"HTTP method {method or '?'} not supported (use POST)")
            )
            await _write_http(writer, 405, envelope)
            return
        if content_length < 0 or content_length > MAX_MESSAGE_BYTES:
            envelope = error_envelope(
                None, TydiServerError("missing or unacceptable Content-Length")
            )
            await _write_http(writer, 400, envelope)
            return
        body = await reader.readexactly(content_length) if content_length else b""
        envelope = await self._handle_raw(body or b"null")
        status = 200 if envelope.get("ok") else 400
        if not envelope.get("ok") and envelope.get("error", {}).get("stage") != "server":
            # Compile failures are a *successful* protocol exchange: the
            # envelope is the answer.  Only protocol violations are 400s.
            status = 200
        await _write_http(writer, status, envelope)


async def _write_http(writer: asyncio.StreamWriter, status: int, envelope: dict[str, Any]) -> None:
    reasons = {200: "OK", 400: "Bad Request", 405: "Method Not Allowed"}
    body = _encode(envelope)
    head = (
        f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()


def _looks_like_http(first_line: bytes) -> bool:
    """HTTP request lines end in ``HTTP/1.x``; JSON documents cannot."""
    text = first_line.strip()
    return text.endswith(b"HTTP/1.1") or text.endswith(b"HTTP/1.0")


async def serve(
    service: CompileService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: Optional["threading.Event"] = None,
    on_ready=None,
) -> None:
    """Start a :class:`TydiServer` and run it until shutdown is requested.

    ``on_ready(server)`` (if given) fires after binding -- the CLI prints
    the address there; ``ready`` (if given) is set at the same moment --
    :class:`ServerThread` blocks on it.
    """
    server = TydiServer(service, host=host, port=port)
    await server.start()

    # Bridge the service's thread-safe shutdown event into the loop: a
    # shutdown request arriving over a connection sets it in-loop, but the
    # CLI's signal handler (or ServerThread.stop) sets it from outside.
    loop = asyncio.get_running_loop()

    async def watch_shutdown() -> None:
        while not service.shutdown_requested.is_set():
            await asyncio.sleep(0.05)
        server.stop()

    watcher = loop.create_task(watch_shutdown())
    if on_ready is not None:
        on_ready(server)
    if ready is not None:
        ready.set()
    try:
        await server.serve_until_shutdown()
    finally:
        watcher.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await watcher


class ServerThread:
    """A live compile server on a background thread (tests and benchmarks).

    Usage::

        with ServerThread() as server:
            client = CompileClient(*server.address)
            ...

    Exiting the context requests shutdown and joins the thread, asserting
    the loop wound down cleanly.  ``service`` defaults to a fresh
    uncached-workspace service.
    """

    def __init__(
        self,
        service: Optional[CompileService] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service if service is not None else CompileService()
        self.host = host
        self.port = port
        self._ready = threading.Event()
        self._server_box: list[TydiServer] = []
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    @property
    def address(self) -> tuple[str, int]:
        if not self._server_box:
            raise RuntimeError("server thread is not running")
        return self.host, self._server_box[0].port

    def start(self) -> "ServerThread":
        def run() -> None:
            try:
                asyncio.run(
                    serve(
                        self.service,
                        host=self.host,
                        port=self.port,
                        ready=self._ready,
                        on_ready=self._server_box.append,
                    )
                )
            except BaseException as exc:  # surfaced by stop()/join
                self._error = exc
                self._ready.set()

        self._thread = threading.Thread(target=run, name="tydi-serve", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread did not become ready")
        if self._error is not None:
            raise RuntimeError(f"server thread failed to start: {self._error!r}")
        return self

    def stop(self, timeout: float = 30) -> None:
        self.service.shutdown_requested.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():
                raise RuntimeError("server thread did not shut down in time")
            self._thread = None
        if self._error is not None:
            error, self._error = self._error, None
            raise RuntimeError(f"server thread raised: {error!r}")

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
