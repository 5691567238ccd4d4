"""Error and diagnostic types used across the Tydi-lang reproduction.

Every user-facing failure in the toolchain is reported through one of the
exception classes defined here so that callers (CLI, tests, benchmark harness)
can distinguish *which stage* of the pipeline rejected the input:

* :class:`TydiInputError` -- malformed compile inputs (source lists, option
  mappings) rejected before any stage runs.
* :class:`TydiWorkspaceError` -- session misuse of :class:`repro.workspace.
  Workspace` (unknown design/file names, duplicates).
* :class:`TydiSyntaxError` -- lexer / parser failures.
* :class:`TydiNameError` -- unresolved identifiers during evaluation.
* :class:`TydiTypeError` -- logical-type construction or expression typing
  failures.
* :class:`TydiEvaluationError` -- template instantiation, ``for``/``if``
  expansion, assertion failures and other evaluation-time problems.
* :class:`TydiDRCError` -- design-rule-check violations (type equality on
  connections, port usage counts, clock-domain mismatches).
* :class:`TydiIngestError` -- malformed Tydi-IR interchange documents
  rejected by the ingest frontend (:mod:`repro.interchange`).
* :class:`TydiBackendError` -- Tydi-IR emission or VHDL generation problems.
* :class:`TydiSimulationError` -- simulator configuration or runtime errors.
* :class:`TydiServerError` -- compile-service protocol violations (malformed
  request envelopes, unknown methods, transport failures).

All of them carry an optional :class:`repro.utils.source.SourceSpan` so that
messages can point at the offending location in the Tydi-lang source text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


def did_you_mean(name: str, known: Sequence[str]) -> str:
    """A `` (did you mean 'x'?)`` tail for an unknown-name error message.

    Returns the empty string when nothing is close -- the one suggestion
    format shared by option validation across the toolchain (compile
    options, backend options).
    """
    import difflib

    close = difflib.get_close_matches(name, list(known), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


class TydiError(Exception):
    """Base class for all errors raised by the toolchain."""

    #: Short machine-readable stage name ("parse", "evaluate", "drc", ...).
    stage: str = "general"

    def __init__(self, message: str, span: Optional[object] = None) -> None:
        self.message = message
        self.span = span
        super().__init__(self.render())

    def render(self) -> str:
        """Return the formatted, location-annotated message."""
        if self.span is not None:
            return f"{self.span}: {self.message}"
        return self.message


class TydiInputError(TydiError):
    """Raised when compile *inputs* (source lists, option mappings) are
    malformed before any stage runs -- e.g. a ``sources`` entry that is not a
    ``(source_text, filename)`` pair.  The message always names the offending
    index or key, so callers fail at the call site instead of deep inside a
    later stage with an opaque unpack error."""

    stage = "input"


class TydiWorkspaceError(TydiError):
    """Raised by :class:`repro.workspace.Workspace` for session misuse:
    unknown design or file names, duplicate designs, invalid cache wiring."""

    stage = "workspace"


class TydiSyntaxError(TydiError):
    """Raised by the lexer or parser on malformed Tydi-lang source."""

    stage = "parse"


class TydiNameError(TydiError):
    """Raised when an identifier cannot be resolved in any visible scope."""

    stage = "resolve"


class TydiTypeError(TydiError):
    """Raised for invalid logical-type construction or mis-typed expressions."""

    stage = "type"


class TydiEvaluationError(TydiError):
    """Raised during evaluation/expansion of the source into a flat design."""

    stage = "evaluate"


class TydiAssertionError(TydiEvaluationError):
    """Raised when a Tydi-lang ``assert(...)`` fails during evaluation."""

    stage = "assert"


class TydiDRCError(TydiError):
    """Raised when the design-rule check rejects an evaluated design."""

    stage = "drc"


class TydiIngestError(TydiError):
    """Raised by the Tydi-IR interchange frontend (:mod:`repro.interchange`)
    when an IR document cannot be parsed back into a
    :class:`repro.ir.model.Project`: lexical or syntactic problems, malformed
    logical-type expressions, and referential-integrity failures of the
    ingested design.  Carries the document location of the offending token,
    so remote callers receive the same ``file:line:col`` envelopes the
    Tydi-lang frontend produces."""

    stage = "ingest"


class TydiBackendError(TydiError):
    """Raised by the Tydi-IR emitter or the VHDL backend."""

    stage = "backend"


class TydiSimulationError(TydiError):
    """Raised by the event-driven simulator.

    Budget-exhaustion errors (``max_time`` / ``max_events``) carry the
    partial :class:`repro.sim.engine.SimulationTrace` recorded up to the
    point of failure in ``trace``, so callers can still run bottleneck or
    deadlock analysis on the truncated run."""

    stage = "simulate"

    def __init__(
        self,
        message: str,
        span: Optional[object] = None,
        *,
        trace: Optional[object] = None,
    ) -> None:
        self.trace = trace
        super().__init__(message, span)


class TydiServerError(TydiError):
    """Raised by the compile service (:mod:`repro.server`) for protocol-level
    problems: malformed request envelopes, unknown methods, missing or
    mis-typed parameters, transport failures on the client side."""

    stage = "server"


class TydiDrainingError(TydiServerError):
    """Raised when a request reaches a compile service that is draining for
    shutdown: in-flight jobs finish, but no new work is accepted.  Clients
    see the concrete type name in the error envelope (``type:
    "TydiDrainingError"``), so retry-against-a-replica logic can branch on
    it without string-matching."""

    stage = "server"


class TydiBackpressureError(TydiServerError):
    """Raised when a compile worker's bounded job queue is full: the caller
    should back off and retry.  Structured (``type:
    "TydiBackpressureError"``) for the same reason as
    :class:`TydiDrainingError` -- overload handling must be branchable."""

    stage = "server"


@dataclass(frozen=True)
class Diagnostic:
    """A non-fatal message produced by a pipeline stage.

    Diagnostics are collected (rather than raised) for conditions the paper
    describes as reportable-but-recoverable, e.g. the DRC report listing the
    sugaring decisions that were applied, or simulator warnings about ports
    that never fired.
    """

    severity: str  # "info" | "warning" | "error"
    stage: str
    message: str
    span: Optional[object] = None

    def __str__(self) -> str:  # pragma: no cover - trivial formatting
        loc = f"{self.span}: " if self.span is not None else ""
        return f"[{self.severity}/{self.stage}] {loc}{self.message}"


class DiagnosticSink:
    """Accumulates :class:`Diagnostic` objects emitted by pipeline stages."""

    def __init__(self) -> None:
        self._items: list[Diagnostic] = []

    def emit(self, severity: str, stage: str, message: str, span: object | None = None) -> Diagnostic:
        diag = Diagnostic(severity=severity, stage=stage, message=message, span=span)
        self._items.append(diag)
        return diag

    def info(self, stage: str, message: str, span: object | None = None) -> Diagnostic:
        return self.emit("info", stage, message, span)

    def warning(self, stage: str, message: str, span: object | None = None) -> Diagnostic:
        return self.emit("warning", stage, message, span)

    def error(self, stage: str, message: str, span: object | None = None) -> Diagnostic:
        return self.emit("error", stage, message, span)

    @property
    def items(self) -> list[Diagnostic]:
        return list(self._items)

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self._items if d.severity == "warning"]

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self._items if d.severity == "error"]

    def has_errors(self) -> bool:
        return any(d.severity == "error" for d in self._items)

    def extend(self, other: "DiagnosticSink") -> None:
        self._items.extend(other._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)
