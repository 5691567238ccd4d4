"""Pluggable output backends for the Tydi-IR -> artefact boundary.

The paper's Figure 1 pipeline ends at one hard-coded target ("Tydi IR ->
backend -> VHDL"); the companion IR paper frames Tydi-IR as a composable
artefact consumed by *multiple* independent backends.  This package makes
that boundary pluggable:

* :mod:`repro.backends.base` -- the :class:`Backend` protocol (name,
  frozen options dataclass, ``emit(project) -> {filename: text}`` with
  per-implementation ``emit_unit`` granularity) and
  :func:`implementation_fingerprint`, the content address the
  backend-output cache keys units by.
* :mod:`repro.backends.registry` -- name -> backend lookup with
  ``repro.backends`` entry-point discovery for third-party emitters.
* Built-ins: ``vhdl`` (:mod:`repro.backends.vhdl`), ``verilog``
  (:mod:`repro.backends.verilog`), ``ir`` (:mod:`repro.backends.ir_text`),
  ``tydi-ir`` (:mod:`repro.backends.tydi_ir`) and ``dot``
  (:mod:`repro.backends.dot`).  Each registers itself when its module is
  imported, which the registry does on the first lookup of its name.

The compile pipeline threads targets through every layer: ``compile_sources
(..., targets=("vhdl", "dot"))`` runs a backend stage whose
per-implementation outputs the :class:`~repro.pipeline.stages.StageCache`
memoises, ``CompileJob.targets`` carries them through the batch and
incremental drivers, and the CLI exposes ``--target`` / ``--list-backends``.
See ``docs/backends.md``.
"""

from repro import lazy_exports

__all__ = [
    "Backend",
    "BackendOptions",
    "DotBackend",
    "DotBackendOptions",
    "ENTRY_POINT_GROUP",
    "IrTextBackend",
    "IrTextBackendOptions",
    "TydiIrBackend",
    "TydiIrBackendOptions",
    "VerilogBackendOptions",
    "VerilogFilesBackend",
    "VhdlBackendOptions",
    "VhdlFilesBackend",
    "available_backends",
    "backend_class",
    "coerce_option_value",
    "get_backend",
    "implementation_fingerprint",
    "iter_backends",
    "option_schema",
    "options_for_backend",
    "parse_backend_opt_specs",
    "register_backend",
    "unregister_backend",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.backends.base": ("Backend", "BackendOptions", "implementation_fingerprint"),
        "repro.backends.options": (
            "coerce_option_value",
            "option_schema",
            "options_for_backend",
            "parse_backend_opt_specs",
        ),
        "repro.backends.registry": (
            "ENTRY_POINT_GROUP",
            "available_backends",
            "backend_class",
            "get_backend",
            "iter_backends",
            "register_backend",
            "unregister_backend",
        ),
        "repro.backends.dot": ("DotBackend", "DotBackendOptions"),
        "repro.backends.ir_text": ("IrTextBackend", "IrTextBackendOptions"),
        "repro.backends.tydi_ir": ("TydiIrBackend", "TydiIrBackendOptions"),
        "repro.backends.verilog": ("VerilogBackendOptions", "VerilogFilesBackend"),
        "repro.backends.vhdl": ("VhdlBackendOptions", "VhdlFilesBackend"),
    },
)
