"""Backend registry: name -> :class:`~repro.backends.base.Backend` lookup.

Built-in backends register themselves at import time through
:func:`register_backend`; the registry imports a built-in's module on the
first lookup of its name (:data:`BUILTIN_BACKENDS`), so validating
``--target vhdl`` loads the ``vhdl`` wrapper and no other backend.
Third-party packages can join the registry without touching this
repository by declaring an entry point in the ``repro.backends`` group::

    [project.entry-points."repro.backends"]
    systemc = "my_pkg.systemc:SystemCBackend"

Entry points are resolved lazily on the first lookup that misses the
in-process table, so an installed plugin shows up in
``tydi-compile --list-backends`` with no configuration.  Lookup failures
raise :class:`~repro.errors.TydiBackendError` naming the available
backends, which is also what the CLI prints for an unknown ``--target``.
"""

from __future__ import annotations

import importlib
from typing import Iterator, Optional

from repro.backends.base import Backend, BackendOptions
from repro.errors import TydiBackendError

#: Entry-point group third-party backends register under.
ENTRY_POINT_GROUP = "repro.backends"

#: Built-in backend name -> the module whose import registers it.
BUILTIN_BACKENDS = {
    "dot": "repro.backends.dot",
    "ir": "repro.backends.ir_text",
    "tydi-ir": "repro.backends.tydi_ir",
    "verilog": "repro.backends.verilog",
    "vhdl": "repro.backends.vhdl",
}

_REGISTRY: dict[str, type[Backend]] = {}
_ENTRY_POINTS_LOADED = False


def _load_builtin(name: str) -> None:
    """Import the built-in backend ``name`` (registering it), if any."""
    module = BUILTIN_BACKENDS.get(name)
    if module is not None and name not in _REGISTRY:
        importlib.import_module(module)


def register_backend(backend_class: type[Backend]) -> type[Backend]:
    """Register a backend class under its ``name`` (usable as a decorator).

    Re-registering the *same* class is a no-op; a different class under an
    already-taken name is an error -- silently shadowing an emitter would
    make cached outputs ambiguous.
    """
    name = backend_class.name
    if not name:
        raise TydiBackendError(f"backend class {backend_class.__name__} has no name")
    if backend_class.__module__ != BUILTIN_BACKENDS.get(name):
        # A built-in name is taken before its module is first imported.
        _load_builtin(name)
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not backend_class:
        raise TydiBackendError(
            f"backend name {name!r} is already registered to {existing.__name__}"
        )
    _REGISTRY[name] = backend_class
    return backend_class


def unregister_backend(name: str) -> None:
    """Remove a backend from the registry (test isolation helper)."""
    _REGISTRY.pop(name, None)


def _load_entry_points() -> None:
    """Fold ``repro.backends`` entry points into the registry, once."""
    global _ENTRY_POINTS_LOADED
    if _ENTRY_POINTS_LOADED:
        return
    _ENTRY_POINTS_LOADED = True
    try:
        from importlib.metadata import entry_points
    except ImportError:  # pragma: no cover - stdlib on every supported version
        return
    try:
        discovered = entry_points(group=ENTRY_POINT_GROUP)
    except Exception:  # pragma: no cover - malformed installed metadata
        return
    for entry in discovered:
        if entry.name in _REGISTRY:
            continue  # built-ins (and earlier plugins) win
        try:
            loaded = entry.load()
        except Exception:  # pragma: no cover - a broken plugin must not
            continue  # take down every other backend
        if isinstance(loaded, type) and issubclass(loaded, Backend):
            _REGISTRY.setdefault(entry.name, loaded)


def backend_class(name: str) -> type[Backend]:
    """The registered backend class for ``name``."""
    cls = _REGISTRY.get(name)
    if cls is None:
        _load_builtin(name)
        cls = _REGISTRY.get(name)
    if cls is None:
        _load_entry_points()
        cls = _REGISTRY.get(name)
    if cls is None:
        known = ", ".join(available_backends()) or "none"
        raise TydiBackendError(f"unknown backend {name!r} (available: {known})")
    return cls


def get_backend(name: str, options: Optional[BackendOptions] = None) -> Backend:
    """Instantiate the backend registered under ``name``."""
    return backend_class(name)(options)


def available_backends() -> list[str]:
    """Sorted names of every registered backend (entry points included)."""
    for name in BUILTIN_BACKENDS:
        _load_builtin(name)
    _load_entry_points()
    return sorted(_REGISTRY)


def iter_backends() -> Iterator[type[Backend]]:
    """Registered backend classes in name order."""
    for name in available_backends():
        yield _REGISTRY[name]
