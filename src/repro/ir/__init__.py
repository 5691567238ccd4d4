"""Tydi-IR: the intermediate representation emitted by the Tydi-lang frontend.

The IR mirrors the hardware elements of Table I in the paper:

* :class:`~repro.ir.model.Port` -- named, directed, typed port.
* :class:`~repro.ir.model.Streamlet` -- the port map of a component
  (VHDL ``entity`` analogue).
* :class:`~repro.ir.model.Implementation` -- instances + connections
  (VHDL ``architecture`` analogue), or ``external``.
* :class:`~repro.ir.model.Instance` -- a nested implementation instance.
* :class:`~repro.ir.model.Connection` -- a typed link between two ports.
* :class:`~repro.ir.model.Project` -- a closed set of streamlets and
  implementations with a designated top level.

:mod:`repro.ir.emit` renders a project to the textual Tydi-IR syntax and
:mod:`repro.ir.testbench` models the prediction-style testbenches that the
simulator generates.
"""

from repro import lazy_exports

__all__ = [
    "ClockDomain",
    "Connection",
    "Implementation",
    "Instance",
    "Port",
    "PortDirection",
    "PortRef",
    "Project",
    "Streamlet",
    "emit_project",
    "emit_streamlet",
    "emit_implementation",
    "Testbench",
    "TestbenchEvent",
    "TestbenchVector",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.ir.model": (
            "ClockDomain",
            "Connection",
            "Implementation",
            "Instance",
            "Port",
            "PortDirection",
            "PortRef",
            "Project",
            "Streamlet",
        ),
        "repro.ir.emit": ("emit_project", "emit_streamlet", "emit_implementation"),
        "repro.ir.testbench": ("Testbench", "TestbenchEvent", "TestbenchVector"),
    },
)
