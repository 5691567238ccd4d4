"""Shared fixtures and builders.

Fixtures: synthetic TPC-H data and cached compiled query designs.

Builders: the randomized multi-file design generators backing the
staged-vs-monolithic differential harness
(``tests/test_stage_differential.py``).  The implementations live in
:mod:`repro.testing` (the benchmark suite needs the same notion of "an
N-file design with a one-file edit" and has its own conftest namespace);
they are re-exported here so harness code can treat them as test-suite
builders.
"""

from __future__ import annotations

import pytest

from repro.arrow.tpch import generate_tpch_data
from repro.testing import (  # noqa: F401 - shared differential-harness builders
    build_chain_design,
    build_random_design,
    mutate_design,
)


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the pinned expectations under tests/golden/ from the "
        "current outputs instead of comparing against them",
    )


@pytest.fixture(scope="session")
def update_golden(request):
    """Whether this run regenerates the golden files (``--update-golden``)."""
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture(scope="session")
def tpch_tables():
    """A small, seeded TPC-H dataset shared by the integration tests."""
    return generate_tpch_data(200, seed=7)


@pytest.fixture(scope="session")
def tpch_tables_medium():
    """A larger dataset for the selective multi-table queries (Q3/Q5/Q19)."""
    return generate_tpch_data(1200, seed=11)


@pytest.fixture(scope="session")
def compiled_queries():
    """Compile every TPC-H design once per test session."""
    from repro.queries import ALL_QUERIES

    return {query.name: query.compile() for query in ALL_QUERIES}


def _chain_source(width: int) -> str:
    """One ``for``-expanded serial chain of ``width`` instances."""
    return f"""
type link_t = Stream(Bit(8), d=1);
streamlet step_s {{ i: link_t in, o: link_t out, }}
external impl step_i of step_s;
streamlet chain_s {{ feed: link_t in, result: link_t out, }}
impl chain_i of chain_s {{
    instance pu(step_i) [{width}],
    feed => pu[0].i,
    for i in 0->{width - 1} {{
        pu[i].o => pu[i+1].i,
    }}
    pu[{width - 1}].o => result,
}}
top chain_i;
"""


@pytest.fixture
def resolve_port_calls(monkeypatch):
    """``count(backend, width)``: how many ``Project.resolve_port`` calls one
    backend's emission of a ``width``-instance chain makes.

    A deterministic stand-in for emission cost: linear emission resolves
    each connection a constant number of times, so the count grows with
    the width, not with its square.
    """
    from repro.backends import get_backend
    from repro.ir.model import Project
    from repro.lang.compile import compile_sources

    def count(backend: str, width: int) -> int:
        project = compile_sources([(_chain_source(width), "chain.td")], include_stdlib=False).project
        calls = 0
        original = Project.resolve_port

        def counting(self, implementation, ref):
            nonlocal calls
            calls += 1
            return original(self, implementation, ref)

        with monkeypatch.context() as patch:
            patch.setattr(Project, "resolve_port", counting)
            get_backend(backend).emit(project)
        return calls

    return count
