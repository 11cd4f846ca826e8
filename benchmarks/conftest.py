"""Shared fixtures for the benchmark harness.

Programs are compiled once per session; each ``bench_<id>_*`` module
regenerates one artefact of the paper (the id names it: T1, F3, F5,
S51, T1n, C44) and asserts its qualitative shape, while
pytest-benchmark measures the runtime of the underlying computation.
"""

import pytest

from repro.apps.registry import application_names, load_application
from repro.engine import Session
from repro.hwlib.library import default_library


@pytest.fixture(scope="session")
def library():
    return default_library()


@pytest.fixture(scope="session")
def programs():
    """All four benchmark applications, compiled and profiled once."""
    return {name: load_application(name) for name in application_names()}


@pytest.fixture(scope="session")
def engine_session(library):
    """One exploration-engine session shared by the whole bench run."""
    return Session(library=library)
