import contextlib
import importlib.util
import pathlib

import pytest

from pebblex import puzzle


@pytest.fixture(scope="session")
def oracle():
    """scripts/oracle_values.py: brute-force values that share no code with
    the package."""
    spec = importlib.util.spec_from_file_location(
        "oracle_values",
        pathlib.Path(__file__).resolve().parents[1] / "scripts" / "oracle_values.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def packed(monkeypatch):
    """A context in which every board, whatever its size, goes to the
    packed level loop of the puzzle search."""

    @contextlib.contextmanager
    def force():
        with monkeypatch.context() as m:
            m.setattr(puzzle, "_RANKED_MAX_N", 0)
            yield

    return force
