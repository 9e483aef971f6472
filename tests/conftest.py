"""Shared pytest configuration for the repository test suite."""

import pytest

# Importing the analysis package registers the built-in lint rules, and
# listing the kinds registers every built-in component family (each
# otherwise registers on first use), so all of them are part of every
# registry snapshot taken below.
import repro.analysis  # noqa: F401
from repro.api.registry import registry

registry.kinds()


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "memory_ceiling: tracemalloc-based peak-memory regression tests "
        "(scaled down by default; set REPRO_MEMTEST_FULL=1 for the full "
        "10x-trace-length run)",
    )


@pytest.fixture(autouse=True)
def isolated_registry():
    """Undo every plugin registration a test makes, pass or fail."""
    saved = dict(registry._components)
    yield
    registry._components.clear()
    registry._components.update(saved)
