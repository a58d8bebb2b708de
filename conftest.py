"""Shared test set-up for the whole checkout.

``perfbench`` runs every pass of a workload in a fresh interpreter, so
the library's caches start cold in each pass.  Its smoke tests run some
passes in the test process instead; each of those tests starts with the
caches emptied, so that what a pass reports does not depend on which
tests ran before it.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest


def clear_library_caches() -> None:
    """Empty every ``lru_cache`` of the ``laddersand`` modules and the
    automaton bundle cache of ``measures``."""
    import laddersand
    import laddersand.measures
    for info in pkgutil.iter_modules(laddersand.__path__):
        module = importlib.import_module(f"laddersand.{info.name}")
        for value in vars(module).values():
            if (callable(getattr(value, "cache_clear", None))
                    and getattr(value, "__module__", None) == module.__name__):
                value.cache_clear()
    laddersand.measures._AutomatonBundle._cache.clear()


@pytest.fixture(autouse=True)
def _cold_library_in_perfbench(request):
    if request.path.parent.name == "perfbench":
        clear_library_caches()
