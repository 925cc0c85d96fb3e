"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def fresh_caches():
    """Empty every functools cache in law, as the benchmark does before each
    pass, so a test that counts sweeps or cache misses starts cold whatever
    ran before it."""
    for name, mod in list(sys.modules.items()):
        if name == "law" or name.startswith("law."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
