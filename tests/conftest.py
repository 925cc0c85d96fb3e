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


@pytest.fixture
def chain7():
    """The 7-element chain over and/or/not (min, max, 6 - a): one element
    above the default filter sweep cap of 6."""
    from law.algebra import FiniteAlgebra
    from law.gallery import BOOL_SIG

    n = 7
    return FiniteAlgebra(BOOL_SIG, n, {
        "and": tuple(min(a, b) for a in range(n) for b in range(n)),
        "or": tuple(max(a, b) for a in range(n) for b in range(n)),
        "not": tuple(n - 1 - a for a in range(n)),
    })
