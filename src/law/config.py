"""Caps and defaults, overridable via a JSON config file (LAW_CONFIG) or CLI flags.

A `Config` is the one carrier of the caps of every inventory-level call:
the checks, witness searches and sweeps of `hierarchy`, `translations` and
`gallery` take one `config` and pass it down, so a verdict always ran under
the caps it was given. `Config.caps()` maps it onto the keyword caps of the
per-algebra filter readers of `logics`. The module constants below are
fixed defaults that no config overrides.
"""

from __future__ import annotations

import json
import os

from .errors import Frozen, LawError

#: Cells allowed for the joint-evaluation closure behind bounded filter checks.
#: Rounds that would exceed it are skipped and the effective depth recorded.
CLOSURE_CELL_BUDGET = 1 << 23

#: Variables admitted in consequence queries, unless a logic names its own.
VARIABLE_BUDGET = 8

#: Total table cells across an algebra enumeration.
ENUM_CELL_BUDGET = 1 << 20


class Config(Frozen):
    __slots__ = _fields = ("oracle_max", "product_max", "depth_default", "closure_cell_budget")

    def __init__(
        self,
        oracle_max: int = 6,        # carrier cap for brute-force sweeps (2^n subsets, all partitions)
        product_max: int = 64,      # carrier cap for product algebras
        depth_default: int = 3,     # default term-depth cap for bounded checks
        closure_cell_budget: int = CLOSURE_CELL_BUDGET,
    ):
        self._assign(oracle_max, product_max, depth_default, closure_cell_budget)

    def override(self, **kwargs) -> "Config":
        clean = {k: v for k, v in kwargs.items() if v is not None}
        return Config(**dict(zip(self._fields, self._values()), **clean)) if clean else self

    def caps(self) -> dict:
        """The keyword caps of the per-algebra filter readers of `logics`
        (`filter_lattice`, `deductive_filters`, `filter_bounds`, ...)."""
        return {"oracle_max": self.oracle_max, "depth_cap": self.depth_default,
                "cell_budget": self.closure_cell_budget}


DEFAULTS = Config()


def load_config(path: str | None = None) -> Config:
    """Read config from `path`, else from $LAW_CONFIG, else defaults.

    Every field in the file must be a known cap and a positive integer;
    anything else raises LawError naming the file and the field."""
    path = path or os.environ.get("LAW_CONFIG")
    if not path:
        return DEFAULTS
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise LawError(f"config {path}: {exc}") from None
    if not isinstance(data, dict):
        raise LawError(f"config {path}: expected a JSON object")
    known = Config._fields
    for key, value in data.items():
        if key not in known:
            raise LawError(f"config {path}: unknown field {key!r} (known: {', '.join(known)})")
        if type(value) is not int or value <= 0:
            raise LawError(
                f"config {path}: field {key!r} must be a positive integer, got {value!r}"
            )
    return DEFAULTS.override(**data)
