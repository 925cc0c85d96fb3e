"""Caps and defaults, overridable via a JSON config file (LAW_CONFIG) or CLI flags."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

from .errors import LawError

#: Cells allowed for the joint-evaluation closure behind bounded filter checks.
#: Rounds that would exceed it are skipped and the effective depth recorded.
CLOSURE_CELL_BUDGET = 1 << 23


@dataclass(frozen=True)
class Config:
    oracle_max: int = 6          # carrier cap for brute-force sweeps (2^n subsets, all partitions)
    product_max: int = 64        # carrier cap for product algebras
    depth_default: int = 3       # default term-depth cap for bounded checks
    variable_budget: int = 8     # variables admitted in consequence queries
    enum_cell_budget: int = 1 << 20   # total table cells across an algebra enumeration
    closure_cell_budget: int = CLOSURE_CELL_BUDGET

    def override(self, **kwargs) -> "Config":
        clean = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **clean) if clean else self


DEFAULTS = Config()


def load_config(path: str | None = None) -> Config:
    """Read config from `path`, else from $LAW_CONFIG, else defaults.

    Every field in the file must be a known cap and a positive integer;
    anything else raises LawError naming the file and the field."""
    path = path or os.environ.get("LAW_CONFIG")
    if not path:
        return DEFAULTS
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise LawError(f"config {path}: expected a JSON object")
    known = Config.__dataclass_fields__
    for key, value in data.items():
        if key not in known:
            raise LawError(f"config {path}: unknown field {key!r} (known: {', '.join(known)})")
        if type(value) is not int or value <= 0:
            raise LawError(
                f"config {path}: field {key!r} must be a positive integer, got {value!r}"
            )
    return DEFAULTS.override(**data)
