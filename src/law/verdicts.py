"""Three-valued verdicts for bounded checks.

A Fails verdict always carries a finite, re-checkable witness. Holds may
carry evidence (for example a found theorem). Every verdict records the
bounds it was computed under; absence of a witness within bounds is reported
as unknown, never as a refutation.
"""

from __future__ import annotations

from typing import Any, Mapping

from .errors import Frozen

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown_within_bounds"


class Verdict(Frozen):
    __slots__ = _fields = ("status", "witness", "bounds")

    def __init__(self, status: str, witness: Any = None, bounds: Mapping[str, Any] | None = None):
        if status not in (HOLDS, FAILS, UNKNOWN):
            raise ValueError(f"bad verdict status {status!r}")
        self._assign(status, witness, tuple(sorted((bounds or {}).items())))

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    @property
    def fails(self) -> bool:
        return self.status == FAILS

    @property
    def unknown(self) -> bool:
        return self.status == UNKNOWN

    def bounds_dict(self) -> dict[str, Any]:
        return dict(self.bounds)

    def __repr__(self) -> str:
        extra = f" witness={self.witness!r}" if self.witness is not None else ""
        return f"<Verdict {self.status}{extra}>"


def holds(witness: Any = None, **bounds) -> Verdict:
    return Verdict(HOLDS, witness, bounds)


def fails(witness: Any, **bounds) -> Verdict:
    return Verdict(FAILS, witness, bounds)


def unknown(**bounds) -> Verdict:
    return Verdict(UNKNOWN, None, bounds)

