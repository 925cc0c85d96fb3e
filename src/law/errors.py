"""Exception types shared across the workbench.

Everything raised on bad input or a blown cap derives from LawError so the
CLI can map it to a single diagnostic exit code.
"""


class LawError(Exception):
    """Base class for workbench errors. `path` is set when the message
    already names the input file the error was found in."""

    path: str | None = None


class TermError(LawError):
    """Malformed term: unknown symbol, arity mismatch, or unbound variable."""


class SignatureMismatch(LawError):
    """Two objects that must share a signature do not."""


class CapExceeded(LawError):
    """A configured size, budget, or depth cap was exceeded."""


class NotACongruence(LawError):
    """A partition offered as a congruence fails the congruence property."""


class NotAFilter(LawError):
    """A subset offered as a deductive filter is not one."""


class UnknownName(LawError):
    """Unknown gallery entry, class name, or CLI subcommand argument."""
