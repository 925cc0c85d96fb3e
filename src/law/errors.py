"""Exception types shared across the workbench, and the base of its frozen
value classes.

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


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen value."""


class Frozen:
    """Base of the immutable value classes, written out by hand: generating
    them at import costs a cold process up to about 30 ms. A subclass sets its
    slots once, in `__init__`; assignment is refused after that. `_fields`
    names what `==` (exact class), `hash` (of the tuple of the fields) and
    `repr` (``Name(field=value, ...)``) read, in order."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, *values) -> None:
        """Set the slots, in `__slots__` order, to `values`. The classes built
        in hot loops call each slot's own `__set__` instead, which costs less."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # pickle and copy restore the slots
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"


class Hashed(Frozen):
    """A frozen value that keeps its hash: the constructor sets the `_hash`
    slot, `==` (exact class) compares it before the fields, and pickle and
    copy rebuild through the constructor from the fields `_args` names (the
    compared fields unless a class adds more), which hashes anew, since a
    string's hash differs between processes."""

    __slots__ = ()
    _args: tuple[str, ...] = ()  # empty: the compared fields, `_fields`

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or (self._hash == other._hash
                                     and self._values() == other._values())
        return NotImplemented

    def __reduce__(self):
        names = self._args or self._fields
        return (self.__class__, tuple([getattr(self, name) for name in names]))
