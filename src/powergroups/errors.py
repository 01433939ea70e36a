"""Exception types shared across the package."""

from __future__ import annotations


class CayleyTableError(ValueError):
    """A candidate multiplication table is not a group table."""


class NotClosedError(CayleyTableError):
    """Some table entry is not a valid element index."""


class NoIdentityError(CayleyTableError):
    """No element acts as a two-sided identity."""


class NoInverseError(CayleyTableError):
    """Some row never reaches the identity."""


class NotAssociativeError(CayleyTableError):
    """Associativity fails; carries one witness triple."""

    def __init__(self, message: str, witness: tuple[int, int, int]):
        super().__init__(message)
        self.witness = witness


class UnknownFamilyError(ValueError):
    """A group name not recognized."""


class ParamOutOfRangeError(ValueError):
    """A parameter or an option outside its supported range."""


class CapExceededError(ValueError):
    """A size (an order, a residue or window count, trials) exceeds its cap or is negative."""


def check_cap(n: int, cap: int, what: str) -> None:
    """Raise CapExceededError when n exceeds cap or is negative; call before
    any work starts.

    The one place a size cap is checked, so every cap reads the same:
    "<what> <n> exceeds cap <cap>", or "<what> <n> is negative".
    """
    if n < 0 or n > cap:
        problem = "is negative" if n < 0 else f"exceeds cap {cap}"
        raise CapExceededError(f"{what} {n} {problem}")


class NotASubgroupError(ValueError):
    """A mask fails the subgroup invariants."""


class NotIdempotentError(ValueError):
    """An operation requires EE = E and the given E fails it."""


class CommutationFailsError(ValueError):
    """Some a in H has aE != Ea; carries the witness element."""

    def __init__(self, message: str, witness: int):
        super().__init__(message)
        self.witness = witness


class InternalFaultError(RuntimeError):
    """An internal invariant failed: a bug in the package, not bad input."""


class HomomorphismFailsError(InternalFaultError):
    """Internal consistency failure: a map that must be a homomorphism is not."""


class NotRepresentableError(ValueError):
    """The exact result of an operation falls outside the representable class."""
