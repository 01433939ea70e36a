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
    """Catalog family name not recognized."""


class ParamOutOfRangeError(ValueError):
    """Catalog parameters outside the supported range."""


class CapExceededError(ValueError):
    """A construction, census or subset search would exceed its order cap."""


class NotASubgroupError(ValueError):
    """A mask fails the subgroup invariants."""


class ParentMismatchError(ValueError):
    """Operands belong to different parent groups."""


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
