"""Finite groups as validated Cayley tables with 0-based element indices.

A group of order n is a tuple-of-tuples table where entry (i, j) is the index
of the product of elements i and j.  Validation relabels so that the identity
is always index 0; every constructor in this module goes through validation,
so downstream code may rely on ``identity == 0`` and on immutability.
Subgroups are bitmasks over element indices.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from math import lcm
from typing import Iterable, Iterator, Sequence

from .errors import (
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    NotASubgroupError,
    NotClosedError,
    ParamOutOfRangeError,
    UnknownFamilyError,
    check_cap,
)

# Order caps, each checked with errors.check_cap before any work starts: group
# tables (built or validated) at CONSTRUCTION_CAP, and the 2^n subset scans of
# the test oracles in search and subsets at SEARCH_CAP.  SEARCH_CAP is also the
# default max_order of the census functions, the one cap a caller sets (the
# CLI passes --max-order).
SEARCH_CAP = 16
CONSTRUCTION_CAP = 64
MAX_SYMMETRIC_DEGREE = 4  # catalog("symmetric", n) builds S1 .. S4

__all__ = [
    "CONSTRUCTION_CAP",
    "SEARCH_CAP",
    "FiniteGroup",
    "SubgroupMask",
    "all_subgroups",
    "catalog",
    "direct_product",
    "generating_set",
    "group_from_name",
    "is_subgroup_mask",
    "iter_bits",
    "load_table_file",
    "normal_subgroups_of",
    "subgroup_mask",
    "validate_cayley",
]


_Table = tuple[tuple[int, ...], ...]  # a Cayley table as validation returns it


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class FiniteGroup:
    """Immutable finite group; identity is element 0."""

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverses: tuple[int, ...]
    name: str = "G"

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    @cached_property
    def is_abelian(self) -> bool:
        t = self.table
        return all(
            t[a][b] == t[b][a] for a in range(self.order) for b in range(a)
        )

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    @cached_property
    def subgroups(self) -> tuple[SubgroupMask, ...]:
        """Every subgroup, sorted by (size, mask); built and validated once per group."""
        return tuple(SubgroupMask(self, m) for m in subgroup_lattice(self.table, self.identity))

    @cached_property
    def family_tables(self) -> dict[_Table, tuple[FiniteGroup, int, tuple[int, ...]]]:
        """Family table -> (validated abstract group, identity index, inverse
        map), filled by search._family_from_table so that each distinct table
        of a family over this group is validated once."""
        return {}

    def product_mask(self, amask: int, bmask: int) -> int:
        """Subset product {a*b} as a mask: OR of 1 << table[a][b] over a in A, b in B."""
        bs = tuple(iter_bits(bmask))
        out = 0
        for a in iter_bits(amask):
            row = self.table[a]
            for b in bs:
                out |= 1 << row[b]
        return out

    def inverse_mask(self, mask: int) -> int:
        out = 0
        for i in iter_bits(mask):
            out |= 1 << self.inverses[i]
        return out

    def conjugate_mask(self, mask: int, h: int) -> int:
        """Image of a subset mask under x -> h*x*h^-1."""
        hinv = self.inverses[h]
        out = 0
        for i in iter_bits(mask):
            out |= 1 << self.table[self.table[h][i]][hinv]
        return out

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.name} order={self.order}>"


def validate_cayley(table: Sequence[Sequence[int]], *, name: str = "G") -> FiniteGroup:
    """Check the group axioms on a raw table and return the validated group.

    The table must have at most CONSTRUCTION_CAP rows (else CapExceededError),
    be square with entries in range (NotClosedError), have a two-sided
    identity (NoIdentityError), be associative (NotAssociativeError with a
    witness triple), and every row must reach the identity (NoInverseError).
    If the identity is not element 0 the group is relabeled, preserving the
    relative order of the other elements.  This is _sanitize_table followed
    by _group_of_table.
    """
    return _group_of_table(_sanitize_table(table), name=name)


def _sanitize_table(table: Sequence[Sequence[int]]) -> _Table:
    """The input half of validate_cayley: the cap, the shape, and the entry
    types and ranges, returning the table as a tuple of tuples."""
    n = len(table)
    if n == 0:
        raise NoIdentityError("empty table has no identity")
    check_cap(n, CONSTRUCTION_CAP, "group order")
    rows: list[tuple[int, ...]] = []
    for i, row in enumerate(table):
        try:
            row = tuple(row)
        except TypeError:
            raise NotClosedError(f"row {i} is not a sequence") from None
        if len(row) != n:
            raise NotClosedError(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise NotClosedError(f"entry ({i},{j}) = {v!r} is not an element index")
        rows.append(row)
    return tuple(rows)


def _group_of_table(t: _Table, *, name: str) -> FiniteGroup:
    """The axiom half of validate_cayley, for a square tuple-of-tuples table
    with entries in range(len(t)): identity, associativity, inverses, then
    the relabel that puts the identity at 0.

    Associativity is Light's test (Clifford & Preston, *The Algebraic Theory
    of Semigroups* I, 1961, 1.2): if (a*x)*c = a*(x*c) and (a*y)*c = a*(y*c)
    for all a, c, then the same holds for x*y, so the middle elements that
    pass form a submagma, and the identity passes.  Checking b over a greedy
    generating set (each b kept when the identity and closure_mask of the kept
    ones miss it) therefore gives the verdict of the full n^3 scan in n^2
    products per generator.
    """
    n = len(t)
    identity = next(
        (e for e in range(n) if all(t[e][i] == i and t[i][e] == i for i in range(n))),
        None,
    )
    if identity is None:
        raise NoIdentityError("no two-sided identity element")

    # Light's test (see the docstring): check the middle element b over a
    # generating set only.
    for b in _greedy_generators(t, identity, (1 << n) - 1):
        tb = t[b]
        for a in range(n):
            ta = t[a]
            tab = t[ta[b]]
            for c in range(n):
                if tab[c] != ta[tb[c]]:
                    raise NotAssociativeError(
                        f"(a*b)*c != a*(b*c) at (a,b,c)=({a},{b},{c})",
                        (a, b, c),
                    )
    for a in range(n):
        if identity not in t[a]:
            raise NoInverseError(f"row {a} never reaches the identity")

    if identity != 0:
        # Relabel so the identity becomes 0; other elements keep relative order.
        old = [identity] + [i for i in range(n) if i != identity]
        new_of_old = {o: k for k, o in enumerate(old)}
        t = tuple(
            tuple(new_of_old[t[old[i]][old[j]]] for j in range(n)) for i in range(n)
        )
        identity = 0

    inverses = tuple(t[a].index(identity) for a in range(n))
    return FiniteGroup(order=n, table=t, identity=identity, inverses=inverses, name=name)


@dataclass(frozen=True)
class SubgroupMask:
    """A validated subgroup of ``parent`` stored as an element bitmask."""

    parent: FiniteGroup
    members: int

    def __post_init__(self) -> None:
        if not is_subgroup_mask(self.parent, self.members):
            raise NotASubgroupError(f"mask {self.members:#x} is not a subgroup")

    @property
    def size(self) -> int:
        return self.members.bit_count()

    def elements(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.members))

    def __contains__(self, i: int) -> bool:
        return bool(self.members >> i & 1)

    def __repr__(self) -> str:
        return f"SubgroupMask({self.parent.name}, {{{','.join(map(str, self.elements()))}}})"


def is_subgroup_mask(g: FiniteGroup, mask: int) -> bool:
    """True iff mask is nonempty, contains the identity, and is closed."""
    if mask <= 0 or mask > g.full_mask or not mask >> g.identity & 1:
        return False
    elems = list(iter_bits(mask))
    for a in elems:
        if not mask >> g.inverses[a] & 1:
            return False
        row = g.table[a]
        for b in elems:
            if not mask >> row[b] & 1:
                return False
    return True


def subgroup_mask(g: FiniteGroup, members: Iterable[int] | int) -> SubgroupMask:
    """Build a SubgroupMask from a mask or an iterable of element indices."""
    mask = members if isinstance(members, int) else _mask_of(members)
    return SubgroupMask(g, mask)


def _mask_of(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def closure_mask(table: Sequence[Sequence[int]], seed: int) -> int:
    """Smallest superset of seed closed under right multiplication by seed elements.

    Each new member is right-multiplied by the seed elements once.  On any
    table the result is inside the submagma the seed generates (every member
    is a product of seed elements) and is monotone in the seed, which is all
    validate_cayley needs of it.  On an associative table a product of seed
    elements is a shorter product times a seed element, so the result is the
    whole submagma: the subgroup the seed generates, for a nonempty seed in a
    finite group.
    """
    gens = tuple(iter_bits(seed))
    cur = seed
    stack = list(gens)
    while stack:
        row = table[stack.pop()]
        for s in gens:
            c = row[s]
            if not cur >> c & 1:
                cur |= 1 << c
                stack.append(c)
    return cur


def subgroup_lattice(table: Sequence[Sequence[int]], identity: int) -> list[int]:
    """All subgroup masks of a validated table, grown by adding one generator.

    Every subgroup is a closure of {identity, g1, ..., gk}, so repeatedly
    extending each known subgroup H by one outside element reaches all of
    them without scanning 2^n subsets.  Each subgroup keeps the generators it
    was found with, and <H, g> is closed from those plus g.  Since
    <H, gh> = <H, g> for h in H, one g per left coset gH != H is tried:
    [G:H] - 1 closures per H.  Sorted by (size, mask).
    """
    n = len(table)
    trivial = 1 << identity
    found = {trivial}
    stack = [(trivial, 0)]
    while stack:
        h, gens = stack.pop()
        hs = tuple(iter_bits(h))
        covered = h
        for g in range(n):
            if covered >> g & 1:
                continue
            row = table[g]
            for x in hs:
                covered |= 1 << row[x]
            k = closure_mask(table, gens | (1 << g))
            if k not in found:
                found.add(k)
                stack.append((k, gens | (1 << g)))
    return sorted(found, key=lambda m: (m.bit_count(), m))


def _greedy_generators(table: Sequence[Sequence[int]], identity: int, mask: int) -> list[int]:
    """Ascending members of mask, each kept when the identity and the
    closure_mask of the kept ones miss it.  On a group table and a subgroup
    mask the kept members generate the subgroup."""
    gens: list[int] = []
    kept = 0
    span = 1 << identity
    for a in iter_bits(mask):
        if span == mask:
            break
        if not span >> a & 1:
            gens.append(a)
            kept |= 1 << a
            span |= closure_mask(table, kept)
    return gens


def generating_set(g: FiniteGroup, mask: int) -> list[int]:
    """Greedy generators of a subgroup mask: ascending members, each kept
    whenever it enlarges the subgroup the kept ones generate."""
    return _greedy_generators(g.table, g.identity, mask)


def _normalized_by(g: FiniteGroup, nmask: int, gens: Iterable[int]) -> bool:
    """Does conjugation by every element of gens fix the subset nmask?

    The elements whose conjugation fixes N form a subgroup, so with gens a
    generating set of H this is "N is normal in H".
    """
    return all(g.conjugate_mask(nmask, x) == nmask for x in gens)


def all_subgroups(g: FiniteGroup) -> list[SubgroupMask]:
    """Every subgroup of g, sorted by (size, mask); the objects of g.subgroups."""
    return list(g.subgroups)


def normal_subgroups_of(g: FiniteGroup, h: SubgroupMask) -> list[SubgroupMask]:
    """Subgroups N <= H with hNh^-1 = N for every h in H (normal in H, not in g)."""
    if h.parent != g:
        raise NotASubgroupError("subgroup belongs to a different parent group")
    hmask = h.members
    gens = generating_set(g, hmask)
    return [
        n for n in g.subgroups if not n.members & ~hmask and _normalized_by(g, n.members, gens)
    ]


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Componentwise product; pair (i1, i2) gets index i1 * g2.order + i2."""
    n1, n2 = g1.order, g2.order
    check_cap(n1 * n2, CONSTRUCTION_CAP, "product order")  # before building the table
    t1, t2 = g1.table, g2.table
    table = [
        [t1[i1][j1] * n2 + t2[i2][j2] for j1 in range(n1) for j2 in range(n2)]
        for i1 in range(n1)
        for i2 in range(n2)
    ]
    return validate_cayley(table, name=f"{g1.name}x{g2.name}")


# ---------------------------------------------------------------------------
# Catalog


def _cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _dihedral_table(n: int) -> list[list[int]]:
    # Element (flip f, rotation a) has index f*n + a; (f,a)(g,b) =
    # (f^g, a + b) when f = 0 and (f^g, a - b) when f = 1.
    def mul(i: int, j: int) -> int:
        f, a = divmod(i, n)
        g, b = divmod(j, n)
        rot = (a + b) % n if f == 0 else (a - b) % n
        return ((f ^ g) * n) + rot

    return [[mul(i, j) for j in range(2 * n)] for i in range(2 * n)]


def _symmetric_table(degree: int) -> list[list[int]]:
    # Permutations of range(degree) in lexicographic order; the identity is
    # first.  Product p*q acts by "apply q, then p": (p*q)(x) = p(q(x)).
    elems = list(permutations(range(degree)))
    index = {p: k for k, p in enumerate(elems)}
    out = []
    for p in elems:
        out.append([index[tuple(p[q[x]] for x in range(degree))] for q in elems])
    return out


_Q8_LETTERS = "1ijk"
_Q8_MUL = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
    ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
    ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
    ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
    ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
}


def _quaternion8_table() -> list[list[int]]:
    # Index s*4 + letter with s = 0 for +, 1 for -; letters ordered 1, i, j, k.
    def mul(a: int, b: int) -> int:
        sa, la = divmod(a, 4)
        sb, lb = divmod(b, 4)
        sign, letter = _Q8_MUL[(_Q8_LETTERS[la], _Q8_LETTERS[lb])]
        neg = (sa + sb + (1 if sign < 0 else 0)) % 2
        return neg * 4 + _Q8_LETTERS.index(letter)

    return [[mul(a, b) for b in range(8)] for a in range(8)]


def catalog(family: str, *params: int) -> FiniteGroup:
    """Construct a named group.

    Families: cyclic(n), dihedral(n) of order 2n, symmetric(degree),
    quaternion8, klein4, direct_product(n1, ..., nk) of cyclic factors.
    Every constructed table is passed back through validate_cayley.
    """
    fam = family.lower()
    if fam == "cyclic":
        if len(params) != 1 or params[0] < 1:
            raise ParamOutOfRangeError(f"cyclic needs one parameter >= 1, got {params}")
        (n,) = params
        check_cap(n, CONSTRUCTION_CAP, "group order")  # before building the n x n table
        return validate_cayley(_cyclic_table(n), name=f"C{n}")
    if fam == "dihedral":
        if len(params) != 1 or params[0] < 1:
            raise ParamOutOfRangeError(f"dihedral needs one parameter >= 1, got {params}")
        (n,) = params
        check_cap(2 * n, CONSTRUCTION_CAP, "group order")
        return validate_cayley(_dihedral_table(n), name=f"D{n}")
    if fam == "symmetric":
        if len(params) != 1 or not 1 <= params[0] <= MAX_SYMMETRIC_DEGREE:
            raise ParamOutOfRangeError(
                f"symmetric degree must be in [1, {MAX_SYMMETRIC_DEGREE}], got {params}"
            )
        (n,) = params
        return validate_cayley(_symmetric_table(n), name=f"S{n}")
    if fam == "quaternion8":
        if params:
            raise ParamOutOfRangeError("quaternion8 takes no parameters")
        return validate_cayley(_quaternion8_table(), name="Q8")
    if fam == "klein4":
        if params:
            raise ParamOutOfRangeError("klein4 takes no parameters")
        return validate_cayley([[i ^ j for j in range(4)] for i in range(4)], name="V4")
    if fam == "direct_product":
        if not params or any(p < 1 for p in params):
            raise ParamOutOfRangeError(f"direct_product needs factors >= 1, got {params}")
        g = catalog("cyclic", params[0])
        for p in params[1:]:
            g = direct_product(g, catalog("cyclic", p))
        return g
    raise UnknownFamilyError(f"unknown catalog family {family!r}")


_ATOM_RE = re.compile(r"^([CDS])(\d+)$", re.IGNORECASE)


def _group_atom(token: str) -> FiniteGroup:
    t = token.strip()
    low = t.lower()
    if low in ("trivial", "1", "c1"):
        return catalog("cyclic", 1)
    if low in ("v4", "klein4"):
        return catalog("klein4")
    if low == "q8":
        return catalog("quaternion8")
    m = _ATOM_RE.match(t)
    if m:
        kind, n = m.group(1).upper(), int(m.group(2))
        if kind == "C":
            return catalog("cyclic", n)
        if kind == "D":
            return catalog("dihedral", n)
        return catalog("symmetric", n)
    raise UnknownFamilyError(f"unknown group name {token!r}")


def group_from_name(name: str) -> FiniteGroup:
    """Parse names like C6, D4, S3, Q8, V4, trivial, and products like C2xC2xC2."""
    tokens = [t for t in name.replace("*", "x").split("x") if t.strip()]
    if not tokens:
        raise UnknownFamilyError(f"empty group name {name!r}")
    g = _group_atom(tokens[0])
    for t in tokens[1:]:
        g = direct_product(g, _group_atom(t))
    return g


def load_table_file(path: str) -> FiniteGroup:
    """Read a Cayley table from a JSON document with fields ``order`` and ``table``.

    ``table`` is row-major with 0-based indices.  The result is validated.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise NotClosedError("table file nests too deeply to be a table") from None
    if not isinstance(doc, dict) or "order" not in doc or "table" not in doc:
        raise NotClosedError("table file must be an object with fields 'order' and 'table'")
    order, table = doc["order"], doc["table"]
    if not isinstance(table, list) or len(table) != order:
        raise NotClosedError(f"'table' must be a list of {order} rows")
    import os

    name = os.path.splitext(os.path.basename(path))[0]
    return validate_cayley(table, name=name)


def exponent(g: FiniteGroup) -> int:
    """Least common multiple of all element orders."""
    out = 1
    for a in g.elements():
        out = lcm(out, g.element_order(a))
    return out
