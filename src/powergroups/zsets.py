"""Exactly representable subsets of the integers and their Minkowski sums.

Three shapes cover everything this package needs: sets bounded below whose
membership bits are eventually periodic (finite sets are the special case of
an all-zero repeating word), mirror images of those (bounded above), and
unions of residue classes (periodic in both directions).  Construction always
canonicalizes (least element first, minimal period, minimal transient), so
dataclass equality coincides with set equality.

Sums are computed exactly.  For two bounded-below sets the key fact is: if A
is exactly p-periodic on [alpha, inf) and B exactly q-periodic on [beta, inf),
then A+B is exactly lcm(p,q)-periodic on [alpha + beta + lcm(p,q), inf).
(Upward: a decomposition x = a+b of x >= alpha+beta has a >= alpha or
b >= beta, and that part shifts up by lcm.  Downward: x >= alpha+beta+lcm
forces a >= alpha+lcm or b >= beta+lcm, and that part shifts down by lcm.)
So materializing bits up to that bound plus one word is exact, and the
windowed brute-force oracle can re-check any sum on request.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, lcm
from random import Random
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    InternalFaultError,
    NotIdempotentError,
    NotRepresentableError,
    ParamOutOfRangeError,
    check_cap,
)

# _residues_mod refuses to build more residues than this (errors.check_cap).
MAX_RESIDUES = 10**6
# zset_window_mask refuses wider windows than this (errors.check_cap).  The
# widest window the benchmark's sums build is 58,786 bits.
MAX_WINDOW_BITS = 2**17
# build_z_coset_group refuses more representatives than this (errors.check_cap);
# it sums every pair of them.
MAX_REPRESENTATIVES = 256
# zset_from_text refuses a BB or BA text whose transient plus period is longer
# than this (errors.check_cap).  Commands that sum many translates multiply a
# set's cost: `zset coset-group` sums 289 pairs by default, about 1.2-1.8 s
# (2 vCPUs, CPython 3.11) on an identity this long.
MAX_TEXT_BITS = 3072

__all__ = [
    "BoundedAbove",
    "BoundedBelow",
    "TwoSidedPeriodic",
    "ZCosetGroupReport",
    "ZSet",
    "NaturalsDemoReport",
    "UnitTranslateVerdict",
    "additive_closure",
    "bounded_below",
    "build_z_coset_group",
    "finite_zset",
    "minkowski_pad",
    "minkowski_window_sum",
    "naturals",
    "power_group_of_naturals_demo",
    "random_bounded_below",
    "random_idempotent",
    "random_zset",
    "theorem3_unit_test",
    "two_sided",
    "z_subgroup",
    "zset_contains",
    "zset_from_text",
    "zset_is_finite",
    "zset_is_idempotent",
    "zset_is_z_subgroup",
    "zset_negate",
    "zset_residual",
    "zset_sum",
    "zset_to_text",
    "zset_translate",
    "zset_window_mask",
]

def _bit_bytes(bits: Sequence[int], label: str) -> bytes:
    """The bits as bytes, refusing any bit that is not the int 0 or 1.

    bytes() of a sequence takes only ints in range(256), so a str or float
    bit raises before the 0/1 test, and a bool passes as the int it equals.
    bytes() of an int would be that many zero bytes, so an int is refused.
    """
    try:
        if isinstance(bits, int):
            raise TypeError
        out = bytes(bits)
    except (TypeError, ValueError):
        raise ValueError(f"{label} must be a sequence of 0/1 bits, got {bits!r}") from None
    if out.translate(None, b"\x00\x01"):
        raise ValueError(f"{label} must be 0/1 bits, got {bits!r}")
    return out


def _least_period(word: Sequence[int]) -> int:
    """Least d >= 1 with the cyclic word invariant under rotation by d.

    d is the first position at which the word reoccurs inside word + word;
    it divides len(word), and it is len(word) when no shorter period exists.
    """
    b = bytes(word)
    return (b + b).find(b, 1)


def _least_modulus(modulus: int, residues: frozenset[int]) -> int:
    """Least d dividing modulus with residues + d = residues (mod modulus).

    The shifts fixing the set form the subgroup dZ/modulus, and each carries
    the least residue r0 onto a residue, so d is among the differences
    r - r0 (and modulus itself); only those dividing modulus are tested, in
    ascending order, each in one pass over the residues.
    """
    r0 = min(residues)
    for d in sorted({r - r0 for r in residues if r > r0}):
        if modulus % d == 0 and all((r + d) % modulus in residues for r in residues):
            return d
    return modulus


@dataclass(frozen=True)
class BoundedBelow:
    """offset is the least element; bit i of transient answers offset+i; the
    word repeats forever after the transient.  An all-zero word (canonically
    period 1) makes the set finite."""

    offset: int
    transient: tuple[int, ...]
    period: int
    word: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.period
        t = _bit_bytes(self.transient, "transient")
        w = _bit_bytes(self.word, "word")
        if p < 1 or len(w) != p:
            raise ValueError("word length must equal period >= 1")
        first = t[0] if t else w[0]
        if first != 1:
            raise ValueError("offset must be a member; use bounded_below() to canonicalize")
        if _least_period(w) != p:
            raise ValueError("word period is not minimal; use bounded_below()")
        if t and t[-1] == w[-1]:
            raise ValueError("transient not minimal; use bounded_below()")


@dataclass(frozen=True)
class BoundedAbove:
    """The mirror image {-x | x in mirror} of an infinite bounded-below set."""

    mirror: BoundedBelow

    def __post_init__(self) -> None:
        if self.mirror.word == (0,):
            raise ValueError("finite sets are represented bounded-below; negate explicitly")


@dataclass(frozen=True)
class TwoSidedPeriodic:
    """Union of residue classes: {x | x mod modulus in residues}."""

    modulus: int
    residues: frozenset[int]

    def __post_init__(self) -> None:
        m, rs = self.modulus, self.residues
        if m < 1 or not rs or any(not 0 <= r < m for r in rs):
            raise ValueError("need modulus >= 1 and nonempty residues in range")
        if _least_modulus(m, rs) != m:
            raise ValueError("modulus is not minimal; use two_sided()")


ZSet = Union[BoundedBelow, BoundedAbove, TwoSidedPeriodic]


def bounded_below(
    offset: int, transient: Sequence[int], period: int, word: Sequence[int]
) -> BoundedBelow:
    """Canonicalize an eventually periodic description into a BoundedBelow.

    Leading zero bits advance the offset, the word is cut to its least period,
    and trailing transient bits that already match the periodic continuation
    are absorbed into the word's phase.  Raises ValueError on the empty set.
    """
    bits = _bit_bytes(transient, "transient")
    w = _bit_bytes(word, "word")
    if period < 1 or len(w) != period:
        raise ValueError("word length must equal period >= 1")
    return _canonical(offset, _mask(bits), len(bits), _mask(w), period)


def _canonical(offset: int, trans: int, t: int, word: int, p: int) -> BoundedBelow:
    """bounded_below on masks: bits 0 .. t-1 of trans are the transient from
    offset on, then the p-bit word repeats.  Only the final transient and
    word are read out as tuples.
    """
    lead = (trans & -trans).bit_length() - 1 if trans else t
    trans >>= lead
    t -= lead
    offset += lead
    if not t:
        if not word:
            raise ValueError("empty set is not representable")
        k = (word & -word).bit_length() - 1
        word = _rotate(word, p, k)
        offset += k
    p = _least_period(format(word, f"0{p}b").encode())
    word &= (1 << p) - 1
    # The word run backwards over the transient: the transient bits that
    # continue it are the top zeros of the XOR, and are absorbed.
    keep = (trans ^ _repeat(_rotate(word, p, -t), p, t)).bit_length()
    word = _rotate(word, p, keep - t)
    return BoundedBelow(offset, _bits(trans, keep), p, _bits(word, p))


def finite_zset(elements: Iterable[int]) -> BoundedBelow:
    elems = sorted(set(elements))
    if not elems:
        raise ValueError("empty set is not representable")
    lo, n = elems[0], elems[-1] - elems[0] + 1
    return _canonical(lo, _ones((x - lo for x in elems), n), n, 0, 1)


def naturals() -> BoundedBelow:
    """The non-negative integers (0 included)."""
    return BoundedBelow(0, (), 1, (1,))


def two_sided(modulus: int, residues: Iterable[int]) -> TwoSidedPeriodic:
    """Canonicalize a residue-class union to its minimal modulus."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    rs = frozenset(r % modulus for r in residues)
    if not rs:
        raise ValueError("empty set is not representable")
    d = _least_modulus(modulus, rs)
    return TwoSidedPeriodic(d, frozenset(r % d for r in rs))


# ---------------------------------------------------------------------------
# Membership, windows, structure


def zset_contains(s: ZSet, x: int) -> bool:
    if isinstance(s, BoundedBelow):
        i = x - s.offset
        if i < 0:
            return False
        if i < len(s.transient):
            return s.transient[i] == 1
        return s.word[(i - len(s.transient)) % s.period] == 1
    if isinstance(s, BoundedAbove):
        return zset_contains(s.mirror, -x)
    return x % s.modulus in s.residues


def zset_window_mask(s: ZSet, lo: int, hi: int) -> int:
    """Bitmask of the window [lo, hi): bit i answers membership of lo + i.

    The only code that turns a set into membership bits (sums, residuals,
    overlaps, self-checks and --window listings all read windows), so its
    width check against MAX_WINDOW_BITS bounds every materialization.  The
    periodic part is the word rotated to the window's phase and repeated by
    doubling, so the cost depends on hi - lo and the set's own size only.
    """
    n = hi - lo
    check_cap(n, MAX_WINDOW_BITS, "window bits")
    if isinstance(s, TwoSidedPeriodic):
        m = s.modulus
        return _repeat(_ones(((r - lo) % m for r in s.residues), min(m, n)), m, n)
    if isinstance(s, BoundedAbove):
        # Bit i answers -(lo + i), which is bit n-1-i of the mirror's window.
        mirrored = zset_window_mask(s.mirror, 1 - hi, 1 - lo)
        return int(format(mirrored, f"0{n}b")[::-1], 2) if n else 0
    start = s.offset - lo  # window bit of the least element
    if start >= n:
        return 0
    trans = _mask(s.transient)
    out = trans << start if start >= 0 else trans >> -start
    ws = start + len(s.transient)  # window bit where the word starts
    if ws < n:
        word = _rotate(_mask(s.word), s.period, -min(ws, 0))
        out |= _repeat(word, s.period, n - max(ws, 0)) << max(ws, 0)
    return out & ((1 << n) - 1)


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _mask(bits: Sequence[int]) -> int:
    """The int whose bit i is bits[i] (0/1 bits, as the dataclasses hold)."""
    return int(bytes(reversed(bits)).translate(_DIGITS), 2) if bits else 0


def _ones(positions: Iterable[int], n: int) -> int:
    """The n-bit mask with the given positions set; positions >= n are dropped."""
    digits = bytearray(b"0" * n)
    for i in positions:
        if i < n:
            digits[n - 1 - i] = 49  # "1"
    return int(digits, 2) if n else 0


def _rotate(word: int, p: int, k: int) -> int:
    """The p-bit word read from position k on: bit i is bit (i + k) mod p."""
    k %= p
    return (word >> k | word << (p - k)) & ((1 << p) - 1)


def _repeat(word: int, p: int, n: int) -> int:
    """Bits 0 .. n-1 of the p-bit word repeated forever, doubling the copy
    each step (about log2(n/p) shifts)."""
    while p < n:
        word |= word << p
        p *= 2
    return word & ((1 << n) - 1)


def _bits(mask: int, n: int) -> tuple[int, ...]:
    """Bits 0 .. n-1 of mask as a 0/1 tuple, low bit first, in one format pass
    (a sentinel bit n keeps the leading zeros; the reversed digits drop it)."""
    digits = format(mask & ((1 << n) - 1) | (1 << n), "b")
    return tuple(map(int, digits[:0:-1]))


def zset_is_finite(s: ZSet) -> bool:
    return isinstance(s, BoundedBelow) and s.word == (0,)


def zset_negate(s: ZSet) -> ZSet:
    if isinstance(s, BoundedBelow):
        if zset_is_finite(s):
            top = s.offset + len(s.transient) - 1
            return bounded_below(-top, tuple(reversed(s.transient)), 1, (0,))
        return BoundedAbove(s)
    if isinstance(s, BoundedAbove):
        return s.mirror
    return two_sided(s.modulus, ((-r) % s.modulus for r in s.residues))


def zset_translate(s: ZSet, t: int) -> ZSet:
    if isinstance(s, BoundedBelow):
        return BoundedBelow(s.offset + t, s.transient, s.period, s.word)
    if isinstance(s, BoundedAbove):
        return BoundedAbove(BoundedBelow(s.mirror.offset - t, s.mirror.transient, s.mirror.period, s.mirror.word))
    return two_sided(s.modulus, ((r + t) % s.modulus for r in s.residues))


def _residues_mod(s: ZSet, d: int) -> frozenset[int]:
    """The exact set {x mod d | x in s}.

    Each residue mod the set's own period or modulus p stands for d // gcd(p, d)
    residues mod d, so the count is known, and checked against MAX_RESIDUES,
    before any residue is built.
    """
    if isinstance(s, TwoSidedPeriodic):
        g = gcd(s.modulus, d)
        check_cap(len(s.residues) * (d // g), MAX_RESIDUES, "residue count")
        return frozenset((r + k * g) % d for r in s.residues for k in range(d // g))
    if isinstance(s, BoundedAbove):
        return frozenset((-r) % d for r in _residues_mod(s.mirror, d))
    g = gcd(s.period, d)
    check_cap(sum(s.transient) + sum(s.word) * (d // g), MAX_RESIDUES, "residue count")
    out = {(s.offset + i) % d for i, b in enumerate(s.transient) if b}
    base = s.offset + len(s.transient)
    for j, b in enumerate(s.word):
        if b:
            out.update((base + j + k * g) % d for k in range(d // g))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Sums


def _sum_bounded_below(a: BoundedBelow, b: BoundedBelow) -> BoundedBelow:
    o = a.offset + b.offset
    alpha = a.offset + len(a.transient)
    beta = b.offset + len(b.transient)
    lam = lcm(a.period, b.period)
    gamma = alpha + beta + lam  # sum provably lcm-periodic from here (module docstring)
    amask = zset_window_mask(a, a.offset, gamma + lam - b.offset)
    bmask = zset_window_mask(b, b.offset, gamma + lam - a.offset)
    conv = 0
    m = amask
    while m:
        low = m & -m
        conv |= bmask << (low.bit_length() - 1)
        m ^= low
    n = gamma - o
    return _canonical(o, conv & ((1 << n) - 1), n, conv >> n & ((1 << lam) - 1), lam)


def zset_sum(a: ZSet, b: ZSet, *, verify: bool = False) -> ZSet:
    """Exact Minkowski sum {x + y}.

    An infinite bounded-below set plus an infinite bounded-above set is
    rejected with NotRepresentableError: such a sum is unbounded both ways yet
    generally not a union of residue classes (example: {0,2,4,...} plus the
    negative odd numbers covers every odd integer but only the non-negative
    evens), so it falls outside the representable class.

    With ``verify`` the result is re-checked against the windowed brute-force
    oracle (minkowski_window_sum); a mismatch raises InternalFaultError.
    """
    if isinstance(a, TwoSidedPeriodic) or isinstance(b, TwoSidedPeriodic):
        # Residues modulo the two-sided modulus (their gcd when both are).
        m = gcd(*(s.modulus for s in (a, b) if isinstance(s, TwoSidedPeriodic)))
        rs, ss = _residues_mod(a, m), _residues_mod(b, m)
        check_cap(len(rs) * len(ss), MAX_RESIDUES, "residue pair count")
        out: ZSet = two_sided(m, ((r + s) % m for r in rs for s in ss))
    elif isinstance(a, BoundedBelow) and isinstance(b, BoundedBelow):
        out = _sum_bounded_below(a, b)
    elif isinstance(a, BoundedAbove) and isinstance(b, BoundedAbove):
        out = BoundedAbove(_sum_bounded_below(a.mirror, b.mirror))
    else:
        below, above = (a, b) if isinstance(a, BoundedBelow) else (b, a)
        if not zset_is_finite(below):
            raise NotRepresentableError(
                "sum of opposite-direction infinite sets is not representable"
            )
        neg = _sum_bounded_below(zset_negate(below), above.mirror)  # type: ignore[union-attr,arg-type]
        out = zset_negate(neg)
    if verify:
        _verify_sum(a, b, out)
    return out


def _verify_sum(a: ZSet, b: ZSet, c: ZSet) -> None:
    """Compare c with the windowed oracle on [-2s, 2s), s = minkowski_pad(a,
    b) plus c's extent (_reach: |offset| + transient + period, or modulus).

    The true sum's least element and transient end lie within the pad of 0
    and c's within its extent, so both are periodic on [s, 2s) and, mirrored,
    on [-2s, -s), with periods at most the pad and the extent.  Agreement
    there, s bits each, means agreement everywhere (Fine and Wilf's theorem),
    so a passing check proves c is the sum, at a window linear in the inputs.
    """
    pad = minkowski_pad(a, b)
    s = pad + sum(_reach(c))
    got = zset_window_mask(c, -2 * s, 2 * s)
    want = minkowski_window_sum(a, b, -2 * s, 2 * s, pad=pad)
    if got != want:
        raise InternalFaultError(f"sum failed windowed self-check: {a!r} + {b!r}")


def minkowski_window_sum(a: ZSet, b: ZSet, lo: int, hi: int, pad: int) -> int:
    """Brute-force oracle: sum bits on [lo, hi) from operand windows.

    Operands are materialized on [lo - pad, hi + pad); the result window is
    exact whenever every representable sum in it has a decomposition inside
    the padded windows, which holds when offsets, transients, periods, and
    moduli are all small relative to pad (minkowski_pad gives a large enough
    pad for windows around 0).
    """
    olo, ohi = lo - pad, hi + pad
    amask = zset_window_mask(a, olo, ohi)
    bmask = zset_window_mask(b, olo, ohi)
    conv = 0
    m = amask
    while m:
        low = m & -m
        conv |= bmask << (low.bit_length() - 1)
        m ^= low
    shift = lo - 2 * olo
    if shift < 0:
        raise ValueError(f"pad {pad} too small for the window [{lo}, {hi})")
    return (conv >> shift) & ((1 << (hi - lo)) - 1)


def minkowski_pad(a: ZSet, b: ZSet) -> int:
    """A pad that makes minkowski_window_sum exact on any window [lo, hi)
    with lo <= 0 < hi: |offset| + transient length of each operand (a
    bounded-above set read through its mirror, a two-sided set as offset 0
    with no transient) plus the lcm of their periods or moduli.

    Every x in the window that is a sum has a decomposition x = a + b inside
    the padded windows.  If one operand is finite, or both are bounded on the
    same side, every decomposition lies between an operand's extreme element
    and x minus the other's.  Otherwise one operand is two-sided, and the
    other meets each residue class mod the lcm, if at all, within one lcm
    past its |offset| + transient (a periodic part shifts by the lcm and
    stays in its class; a bounded-above set is the mirror case), so that
    element and x minus it both lie in the padded windows.
    """

    (ra, pa), (rb, pb) = _reach(a), _reach(b)
    return ra + rb + lcm(pa, pb)


def _reach(s: ZSet) -> tuple[int, int]:
    """(|offset| + transient length, period) of a set, a bounded-above set
    read through its mirror and a two-sided set as (0, modulus)."""
    if isinstance(s, TwoSidedPeriodic):
        return 0, s.modulus
    m = s.mirror if isinstance(s, BoundedAbove) else s
    return abs(m.offset) + len(m.transient), m.period


# ---------------------------------------------------------------------------
# Group-theoretic predicates over the integers


def zset_is_idempotent(e: ZSet) -> bool:
    """EE = E under addition (bounded-below idempotents have least element 0)."""
    return zset_sum(e, e) == e


def z_subgroup(d: int) -> ZSet:
    """The subgroup of multiples of d; d = 0 gives {0}."""
    if d < 0:
        raise ParamOutOfRangeError("d must be >= 0")
    if d == 0:
        return finite_zset([0])
    return two_sided(d, [0])


def zset_is_z_subgroup(s: ZSet) -> bool:
    """Subgroups of the integers are exactly {0} and the multiple sets."""
    if isinstance(s, TwoSidedPeriodic):
        return s.residues == frozenset({0})
    return s == finite_zset([0])


def zset_residual(e: BoundedBelow, a: BoundedBelow) -> Optional[BoundedBelow]:
    """The largest Q with A + Q inside E, i.e. {x | x + A subset of E}; None if empty.

    Membership of x reduces to finitely many checks: beyond
    max(stab_A, stab_E - x) + lcm(p_A, p_E) every element of A repeats an
    already-checked element modulo p_E, so the conjunction over all of A is
    decided by the window.  That bound is largest at the least candidate
    x = min(E) - min(A), so the members of A below it decide every x at once.
    Q is exactly p_E-periodic from stab_E - min(A) on, so its transient and
    one word are the AND, over those members v, of E's window from min(E)
    shifted down by v - min(A).
    """
    stab_a = a.offset + len(a.transient)
    stab_e = e.offset + len(e.transient)
    lo = e.offset - a.offset
    bound = max(stab_a, stab_e - lo) + lcm(a.period, e.period)
    n = len(e.transient) + e.period  # Q's transient and one word, from lo
    emask = zset_window_mask(e, e.offset, e.offset + n + bound - a.offset)
    q = (1 << n) - 1
    for i, bit in enumerate(_bits(zset_window_mask(a, a.offset, bound), bound - a.offset)):
        if bit:
            q &= emask >> i
    if not q:
        return None
    t = len(e.transient)
    return _canonical(lo, q & ((1 << t) - 1), t, q >> t, e.period)


@dataclass(frozen=True)
class UnitTranslateVerdict:
    """Two independently computed answers for one candidate family member A.

    unit_ok: A + E = A and some B solves A + B = E (decided via the residual).
    translate_ok: A is min(A) + E.  The two agree for every bounded-below A
    over an idempotent E with least element 0, which the suites check on
    randomized trials.
    """

    unit_ok: bool
    translate_ok: bool
    residual: Optional[BoundedBelow]

    @property
    def agree(self) -> bool:
        return self.unit_ok == self.translate_ok


def theorem3_unit_test(e: ZSet, a: ZSet) -> UnitTranslateVerdict:
    """Compare "A is invertible at E" with "A is a translate of E" (see class doc)."""
    if not isinstance(e, BoundedBelow) or e.offset != 0:
        raise ValueError("identity must be bounded below with least element 0")
    if not zset_is_idempotent(e):
        raise NotIdempotentError("E + E != E")
    if not isinstance(a, BoundedBelow):
        raise ValueError("candidate must be bounded below")
    in_monoid = zset_sum(a, e) == a
    q = zset_residual(e, a)
    unit_ok = in_monoid and q is not None and zset_sum(a, q) == e
    translate_ok = a == zset_translate(e, a.offset)
    return UnitTranslateVerdict(unit_ok=unit_ok, translate_ok=translate_ok, residual=q)


# ---------------------------------------------------------------------------
# Coset families over the integers


@dataclass(frozen=True)
class ZCosetGroupReport:
    """Exact checks of {a + E | a in step * Z} on a window of representatives."""

    idempotent: ZSet
    step: int
    window: tuple[int, int]
    representatives: tuple[int, ...]
    product_law_ok: bool
    product_law_witness: Optional[tuple[int, int]]
    translates_distinct: bool
    kernel_representatives: tuple[int, ...]
    overlap_witness: Optional[tuple[int, int, int]]  # (a, b, common element)
    structure: str

    @property
    def ok(self) -> bool:
        return self.product_law_ok


def _first_overlap(e: ZSet, a: int, b: int) -> Optional[int]:
    """A common element of a+E and b+E, or None; exact for every shape.

    For bounded-below E both translates are exactly periodic past
    max(a, b) + stab, so their intersection, if nonempty, shows up by one
    period later: the answer is the lowest set bit of E's windows read at
    offsets -a and -b, ANDed.  The bounded-above case is the mirror image.
    """
    if isinstance(e, BoundedAbove):
        y = _first_overlap(e.mirror, -a, -b)
        return None if y is None else -y
    if isinstance(e, TwoSidedPeriodic):
        lo, hi = -e.modulus, e.modulus
    else:
        lo = min(a, b) + e.offset
        hi = max(a, b) + e.offset + len(e.transient) + e.period
    both = zset_window_mask(e, lo - a, hi - a) & zset_window_mask(e, lo - b, hi - b)
    return lo + (both & -both).bit_length() - 1 if both else None


def build_z_coset_group(e: ZSet, step: int, lo: int = -8, hi: int = 8) -> ZCosetGroupReport:
    """Verify the coset-family laws for {a + E | a in step * Z} on [lo, hi].

    The addition law (a+E) + (b+E) = (a+b) + E is checked exactly for every
    pair of representatives.  Distinctness and overlaps are reported so the
    caller can see when the family fails to be a partition.
    """
    if step < 1:
        raise ParamOutOfRangeError("step must be >= 1")
    check_cap((hi - lo) // step + 1, MAX_REPRESENTATIVES, "representative count")
    if not zset_is_idempotent(e):
        raise NotIdempotentError("E + E != E")
    start = -(-lo // step) * step  # the least multiple of step >= lo
    reps = tuple(range(start, hi + 1, step))
    translates = {a: zset_translate(e, a) for a in reps}
    law_ok, witness = True, None
    for a in reps:
        for b in reps:
            want = zset_translate(e, a + b)
            if zset_sum(translates[a], translates[b]) != want:  # pragma: no cover
                law_ok, witness = False, (a, b)
                break
        if not law_ok:
            break
    distinct = len(set(translates.values())) == len(reps)
    kernel = tuple(a for a in reps if translates[a] == e)
    overlap = None
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            if translates[a] != translates[b]:
                x = _first_overlap(e, a, b)
                if x is not None:
                    overlap = (a, b, x)
                    break
        if overlap:
            break
    if isinstance(e, TwoSidedPeriodic):
        structure = f"C{e.modulus // gcd(step, e.modulus)}"
    else:
        structure = "Z"
    return ZCosetGroupReport(
        idempotent=e,
        step=step,
        window=(lo, hi),
        representatives=reps,
        product_law_ok=law_ok,
        product_law_witness=witness,
        translates_distinct=distinct,
        kernel_representatives=kernel,
        overlap_witness=overlap,
        structure=structure,
    )


@dataclass(frozen=True)
class NaturalsDemoReport:
    """The one-element family {naturals} over the integers, checked exactly.

    The family is a group under addition (its single member is idempotent),
    yet its identity is not a subgroup of the integers, element inverses leave
    the family inverse, and the union is not a subgroup: the finite-carrier
    equivalences genuinely need finite order.
    """

    is_power_group: bool
    identity_is_subgroup: bool
    member_witness: int  # in E ...
    missing_inverse: int  # ... but its negation is not
    inverse_closure_holds: bool
    partition_union_subgroup_holds: bool
    subquotient_condition_failed: str

    @property
    def certifies_counterexample(self) -> bool:
        return self.is_power_group and not (
            self.identity_is_subgroup
            or self.inverse_closure_holds
            or self.partition_union_subgroup_holds
        )


def power_group_of_naturals_demo() -> NaturalsDemoReport:
    e = naturals()
    is_pg = zset_sum(e, e) == e
    witness = next(x for x in range(1, 10) if zset_contains(e, x) and not zset_contains(e, -x))
    return NaturalsDemoReport(
        is_power_group=is_pg,
        identity_is_subgroup=zset_is_z_subgroup(e),
        member_witness=witness,
        missing_inverse=-witness,
        inverse_closure_holds=zset_negate(e) == e,
        partition_union_subgroup_holds=zset_is_z_subgroup(e),  # union of {E} is E
        subquotient_condition_failed="identity_not_subgroup",
    )


# ---------------------------------------------------------------------------
# Randomized instances (seeded by the caller)


def additive_closure(generators: Sequence[int]) -> BoundedBelow:
    """Smallest subset of the non-negative integers containing 0 and closed
    under adding any generator.  Always idempotent with least element 0."""
    gens = sorted({int(x) for x in generators})
    if not gens or gens[0] < 1:
        raise ValueError("need positive generators")
    g = 0
    for x in gens:
        g = gcd(g, x)
    reduced = [x // g for x in gens]
    m = reduced[0]
    inf = float("inf")
    dist: list[float] = [inf] * m
    dist[0] = 0
    done = [False] * m
    for _ in range(m):
        r = min((d, i) for i, d in enumerate(dist) if not done[i])[1]
        done[r] = True
        for x in reduced:
            nr = (r + x) % m
            if dist[r] + x < dist[nr]:
                dist[nr] = dist[r] + x
        if all(done):
            break
    stab = int(max(dist)) + 1
    bits = [1 if dist[x % m] <= x else 0 for x in range(stab)]
    scaled = []
    for y in range(g * stab):
        q, r = divmod(y, g)
        scaled.append(bits[q] if r == 0 else 0)
    word = [1 if i == 0 else 0 for i in range(g)]
    return bounded_below(0, scaled, g, word)


def random_idempotent(rng: Random) -> BoundedBelow:
    """The additive closure of 1 to 3 generators drawn from 1 .. 10."""
    count = rng.randint(1, 3)
    return additive_closure([rng.randint(1, 10) for _ in range(count)])


def random_bounded_below(rng: Random, *, span: int = 16, max_period: int = 8) -> BoundedBelow:
    """The raw offset draw is within +/-16; canonicalization can only move the
    least element up (to the first set bit), so it lands in [-16, 16 + span +
    max_period).  That keeps every decomposition of a sum element near the
    origin inside the oracle's padded enumeration range."""
    while True:
        offset = rng.randint(-16, 16)
        bits = [rng.randint(0, 1) for _ in range(rng.randint(0, span))]
        p = rng.randint(1, max_period)
        word = [rng.randint(0, 1) for _ in range(p)]
        if rng.random() < 0.2:
            word = [0] * p
        if 1 in bits or 1 in word:
            return bounded_below(offset, bits, p, word)


def random_zset(rng: Random) -> ZSet:
    roll = rng.random()
    if roll < 0.45:
        return random_bounded_below(rng)
    if roll < 0.75:
        b = random_bounded_below(rng)
        return zset_negate(b)
    m = rng.randint(1, 12)
    residues = [r for r in range(m) if rng.random() < 0.5] or [rng.randrange(m)]
    return two_sided(m, residues)


# ---------------------------------------------------------------------------
# Text form


_BB_RE = re.compile(r"^B([BA])\((-?\d+);([01]*);(\d+);([01]+)\)$")
_TS_RE = re.compile(r"^TS\((\d+);(\d+(?:,\d+)*)\)$")


def zset_to_text(s: ZSet) -> str:
    """Render as BB(offset;transient;period;word), BA(top;...) or TS(modulus;residues).

    BA fields describe the mirror image read downward from the top element, so
    BA(0;;1;1) is the non-positive integers.
    """
    if isinstance(s, BoundedBelow):
        bits = "".join(map(str, s.transient))
        word = "".join(map(str, s.word))
        return f"BB({s.offset};{bits};{s.period};{word})"
    if isinstance(s, BoundedAbove):
        m = s.mirror
        bits = "".join(map(str, m.transient))
        word = "".join(map(str, m.word))
        return f"BA({-m.offset};{bits};{m.period};{word})"
    return f"TS({s.modulus};{','.join(map(str, sorted(s.residues)))})"


def zset_from_text(text: str) -> ZSet:
    t = text.strip().replace(" ", "")
    m = _BB_RE.match(t)
    if m:
        kind, anchor_text, bits_text, period_text, word_text = m.groups()
        anchor, period = int(anchor_text), int(period_text)
        if len(word_text) != period:
            raise ValueError(f"word length {len(word_text)} != period {period} in {text!r}")
        check_cap(len(bits_text) + period, MAX_TEXT_BITS, "transient plus period")
        bits = [int(c) for c in bits_text]
        word = [int(c) for c in word_text]
        if kind == "B":
            return bounded_below(anchor, bits, period, word)
        return zset_negate(bounded_below(-anchor, bits, period, word))
    m = _TS_RE.match(t)
    if m:
        modulus = int(m.group(1))
        residues = [int(x) for x in m.group(2).split(",")]
        return two_sided(modulus, residues)
    raise ValueError(f"cannot parse integer-set text {text!r}")
