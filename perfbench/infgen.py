"""Seeded operands for the integer-set and rational-cut ops, as text.

Operands are written in the program's text forms (``BB(...)``, ``BA(...)``,
``TS(...)`` and endpoints such as ``1/3+2*sqrt2``) and parsed by the public
parsers, so the program sees only generated inputs.  Each operand also keeps
the exact description the oracles use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from random import Random

# Coprime period pairs for the wide sums.  lcm = p*q stays within 4*10^4; the
# seed code takes about 3, 20, 100 and 600 ms on them.
WIDE_PERIODS = ((31, 37), (61, 67), (101, 103), (149, 197))


@dataclass(frozen=True)
class ZText:
    """One integer set: kind BB, BA or TS with its text form."""

    kind: str
    text: str
    infinite: bool


def _bits(rng: Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def small_zset(rng: Random) -> ZText:
    roll = rng.random()
    if roll < 0.3:
        m = rng.randint(1, 12)
        residues = sorted({rng.randrange(m) for _ in range(rng.randint(1, m))})
        return ZText("TS", f"TS({m};{','.join(map(str, residues))})", True)
    kind = "BB" if roll < 0.7 else "BA"
    p = rng.randint(1, 8)
    word = "0" * p if rng.random() < 0.3 else _bits(rng, p)
    transient = _bits(rng, rng.randint(0, 10))
    if "1" not in transient + word:
        transient += "1"
    anchor = rng.randint(-12, 12)
    return ZText(kind, f"{kind}({anchor};{transient};{p};{word})", "1" in word)


def small_sum_pair(rng: Random) -> tuple[ZText, ZText]:
    """Two small sets whose sum is representable (no infinite BB + infinite BA)."""
    while True:
        a, b = small_zset(rng), small_zset(rng)
        if a.infinite and b.infinite and {a.kind, b.kind} == {"BB", "BA"}:
            continue
        return a, b


def wide_sum_pair(rng: Random, p: int, q: int) -> tuple[ZText, ZText]:
    """Bounded-below sets with coprime periods p and q, so the sum has period p*q."""
    out = []
    for period in (p, q):
        word = "1" + _bits(rng, period - 2) + "0"
        transient = "1" + _bits(rng, rng.randint(0, 40))
        out.append(ZText("BB", f"BB({rng.randint(-50, 50)};{transient};{period};{word})", True))
    return out[0], out[1]


def semigroup(generators: list[int]) -> tuple[str, int, str]:
    """{0} plus all sums of the generators, as (transient bits, period, word).

    With d the gcd of the generators, the set is d-periodic from the first
    run of min(generators) consecutive multiples of d onward.
    """
    d = 0
    for g in generators:
        d = gcd(d, g)
    small = min(generators)
    bound = max(generators) ** 2 + 1
    member = [False] * (bound * d + 1)
    member[0] = True
    for x in range(1, len(member)):
        member[x] = any(x >= g and member[x - g] for g in generators)
    run, stab = 0, None
    for k in range(0, bound):
        run = run + 1 if member[k * d] else 0
        if run == small // d:
            stab = (k - run + 1) * d
            break
    if stab is None:
        raise ValueError(f"no stable run below {bound * d} for {generators}")
    transient = "".join("1" if member[x] else "0" for x in range(stab))
    return transient, d, "1" + "0" * (d - 1)


@dataclass(frozen=True)
class UnitCase:
    identity: str
    candidate: str
    is_translate: bool


def unit_case(rng: Random) -> UnitCase:
    gens = [rng.randint(2, 10) for _ in range(rng.randint(1, 3))]
    transient, d, word = semigroup(gens)
    identity = f"BB(0;{transient};{d};{word})"
    shift = rng.randint(-20, 20)
    if rng.random() < 0.5:
        return UnitCase(identity, f"BB({shift};{transient};{d};{word})", True)
    # Not a translate: add one element below the stable part, or take an
    # unrelated bounded-below set.
    if rng.random() < 0.5 and "0" in transient:
        hole = rng.choice([i for i, c in enumerate(transient) if c == "0"])
        bits = transient[:hole] + "1" + transient[hole + 1 :]
        return UnitCase(identity, f"BB({shift};{bits};{d};{word})", False)
    p = rng.randint(1, 6)
    return UnitCase(identity, f"BB({shift};1{_bits(rng, rng.randint(0, 8))};{p};{_bits(rng, p - 1)}1)", False)


# Endpoints p + q*sqrt2 are kept as exact (p, q) pairs next to their text.
QPair = tuple[Fraction, Fraction]


def endpoint_text(e: QPair) -> str:
    p, q = e
    if q == 0:
        return str(p)
    root = "sqrt2" if abs(q) == 1 else f"{abs(q)}*sqrt2"
    if p == 0:
        return root if q > 0 else f"-{root}"
    return f"{p}{'+' if q > 0 else '-'}{root}"


def convergent(k: int) -> Fraction:
    p, q = 1, 1
    for _ in range(k):
        p, q = p + 2 * q, p + q
    return Fraction(p, q)


def near_sqrt2(rng: Random) -> QPair:
    """A rational convergent of sqrt2 nudged by a little, or sqrt2 plus a little."""
    c = convergent(rng.randint(1, 12))
    nudge = Fraction(rng.randint(-3, 3), c.denominator * rng.randint(2, 60))
    if rng.random() < 0.5:
        return (c + nudge, Fraction(0))
    return (nudge / 3, Fraction(rng.choice((1, 1, 1, 2, -1))))


def qsign(e: QPair) -> int:
    """Exact sign of p + q*sqrt2: compare p^2 with 2q^2 when the signs differ."""
    p, q = e
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sq == 0 or sp == sq:
        return sp or sq
    if sp == 0:
        return sq
    return sp if p * p > 2 * q * q else sq


def sqrt2_pair(rng: Random) -> tuple[QPair, QPair]:
    """Two distinct endpoints in increasing order."""
    while True:
        a, b = near_sqrt2(rng), near_sqrt2(rng)
        s = qsign((b[0] - a[0], b[1] - a[1]))
        if s:
            return (a, b) if s > 0 else (b, a)


def member_target(rng: Random, a: QPair, b: QPair) -> Fraction:
    """A rational near the endpoint sum a + b, on either side of it."""
    p, q = a[0] + b[0], a[1] + b[1]
    roll = rng.random()
    if roll < 0.15 and q == 0:
        return p
    return p + q * convergent(rng.randint(1, 14)) + Fraction(rng.randint(-1, 1), rng.randint(50, 500))
