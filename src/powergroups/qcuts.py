"""Open upper cuts of the rationals under Minkowski addition.

The family of sets {x in Q : x > r}, one for each real r, is closed under
addition of subsets ((r,inf) + (s,inf) = (r+s,inf), with every member of the
sum admitting an explicit two-part decomposition), has the r = 0 cut as its
identity, and inverts by negating the endpoint.  It is a group of subsets of
the rationals but not a family of subgroup cosets: its only idempotent is the
cut at 0, whose rational translates are exactly the rational-endpoint cuts,
yet the cut at sqrt(2) belongs to the family.  Everything here is exact; the
endpoints live in Q(sqrt(2)) and comparisons never touch floats.

Order tests run on integers.  For integers x and y, x + y*sqrt(2) has the sign
of x*|x| + 2*y*|y|.  Unless x and y have opposite signs, both have the sign of
the nonzero one.  When x > 0 > y, both have the sign of x^2 - 2*y^2, that is
of x - |y|*sqrt(2), which is never 0 because sqrt(2) is irrational; x < 0 < y
is the mirror case.  A rational p + q*sqrt(2) is scaled to that form by the
positive product of its two denominators, so comparing two endpoints, or an
endpoint with a rational n/d, builds no Fraction.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from random import Random
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import check_cap

__all__ = [
    "CutElement",
    "CutFamilyReport",
    "NotCosetWitness",
    "QuadExt",
    "cut",
    "cut_member",
    "cut_negate",
    "cut_sum",
    "decompose_member",
    "identity_cut",
    "not_coset_group_witness",
    "parse_endpoint",
    "rational_between",
    "sqrt2_convergents",
    "sqrt2_cut",
    "verify_cut_power_group",
]

RationalLike = Union[int, Fraction]


def _sign(x: int, y: int) -> int:
    """Sign of x + y*sqrt(2) for integers x, y (module docstring)."""
    s = x * abs(x) + 2 * y * abs(y)
    return (s > 0) - (s < 0)


@dataclass(frozen=True)
class QuadExt:
    """p + q*sqrt(2) with p, q each an int or a Fraction; ordered exactly."""

    p: RationalLike
    q: RationalLike

    def __post_init__(self) -> None:
        # The order tests read numerator and denominator: a float has
        # neither, and would not compare exactly if it had.
        if not (isinstance(self.p, (int, Fraction)) and isinstance(self.q, (int, Fraction))):
            raise ValueError(f"coefficients must be int or Fraction, got {self.p!r} and {self.q!r}")

    @staticmethod
    def of(p: RationalLike, q: RationalLike = 0) -> "QuadExt":
        return QuadExt(Fraction(p), Fraction(q))

    def __add__(self, other: "QuadExt") -> "QuadExt":
        return QuadExt(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "QuadExt") -> "QuadExt":
        return QuadExt(self.p - other.p, self.q - other.q)

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.p, -self.q)

    def __mul__(self, other: "QuadExt") -> "QuadExt":
        return QuadExt(
            self.p * other.p + 2 * self.q * other.q,
            self.p * other.q + self.q * other.p,
        )

    def sign(self) -> int:
        """Sign of the real number, scaled by both denominators to _sign."""
        p, q = self.p, self.q
        return _sign(p.numerator * q.denominator, q.numerator * p.denominator)

    def is_rational(self) -> bool:
        return self.q == 0

    def __lt__(self, other: "QuadExt") -> bool:
        return _cmp(self, other) < 0

    def __le__(self, other: "QuadExt") -> bool:
        return _cmp(self, other) <= 0

    def __gt__(self, other: "QuadExt") -> bool:
        return _cmp(self, other) > 0

    def __ge__(self, other: "QuadExt") -> bool:
        return _cmp(self, other) >= 0

    def floor(self) -> int:
        """The greatest integer <= p + q*sqrt(2), from one integer square root.

        Over the common denominator pd*qd the value is (n + m*sqrt(2))/(pd*qd).
        m*sqrt(2) lies strictly between the integers r = isqrt(2*m*m) and
        r + 1 when m > 0 (and between -r - 1 and -r when m < 0), so the
        numerator lies strictly between consecutive integers k and k + 1, and
        no multiple of pd*qd does.
        """
        p, q = self.p, self.q
        n = p.numerator * q.denominator
        m = q.numerator * p.denominator
        r = math.isqrt(2 * m * m)
        k = n + r if m >= 0 else n - r - 1
        return k // (p.denominator * q.denominator)

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.p)
        qpart = "sqrt2" if abs(self.q) == 1 else f"{abs(self.q)}*sqrt2"
        if self.p == 0:
            return f"-{qpart}" if self.q < 0 else qpart
        return f"{self.p}{'-' if self.q < 0 else '+'}{qpart}"


# The lookahead stops the rational part from eating the leading digits of a
# root coefficient, as in "16/7*sqrt2"; a bare "sqrt2" right after digits is
# still allowed through so the missing-sign case gets its targeted error.
_ENDPOINT_RE = re.compile(
    r"^(?P<rat>[+-]?\d+(?:/\d+)?(?=[+-]|sqrt2|$))?"
    r"(?:(?P<sign>[+-])?(?:(?P<coef>\d+(?:/\d+)?)\*)?sqrt2)?$"
)


def parse_endpoint(text: str) -> QuadExt:
    """Parse "5/3", "sqrt2", "-sqrt2", "1/2-3*sqrt2" into an exact endpoint."""
    t = text.strip().replace(" ", "")
    m = _ENDPOINT_RE.match(t)
    if not m or not t:
        raise ValueError(f"cannot parse endpoint {text!r}")
    rat, sign, coef = m.group("rat"), m.group("sign"), m.group("coef")
    if not t.endswith("sqrt2"):
        if rat is None or sign or coef:
            raise ValueError(f"cannot parse endpoint {text!r}")
        return QuadExt.of(_fraction(rat, text))
    q = _fraction(coef, text) if coef else Fraction(1)
    if sign == "-":
        q = -q
    if rat is not None and sign is None:
        raise ValueError(f"need an explicit + or - before the root in {text!r}")
    p = _fraction(rat, text) if rat is not None else Fraction(0)
    return QuadExt(p, q)


def _fraction(part: str, text: str) -> Fraction:
    """Fraction(part) for a part of endpoint text, refusing a zero denominator."""
    try:
        return Fraction(part)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in endpoint {text!r}") from None


def _cmp(x: QuadExt, y: QuadExt) -> int:
    """sign(x - y) on integers: the differences of the coefficients, each over
    the product of its two denominators, scaled to _sign's form."""
    xp, xq, yp, yq = x.p, x.q, y.p, y.q
    pd, qd = xp.denominator * yp.denominator, xq.denominator * yq.denominator
    dp = xp.numerator * yp.denominator - yp.numerator * xp.denominator
    dq = xq.numerator * yq.denominator - yq.numerator * xq.denominator
    return _sign(dp * qd, dq * pd)


def _cmp_rational(n: int, d: int, e: QuadExt) -> int:
    """sign(n/d - e) for d > 0, on integers as in _cmp."""
    p, q = e.p, e.q
    pd, qd = p.denominator, q.denominator
    return _sign((n * pd - p.numerator * d) * qd, -q.numerator * pd * d)


def _convergent_pairs(count: int) -> Iterator[tuple[int, int]]:
    p, q = 1, 1
    for _ in range(count):
        yield p, q
        p, q = p + 2 * q, p + q


def sqrt2_convergents(count: int) -> Iterator[Fraction]:
    """Continued-fraction convergents 1, 3/2, 7/5, 17/12, ... of sqrt(2)."""
    for p, q in _convergent_pairs(count):
        yield Fraction(p, q)


def rational_between(a: QuadExt, b: QuadExt) -> Fraction:
    """An exact rational strictly between a < b.

    Two rationals are separated by their mediant; otherwise the convergents
    of sqrt(2) are tried (they settle the common case of a rational against
    sqrt(2) with a small denominator), with dyadic bisection as the general
    fallback.  Bisection terminates: the bracket [lo, hi] always contains
    (a, b), and once its width drops below b - a the midpoint cannot escape
    the open interval.  Candidates are tested as integer pairs (n, d); only
    the returned one becomes a Fraction.
    """
    if not a < b:
        raise ValueError("need a < b")
    if a.is_rational() and b.is_rational():
        fa, fb = a.p, b.p
        return Fraction(fa.numerator + fb.numerator, fa.denominator + fb.denominator)
    for n, d in _convergent_pairs(40):
        if _cmp_rational(n, d, a) > 0 and _cmp_rational(n, d, b) < 0:
            return Fraction(n, d)
    # lo and hi are numerators over d = 2^k; each step halves the bracket.
    lo, hi, d = a.floor(), b.floor() + 1, 1
    while True:
        mid, d = lo + hi, 2 * d
        if _cmp_rational(mid, d, a) <= 0:
            lo, hi = mid, 2 * hi
        elif _cmp_rational(mid, d, b) >= 0:
            lo, hi = 2 * lo, mid
        else:
            return Fraction(mid, d)


@dataclass(frozen=True)
class CutElement:
    """The set {x in Q : x > endpoint}."""

    endpoint: QuadExt

    def __str__(self) -> str:
        return f"(> {self.endpoint})"


def cut(endpoint: Union[QuadExt, RationalLike]) -> CutElement:
    if isinstance(endpoint, QuadExt):
        return CutElement(endpoint)
    return CutElement(QuadExt.of(endpoint))


def identity_cut() -> CutElement:
    return cut(0)


def sqrt2_cut() -> CutElement:
    return cut(QuadExt.of(0, 1))


def cut_member(c: CutElement, x: RationalLike) -> bool:
    return QuadExt.of(x) > c.endpoint


def cut_sum(a: CutElement, b: CutElement) -> CutElement:
    return CutElement(a.endpoint + b.endpoint)


def cut_negate(a: CutElement) -> CutElement:
    return CutElement(-a.endpoint)


def decompose_member(
    a: CutElement, b: CutElement, x: RationalLike
) -> Optional[tuple[Fraction, Fraction]]:
    """Split x into u + v with u in a and v in b, or None when impossible.

    A split exists exactly when x exceeds the endpoint sum: then any rational
    u strictly between a's endpoint and x - b.endpoint works, and conversely
    u > r, v > s force u + v > r + s.
    """
    fx = Fraction(x)
    r, s = a.endpoint, b.endpoint
    upper = QuadExt(fx - s.p, -s.q)  # x <= r + s exactly when x - s <= r
    if upper <= r:
        return None
    u = rational_between(r, upper)
    return u, fx - u


def _lattice_rank(gens: Sequence[QuadExt]) -> int:
    """Rank over Q of the additive group generated by the endpoints."""
    vecs = [(g.p, g.q) for g in gens if g.sign() != 0]
    if not vecs:
        return 0
    for v in vecs:
        for w in vecs:
            if v[0] * w[1] != v[1] * w[0]:
                return 2
    return 1


@dataclass(frozen=True)
class CutFamilyReport:
    """Exact checks on the cut family generated by a few endpoints.

    The structural fields certify the group laws on every sampled pair or
    triple.  The three negative fields certify, with explicit witnesses, that
    the identity cut is not a subgroup of the rationals (1 is in it, -1 is
    not), that pointwise negation leaves the family (the negation of the
    identity cut contains -1 but not 1, while every cut containing -1 also
    contains 1), and that the family is not a partition (two sampled cuts
    share a member).  Those are exactly the finite-carrier equivalences that
    fail here, which is what makes the family interesting.
    """

    generators: tuple[str, ...]
    structure: str
    cuts_checked: int
    identity_ok: bool
    inverses_ok: bool
    associativity_ok: bool
    commutativity_ok: bool
    zero_not_in_identity: bool
    identity_subgroup_fails: bool
    identity_subgroup_witness: tuple[str, str]
    inverse_closure_fails: bool
    inverse_closure_witness: tuple[str, str]
    partition_fails: bool
    overlap_witness: Optional[tuple[str, str, str]]
    subquotient_condition_failed: str
    decomposition_trials: int
    decomposition_failures: int

    @property
    def ok(self) -> bool:
        return (
            self.identity_ok
            and self.inverses_ok
            and self.associativity_ok
            and self.commutativity_ok
            and self.zero_not_in_identity
            and self.identity_subgroup_fails
            and self.inverse_closure_fails
            and self.partition_fails
            and self.overlap_witness is not None
            and self.decomposition_failures == 0
        )


# verify_cut_power_group samples the endpoints c1*g1 + ... + ck*gk with every
# |ci| <= SPAN_BOX, (2*SPAN_BOX + 1)^k combinations for k generators, and
# compares every pair of them: k = 3 takes about 0.3 s, k = 4 about 4.5 s
# (2 vCPUs, CPython 3.11).
SPAN_BOX = 2
MAX_GENERATORS = 3
# Trial cap of verify_cut_power_group and not_coset_group_witness, checked
# before any work: 5000 trials take about 0.25 s (0.5 s with three
# generators) and 0.15 s.
MAX_TRIALS = 5000


def _span_endpoints(gens: Sequence[QuadExt]) -> list[QuadExt]:
    seen: dict[tuple[Fraction, Fraction], QuadExt] = {}
    for coeffs in product(range(-SPAN_BOX, SPAN_BOX + 1), repeat=len(gens)):
        total = QuadExt.of(0)
        for c, g in zip(coeffs, gens):
            total = total + QuadExt(g.p * c, g.q * c)
        seen.setdefault((total.p, total.q), total)
    return sorted(seen.values(), key=lambda e: (e.p, e.q))


def verify_cut_power_group(
    generators: Iterable[Union[QuadExt, RationalLike]] = (1, QuadExt(Fraction(0), Fraction(1))),
    trials: int = 500,
    seed: int = 0,
) -> CutFamilyReport:
    """Certify the cut family over the endpoint subgroup the generators span.

    Sampled endpoints are all small integer combinations of the generators,
    so sums of sampled cuts stay inside the family by construction; what the
    trials check is that the claimed endpoint law really describes the
    Minkowski sum, by decomposing sampled rationals near the boundary.
    """
    gens = [g if isinstance(g, QuadExt) else QuadExt.of(g) for g in generators]
    check_cap(len(gens), MAX_GENERATORS, "generator count")
    check_cap(trials, MAX_TRIALS, "trials")
    rng = Random(seed)
    cuts = [cut(e) for e in _span_endpoints(gens)]
    e = identity_cut()
    identity_ok = cut(QuadExt.of(0)) in cuts and all(
        cut_sum(c, e) == c and cut_sum(e, c) == c for c in cuts
    )
    inverses_ok = all(cut_sum(c, cut_negate(c)) == e for c in cuts)
    small = cuts[:: max(1, len(cuts) // 6)]
    associativity_ok = all(
        cut_sum(cut_sum(a, b), c) == cut_sum(a, cut_sum(b, c))
        for a in small
        for b in small
        for c in small
    )
    commutativity_ok = all(cut_sum(a, b) == cut_sum(b, a) for a in cuts for b in cuts)
    zero_not_in_identity = not cut_member(e, 0)

    # 1 is in the identity cut but its negative is not, so the identity is
    # not a subgroup; any cut containing -1 also contains 1, so the pointwise
    # negation of the identity cut (which holds -1 and misses 1) is no cut.
    b_wit = (Fraction(1), Fraction(-1))
    identity_subgroup_fails = cut_member(e, b_wit[0]) and not cut_member(e, b_wit[1])

    def neg_e_has(x: int) -> bool:
        return QuadExt.of(-x) > e.endpoint

    inverse_closure_fails = (
        neg_e_has(-1)
        and not neg_e_has(1)
        and all(cut_member(c, 1) for c in cuts if cut_member(c, -1))
    )

    overlap = None
    first = next(((a, b) for a in cuts for b in cuts if a.endpoint < b.endpoint), None)
    if first:
        a, b = first
        x = Fraction(b.endpoint.floor() + 1)
        if cut_member(a, x) and cut_member(b, x):
            overlap = (str(a.endpoint), str(b.endpoint), str(x))

    failures = 0
    for _ in range(trials):
        a, b = rng.choice(cuts), rng.choice(cuts)
        s = cut_sum(a, b)
        base = (a.endpoint + b.endpoint).floor()
        x = Fraction(base) + Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        split = decompose_member(a, b, x)
        if cut_member(s, x):
            if split is None:
                failures += 1
                continue
            u, v = split
            if not (cut_member(a, u) and cut_member(b, v) and u + v == x):
                failures += 1
        elif split is not None:
            failures += 1

    rank = _lattice_rank(gens)
    structure = {0: "trivial", 1: "Z", 2: "Z^2"}[rank]
    return CutFamilyReport(
        generators=tuple(str(g) for g in gens),
        structure=structure,
        cuts_checked=len(cuts),
        identity_ok=identity_ok,
        inverses_ok=inverses_ok,
        associativity_ok=associativity_ok,
        commutativity_ok=commutativity_ok,
        zero_not_in_identity=zero_not_in_identity,
        identity_subgroup_fails=identity_subgroup_fails,
        identity_subgroup_witness=(str(b_wit[0]), str(b_wit[1])),
        inverse_closure_fails=inverse_closure_fails,
        inverse_closure_witness=("-1", "1"),
        partition_fails=overlap is not None,
        overlap_witness=overlap,
        subquotient_condition_failed="identity_not_subgroup",
        decomposition_trials=trials,
        decomposition_failures=failures,
    )


@dataclass(frozen=True)
class NotCosetWitness:
    """Certificate that the cut family is not a family of subgroup cosets.

    The only idempotent cut is the one at 0 (doubling any other endpoint
    moves it), so a coset presentation would force every family member to be
    a rational translate of that cut, i.e. to have a rational endpoint.  For
    the cut at sqrt(2) each candidate rational translate a is defeated by an
    exact rational separator lying strictly between a and sqrt(2): it belongs
    to one set and not the other.
    """

    idempotent_unique_ok: bool
    trials: int
    separated: int
    examples: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return self.idempotent_unique_ok and self.separated == self.trials


def not_coset_group_witness(trials: int = 100, seed: int = 0) -> NotCosetWitness:
    check_cap(trials, MAX_TRIALS, "trials")
    rng = Random(seed)
    e = identity_cut()
    idem_ok = cut_sum(e, e) == e
    for _ in range(50):
        p = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 9))
        c = cut(QuadExt(p, q))
        if c != e and cut_sum(c, c) == c:
            idem_ok = False
    target = sqrt2_cut().endpoint
    convergents = list(sqrt2_convergents(12))
    separated = 0
    examples: list[tuple[str, str]] = []
    for t in range(trials):
        if t < len(convergents):
            a = convergents[t]
        else:
            a = rng.choice(convergents) + Fraction(rng.randint(-40, 40), rng.randint(7, 997))
        aq = QuadExt.of(a)
        lo, hi = (aq, target) if aq < target else (target, aq)
        sep = rational_between(lo, hi)
        translate_has = cut_member(cut(aq), sep)
        target_has = cut_member(sqrt2_cut(), sep)
        if translate_has != target_has:
            separated += 1
            if len(examples) < 3:
                examples.append((str(a), str(sep)))
    return NotCosetWitness(
        idempotent_unique_ok=idem_ok,
        trials=trials,
        separated=separated,
        examples=tuple(examples),
    )
