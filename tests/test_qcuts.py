"""Exact arithmetic in Q(sqrt2) and the rational upper-cut family."""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powergroups.qcuts import (
    CutElement,
    QuadExt,
    cut,
    cut_member,
    cut_negate,
    cut_sum,
    decompose_member,
    identity_cut,
    not_coset_group_witness,
    parse_endpoint,
    rational_between,
    sqrt2_convergents,
    sqrt2_cut,
    verify_cut_power_group,
)

SQRT2 = QuadExt.of(0, 1)


def sqrt2_bracket(depth=40):
    """Adjacent convergents straddling sqrt2, proven so by squaring."""
    cs = list(sqrt2_convergents(depth + 2))
    lo, hi = cs[depth], cs[depth + 1]
    if lo > hi:
        lo, hi = hi, lo
    assert lo * lo < 2 < hi * hi
    return lo, hi


# ---------------------------------------------------------------------------
# QuadExt arithmetic and order


def test_quadext_ring_operations():
    x = QuadExt.of(1, 1)
    assert x * x == QuadExt.of(3, 2)
    assert x * QuadExt.of(1, -1) == QuadExt.of(-1, 0)
    assert x + QuadExt.of(Fraction(1, 2), -1) == QuadExt.of(Fraction(3, 2), 0)
    assert -x == QuadExt.of(-1, -1)
    assert (x - x).sign() == 0
    assert x.is_rational() is False and QuadExt.of(5).is_rational()


def test_sign_against_rational_bracket():
    lo, hi = sqrt2_bracket()
    rng = Random(42)
    for _ in range(250):
        p = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        q = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        x = QuadExt(p, q)
        if q == 0:
            assert x.sign() == (p > 0) - (p < 0)
            continue
        bounds = sorted([p + q * lo, p + q * hi])
        if bounds[0] > 0:
            assert x.sign() == 1
        elif bounds[1] < 0:
            assert x.sign() == -1
        # Bracket width is ~1e-31, so random inputs never land between.


def test_order_pinned_cases():
    assert QuadExt.of(Fraction(7, 5)) < SQRT2  # 49 < 50
    assert QuadExt.of(Fraction(17, 12)) > SQRT2  # 289 > 288
    assert QuadExt.of(Fraction(3, 2)) > SQRT2
    assert QuadExt.of(0, 1) > QuadExt.of(1, 0)
    assert QuadExt.of(2, -1) > QuadExt.of(0)  # 2 > sqrt2
    assert QuadExt.of(1, -1) < QuadExt.of(0)
    x, y = QuadExt.of(1, 2), QuadExt.of(1, 2)
    assert x <= y and x >= y and not x < y


def test_floor():
    assert SQRT2.floor() == 1
    assert (-SQRT2).floor() == -2
    assert QuadExt.of(Fraction(3, 2), -2).floor() == -2
    assert QuadExt.of(7).floor() == 7
    assert QuadExt.of(Fraction(-7, 2)).floor() == -4
    # Exact far beyond float precision (a float guess would be off by 2^148).
    assert QuadExt.of(2**200, 1).floor() == 2**200 + 1
    assert QuadExt.of(0, -(2**200)).floor() == -math.isqrt(2**401) - 1
    rng = Random(8)
    for _ in range(120):
        x = QuadExt(
            Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
        )
        n = x.floor()
        assert QuadExt.of(n) <= x < QuadExt.of(n + 1)


def test_pell_identity_of_convergents():
    cs = list(sqrt2_convergents(30))
    assert cs[:4] == [Fraction(1), Fraction(3, 2), Fraction(7, 5), Fraction(17, 12)]
    for k, c in enumerate(cs):
        assert c.numerator**2 - 2 * c.denominator**2 == (-1) ** (k + 1)


# ---------------------------------------------------------------------------
# The Fraction arithmetic the integer kernel replaced, kept as the reference


def ref_sign(p, q):
    """Sign of p + q*sqrt2 by cases on Fractions, squaring the mixed-sign case."""
    p, q = Fraction(p), Fraction(q)
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return 1 if q > 0 else -1
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    big = p * p > 2 * q * q  # |p| beats |q|*sqrt2
    if p > 0:
        return 1 if big else -1
    return -1 if big else 1


def ref_cmp(x, y):
    """sign(x - y) through Fraction subtraction and ref_sign."""
    return ref_sign(Fraction(x.p) - Fraction(y.p), Fraction(x.q) - Fraction(y.q))


def ref_floor(x):
    """Binary search over integers, by ref_cmp, in [p - 3|q|/2 - 1, p + 3|q|/2 + 1]."""
    reach = abs(Fraction(x.q)) * 3 / 2
    lo, hi = math.floor(x.p - reach) - 1, math.ceil(x.p + reach) + 1  # lo <= x < hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ref_cmp(QuadExt.of(mid), x) <= 0:
            lo = mid
        else:
            hi = mid
    return lo


def ref_rational_between(a, b):
    """The mediant, then the convergents, then dyadic bisection, on Fractions."""
    assert ref_cmp(a, b) < 0
    if a.q == 0 and b.q == 0:
        fa, fb = Fraction(a.p), Fraction(b.p)
        return Fraction(fa.numerator + fb.numerator, fa.denominator + fb.denominator)
    for c in sqrt2_convergents(40):
        cq = QuadExt.of(c)
        if ref_cmp(a, cq) < 0 and ref_cmp(cq, b) < 0:
            return c
    lo, hi = Fraction(ref_floor(a)), Fraction(ref_floor(b) + 1)
    while True:
        mid = (lo + hi) / 2
        m = QuadExt.of(mid)
        if ref_cmp(m, a) <= 0:
            lo = mid
        elif ref_cmp(m, b) >= 0:
            hi = mid
        else:
            return mid


def ref_decompose_member(a, b, x):
    """None when x <= a + b, else (u, x - u) with u from ref_rational_between."""
    xq = QuadExt.of(x)
    if ref_cmp(xq, a.endpoint + b.endpoint) <= 0:
        return None
    u = ref_rational_between(a.endpoint, xq - b.endpoint)
    return u, Fraction(x) - u


def pell_pairs(count):
    """(p, q) with p^2 - 2q^2 = +-1: the convergents, sqrt2's closest approaches."""
    p, q = 1, 1
    for _ in range(count):
        yield p, q
        p, q = p + 2 * q, p + q


PELL = list(pell_pairs(60))
HUGE = 2**200
_SIGNS = st.sampled_from((1, -1))
# Rationals from the three regimes the kernel must get right: zero, numerators
# and denominators around 2^200, and Pell ratios p/q, with small ones between.
RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 30)),
    st.builds(
        lambda s, n, d: Fraction(s * (HUGE + n), d),
        _SIGNS,
        st.integers(-(2**20), 2**20),
        st.one_of(st.integers(1, 30), st.integers(HUGE - 2**20, HUGE + 2**20)),
    ),
    st.builds(
        lambda s, pq, k: Fraction(s * pq[0], pq[1] * 2**k),
        _SIGNS,
        st.sampled_from(PELL),
        st.integers(0, 3),
    ),
)
# Endpoints: free pairs, rationals, and Pell neighbours of sqrt2 (p/q against
# sqrt2, and p - q*sqrt2 = +-1/(p + q*sqrt2), closest to zero).
QUADS = st.one_of(
    st.builds(QuadExt, RATIONALS, RATIONALS),
    st.builds(QuadExt, RATIONALS, st.just(Fraction(0))),
    st.builds(lambda pq: QuadExt(Fraction(pq[0], pq[1]), Fraction(0)), st.sampled_from(PELL)),
    st.builds(
        lambda pq, s: QuadExt(Fraction(s * pq[0]), Fraction(-s * pq[1])),
        st.sampled_from(PELL),
        _SIGNS,
    ),
    st.builds(lambda r, s: QuadExt(r, Fraction(s)), RATIONALS, _SIGNS),
)


@settings(max_examples=400)
@given(x=QUADS, y=QUADS)
def test_order_matches_fraction_reference(x, y):
    assert x.sign() == ref_sign(x.p, x.q)
    want = ref_cmp(x, y)
    assert (x < y, x <= y, x > y, x >= y) == (want < 0, want <= 0, want > 0, want >= 0)
    assert x.floor() == ref_floor(x)


@settings(max_examples=300)
@given(x=QUADS, y=QUADS)
# (sqrt2, 38th convergent) holds the 40th, the last one scanned; (39th
# convergent, sqrt2) holds none of the first 40, so it bisects.
@example(x=SQRT2, y=QuadExt.of(Fraction(*PELL[37])))
@example(x=QuadExt.of(Fraction(*PELL[38])), y=SQRT2)
def test_rational_between_matches_fraction_reference(x, y):
    if ref_cmp(x, y) == 0:
        return
    a, b = (x, y) if ref_cmp(x, y) < 0 else (y, x)
    assert rational_between(a, b) == ref_rational_between(a, b)


@settings(max_examples=300)
@given(a=QUADS, b=QUADS, x=RATIONALS, near=st.booleans())
def test_decompose_member_matches_fraction_reference(a, b, x, near):
    if near:  # just above or below the endpoint sum, where the split is tight
        x = ref_floor(a + b) + x / (1 + abs(x))
    ca, cb = cut(a), cut(b)
    assert decompose_member(ca, cb, x) == ref_decompose_member(ca, cb, x)


def test_order_tests_build_no_fraction(monkeypatch):
    """Comparisons and sign run on integers; a rational_between settled by a
    convergent builds one Fraction, the one it returns."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    x, y = QuadExt.of(Fraction(7, 5), 1), QuadExt.of(Fraction(-3, 4), Fraction(2, 9))
    lo, ny = QuadExt.of(Fraction(7, 5)), -y
    monkeypatch.setattr(Fraction, "__new__", counting)
    assert y < x and y <= x and x > y and x >= y and not x < x
    assert (x.sign(), ny.sign(), SQRT2.sign()) == (1, 1, 1)
    assert lo < SQRT2 and not SQRT2 <= lo
    assert not built
    got = rational_between(lo, SQRT2)
    monkeypatch.undo()
    assert built == [(41, 29)]
    assert got == Fraction(41, 29)


def test_quadext_refuses_float_coefficients():
    for p, q in [(0.1, 0), (0, 0.5), (Fraction(1), 1.0), ("1", 0)]:
        with pytest.raises(ValueError, match="int or Fraction"):
            QuadExt(p, q)
    assert QuadExt.of(0.1) == QuadExt.of(Fraction(3602879701896397, 36028797018963968))
    assert QuadExt(1, 0) == QuadExt.of(1) and hash(QuadExt(1, 0)) == hash(QuadExt.of(1))
    assert QuadExt(True, 0) < QuadExt.of(2)


# ---------------------------------------------------------------------------
# Endpoint text form


def test_endpoint_text_round_trips():
    cases = {
        "0": QuadExt.of(0),
        "5/3": QuadExt.of(Fraction(5, 3)),
        "sqrt2": SQRT2,
        "-sqrt2": -SQRT2,
        "2*sqrt2": QuadExt.of(0, 2),
        "1/2-3*sqrt2": QuadExt.of(Fraction(1, 2), -3),
        "-7/5+sqrt2": QuadExt.of(Fraction(-7, 5), 1),
    }
    for text, value in cases.items():
        assert parse_endpoint(text) == value
        assert str(value) == text
    assert parse_endpoint(" 1/2 - 3*sqrt2 ") == QuadExt.of(Fraction(1, 2), -3)


def test_endpoint_parse_rejects_malformed():
    for bad in ["", "sqrt3", "1/2sqrt2", "++sqrt2", "1//2", "sqrt2+1"]:
        with pytest.raises(ValueError):
            parse_endpoint(bad)


def test_endpoint_parse_round_trips_random():
    rng = Random(3)
    for _ in range(150):
        x = QuadExt(
            Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
            Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
        )
        assert parse_endpoint(str(x)) == x


# ---------------------------------------------------------------------------
# Separating rationals


def test_rational_between_pinned():
    assert rational_between(QuadExt.of(0), QuadExt.of(1)) == Fraction(1, 2)  # mediant
    assert rational_between(QuadExt.of(0), SQRT2) == 1
    assert rational_between(QuadExt.of(Fraction(7, 5)), SQRT2) == Fraction(41, 29)
    assert rational_between(SQRT2, QuadExt.of(Fraction(3, 2))) == Fraction(17, 12)


def test_rational_between_bisection_fallback():
    # No convergent lies in this sliver between two irrationals, so the
    # dyadic bisection path must produce the separator.
    a = QuadExt.of(2, 1)
    b = QuadExt.of(Fraction(2001, 1000), 1)
    m = rational_between(a, b)
    assert a < QuadExt.of(m) < b


def test_rational_between_validates_order():
    with pytest.raises(ValueError):
        rational_between(SQRT2, SQRT2)
    with pytest.raises(ValueError):
        rational_between(QuadExt.of(2), SQRT2)


def test_rational_between_random_property():
    rng = Random(17)
    for _ in range(150):
        a = QuadExt(
            Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
        )
        b = a + QuadExt(Fraction(rng.randint(1, 30), rng.randint(1, 30)), Fraction(0))
        m = rational_between(a, b)
        assert a < QuadExt.of(m) < b


# ---------------------------------------------------------------------------
# Cuts


def test_cut_membership_is_strict():
    c = cut(Fraction(3, 2))
    assert not cut_member(c, Fraction(3, 2))
    assert cut_member(c, Fraction(31, 20))
    assert cut_member(sqrt2_cut(), Fraction(3, 2))
    assert not cut_member(sqrt2_cut(), Fraction(7, 5))
    assert not cut_member(identity_cut(), 0)


def test_cut_group_operations():
    a, b = cut(Fraction(1, 3)), cut(QuadExt.of(1, 1))
    assert cut_sum(a, b) == cut(QuadExt.of(Fraction(4, 3), 1))
    assert cut_sum(a, identity_cut()) == a
    assert cut_sum(a, cut_negate(a)) == identity_cut()
    assert cut_negate(sqrt2_cut()) == cut(QuadExt.of(0, -1))
    assert cut(5) == CutElement(QuadExt.of(5))


def test_decompose_member():
    a, b = cut(Fraction(1, 2)), sqrt2_cut()
    # 3 > 1/2 + sqrt2, so a split must exist and land in the open cuts.
    got = decompose_member(a, b, 3)
    assert got is not None
    u, v = got
    assert u + v == 3
    assert cut_member(a, u) and cut_member(b, v)
    assert decompose_member(a, b, Fraction(19, 10)) is None  # below the sum endpoint
    assert decompose_member(a, cut(Fraction(1, 2)), 1) is None  # equals it exactly
    rng = Random(29)
    for _ in range(100):
        x = Fraction(rng.randint(-40, 80), rng.randint(1, 10))
        split = decompose_member(a, b, x)
        if QuadExt.of(x) > a.endpoint + b.endpoint:
            assert split is not None
            u, v = split
            assert u + v == x and cut_member(a, u) and cut_member(b, v)
        else:
            assert split is None


# ---------------------------------------------------------------------------
# Family verification


def test_verify_cut_power_group_default():
    rep = verify_cut_power_group(trials=200, seed=0)
    assert rep.ok
    assert rep.generators == ("1", "sqrt2")
    assert rep.cuts_checked == 25  # 5 x 5 integer combinations, all distinct
    assert rep.structure == "Z^2"
    assert rep.identity_ok and rep.inverses_ok
    assert rep.associativity_ok and rep.commutativity_ok
    assert rep.zero_not_in_identity
    assert rep.identity_subgroup_fails and rep.identity_subgroup_witness == ("1", "-1")
    assert rep.inverse_closure_fails and rep.inverse_closure_witness == ("-1", "1")
    assert rep.partition_fails and rep.overlap_witness is not None
    lo, hi, x = rep.overlap_witness
    assert cut_member(cut(parse_endpoint(lo)), Fraction(x))
    assert cut_member(cut(parse_endpoint(hi)), Fraction(x))
    assert rep.subquotient_condition_failed == "identity_not_subgroup"
    assert rep.decomposition_failures == 0
    assert rep.decomposition_trials == 200


def test_verify_cut_power_group_other_generator_sets():
    rep = verify_cut_power_group(generators=(1,), trials=80, seed=2)
    assert rep.ok and rep.structure == "Z" and rep.cuts_checked == 5
    rep = verify_cut_power_group(generators=(SQRT2,), trials=80, seed=2)
    assert rep.ok and rep.structure == "Z"
    # The one-cut family has no distinct pair, hence no overlap witness, so
    # it cannot certify the partition failure.
    rep = verify_cut_power_group(generators=(0,), trials=10, seed=0)
    assert rep.structure == "trivial" and rep.identity_ok and not rep.ok


def test_verify_is_deterministic_per_seed():
    assert verify_cut_power_group(trials=60, seed=5) == verify_cut_power_group(
        trials=60, seed=5
    )


def test_not_coset_group_witness():
    w = not_coset_group_witness(trials=100, seed=0)
    assert w.ok
    assert w.idempotent_unique_ok
    assert w.separated == w.trials == 100
    assert w.examples == (("1", "7/5"), ("3/2", "17/12"), ("7/5", "41/29"))
    # Each example separator lies strictly between the candidate and sqrt2,
    # so it belongs to exactly one of the two cuts.
    for a_text, sep_text in w.examples:
        a = Fraction(a_text)
        sep = Fraction(sep_text)
        assert cut_member(cut(a), sep) != cut_member(sqrt2_cut(), sep)
    assert not_coset_group_witness(trials=10, seed=4).separated == 10
