"""Exact integer-set algebra: canonical forms, sums, residuals, coset windows."""

import itertools
import json
import resource
import subprocess
import sys
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powergroups.zsets as zsets_module
from powergroups.errors import (
    CapExceededError,
    NotIdempotentError,
    NotRepresentableError,
    ParamOutOfRangeError,
)
from powergroups.zsets import (
    BoundedAbove,
    BoundedBelow,
    TwoSidedPeriodic,
    _bits,
    _first_overlap,
    _least_modulus,
    _least_period,
    _residues_mod,
    additive_closure,
    bounded_below,
    build_z_coset_group,
    finite_zset,
    minkowski_pad,
    minkowski_window_sum,
    naturals,
    power_group_of_naturals_demo,
    random_bounded_below,
    random_idempotent,
    random_zset,
    theorem3_unit_test,
    two_sided,
    z_subgroup,
    zset_contains,
    zset_from_text,
    zset_is_finite,
    zset_is_idempotent,
    zset_is_z_subgroup,
    zset_negate,
    zset_residual,
    zset_sum,
    zset_to_text,
    zset_translate,
    zset_window_mask,
)

GAPPED = bounded_below(0, [1, 0], 1, [1])  # {0} plus everything from 2 on
EVENS_FROM_0 = bounded_below(0, [], 2, [1, 0])
MULT3_FROM_0 = bounded_below(0, [], 3, [1, 0, 0])


def raw_member(offset, transient, word, x):
    i = x - offset
    if i < 0:
        return False
    if i < len(transient):
        return transient[i] == 1
    return word[(i - len(transient)) % len(word)] == 1


# ---------------------------------------------------------------------------
# Canonical forms


def test_bounded_below_canonicalization_examples():
    assert bounded_below(0, [0, 0, 1], 1, [1]) == BoundedBelow(2, (), 1, (1,))
    # Word cut to its least period.
    assert bounded_below(0, [], 4, [1, 0, 1, 0]) == EVENS_FROM_0
    # Trailing transient bits matching the periodic continuation are absorbed.
    assert bounded_below(0, [1, 1, 1], 1, [1]) == naturals()
    s = bounded_below(0, [1, 0, 0, 0, 1, 0], 2, [1, 0])
    assert s.transient == (1, 0, 0) and s.word == (0, 1)
    # All-zero word means finite; offset advances over leading zeros.
    assert bounded_below(-2, [0, 1, 0, 1], 3, [0, 0, 0]) == finite_zset([-1, 1])


def test_constructors_reject_non_canonical_input():
    with pytest.raises(ValueError):
        BoundedBelow(0, (0, 1), 1, (1,))  # leading zero in transient
    with pytest.raises(ValueError):
        BoundedBelow(0, (), 2, (1, 1))  # word period not minimal
    with pytest.raises(ValueError):
        BoundedBelow(0, (1, 1), 1, (1,))  # transient tail belongs to the word
    with pytest.raises(ValueError):
        BoundedBelow(0, (), 2, (1,))  # word length != period
    with pytest.raises(ValueError):
        BoundedBelow(0, (), 0, ())
    with pytest.raises(ValueError):
        bounded_below(0, [0, 0], 1, [0])  # empty set
    with pytest.raises(ValueError):
        BoundedAbove(finite_zset([3]))  # finite sets stay bounded-below
    with pytest.raises(ValueError):
        TwoSidedPeriodic(4, frozenset({0, 2}))  # modulus not minimal
    with pytest.raises(ValueError):
        TwoSidedPeriodic(3, frozenset({3}))
    with pytest.raises(ValueError):
        TwoSidedPeriodic(3, frozenset())
    with pytest.raises(ValueError):
        two_sided(0, [0])


def test_bits_must_be_int_zero_or_one():
    # The 0/1 check reads the stored tuples; a str or float bit used to pass
    # as int(bit) while the raw bit was kept.
    bad = [
        (("1", "0", "1"), (0,)),
        ((1,), ("1",)),
        ((1.0, 0, 1), (0,)),
        ((1,), (0.0,)),
        ((1, 2), (0,)),
    ]
    for transient, word in bad:
        with pytest.raises(ValueError, match="0/1 bits"):
            BoundedBelow(0, transient, len(word), word)
        with pytest.raises(ValueError, match="0/1 bits"):
            bounded_below(0, transient, len(word), word)
    with pytest.raises(ValueError, match="0/1 bits"):
        bounded_below(0, 3, 1, [1])  # bytes(3) would be three zero bits
    s = BoundedBelow(0, (True, False, True), 1, (False,))  # bools equal their ints
    assert s == finite_zset([0, 2]) and hash(s) == hash(finite_zset([0, 2]))
    assert zset_contains(s, 0) and zset_sum(s, s) == finite_zset([0, 2, 4])


def test_two_sided_minimizes_modulus():
    assert two_sided(4, [0, 2]) == TwoSidedPeriodic(2, frozenset({0}))
    assert two_sided(6, [1, 3, 5]) == TwoSidedPeriodic(2, frozenset({1}))
    assert two_sided(6, [0, 1, 2, 3, 4, 5]) == TwoSidedPeriodic(1, frozenset({0}))
    assert two_sided(4, [1, 2]).modulus == 4


@given(
    offset=st.integers(-20, 20),
    transient=st.lists(st.integers(0, 1), max_size=12),
    word=st.lists(st.integers(0, 1), min_size=1, max_size=8),
)
def test_canonicalization_preserves_membership(offset, transient, word):
    if 1 not in transient and 1 not in word:
        word = word + [1]
    s = bounded_below(offset, transient, len(word), word)
    # Canonical form is a fixed point of its own constructor.
    assert bounded_below(s.offset, s.transient, s.period, s.word) == s
    hi = offset + len(transient) + 3 * len(word) + 4
    for x in range(offset - 3, hi):
        assert zset_contains(s, x) == raw_member(offset, transient, word, x)


# The divisor scans that canonicalized before _least_period and
# _least_modulus existed, kept as the reference for both.


def scan_least_period(w):
    return next(
        d for d in range(1, len(w) + 1)
        if len(w) % d == 0 and all(w[i] == w[i % d] for i in range(len(w)))
    )


def scan_least_modulus(m, rs):
    return next(
        d for d in range(1, m + 1) if m % d == 0 and rs == frozenset((r + d) % m for r in rs)
    )


def scan_bounded_below(offset, transient, period, word):
    bits, w = list(transient), list(word)
    while bits and bits[0] == 0:
        bits.pop(0)
        offset += 1
    if not bits and w[0] == 0:
        k = w.index(1)
        w = w[k:] + w[:k]
        offset += k
    w = w[: scan_least_period(w)]
    while bits and bits[-1] == w[-1]:
        bits.pop()
        w = [w[-1]] + w[:-1]
    return offset, tuple(bits), len(w), tuple(w)


@given(
    offset=st.integers(-20, 20),
    transient=st.lists(st.integers(0, 1), max_size=64),
    unit=st.lists(st.integers(0, 1), min_size=1, max_size=16),
    repeats=st.integers(1, 4),
    rotate=st.integers(0, 63),
)
def test_least_period_matches_divisor_scan(offset, transient, unit, repeats, rotate):
    # Words built as a repeated unit, so non-minimal periods come up often.
    word = (unit * repeats)[:64]
    word = word[rotate % len(word):] + word[: rotate % len(word)]
    assert _least_period(word) == scan_least_period(word)
    if word[0] == 1 and scan_least_period(word) < len(word):
        with pytest.raises(ValueError, match="period is not minimal"):
            BoundedBelow(offset, (), len(word), tuple(word))
    elif word[0] == 1:
        BoundedBelow(offset, (), len(word), tuple(word))
    if 1 not in transient and 1 not in word:
        word[-1] = 1
    s = bounded_below(offset, transient, len(word), word)
    assert (s.offset, s.transient, s.period, s.word) == scan_bounded_below(
        offset, transient, len(word), word
    )


@given(
    offset=st.integers(-20, 20),
    lead=st.integers(0, 40),
    transient=st.lists(st.integers(0, 1), max_size=300),
    unit=st.lists(st.integers(0, 1), min_size=1, max_size=60),
    repeats=st.integers(1, 5),
    rotate=st.integers(0, 299),
    tail=st.integers(0, 300),
)
def test_mask_canonical_form_matches_per_bit_scan(offset, lead, transient, unit, repeats, rotate, tail):
    # Transients and words of a few hundred bits; the transient ends in `tail`
    # bits that continue the word backwards, so long absorbed runs come up.
    word = (unit * repeats)[:300]
    word = word[rotate % len(word):] + word[: rotate % len(word)]
    run = word * (tail // len(word) + 1)
    transient = [0] * lead + transient + run[len(run) - tail:]
    if 1 not in transient and 1 not in word:
        word[-1] = 1
    s = bounded_below(offset, transient, len(word), word)
    assert (s.offset, s.transient, s.period, s.word) == scan_bounded_below(
        offset, transient, len(word), word
    )


def divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


@given(modulus=st.integers(1, 200), data=st.data())
def test_least_modulus_matches_divisor_scan(modulus, data):
    # Residue sets lifted from a divisor's residues, sometimes with noise
    # added, so that both minimal and non-minimal moduli come up.
    d = data.draw(st.sampled_from(divisors(modulus)))
    base = data.draw(st.frozensets(st.integers(0, d - 1), min_size=1))
    rs = {r + k * d for r in base for k in range(modulus // d)}
    rs ^= data.draw(st.frozensets(st.integers(0, modulus - 1), max_size=3))
    rs = frozenset(rs) or frozenset({0})
    want = scan_least_modulus(modulus, rs)
    assert _least_modulus(modulus, rs) == want
    assert two_sided(modulus, rs) == TwoSidedPeriodic(want, frozenset(r % want for r in rs))
    if want < modulus:
        with pytest.raises(ValueError, match="modulus is not minimal"):
            TwoSidedPeriodic(modulus, rs)
    else:
        assert TwoSidedPeriodic(modulus, rs).residues == rs


def test_huge_two_sided_modulus_returns_promptly():
    # The modulus is never scanned: only differences of residues are tried.
    proc = subprocess.run(
        [sys.executable, "-m", "powergroups.cli", "zset", "idempotent", "TS(1000000000000;0)"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"idempotent": True, "set": "TS(1000000000000;0)"}


def test_residues_are_counted_before_they_are_built(monkeypatch):
    monkeypatch.setattr(zsets_module, "MAX_RESIDUES", 10)
    # One word bit of period 1 stands for d residues mod d; transient bits for one each.
    assert _residues_mod(naturals(), 10) == frozenset(range(10))
    with pytest.raises(CapExceededError, match="^residue count 11 exceeds cap 10$"):
        _residues_mod(naturals(), 11)
    with pytest.raises(CapExceededError, match="^residue count 11 exceeds cap 10$"):
        _residues_mod(bounded_below(0, [1], 2, [1, 0]), 20)  # {0} plus the odds from 1
    with pytest.raises(CapExceededError, match="^residue count 12 exceeds cap 10$"):
        _residues_mod(zset_negate(naturals()), 12)
    # Two residues mod 4, each standing for 24 / gcd(4, 24) = 6 residues mod 24.
    with pytest.raises(CapExceededError, match="^residue count 12 exceeds cap 10$"):
        _residues_mod(two_sided(4, [0, 1]), 24)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_huge_residue_set_is_refused_promptly():
    # Summing with TS(10^12;0) would list 10^12 residues of the naturals.
    proc = subprocess.run(
        [sys.executable, "-m", "powergroups.cli", "zset", "sum", "TS(1000000000000;0)", "BB(0;;1;1)"],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=_limit_memory,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: residue count 1000000000000 exceeds cap 1000000\n"


# ---------------------------------------------------------------------------
# Membership, windows, ranges


def test_membership_across_shapes():
    assert zset_contains(naturals(), 0) and zset_contains(naturals(), 17)
    assert not zset_contains(naturals(), -1)
    nonpos = zset_negate(naturals())
    assert zset_contains(nonpos, -3) and not zset_contains(nonpos, 2)
    odds = two_sided(2, [1])
    assert zset_contains(odds, -7) and not zset_contains(odds, 0)
    assert zset_contains(two_sided(3, [1]), -2)  # -2 mod 3 == 1
    assert not zset_contains(GAPPED, 1) and zset_contains(GAPPED, 2)


def test_window_mask():
    # Window [-2, 3): bits for -2, -1, 0, 1, 2.
    assert zset_window_mask(naturals(), -2, 3) == 0b11100
    assert zset_window_mask(two_sided(2, [0]), -2, 3) == 0b10101
    # Far from the offset the word is entered at the window's phase, so this
    # costs 64 bits, not 10^12.
    assert zset_window_mask(naturals(), 10**12, 10**12 + 64) == (1 << 64) - 1
    assert zset_window_mask(zset_negate(naturals()), -(10**12), -(10**12) + 64) == (1 << 64) - 1
    assert zset_window_mask(two_sided(10**12, [5]), 10**12 - 3, 10**12 + 61) == 1 << 8


@st.composite
def sets_and_windows(draw):
    """A BB, BA or TS set and a window before, inside or after its transient,
    or anywhere within 10^12 of it; widths include 0."""
    kind = draw(st.sampled_from(["BB", "BA", "TS"]))
    if kind == "TS":
        modulus = draw(st.one_of(st.integers(1, 40), st.integers(1, 10**12)))
        s = two_sided(modulus, draw(st.lists(st.integers(0, modulus - 1), min_size=1, max_size=6)))
        anchor, t = draw(st.integers(-(10**12), 10**12)), 0
    else:
        transient = draw(st.lists(st.integers(0, 1), max_size=40))
        word = draw(st.lists(st.integers(0, 1), min_size=1, max_size=12))
        if kind == "BA" or 1 not in transient:
            word[-1] = 1
        s = bounded_below(draw(st.integers(-(10**12), 10**12)), transient, len(word), word)
        anchor, t = s.offset, len(s.transient)
        if kind == "BA":
            s = zset_negate(s)
            anchor = -anchor - t
    shift = draw(st.one_of(st.integers(-60, t + 60), st.integers(-(10**12), 10**12)))
    return s, anchor + shift, draw(st.integers(0, 150))


@given(case=sets_and_windows())
def test_window_mask_matches_membership(case):
    s, lo, width = case
    got = zset_window_mask(s, lo, lo + width)
    assert got >> width == 0
    assert [(got >> i) & 1 for i in range(width)] == [int(zset_contains(s, lo + i)) for i in range(width)]


@given(mask=st.integers(0, 2**300), n=st.integers(0, 320))
def test_bits_matches_per_bit_reads(mask, n):
    assert _bits(mask, n) == tuple((mask >> i) & 1 for i in range(n))


def test_bits_of_nothing_is_empty():
    assert _bits(0, 0) == _bits(0b1011, 0) == ()


def _forbidden(*_):
    raise AssertionError("work started past a refused cap")


@given(
    lo=st.integers(-10**9, 10**9),
    width=st.one_of(
        st.integers(zsets_module.MAX_WINDOW_BITS + 1, 10**12), st.integers(-10**12, -1)
    ),
)
def test_window_cap_refuses_before_any_membership_read(lo, width):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zsets_module, "zset_contains", _forbidden)
        mp.setattr(zsets_module, "_repeat", _forbidden)
        with pytest.raises(CapExceededError, match="^window bits -?[0-9]+ (exceeds cap|is negative)"):
            zset_window_mask(naturals(), lo, lo + width)


def test_window_cap_admits_its_own_width():
    cap = zsets_module.MAX_WINDOW_BITS
    assert zset_window_mask(naturals(), -cap, 0) == 0
    assert zset_window_mask(naturals(), 0, cap) == (1 << cap) - 1


def test_min_max_finite():
    f = finite_zset([3, 5])
    assert zset_is_finite(f) and f.offset == 3 and f.offset + len(f.transient) - 1 == 5
    assert naturals().offset == 0 and not zset_is_finite(naturals())
    nonpos = zset_negate(naturals())
    assert isinstance(nonpos, BoundedAbove) and -nonpos.mirror.offset == 0
    assert not zset_is_finite(two_sided(2, [0]))


def test_negate_and_translate_membership():
    rng = Random(11)
    for _ in range(40):
        s = random_zset(rng)
        n = zset_negate(s)
        assert zset_negate(n) == s
        t = zset_translate(s, 7)
        for x in range(-30, 31):
            assert zset_contains(n, x) == zset_contains(s, -x)
            assert zset_contains(t, x) == zset_contains(s, x - 7)


def test_negate_finite_stays_bounded_below():
    assert zset_negate(finite_zset([1, 4])) == finite_zset([-4, -1])


# ---------------------------------------------------------------------------
# Sums


def naive_sum_window(a, b, k):
    """Exact sum bits on [min(a)+min(b), min(a)+min(b)+k] by direct addition.

    Any x in that window decomposes with both parts within k of their set's
    least element, so the truncated element lists below see every witness.
    """
    lo = a.offset + b.offset
    av = [x for x in range(a.offset, a.offset + k + 1) if zset_contains(a, x)]
    bv = [x for x in range(b.offset, b.offset + k + 1) if zset_contains(b, x)]
    return {u + v for u in av for v in bv if u + v <= lo + k}


def test_sum_pinned_cases():
    assert zset_sum(naturals(), naturals()) == naturals()
    assert zset_sum(GAPPED, GAPPED) == GAPPED
    assert zset_sum(finite_zset([1, 3]), finite_zset([0, 2])) == finite_zset([1, 3, 5])
    # Numerical semigroup generated by 2 and 3.
    assert zset_sum(EVENS_FROM_0, MULT3_FROM_0) == GAPPED
    assert zset_sum(two_sided(2, [0]), two_sided(2, [1])) == two_sided(2, [1])
    assert zset_sum(two_sided(2, [1]), two_sided(2, [1])) == two_sided(2, [0])
    assert zset_sum(two_sided(6, [0]), two_sided(4, [0])) == two_sided(2, [0])
    assert zset_sum(naturals(), two_sided(2, [0])) == two_sided(1, [0])
    nonpos = zset_negate(naturals())
    assert zset_sum(finite_zset([5]), nonpos) == zset_translate(nonpos, 5)
    assert zset_sum(nonpos, nonpos) == nonpos


def test_sum_rejects_opposite_infinite_directions():
    with pytest.raises(NotRepresentableError):
        zset_sum(naturals(), zset_negate(naturals()))
    with pytest.raises(NotRepresentableError):
        zset_sum(zset_negate(GAPPED), GAPPED)


@given(
    oa=st.integers(-12, 12),
    ta=st.lists(st.integers(0, 1), max_size=8),
    wa=st.lists(st.integers(0, 1), min_size=1, max_size=5),
    ob=st.integers(-12, 12),
    tb=st.lists(st.integers(0, 1), max_size=8),
    wb=st.lists(st.integers(0, 1), min_size=1, max_size=5),
)
def test_sum_matches_direct_addition(oa, ta, wa, ob, tb, wb):
    if 1 not in ta and 1 not in wa:
        wa = wa + [1]
    if 1 not in tb and 1 not in wb:
        wb = wb + [1]
    a = bounded_below(oa, ta, len(wa), wa)
    b = bounded_below(ob, tb, len(wb), wb)
    c = zset_sum(a, b)
    assert zset_sum(b, a) == c
    k = 3 * (len(a.transient) + a.period + len(b.transient) + b.period) + 16
    lo = a.offset + b.offset
    got = {x for x in range(lo, lo + k + 1) if zset_contains(c, x)}
    assert got == naive_sum_window(a, b, k)
    assert c.offset == lo  # least elements are members, so minima add exactly


def test_sum_agrees_with_windowed_oracle():
    rng = Random(202)
    checked = 0
    while checked < 150:
        a, b = random_zset(rng), random_zset(rng)
        try:
            c = zset_sum(a, b)
        except NotRepresentableError:
            continue
        checked += 1
        got = zset_window_mask(c, -64, 65)
        assert got == minkowski_window_sum(a, b, -64, 65, pad=64)


def test_two_sided_residue_pairs_are_counted_before_they_are_summed(monkeypatch):
    monkeypatch.setattr(zsets_module, "MAX_RESIDUES", 12)
    # 3 residues mod 4 against the 4 residues of {0, 1, 2, 3} mod 4.
    assert zset_sum(two_sided(4, [0, 1, 2]), finite_zset(range(4))) == two_sided(1, [0])
    with pytest.raises(CapExceededError, match="^residue pair count 15 exceeds cap 12$"):
        zset_sum(two_sided(5, [0, 1, 2]), finite_zset(range(5)))
    # Both two-sided: residues mod gcd(6, 12) = 6, 3 and 5 of them.
    with pytest.raises(CapExceededError, match="^residue pair count 15 exceeds cap 12$"):
        zset_sum(two_sided(6, [0, 1, 3]), two_sided(12, [0, 1, 2, 4, 5]))


def test_sum_self_verification_hook():
    # verify=True re-checks through the windowed oracle inside zset_sum.
    assert zset_sum(GAPPED, zset_translate(GAPPED, -5), verify=True)
    assert zset_sum(two_sided(12, [0, 5, 7]), zset_negate(GAPPED), verify=True)


def test_bounded_below_sum_is_associative_on_samples():
    rng = Random(31)
    for _ in range(30):
        a = random_bounded_below(rng)
        b = random_bounded_below(rng)
        c = random_bounded_below(rng)
        assert zset_sum(zset_sum(a, b), c) == zset_sum(a, zset_sum(b, c))


def test_wide_coprime_sum_matches_oracle():
    # Periods 31 and 37: the sum is read from 1147-bit words and canonicalized
    # from masks to a 564-bit transient with period 1.
    def word(p, ones):
        return [int(i in ones) for i in range(p)]

    a = bounded_below(-9, [1, 0, 1, 1, 0, 0, 1], 31, word(31, {0, 5, 17}))
    b = bounded_below(14, [1, 1, 0, 1], 37, word(37, {0, 11}))
    c = zset_sum(a, b)
    assert (c.offset, len(c.transient), c.period) == (5, 564, 1)
    lo, hi = -64, c.offset + len(c.transient) + 64
    assert zset_window_mask(c, lo, hi) == minkowski_window_sum(a, b, lo, hi, pad=minkowski_pad(a, b))


def test_minkowski_pad_makes_small_windows_exact():
    # Padded by half the window only, this pair disagreed with the sum on
    # [-32, 32]; the pad now follows offsets, transients and lcm(8, 6).
    a, b = zset_from_text("BB(5;111110110010;8;10001001)"), two_sided(6, [1])
    assert minkowski_pad(a, b) == 5 + 12 + 24
    c = zset_sum(a, b)
    for half in range(0, 40):
        got = zset_window_mask(c, -half, half + 1)
        assert got == minkowski_window_sum(a, b, -half, half + 1, pad=minkowski_pad(a, b))


def test_minkowski_window_sum_rejects_insufficient_pad():
    # The guard fires when the window sits further from 0 than the pad covers.
    with pytest.raises(ValueError, match="pad 10 too small"):
        minkowski_window_sum(naturals(), naturals(), 100, 120, pad=10)


# ---------------------------------------------------------------------------
# Idempotents and subgroups


def test_idempotent_predicate():
    assert zset_is_idempotent(naturals())
    assert zset_is_idempotent(GAPPED)
    assert zset_is_idempotent(two_sided(3, [0]))
    assert zset_is_idempotent(finite_zset([0]))
    assert zset_is_idempotent(zset_negate(naturals()))
    assert not zset_is_idempotent(finite_zset([0, 1]))
    assert not zset_is_idempotent(zset_translate(naturals(), 1))
    assert not zset_is_idempotent(two_sided(3, [1]))


def test_z_subgroups():
    assert z_subgroup(0) == finite_zset([0])
    assert z_subgroup(3) == two_sided(3, [0])
    with pytest.raises(ParamOutOfRangeError):
        z_subgroup(-1)
    assert zset_is_z_subgroup(z_subgroup(0))
    assert zset_is_z_subgroup(z_subgroup(5))
    assert not zset_is_z_subgroup(naturals())
    assert not zset_is_z_subgroup(two_sided(2, [1]))
    assert not zset_is_z_subgroup(finite_zset([0, 2]))


# ---------------------------------------------------------------------------
# Residuals and the unit/translate equivalence


def test_residual_pinned_cases():
    nat = naturals()
    assert zset_residual(nat, zset_translate(nat, 5)) == zset_translate(nat, -5)
    assert zset_residual(nat, finite_zset([0, 1])) == nat
    assert zset_residual(GAPPED, nat) == zset_translate(nat, 2)
    assert zset_residual(finite_zset([0]), nat) is None
    assert zset_residual(GAPPED, GAPPED) == GAPPED


def residual_oracle_contains(e, a, x):
    # x + A inside E, checked far enough that periodicity settles the rest.
    import math

    stab_a = a.offset + len(a.transient)
    stab_e = e.offset + len(e.transient)
    bound = max(stab_a, stab_e - x) + 4 * math.lcm(a.period, e.period) + 64
    return all(
        zset_contains(e, x + v) for v in range(a.offset, bound) if zset_contains(a, v)
    )


def test_residual_windowed_exactness():
    rng = Random(77)
    for _ in range(40):
        e = random_idempotent(rng)
        a = random_bounded_below(rng, span=8, max_period=4)
        q = zset_residual(e, a)
        lo = e.offset - a.offset
        for x in range(lo - 4, lo + 2 * e.period + len(e.transient) + 6):
            want = residual_oracle_contains(e, a, x)
            got = q is not None and zset_contains(q, x)
            assert got == want, (e, a, x)


def _bb(offset, transient, word):
    if 1 not in transient and 1 not in word:
        word = word[:-1] + [1]
    return bounded_below(offset, transient, len(word), word)


def bb_sets(max_transient=16, max_period=12):
    return st.builds(
        _bb,
        st.integers(-16, 16),
        st.lists(st.integers(0, 1), max_size=max_transient),
        st.lists(st.integers(0, 1), min_size=1, max_size=max_period),
    )


@settings(max_examples=60, deadline=None)
@given(e=bb_sets(), a=bb_sets())
def test_residual_matches_oracle_on_wide_draws(e, a):
    q = zset_residual(e, a)
    lo = e.offset - a.offset
    for x in range(lo - 4, lo + len(e.transient) + 2 * e.period + 4):
        assert (q is not None and zset_contains(q, x)) == residual_oracle_contains(e, a, x)


def test_theorem3_pinned_verdicts():
    nat = naturals()
    v = theorem3_unit_test(nat, zset_translate(nat, 5))
    assert v.unit_ok and v.translate_ok and v.agree
    assert v.residual == zset_translate(nat, -5)
    v = theorem3_unit_test(nat, GAPPED)
    assert not v.unit_ok and not v.translate_ok and v.agree
    v = theorem3_unit_test(GAPPED, zset_translate(GAPPED, 3))
    assert v.unit_ok and v.translate_ok and v.agree
    v = theorem3_unit_test(GAPPED, nat)  # in the monoid at E but not invertible
    assert not v.unit_ok and not v.translate_ok and v.agree
    v = theorem3_unit_test(nat, finite_zset([0, 1]))
    assert not v.unit_ok and not v.translate_ok and v.agree


def test_theorem3_input_validation():
    with pytest.raises(ValueError):
        theorem3_unit_test(zset_translate(naturals(), 1), naturals())
    with pytest.raises(NotIdempotentError):
        theorem3_unit_test(finite_zset([0, 1]), naturals())
    with pytest.raises(ValueError):
        theorem3_unit_test(naturals(), two_sided(2, [0]))


def test_theorem3_randomized_agreement():
    rng = Random(5)
    for _ in range(300):
        e = random_idempotent(rng)
        if rng.random() < 0.5:
            a = zset_translate(e, rng.randint(-12, 12))
        else:
            a = random_bounded_below(rng)
            if rng.random() < 0.5:
                a = zset_sum(a, e)
        assert theorem3_unit_test(e, a).agree


# ---------------------------------------------------------------------------
# Coset windows over the integers


def test_coset_window_naturals():
    rep = build_z_coset_group(naturals(), 1, -6, 6)
    assert rep.ok and rep.product_law_ok and rep.product_law_witness is None
    assert rep.translates_distinct
    assert rep.kernel_representatives == (0,)
    assert rep.structure == "Z"
    assert rep.overlap_witness is not None
    a, b, x = rep.overlap_witness
    assert zset_contains(zset_translate(naturals(), a), x)
    assert zset_contains(zset_translate(naturals(), b), x)


def test_coset_window_two_sided_idempotents():
    rep = build_z_coset_group(z_subgroup(1), 1)
    assert rep.ok and not rep.translates_distinct and rep.structure == "C1"
    assert rep.overlap_witness is None
    rep = build_z_coset_group(z_subgroup(4), 2)
    assert rep.ok and rep.structure == "C2"
    assert not rep.translates_distinct  # representatives repeat mod 4
    assert rep.overlap_witness is None  # translates are equal or disjoint here
    rep = build_z_coset_group(z_subgroup(3), 1)
    assert rep.structure == "C3"
    assert set(rep.kernel_representatives) <= {-6, -3, 0, 3, 6}


def test_coset_window_gapped():
    rep = build_z_coset_group(GAPPED, 1, -4, 4)
    assert rep.ok and rep.translates_distinct and rep.structure == "Z"
    assert rep.overlap_witness is not None


def test_coset_window_validation():
    with pytest.raises(ParamOutOfRangeError):
        build_z_coset_group(naturals(), 0)
    with pytest.raises(NotIdempotentError):
        build_z_coset_group(finite_zset([0, 1]), 1)


def test_coset_window_counts_representatives_before_any_sum(monkeypatch):
    cap = zsets_module.MAX_REPRESENTATIVES
    monkeypatch.setattr(zsets_module, "zset_sum", _forbidden)
    # (hi - lo) // step + 1 representatives; not even E + E is computed.
    with pytest.raises(CapExceededError, match=f"^representative count {cap + 1} exceeds cap {cap}$"):
        build_z_coset_group(naturals(), 1, 0, cap)
    with pytest.raises(CapExceededError, match=f"^representative count {cap + 1} exceeds cap {cap}$"):
        build_z_coset_group(naturals(), 3, -3 * cap, 0)
    with pytest.raises(CapExceededError, match="^representative count -7 is negative$"):
        build_z_coset_group(naturals(), 1, 4, -4)


@pytest.mark.parametrize("lo", range(-7, 8))
@pytest.mark.parametrize("step", [1, 2, 3, 5])
def test_coset_window_starts_at_the_least_multiple_of_step(lo, step):
    rep = build_z_coset_group(z_subgroup(1), step, lo, lo + 12)
    assert rep.representatives == tuple(x for x in range(lo, lo + 13) if x % step == 0)


def scan_first_overlap(e, a, b):
    """Per-x membership scan of a+E and b+E over a wide range: the least
    common element, the greatest for a bounded-above E, and for a two-sided E
    the least one from -modulus on."""
    sa, sb = zset_translate(e, a), zset_translate(e, b)
    common = [x for x in range(-200, 200) if zset_contains(sa, x) and zset_contains(sb, x)]
    if isinstance(e, TwoSidedPeriodic):
        common = [x for x in common if x >= -e.modulus]
    if not common:
        return None
    return max(common) if isinstance(e, BoundedAbove) else min(common)


def _ts(modulus, residues):
    return two_sided(modulus, [r % modulus for r in residues] or [0])


_OVERLAP_IDENTITIES = st.one_of(
    bb_sets(max_period=8),
    bb_sets(max_period=8).map(lambda s: zset_negate(s) if not zset_is_finite(s) else s),
    st.builds(_ts, st.integers(1, 12), st.lists(st.integers(0, 11), max_size=6)),
)


@settings(max_examples=150, deadline=None)
@given(e=_OVERLAP_IDENTITIES, a=st.integers(-20, 20), b=st.integers(-20, 20))
def test_first_overlap_matches_membership_scan(e, a, b):
    assert _first_overlap(e, a, b) == scan_first_overlap(e, a, b)


def test_naturals_demo_certifies():
    demo = power_group_of_naturals_demo()
    assert demo.certifies_counterexample
    assert demo.is_power_group
    assert demo.member_witness == 1 and demo.missing_inverse == -1
    assert not demo.identity_is_subgroup
    assert not demo.inverse_closure_holds
    assert not demo.partition_union_subgroup_holds
    assert demo.subquotient_condition_failed == "identity_not_subgroup"


# ---------------------------------------------------------------------------
# Additive closures and random instances


def test_additive_closure_pinned():
    assert additive_closure([1]) == naturals()
    assert additive_closure([2, 3]) == GAPPED
    s = additive_closure([3, 5])
    gaps = [x for x in range(0, 20) if not zset_contains(s, x)]
    assert gaps == [1, 2, 4, 7]  # Frobenius number of <3, 5> is 7
    # gcd 2: twice the <2, 3> semigroup.
    s = additive_closure([4, 6])
    assert s == bounded_below(0, [1, 0, 0, 0, 1, 0, 1, 0, 1, 0], 2, [1, 0])
    assert additive_closure([6, 4, 4]) == s


def test_additive_closure_is_idempotent():
    rng = Random(13)
    for _ in range(40):
        gens = [rng.randint(1, 10) for _ in range(rng.randint(1, 3))]
        s = additive_closure(gens)
        assert s.offset == 0
        assert zset_is_idempotent(s)
        for g in gens:
            assert zset_contains(s, g)


def test_additive_closure_matches_a_reachability_scan():
    # x is in the closure when x - g is for some generator g; every gap of
    # these closures lies below 9 * 8 (the Frobenius bound), well inside 200.
    for k in (1, 2, 3):
        for gens in itertools.combinations_with_replacement(range(1, 10), k):
            reach = [True]
            for x in range(1, 200):
                reach.append(any(x >= g and reach[x - g] for g in gens))
            want = sum(1 << x for x, r in enumerate(reach) if r)
            assert zset_window_mask(additive_closure(gens), 0, 200) == want, gens


def test_additive_closure_validation():
    with pytest.raises(ValueError):
        additive_closure([])
    with pytest.raises(ValueError):
        additive_closure([0, 3])
    # Each generator is one windowed sum of about a*b bits with the least.
    with pytest.raises(CapExceededError, match="window bits 1002000 exceeds cap 131072"):
        additive_closure([1000, 1001])


def test_random_generators_are_seeded_and_in_bounds():
    rng1, rng2 = Random(9), Random(9)
    assert [zset_to_text(random_zset(rng1)) for _ in range(20)] == [
        zset_to_text(random_zset(rng2)) for _ in range(20)
    ]
    rng = Random(9)
    shapes = set()
    for _ in range(200):
        s = random_zset(rng)
        shapes.add(type(s).__name__)
    assert shapes == {"BoundedBelow", "BoundedAbove", "TwoSidedPeriodic"}
    rng = Random(10)
    for _ in range(100):
        s = random_bounded_below(rng)
        # Canonicalization moves the least element up to the first set bit,
        # never below the raw -16 draw floor; 16 + span + period bounds it
        # above, which is what the padded oracle windows rely on.
        assert -16 <= s.offset < 16 + 16 + 8 and s.period <= 8
        e = random_idempotent(rng)
        assert e.offset == 0 and zset_is_idempotent(e)


# ---------------------------------------------------------------------------
# Text form


def test_text_round_trips_pinned():
    cases = {
        "BB(0;;1;1)": naturals(),
        "BB(-3;101;2;10)": bounded_below(-3, [1, 0, 1], 2, [1, 0]),
        "BB(2;11;1;0)": finite_zset([2, 3]),
        "BA(0;;1;1)": zset_negate(naturals()),
        "TS(2;0)": two_sided(2, [0]),
        # {1,5,7} mod 12 is not periodic mod any proper divisor, so the
        # modulus survives canonicalization.
        "TS(12;1,5,7)": two_sided(12, [1, 5, 7]),
    }
    for text, value in cases.items():
        assert zset_from_text(text) == value
        assert zset_to_text(value) == text


def test_text_accepts_non_canonical_and_whitespace():
    assert zset_from_text("BB(0;11;1;1)") == naturals()
    assert zset_from_text(" BB(0; ;1; 1) ") == naturals()
    assert zset_from_text("TS(4;0,2)") == two_sided(2, [0])


def test_text_rejects_malformed():
    for bad in ["BB(0;;2;1)", "XX(1)", "TS(0;0)", "BB(0;;1;)", "TS(3;)", ""]:
        with pytest.raises(ValueError):
            zset_from_text(bad)


def test_text_cap_counts_transient_plus_period(monkeypatch):
    cap = zsets_module.MAX_TEXT_BITS
    assert zset_from_text(f"BB(0;1{'0' * (cap - 2)};1;1)").transient == (1,) + (0,) * (cap - 2)
    monkeypatch.setattr(zsets_module, "bounded_below", _forbidden)
    for text in (f"BB(0;1{'0' * (cap - 2)};2;10)", f"BA(0;;{cap + 1};1{'0' * cap})"):
        with pytest.raises(CapExceededError, match=f"^transient plus period {cap + 1} exceeds cap {cap}$"):
            zset_from_text(text)


def test_text_round_trips_random():
    rng = Random(123)
    for _ in range(300):
        s = random_zset(rng)
        assert zset_from_text(zset_to_text(s)) == s
