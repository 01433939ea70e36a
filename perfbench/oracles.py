"""Output checks, run outside the timed region.

Finite ops: every printed index is mapped back through the op's relabelling,
the records are put in a label-free canonical form, and their digest is
compared with the one frozen in ``digests.json``.  The number of families is
also compared with the sum over subgroups H of #(N normal in H), computed
here from the benchmark's own subgroup lattice.

Integer sets and cuts: every answer is re-derived with the benchmark's own
exact arithmetic; none of these checks calls the package under test, so a
fault in a layer the op uses cannot also hide in its check.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from functools import lru_cache

import groupgen
from infgen import QPair, qsign

# ---------------------------------------------------------------------------
# Finite carriers


def canonical_lines(relabelled: groupgen.Relabelled, stdout: str) -> list[str]:
    """Label-free canonical form of an ``enum`` or ``subquotients`` listing.

    Raises ValueError, KeyError, IndexError or TypeError on output of the
    wrong shape.
    """
    back = relabelled.to_original

    def orig(labels: list[int]) -> list[int]:
        return sorted(back[i] for i in labels)

    out = []
    for line in stdout.splitlines():
        rec = json.loads(line)
        if rec.pop("group") != relabelled.name:
            raise ValueError("wrong group label")
        rec["family"] = sorted(orig(m) for m in rec["family"])
        for key in ("carrier", "kernel", "identity"):
            if rec.get(key) is not None:
                rec[key] = orig(rec[key])
        out.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    return sorted(out)


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _closure(table: groupgen.Table, mask: int) -> int:
    """Subgroup generated by the elements of mask: grow {e} by right products."""
    gens = [i for i in range(len(table)) if mask >> i & 1]
    members, frontier = 1, [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = table[x][g]
                if not members >> y & 1:
                    members |= 1 << y
                    nxt.append(y)
        frontier = nxt
    return members


@lru_cache(maxsize=None)
def family_count(name: str) -> int:
    """Sum over subgroups H of the number of subgroups N normal in H."""
    table = groupgen.build(name)
    n = len(table)
    inv = [row.index(0) for row in table]
    subgroups, stack = {1}, [1]
    while stack:
        h = stack.pop()
        for g in range(n):
            if not h >> g & 1:
                k = _closure(table, h | 1 << g)
                if k not in subgroups:
                    subgroups.add(k)
                    stack.append(k)

    def elements(mask: int) -> list[int]:
        return [i for i in range(n) if mask >> i & 1]

    def normal_in(nmask: int, hmask: int) -> bool:
        return all(
            nmask >> table[table[h][x]][inv[h]] & 1
            for h in elements(hmask)
            for x in elements(nmask)
        )

    return sum(1 for h in subgroups for m in subgroups if m & ~h == 0 and normal_in(m, h))


# ---------------------------------------------------------------------------
# Integer sets, from their text form

_BB = re.compile(r"^B([BA])\((-?\d+);([01]*);(\d+);([01]+)\)$")
_TS = re.compile(r"^TS\((\d+);(\d+(?:,\d+)*)\)$")


class ZSetText:
    """Membership of a set given as BB(...), BA(...) or TS(...) text.

    BB(o;t;p;w): bit i of t answers o+i, then w repeats.  BA(top;t;p;w) is the
    mirror image {-y} of BB(-top;t;p;w).  TS(m;r) is {x | x mod m in r}.
    """

    def __init__(self, text: str):
        m = _BB.match(text)
        if m:
            self.kind = "B" + m.group(1)
            self.anchor = int(m.group(2))
            self.transient = [int(c) for c in m.group(3)]
            self.period = int(m.group(4))
            self.word = [int(c) for c in m.group(5)]
            if len(self.word) != self.period:
                raise ValueError(f"bad period in {text!r}")
            self.scale = abs(self.anchor) + len(self.transient) + self.period
            return
        m = _TS.match(text)
        if not m:
            raise ValueError(f"cannot read set {text!r}")
        self.kind = "TS"
        self.period = int(m.group(1))
        self.residues = {int(r) for r in m.group(2).split(",")}
        self.scale = self.period

    def _bb_has(self, i: int) -> bool:
        if i < 0:
            return False
        if i < len(self.transient):
            return self.transient[i] == 1
        return self.word[(i - len(self.transient)) % self.period] == 1

    def has(self, x: int) -> bool:
        if self.kind == "BB":
            return self._bb_has(x - self.anchor)
        if self.kind == "BA":
            return self._bb_has(self.anchor - x)
        return x % self.period in self.residues

    def window(self, lo: int, hi: int) -> int:
        """Bit i answers membership of lo + i, for lo <= lo + i < hi."""
        out = 0
        for i in range(hi - lo):
            if self.has(lo + i):
                out |= 1 << i
        return out

    def span(self) -> tuple[int, int]:
        """A window holding the least element or top, transient and one period."""
        if self.kind == "TS":
            return -2 * self.period, 2 * self.period
        width = len(self.transient) + 2 * self.period
        if self.kind == "BB":
            return self.anchor, self.anchor + width
        return self.anchor - width + 1, self.anchor + 1


def _conv(amask: int, alo: int, bmask: int, blo: int, lo: int, hi: int) -> int:
    """Bits of {a + b} on [lo, hi) from operand windows starting at alo, blo."""
    acc = 0
    m = amask
    while m:
        low = m & -m
        acc |= bmask << (low.bit_length() - 1)
        m ^= low
    shift = lo - (alo + blo)
    acc = acc >> shift if shift >= 0 else acc << -shift
    return acc & ((1 << (hi - lo)) - 1)


def window_sum(a: ZSetText, b: ZSetText, lo: int, hi: int) -> int:
    """Exact bits of A + B on [lo, hi) by brute force over operand windows.

    Two bounded-below sets only need A on [min A, hi - min B) and B on
    [min B, hi - min A).  Otherwise a pad covering both operands' offsets,
    transients and the lcm of their periods holds a decomposition of every
    sum element in the window.
    """
    if a.kind == b.kind == "BB":
        ahi, bhi = hi - b.anchor, hi - a.anchor
        if ahi <= a.anchor or bhi <= b.anchor:
            return 0
        return _conv(a.window(a.anchor, ahi), a.anchor, b.window(b.anchor, bhi), b.anchor, lo, hi)
    pad = 2 * (abs(lo) + abs(hi)) + 2 * (a.scale + b.scale) + a.scale * b.scale
    olo, ohi = lo - pad, hi + pad
    return _conv(a.window(olo, ohi), olo, b.window(olo, ohi), olo, lo, hi)


def check_sum(a: ZSetText, b: ZSetText, result_text: str) -> bool:
    """The printed sum agrees with brute force on a window covering its
    transient and a period, and the operands' own extent."""
    c = ZSetText(result_text)
    lo, hi = c.span()
    reach = a.scale + b.scale + 8
    lo, hi = min(lo, -reach), max(hi, reach)
    return c.window(lo, hi) == window_sum(a, b, lo, hi)


def flip_first_bit(text: str) -> str:
    """The same set text with one membership bit changed (a corrupted answer)."""
    m = _BB.match(text)
    if m:
        kind, anchor, t, p, w = m.groups()
        if t:
            t = ("0" if t[0] == "1" else "1") + t[1:]
        else:
            w = ("0" if w[0] == "1" else "1") + w[1:]
        return f"B{kind}({anchor};{t};{p};{w})"
    c = ZSetText(text)
    rest = sorted(c.residues ^ {0})
    return f"TS({c.period};{','.join(map(str, rest))})" if rest else "BB(0;;1;1)"


# ---------------------------------------------------------------------------
# Cuts with endpoints in Q(sqrt2)


def _minus(x: Fraction, e: QPair) -> QPair:
    return (x - e[0], -e[1])


def check_between(a: QPair, b: QPair, r: object) -> bool:
    """r is a rational strictly between a and b."""
    return (
        isinstance(r, Fraction)
        and qsign(_minus(r, a)) > 0
        and qsign(_minus(r, b)) < 0
    )


def check_decompose(a: QPair, b: QPair, x: Fraction, result: object) -> bool:
    """(u, v) with u > a, v > b, u + v = x; or None exactly when x <= a + b."""
    above = qsign(_minus(x, (a[0] + b[0], a[1] + b[1]))) > 0
    if result is None:
        return not above
    u, v = result  # type: ignore[misc]
    return (
        above
        and isinstance(u, Fraction)
        and isinstance(v, Fraction)
        and u + v == x
        and qsign(_minus(u, a)) > 0
        and qsign(_minus(v, b)) > 0
    )
