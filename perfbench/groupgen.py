"""Cayley tables built by the benchmark itself, and seeded relabellings.

Nothing here imports the package under test, so no change to the program can
alter the inputs.  Every table has its identity at index 0 before relabelling.
"""

from __future__ import annotations

import json
from functools import reduce
from itertools import permutations
from random import Random

Table = list[list[int]]


def cyclic(n: int) -> Table:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral(n: int) -> Table:
    """Symmetries of the n-gon, order 2n: (f, a) is f*n + a, f = 1 a flip."""

    def mul(i: int, j: int) -> int:
        f, a = divmod(i, n)
        g, b = divmod(j, n)
        return (f ^ g) * n + ((a + b) % n if f == 0 else (a - b) % n)

    return [[mul(i, j) for j in range(2 * n)] for i in range(2 * n)]


def quaternion8() -> Table:
    # Unit quaternions +-1, +-i, +-j, +-k as sign*4 + letter, letters 1, i, j, k.
    # Product of basis letters: LETTER[a][b] with sign SIGN[a][b].
    letter = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    sign = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]]

    def mul(x: int, y: int) -> int:
        sx, lx = divmod(x, 4)
        sy, ly = divmod(y, 4)
        return ((sx + sy + sign[lx][ly]) % 2) * 4 + letter[lx][ly]

    return [[mul(x, y) for y in range(8)] for x in range(8)]


def symmetric(degree: int) -> Table:
    """Permutations in lexicographic order (identity first); (p*q)(x) = p(q(x))."""
    elems = list(permutations(range(degree)))
    index = {p: k for k, p in enumerate(elems)}
    return [[index[tuple(p[q[x]] for x in range(degree))] for q in elems] for p in elems]


def product(t1: Table, t2: Table) -> Table:
    n1, n2 = len(t1), len(t2)
    return [
        [t1[i1][j1] * n2 + t2[i2][j2] for j1 in range(n1) for j2 in range(n2)]
        for i1 in range(n1)
        for i2 in range(n2)
    ]


def _atom(token: str) -> Table:
    if token == "Q8":
        return quaternion8()
    if token == "V4":
        return product(cyclic(2), cyclic(2))
    kind, n = token[0], int(token[1:])
    return {"C": cyclic, "D": dihedral, "S": symmetric}[kind](n)


def build(name: str) -> Table:
    """Table for names like C12, D8 (order 16), Q8, S4, V4xC2, C2^4, S3xC4."""
    factors = []
    for token in name.split("x"):
        base, _, power = token.partition("^")
        factors += [_atom(base)] * int(power or 1)
    return reduce(product, factors)


def check_group(t: Table) -> None:
    """Raise ValueError unless t is a group table with identity 0."""
    n = len(t)
    if any(t[0][i] != i or t[i][0] != i for i in range(n)):
        raise ValueError("identity is not element 0")
    for a in range(n):
        if sorted(t[a]) != list(range(n)) or 0 not in t[a]:
            raise ValueError(f"row {a} is not a permutation")
        for b in range(n):
            tab = t[a][b]
            for c in range(n):
                if t[tab][c] != t[a][t[b][c]]:
                    raise ValueError("not associative")


class Relabelled:
    """A table under the element permutation x -> perm[x].

    ``table`` is what the program receives.  The program moves the identity to
    index 0 when it is elsewhere and keeps the other labels in relative order,
    so ``to_original`` maps an index the program prints back to the element of
    the unrelabelled table.
    """

    def __init__(self, name: str, base: Table, perm: list[int]):
        n = len(base)
        self.name = name
        self.order = n
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[perm[a]][perm[b]] = perm[base[a][b]]
        self.table = table
        inv = [0] * n
        for x, y in enumerate(perm):
            inv[y] = x
        e = perm[0]
        program_labels = [e] + [i for i in range(n) if i != e]
        self.to_original = [inv[label] for label in program_labels]

    def document(self) -> str:
        return json.dumps({"order": self.order, "table": self.table})


def relabel(name: str, base: Table, rng: Random) -> Relabelled:
    """Seeded permutation; about half of them keep the identity at 0."""
    n = len(base)
    perm = list(range(n))
    rng.shuffle(perm)
    if rng.random() < 0.5:
        k = perm.index(0)
        perm[0], perm[k] = perm[k], perm[0]
    return Relabelled(name, base, perm)
