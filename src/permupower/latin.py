"""Latin squares, orthogonal pairs, and the permutations they induce.

Superimposing an orthogonal pair (K, L) of side d gives a grid permutation
(i, j) -> (k_ij, l_ij) whose entangling power is exactly d/(d+1), the
maximum any unitary of that size can reach.  Orthogonal pairs exist for
every side except 2 and 6; side 6 instead gets an explicit embedded
permutation that is optimal among permutations.  A pair is orthogonal
exactly when that map is a permutation, so `superimpose`, which builds
`BiPerm(K, L)`, is the one orthogonality test.

`construct_mols` builds a pair for every side d >= 3 with d % 4 != 2:
cyclic squares for odd sides, GF(2^k) squares for powers of two, and
direct products for the rest.  The other sides congruent to 2 mod 4
(10, 14, ...) have pairs too, but are only accepted from a pair file.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .errors import NotOrthogonal, ParseError, PermupowerError, UnsupportedOrder
from .perm_core import BiPerm, lines_are_permutations, read_int_line

# A square is its tuple of rows; a pair of squares is the tuple (K, L).
Square = tuple[tuple[int, ...], ...]
Pair = tuple[Square, Square]


def is_latin(cells: Sequence[Sequence[int]]) -> bool:
    """True when every row and every column is a permutation of [d]."""
    d = len(cells)
    return lines_are_permutations(cells, d) and lines_are_permutations(zip(*cells), d)


def superimpose(pair: Pair) -> BiPerm:
    """Grid permutation (i, j) -> (K_ij, L_ij) of an orthogonal pair (K, L).

    Returns `BiPerm(K, L)`, whose rejection it re-raises as NotOrthogonal.
    """
    first, second = pair
    try:
        return BiPerm(first, second)
    except PermupowerError:
        raise NotOrthogonal(
            f"squares of side {len(first)} and {len(second)} are not orthogonal"
        ) from None


# --- constructions -----------------------------------------------------------


def _cyclic_pair(d: int) -> Pair:
    """Odd d: rows i+j and i+2j modulo d (0-based), shifted to [d]."""
    a = tuple(tuple((i + j) % d + 1 for j in range(d)) for i in range(d))
    b = tuple(tuple((i + 2 * j) % d + 1 for j in range(d)) for i in range(d))
    return a, b


def _gf2_modulus(k: int) -> int:
    """Smallest irreducible polynomial of degree k over GF(2), as a bit mask.

    Found by trial division by every polynomial of degree 1 to k // 2:
    x^2+x+1, x^3+x+1 and x^4+x+1 for k = 2, 3, 4.
    """

    def rem(a: int, b: int) -> int:
        while a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        return a

    return next(
        poly
        for poly in range(1 << k, 1 << (k + 1))
        if all(rem(poly, f) for f in range(2, 1 << (k // 2 + 1)))
    )


def _field_pair(q: int) -> Pair:
    """Power of two q = 2^k: rows i + j and x*i + j over GF(q).

    Elements are k-bit masks of polynomial coefficients, so addition is
    XOR, and x*i is a shift reduced by XOR with the modulus.  The two
    multipliers 1 and x are distinct and nonzero, which makes the squares
    orthogonal.
    """
    poly = _gf2_modulus(q.bit_length() - 1)
    x_times = [(i << 1) ^ (poly if i << 1 >= q else 0) for i in range(q)]
    a = tuple(tuple((i ^ j) + 1 for j in range(q)) for i in range(q))
    b = tuple(tuple((x_times[i] ^ j) + 1 for j in range(q)) for i in range(q))
    return a, b


def _product_pair(outer: Pair, inner: Pair) -> Pair:
    """Direct product of orthogonal pairs of sides m and n, side m*n result.

    Cells combine in (m, n) mixed radix: ((x1-1)*n + (x2-1)) + 1.
    """
    m, n = len(outer[0]), len(inner[0])

    def combine(first: Square, second: Square) -> Square:
        return tuple(
            tuple(
                (first[i1][j1] - 1) * n + second[i2][j2]
                for j1 in range(m)
                for j2 in range(n)
            )
            for i1 in range(m)
            for i2 in range(n)
        )

    return combine(outer[0], inner[0]), combine(outer[1], inner[1])


def mols_supported(d: int) -> bool:
    """True when construct_mols can build a pair for side d.

    That is every side of at least 3 that is not 2 mod 4: odd sides,
    powers of two, and products of one of each.
    """
    return d >= 3 and d % 4 != 2


def construct_mols(d: int) -> Pair:
    """Build an orthogonal pair (K, L) of side d, as two tuples of rows.

    Strategy: odd d uses the cyclic rows i+j and i+2j; powers of two use
    the multipliers 1 and x over GF(2^k); every other side of the form
    4t uses the direct product for the smallest factor m >= 3 for which
    both m and d/m are supported.  Sides 2 and 6 have no orthogonal pair
    at all; the other sides congruent to 2 mod 4 have pairs, but they need
    the Bose-Shrikhande-Parker construction, which this module does not
    build.  For those, `parse_pair_file` reads a pair and `superimpose`
    checks it.
    """
    if not mols_supported(d):
        if d == 2:
            raise UnsupportedOrder("no orthogonal Latin squares of side 2 exist")
        if d == 6:
            raise UnsupportedOrder(
                "no orthogonal Latin squares of side 6 exist (the Euler order, "
                "settled by Tarry)"
            )
        if d < 3:
            raise UnsupportedOrder(f"side {d} too small")
        raise UnsupportedOrder(
            f"side {d} is 2 mod 4: pairs exist (Bose-Shrikhande-Parker) but "
            "are not constructed here; supply a validated pair file"
        )
    if d % 2 == 1:
        return _cyclic_pair(d)
    if d & (d - 1) == 0:
        return _field_pair(d)
    m = next(
        m
        for m in range(3, math.isqrt(d) + 1)
        if d % m == 0 and mols_supported(m) and mols_supported(d // m)
    )
    return _product_pair(construct_mols(m), construct_mols(d // m))


# --- the side-6 extremum ------------------------------------------------------

# The 36-cell array below is a bijection of [6] x [6]; cell (i, j) holds
# (k_ij, l_ij).  Its K component is a Latin square; L is Latin in rows but
# has symbol 3 twice in column 3 and symbol 4 twice in column 4, the two
# unavoidable defects for side 6.  It attains Q_P = 40, Q_PS = 36, the
# permutation optimum eps = 628/735.
_D6_CELLS = (
    (11, 22, 33, 44, 55, 66),
    (24, 13, 46, 35, 62, 51),
    (56, 65, 12, 21, 43, 34),
    (63, 54, 25, 16, 31, 42),
    (45, 36, 61, 52, 14, 23),
    (32, 41, 53, 64, 26, 15),
)

def special_d6_perm() -> BiPerm:
    """The embedded side-6 permutation with maximal entangling power."""
    k = tuple(tuple(c // 10 for c in row) for row in _D6_CELLS)
    l = tuple(tuple(c % 10 for c in row) for row in _D6_CELLS)
    return BiPerm(k, l)


# --- text serialization -------------------------------------------------------
#
# A square is d lines of d space-separated integers; a pair file holds two
# squares separated by a blank line.


def format_latin_square(rows: Sequence[Sequence[int]]) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in rows) + "\n"


def format_pair(pair: Pair) -> str:
    return format_latin_square(pair[0]) + "\n" + format_latin_square(pair[1])


def _parse_square_lines(lines: list[tuple[int, str]]) -> Square:
    """The square on `lines`, each paired with its 1-based number in the file."""
    first, top = lines[0]
    d = len(top.split())
    if len(lines) != d:
        raise ParseError(f"line {first}: square of side {d} needs {d} lines")
    cells = tuple(tuple(read_int_line(ln, d, f"line {r}", high=d)) for r, ln in lines)
    if not is_latin(cells):
        raise ParseError(f"line {first}: block is not a Latin square")
    return cells


def parse_pair_file(text: str) -> Pair:
    """Parse two blank-line separated Latin squares into the pair (K, L).

    Each block must be a d-line Latin square; whether the two are
    orthogonal is for `superimpose` to check.
    """
    numbered = enumerate(text.splitlines(), start=1)
    runs = itertools.groupby(numbered, key=lambda line: bool(line[1].strip()))
    chunks = [list(run) for filled, run in runs if filled]
    if len(chunks) != 2:
        raise ParseError(f"expected 2 squares separated by a blank line, got {len(chunks)}")
    return _parse_square_lines(chunks[0]), _parse_square_lines(chunks[1])
