"""Exact entangling power of grid permutations.

The central quantity is the rectangle count

    Q_P = sum_{i,j,m,n} a_ijm a_ijn b_imn b_jmn,
    a_ijm = [l_im == l_jm],   b_imn = [k_im == k_in],

the number of (ordered, possibly degenerate) rectangles in the grid that P
maps to rectangles with unchanged orientation.  The entangling power is
then the exact rational

    eps(P) = (d^4 + d^2 - Q_P - Q_PS) / (d (d-1) (d+1)^2),

where PS is P composed with the factor exchange.  Q values are integers
with d^2 <= Q <= d^4 and Q == d^2 (mod 2), so eps is carried as a
`fractions.Fraction` and never touches floating point.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

from .perm_core import BiPerm, check_dimension_cap, check_power_dimension, compose_with_swap

# Most line-pair cells the batch kernel holds at once.  Every per-tile
# array of the pairs i < j (cell gathers, match flags, keys, runs) has at
# most this many elements, and the count of the pairs i == j two per cell
# of a tile's permutations, so the kernel's working memory does not grow
# with the batch size, and grows with d only as one permutation does.
KEY_BUDGET = 1 << 16


def q_of(perm: BiPerm) -> int:
    """Preserved-rectangle count Q_P, visiting only the row pairs that agree on l.

    Grouping the quadruple sum by the row pair (i, j) gives

        Q_P = sum_i sum_kappa r_ikappa^2 + 2 sum_{i<j} sum_kappa c_ijkappa^2,

    with r_ikappa = #{m : k_im = kappa} (the pairs i == j, where l always
    agrees) and c_ijkappa = #{m : l_im = l_jm, (k_im, k_jm) = kappa}.  Each
    column's rows are grouped by their l value, so row i finds its
    partners j > i in column m without testing the others, and one counter
    per row holds the keys (j, k_im, k_jm).  Time is O(d^2 + M) for the M
    triples (i < j, m) with l_im == l_jm: M is 0 for a Latin L and d^3/2
    when every column has a single l value.  Memory is O(d^2) on any input,
    since the counter is dropped after each row.
    """
    check_dimension_cap(perm.d)
    d, k, l = perm.d, perm.k, perm.l
    base = d + 1
    span = d * base  # codes j * base + k_jm lie below it
    # Per column: the codes of its rows in (l_jm, j) order; at[j], the slot
    # after row j's code; ends[v], the slot after the rows with l_jm <= v.
    # Row i's partners in that column are codes[at[i] : ends[l_im]].  The
    # slot tables hold ints up to d <= 256, which CPython caches, so only
    # the codes cost an object per cell.
    columns = []
    for km, lm in zip(zip(*k), zip(*l)):
        rows = sorted(range(d), key=lm.__getitem__)
        at = [0] * d
        for slot, j in enumerate(rows, 1):
            at[j] = slot
        ends = [0] * (d + 1)
        for v in lm:
            ends[v] += 1
        columns.append(([j * base + km[j] for j in rows], at, list(accumulate(ends))))
    q = 0
    for i in range(d):
        ki = k[i]
        q += sum(c * c for c in Counter(ki).values())
        keys: list[int] = []
        for (codes, at, ends), kv, lv in zip(columns, ki, l[i]):
            lo, hi = at[i], ends[lv]
            if lo < hi:
                keys.extend(map((kv * span).__add__, codes[lo:hi]))
        q += 2 * sum(c * c for c in Counter(keys).values())
    return q


def _tile_shape(d: int) -> tuple[int, int]:
    """Line pairs and permutations per tile of `q_totals_batch`.

    A tile holds at most KEY_BUDGET cells of line pairs i < j, d to a pair:
    every one of the d(d-1) pairs of several permutations while those of
    one fit, and blocks of one permutation's pairs from d = 41 up.
    """
    pairs_per_tile = max(1, min(d * (d - 1), KEY_BUDGET // d))
    return pairs_per_tile, max(1, KEY_BUDGET // (pairs_per_tile * d))


def q_totals_batch(flat: np.ndarray, d: int) -> np.ndarray:
    """Q_P + Q_PS for a batch of flat permutations.

    flat: (B, d*d) array of 0-based images, row-major cell order.
    Returns an int64 array of length B.

    Q_P sums f(i, j) = sum_kappa c_ijkappa^2 over ordered row pairs, with
    c_ijkappa = #{m : l_im = l_jm, (k_im, k_jm) = kappa} as in `q_of`, and
    Q_PS is the same sum over column pairs, so the total is one count over
    the 2d lines of the grid, rows pairing with rows and columns with
    columns.
    - For i == j every cell agrees on l, so f(i, i) is the sum of
      r_ikappa^2 with r_ikappa = #{m : k_im = kappa}: one bincount over
      (permutation, line, kappa) per permutation tile, with no sort.
    - For i < j only the cells with l_im == l_jm add to f.  Their keys
      (permutation, pair, k_im, k_jm) alone are kept and sorted, and a run
      of c equal keys adds 2 c^2, as f(i, j) = f(j, i).

    The pairs i < j are cut into tiles of at most KEY_BUDGET cells
    (`_tile_shape`), so no per-tile array of them has more elements than
    that, and the keys stay below KEY_BUDGET d, which int32 holds.  Each
    block of pairs expands to its cell indices once, outside the loop over
    permutations, and the kernel holds O(d^2 + KEY_BUDGET) elements at
    any d.
    """
    import numpy as np

    check_dimension_cap(d)
    nb, dd = flat.shape[0], d * d
    grid = np.arange(dd, dtype=np.int32).reshape(d, d)
    lines = np.concatenate([grid, grid.T])  # each line's cells: rows, then columns
    first, second = (np.concatenate([i, i + d]) for i in np.triu_indices(d, 1))
    n_pairs = first.size
    pairs_per_tile, perms_per_tile = _tile_shape(d)
    totals = np.empty(nb, dtype=np.int64)
    # each line cell's bin (permutation, line, 0) for the pairs i == j
    line_bins = np.repeat(np.arange(perms_per_tile * 2 * d, dtype=np.int32) * d, d)
    line_bins = line_bins.reshape(perms_per_tile, -1)
    for lo in range(0, nb, perms_per_tile):
        k = flat[lo : lo + perms_per_tile].astype(np.int32) // d
        b = k.shape[0]
        r = np.bincount((k[:, lines.ravel()] + line_bins[:b]).ravel(), minlength=b * 2 * dd)
        r *= r
        totals[lo : lo + b] = r.reshape(b, -1).sum(axis=1)
    for p0 in range(0, n_pairs, pairs_per_tile):
        n = min(pairs_per_tile, n_pairs - p0)
        cells_a = lines[first[p0 : p0 + n]].ravel()
        cells_b = lines[second[p0 : p0 + n]].ravel()
        # each pair cell's key offset (permutation, pair, 0, 0)
        key_offset = np.repeat(np.arange(perms_per_tile * n, dtype=np.int32) * dd, d)
        key_offset = key_offset.reshape(perms_per_tile, -1)
        for lo in range(0, nb, perms_per_tile):
            k, l = np.divmod(flat[lo : lo + perms_per_tile].astype(np.int32), d)
            b = k.shape[0]
            matched = l[:, cells_a] == l[:, cells_b]
            keys = (k[:, cells_a] * d + k[:, cells_b] + key_offset[:b])[matched]
            runs, c = np.unique(keys, return_counts=True)
            # sum c^2 over the runs of each permutation: runs come sorted by
            # permutation, so differences of the running sum at each
            # permutation's end give it
            c_sq = np.zeros(c.size + 1, dtype=np.int64)
            np.cumsum(c * c, out=c_sq[1:])
            ends = np.cumsum(np.bincount(runs // (n * dd), minlength=b))
            totals[lo : lo + b] += 2 * np.diff(c_sq[ends], prepend=0)
    return totals


def epsilon_denominator(d: int) -> int:
    """The denominator d (d-1) (d+1)^2 of the power formula, unreduced."""
    return d * (d - 1) * (d + 1) ** 2


def epsilon_from_q(d: int, q_p: int, q_ps: int) -> Fraction:
    """Entangling power from the two rectangle counts."""
    check_power_dimension(d)
    return Fraction(d**4 + d**2 - q_p - q_ps, epsilon_denominator(d))


@dataclass(frozen=True)
class PowerReport:
    """Entangling power of one permutation, from its rectangle counts."""

    d: int
    q_p: int
    q_ps: int

    def __post_init__(self):
        d = self.d
        for q in (self.q_p, self.q_ps):
            if not d * d <= q <= d**4:
                raise ValueError(f"q = {q} outside [d^2, d^4] = [{d * d}, {d**4}]")
            if q % 2 != (d * d) % 2:
                raise ValueError(f"q = {q} has wrong parity for d = {d}")
        if not 0 <= self.epsilon <= Fraction(d, d + 1):
            raise ValueError(f"epsilon {self.epsilon} outside [0, d/(d+1)]")

    @property
    def epsilon(self) -> Fraction:
        """The exact power, computed from the two counts."""
        return epsilon_from_q(self.d, self.q_p, self.q_ps)

    def to_json(self) -> str:
        eps = self.epsilon
        payload = {
            "d": self.d,
            "q_p": self.q_p,
            "q_ps": self.q_ps,
            "epsilon": {"num": eps.numerator, "den": eps.denominator},
            "epsilon_float": float(eps),
        }
        return json.dumps(payload, indent=2)


def entangling_power(perm: BiPerm) -> PowerReport:
    """Exact entangling power of a grid permutation."""
    check_power_dimension(perm.d)
    q_p = q_of(perm)
    q_ps = q_of(compose_with_swap(perm))
    return PowerReport(perm.d, q_p, q_ps)
