"""Dense linear-algebra cross-check path for entangling power.

Everything here works on explicit d^2 x d^2 matrices and 4-qudit state
vectors, independently of the combinatorial rectangle formula, so the two
routes can validate each other.  A unitary U on the bipartite space maps
to the 4-party state with amplitudes

    <k i l m | U> = (1/d) <k l| U |i m>      (parties ordered 1,2,3,4),

and the entangling power is

    eps(U) = d/(d+1) * [S_L(|U>) + S_L(|US>) - 1]

with S_L the linear entropy across the 12|34 cut.  Dense paths take
2 <= d <= 12: the power needs d >= 2, and the cap bounds the d^4
amplitudes.  They validate; they are not the production route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

from .errors import BudgetExceeded, PermupowerError
from .perm_core import BiPerm, biperm_to_flat, check_power_dimension

COMPARISON_TOL = 1e-10  # value comparisons (formula vs oracle, entropies)
STRUCTURE_TOL = 1e-12   # structural checks (unitarity)

ORACLE_MAX_D = 12

# Product inputs mc_power draws per step; the draws depend on it.
MC_CHUNK = 20_000

# Most complex cells mc_power holds in one product array.  Each chunk's
# draws are applied to U in row tiles of max(1, MC_TILE_CELLS // d^2)
# samples, so the outer products, U's outputs and the Gram matrices grow
# with neither MC_CHUNK nor d.  The draws do not depend on it, so a seed's
# result changes only by rounding in the sums.
MC_TILE_CELLS = 1 << 14

_CUT_NAMES = {
    "12|34": (0, 1),
    "13|24": (0, 2),
    "14|23": (0, 3),
    "1|234": (0,),
    "2|134": (1,),
    "3|124": (2,),
    "4|123": (3,),
}


def check_oracle_dimension(d: int) -> None:
    """Raise unless the dense oracle accepts d: 2 <= d <= ORACLE_MAX_D."""
    check_power_dimension(d)
    if d > ORACLE_MAX_D:
        raise BudgetExceeded(f"dense oracle capped at d <= {ORACLE_MAX_D}")


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Unitary:
    """A unitary on the d x d bipartite space: a frozen, read-only dense matrix."""

    d: int
    matrix: np.ndarray

    def __init__(self, d: int, matrix: np.ndarray):
        import numpy as np

        check_oracle_dimension(d)
        matrix = np.asarray(matrix, dtype=complex)
        n = d * d
        if matrix.shape != (n, n):
            raise PermupowerError(f"shape {matrix.shape}, expected ({n}, {n})")
        dev = np.max(np.abs(matrix.conj().T @ matrix - np.eye(n)))
        if dev > STRUCTURE_TOL:
            raise PermupowerError(f"U^dag U deviates from identity by {dev:.2e}")
        self._set(d, matrix.copy())

    def _set(self, d: int, matrix: np.ndarray) -> "Unitary":
        matrix.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "matrix", matrix)
        return self

    @classmethod
    def _trusted(cls, d: int, matrix: np.ndarray) -> "Unitary":
        """Construct without the Gram check (internal, for permutation matrices)."""
        return object.__new__(cls)._set(d, matrix)

    def __reduce__(self):
        # unpickling rebuilds through _set, so the matrix comes back read-only
        return Unitary._trusted, (self.d, self.matrix)


def unitary_of(perm: BiPerm) -> Unitary:
    """Permutation matrix of a grid permutation (column = input cell).

    Column i*d + j holds its 1 at the row of the 0-based flat image,
    (k_ij - 1)*d + (l_ij - 1).  The matrix is complex128 and read-only.
    Every `BiPerm` is a bijection, so it is a permutation matrix exactly,
    with no U^dag U check to a tolerance.
    """
    import numpy as np

    d = perm.d
    check_oracle_dimension(d)
    n = d * d
    m = np.zeros((n, n), dtype=complex)
    m[np.array(biperm_to_flat(perm)) - 1, np.arange(n)] = 1.0
    return Unitary._trusted(d, m)


def _amplitudes(u: Unitary) -> np.ndarray:
    """The (d, d, d, d) tensor amp(k,i,l,m) = <kl|U|im> / d, in U's own dtype.

    A matrix with no imaginary part, as every permutation's, gives float64.
    """
    d = u.d
    matrix = u.matrix if u.matrix.imag.any() else u.matrix.real
    return matrix.reshape(d, d, d, d).transpose(0, 2, 1, 3) / d


def _cut_entropy(tensor: np.ndarray, keep: Sequence[int]) -> float:
    """Linear entropy of a normalized amplitude tensor across `keep` | rest.

    `keep` lists 0-based axes.  The purity is that of the Gram matrix of
    the cut; the tensor may be float64 or complex.  Normalized by D/(D-1)
    with D the smaller side's dimension.
    """
    import numpy as np

    rest = [a for a in range(tensor.ndim) if a not in keep]
    rows = int(np.prod([tensor.shape[a] for a in keep]))
    mat = tensor.transpose(*keep, *rest).reshape(rows, -1)
    gram = mat @ mat.conj().T
    purity = float(np.vdot(gram, gram).real)
    dim = min(mat.shape)
    return dim / (dim - 1) * (1.0 - purity)


def oracle_power(u: Unitary) -> float:
    """Entangling power from the two state entropies (dense route).

    The entropy of |US> across 12|34 is that of |U> across 14|23, so both
    are read off U's own state, with no second matrix.
    """
    d = u.d
    tensor = _amplitudes(u)
    s_u = _cut_entropy(tensor, _CUT_NAMES["12|34"])
    s_us = _cut_entropy(tensor, _CUT_NAMES["14|23"])
    return d / (d + 1) * (s_u + s_us - 1.0)


def split_entropies(u: Unitary) -> dict[str, float]:
    """Linear entropy of |U> across all seven bipartitions of the 4 parties."""
    tensor = _amplitudes(u)
    return {name: _cut_entropy(tensor, axes) for name, axes in _CUT_NAMES.items()}


def mc_power(u: Unitary, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the entangling power from its definition.

    Draws Haar-uniform product inputs (normalized complex Gaussians on
    each factor), applies U, and averages the linear entropy across the
    two factors.  Returns (mean, standard error); deterministic per seed.

    The factors are drawn MC_CHUNK samples at a time; each chunk's products
    are formed and applied to U in tiles of at most MC_TILE_CELLS complex
    cells, so working memory is O(MC_CHUNK * d + MC_TILE_CELLS) at any d
    and sample count.
    """
    import numpy as np

    if samples < 2:
        raise PermupowerError("need at least 2 samples for a standard error")
    d = u.d
    n = d * d
    tile = max(1, MC_TILE_CELLS // n)
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        b = min(MC_CHUNK, samples - done)
        psi1 = rng.standard_normal((b, d)) + 1j * rng.standard_normal((b, d))
        psi2 = rng.standard_normal((b, d)) + 1j * rng.standard_normal((b, d))
        psi1 /= np.linalg.norm(psi1, axis=1, keepdims=True)
        psi2 /= np.linalg.norm(psi2, axis=1, keepdims=True)
        for lo in range(0, b, tile):
            p1, p2 = psi1[lo:lo + tile], psi2[lo:lo + tile]
            t = p1.shape[0]
            prod = np.einsum("bi,bj->bij", p1, p2).reshape(t, n)
            out = (prod @ u.matrix.T).reshape(t, d, d)
            gram = np.einsum("bim,bjm->bij", out, out.conj())
            purity = np.sum(np.abs(gram) ** 2, axis=(1, 2)).real
            ent = d / (d - 1) * (1.0 - purity)
            total += float(ent.sum())
            total_sq += float((ent**2).sum())
        done += b
    mean = total / samples
    var = max(0.0, (total_sq - total * total / samples) / (samples - 1))
    return mean, float(np.sqrt(var / samples))


def rezakhani_power(c1: float, c2: float, c3: float) -> float:
    """Two-qubit entangling power from the canonical interaction angles.

    Valid on the canonical chamber |c3| <= c2 <= c1 <= pi/4:
    1/3 - (1/9) [cos4c1 cos4c2 + cos4c1 cos4c3 + cos4c2 cos4c3].
    """
    if not (abs(c3) <= c2 + 1e-15 and c2 <= c1 + 1e-15 and c1 <= math.pi / 4 + 1e-15):
        raise PermupowerError(f"need |c3| <= c2 <= c1 <= pi/4, got ({c1}, {c2}, {c3})")
    f1, f2, f3 = math.cos(4 * c1), math.cos(4 * c2), math.cos(4 * c3)
    return 1.0 / 3.0 - (f1 * f2 + f1 * f3 + f2 * f3) / 9.0
