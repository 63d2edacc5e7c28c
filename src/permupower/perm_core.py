"""Permutations of the product grid [d] x [d].

A permutation P of the d*d basis cells is stored as a pair of d x d
matrices K, L with P(i, j) = (k_ij, l_ij).  All cell values are 1-based,
matching the usual combinatorial convention; flattening of (i, j) to a
single index t in [d^2] is row-major with i major:

    t = (i - 1) * d + j,        i = ceil(t / d),  j = ((t - 1) mod d) + 1.

Everything here is immutable after construction and safe to share across
threads.  Parallel consumers of `enumerate_perms` should split the rank
interval; parallel users of `random_perm` must give each worker its own
generator, ``np.random.default_rng([base_seed, worker_index])``.  (With
``base_seed XOR worker_index``, worker 1 of seed 42 would draw the stream
of worker 0 of seed 43.)
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, NotBijection, ParseError

# d^2! enumeration is only reasonable up to 9! = 362880.
ENUMERATION_MAX_D = 3


class FlatPerm:
    """A permutation of [n] in one-line notation (1-based images)."""

    __slots__ = ("n", "image")

    def __init__(self, image: Sequence[int]):
        image = tuple(int(v) for v in image)
        n = len(image)
        if sorted(image) != list(range(1, n + 1)):
            raise NotBijection(f"image of length {n} is not a bijection of [{n}]")
        self.n = n
        self.image = image

    def __call__(self, t: int) -> int:
        return self.image[t - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, FlatPerm) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        return f"FlatPerm({list(self.image)})"


class BiPerm:
    """Permutation of [d] x [d], held as the matrix pair K, L."""

    __slots__ = ("d", "k", "l")

    def __init__(self, k: Sequence[Sequence[int]], l: Sequence[Sequence[int]]):
        k = tuple(tuple(int(v) for v in row) for row in k)
        l = tuple(tuple(int(v) for v in row) for row in l)
        d = len(k)
        if len(l) != d or any(len(r) != d for r in k) or any(len(r) != d for r in l):
            raise DimensionMismatch("k and l must both be d x d")
        pairs = set()
        for i in range(d):
            for j in range(d):
                ki, li = k[i][j], l[i][j]
                if not (1 <= ki <= d and 1 <= li <= d):
                    raise NotBijection(
                        f"cell ({i + 1},{j + 1}) -> ({ki},{li}) outside [1,{d}]^2"
                    )
                pairs.add((ki, li))
        if len(pairs) != d * d:
            raise NotBijection("image pairs repeat; not a bijection of the grid")
        self.d = d
        self.k = k
        self.l = l

    @classmethod
    def _trusted(cls, d: int, k: tuple, l: tuple) -> "BiPerm":
        """Construct without validation (internal, for bulk enumeration)."""
        obj = object.__new__(cls)
        obj.d = d
        obj.k = k
        obj.l = l
        return obj

    def apply(self, i: int, j: int) -> tuple[int, int]:
        """Image of cell (i, j), 1-based."""
        return self.k[i - 1][j - 1], self.l[i - 1][j - 1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BiPerm)
            and self.d == other.d
            and self.k == other.k
            and self.l == other.l
        )

    def __hash__(self) -> int:
        return hash((self.d, self.k, self.l))

    def __repr__(self) -> str:
        return f"BiPerm(d={self.d}, k={[list(r) for r in self.k]}, l={[list(r) for r in self.l]})"


class WitnessKind(enum.Enum):
    IDENTITY_LIKE = "identity_like"
    SWAP_LIKE = "swap_like"


@dataclass(frozen=True)
class NonEntanglingWitness:
    """Local factorization of a non-entangling grid permutation.

    identity_like: (i, j) -> (p_a(i), p_b(j)); swap_like: (i, j) -> (p_a(j), p_b(i)).
    """

    kind: WitnessKind
    p_a: FlatPerm
    p_b: FlatPerm

    def reconstruct(self, d: int) -> BiPerm:
        """Rebuild the full grid permutation this witness describes."""
        if self.kind is WitnessKind.IDENTITY_LIKE:
            k = [[self.p_a(i)] * d for i in range(1, d + 1)]
            l = [[self.p_b(j) for j in range(1, d + 1)] for _ in range(d)]
        else:
            k = [[self.p_a(j) for j in range(1, d + 1)] for _ in range(d)]
            l = [[self.p_b(i)] * d for i in range(1, d + 1)]
        return BiPerm(k, l)


def biperm_from_flat(p: FlatPerm | Sequence[int], d: int) -> BiPerm:
    """Reshape a flat permutation of [d^2] into the (K, L) pair."""
    if not isinstance(p, FlatPerm):
        p = FlatPerm(p)
    if p.n != d * d:
        raise DimensionMismatch(f"flat permutation has length {p.n}, need d^2 = {d * d}")
    k = []
    l = []
    for i in range(d):
        krow = []
        lrow = []
        for j in range(d):
            out = p.image[i * d + j] - 1
            krow.append(out // d + 1)
            lrow.append(out % d + 1)
        k.append(tuple(krow))
        l.append(tuple(lrow))
    return BiPerm._trusted(d, tuple(k), tuple(l))


def biperm_to_flat(perm: BiPerm) -> FlatPerm:
    """Inverse of biperm_from_flat."""
    d = perm.d
    image = [
        (perm.k[i][j] - 1) * d + perm.l[i][j] for i in range(d) for j in range(d)
    ]
    return FlatPerm(image)


def identity_perm(d: int) -> BiPerm:
    """The identity map (i, j) -> (i, j)."""
    k = tuple(tuple([i + 1] * d) for i in range(d))
    l = tuple(tuple(range(1, d + 1)) for _ in range(d))
    return BiPerm._trusted(d, k, l)


def swap_perm(d: int) -> BiPerm:
    """The factor exchange (i, j) -> (j, i)."""
    k = tuple(tuple(range(1, d + 1)) for _ in range(d))
    l = tuple(tuple([i + 1] * d) for i in range(d))
    return BiPerm._trusted(d, k, l)


def compose_with_swap(perm: BiPerm) -> BiPerm:
    """Right-compose with the factor exchange: (PS)(i, j) = P(j, i).

    Equivalently, transpose both K and L.  Involution: applying twice
    returns the original permutation.
    """
    k = tuple(zip(*perm.k))
    l = tuple(zip(*perm.l))
    return BiPerm._trusted(perm.d, k, l)


def detect_non_entangling(perm: BiPerm) -> NonEntanglingWitness | None:
    """Return a local factorization witness, or None if the map entangles.

    identity_like requires k_ij constant in j and l_ij constant in i;
    swap_like requires k_ij constant in i and l_ij constant in j.
    """
    d, k, l = perm.d, perm.k, perm.l
    if all(row.count(row[0]) == d for row in k) and all(
        l[i] == l[0] for i in range(d)
    ):
        return NonEntanglingWitness(
            WitnessKind.IDENTITY_LIKE,
            p_a=FlatPerm([row[0] for row in k]),
            p_b=FlatPerm(l[0]),
        )
    if all(k[i] == k[0] for i in range(d)) and all(
        row.count(row[0]) == d for row in l
    ):
        return NonEntanglingWitness(
            WitnessKind.SWAP_LIKE,
            p_a=FlatPerm(k[0]),
            p_b=FlatPerm([row[0] for row in l]),
        )
    return None


def unrank_flat(n: int, rank: int) -> tuple[int, ...]:
    """Permutation of [n] at the given lexicographic rank (0-based)."""
    if not 0 <= rank < math.factorial(n):
        raise IndexError(f"rank {rank} outside [0, {n}!)")
    avail = list(range(1, n + 1))
    out = []
    for pos in range(n, 0, -1):
        f = math.factorial(pos - 1)
        idx, rank = divmod(rank, f)
        out.append(avail.pop(idx))
    return tuple(out)


def next_flat_inplace(image: list[int]) -> bool:
    """Advance to the lexicographic successor; False when already last."""
    n = len(image)
    i = n - 2
    while i >= 0 and image[i] >= image[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = n - 1
    while image[j] <= image[i]:
        j -= 1
    image[i], image[j] = image[j], image[i]
    image[i + 1 :] = image[:i:-1]
    return True


def enumerate_perms(
    d: int,
    start: int = 0,
    stop: int | None = None,
    allow_large: bool = False,
) -> Iterator[BiPerm]:
    """All d^2! grid permutations, lexicographic in the flat one-line form.

    `start`/`stop` select a contiguous rank range, so independent workers
    can consume disjoint slices.  Refuses d >= 4 (16! items) unless
    `allow_large` is set.
    """
    if d > ENUMERATION_MAX_D and not allow_large:
        raise BudgetExceeded(
            f"d = {d} means {d * d}! permutations; pass allow_large to override"
        )
    n = d * d
    total = math.factorial(n)
    stop = total if stop is None else min(stop, total)
    if start >= stop:
        return
    if start == 0:
        source: Iterable[tuple[int, ...]] = itertools.islice(
            itertools.permutations(range(1, n + 1)), stop
        )
        for image in source:
            yield _biperm_from_image(image, d)
        return
    image = list(unrank_flat(n, start))
    for _ in range(stop - start):
        yield _biperm_from_image(tuple(image), d)
        if not next_flat_inplace(image):
            break


def _biperm_from_image(image: tuple[int, ...], d: int) -> BiPerm:
    k = []
    l = []
    for i in range(d):
        row = image[i * d : (i + 1) * d]
        k.append(tuple((v - 1) // d + 1 for v in row))
        l.append(tuple((v - 1) % d + 1 for v in row))
    return BiPerm._trusted(d, tuple(k), tuple(l))


def random_perm(d: int, rng: np.random.Generator) -> BiPerm:
    """Uniformly random grid permutation from the given generator."""
    image = rng.permutation(d * d) + 1
    return _biperm_from_image(tuple(int(v) for v in image), d)


# --- text serialization -----------------------------------------------------
#
# line 1: "d=<d>"
# line 2: the flat one-line permutation, space-separated values in [d^2]


def format_biperm(perm: BiPerm) -> str:
    flat = biperm_to_flat(perm)
    return f"d={perm.d}\n" + " ".join(str(v) for v in flat.image) + "\n"


def parse_biperm(text: str) -> BiPerm:
    """Parse the two-line text form; raise ParseError with the position."""
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if len(lines) < 2:
        raise ParseError(f"expected 2 non-empty lines, got {len(lines)}")
    header = lines[0].strip()
    if not header.startswith("d="):
        raise ParseError("line 1: expected 'd=<integer>'")
    try:
        d = int(header[2:])
    except ValueError:
        raise ParseError(f"line 1: malformed dimension {header[2:]!r}") from None
    if d < 1:
        raise ParseError(f"line 1: dimension must be positive, got {d}")
    tokens = lines[1].split()
    n = d * d
    if len(tokens) != n:
        raise ParseError(f"line 2: expected {n} values, got {len(tokens)}")
    image = []
    seen = set()
    for pos, tok in enumerate(tokens, start=1):
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(f"line 2, token {pos}: {tok!r} is not an integer") from None
        if not 1 <= v <= n:
            raise ParseError(f"line 2, token {pos}: value {v} outside [1, {n}]")
        if v in seen:
            raise ParseError(f"line 2, token {pos}: duplicate value {v}")
        seen.add(v)
        image.append(v)
    return biperm_from_flat(image, d)
