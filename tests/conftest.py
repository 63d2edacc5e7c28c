"""Shared test helpers."""

import itertools

import numpy as np
import pytest

from permupower import BiPerm, biperm_from_flat, random_perm
from permupower.perm_core import lex_blocks


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_biperms(seed: int, d: int, count: int) -> list[BiPerm]:
    gen = np.random.default_rng(seed)
    return [random_perm(d, gen) for _ in range(count)]


def all_biperms(d: int):
    """Every grid permutation of side d, in lexicographic order of the flat image."""
    for block in lex_blocks(d * d):
        for image in (block + 1).tolist():
            yield biperm_from_flat(image, d)


def local_rows(d: int) -> np.ndarray:
    """The 2(d!)^2 local and local-after-swap permutations, as 0-based flat rows.

    For every pair a, b of permutations of range(d), the first (d!)^2 rows
    map (i, j) to (a(i), b(j)) and the last (d!)^2 map (i, j) to
    (a(j), b(i)), cell (i, j) being i * d + j.
    """
    perms = np.array(list(itertools.permutations(range(d))), dtype=np.int32)
    grid = perms[:, None, :, None] * d + perms[None, :, None, :]
    return np.concatenate([grid, grid.swapaxes(2, 3)]).reshape(-1, d * d)


def latin_squares(d: int):
    """Every Latin square of side d as a tuple of rows, lexicographic by rows
    (backtracking)."""
    rows = list(itertools.permutations(range(1, d + 1)))

    def extend(stack):
        if len(stack) == d:
            yield tuple(stack)
            return
        for row in rows:
            if all(row[c] != prev[c] for prev in stack for c in range(d)):
                stack.append(row)
                yield from extend(stack)
                stack.pop()

    yield from extend([])


def orthogonal_pair_count(d: int) -> int:
    """Unordered orthogonal pairs among all Latin squares of side d."""
    squares = list(latin_squares(d))
    cells = [list(itertools.chain.from_iterable(square)) for square in squares]
    # a pair is orthogonal when its d^2 cell pairs (k, l) are all distinct
    return sum(
        len(set(zip(a, b))) == d * d for a, b in itertools.combinations(cells, 2)
    )
