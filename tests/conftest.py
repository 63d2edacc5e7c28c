"""Shared test helpers."""

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
