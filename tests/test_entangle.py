"""Rectangle counting and the exact power formula."""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permupower import (
    BiPerm,
    PermupowerError,
    PowerReport,
    biperm_from_flat,
    biperm_to_flat,
    compose_with_swap,
    construct_mols,
    entangling_power,
    epsilon_from_q,
    identity_perm,
    is_latin,
    min_nonzero_perm,
    q_of,
    superimpose,
    swap_perm,
)
from permupower import entangle
from permupower.catalog import builtin_perm
from permupower.entangle import q_totals_batch
from permupower.perm_core import lines_are_permutations

from conftest import all_biperms, local_rows, random_biperms


def flat_batch(perms) -> np.ndarray:
    """0-based flat images of `perms`, one row each."""
    return np.array(
        [[v - 1 for v in biperm_to_flat(perm)] for perm in perms],
        dtype=np.int16,
    )


def q_of_naive(perm: BiPerm) -> int:
    """Reference O(d^4) evaluation of the quadruple sum defining Q_P."""
    d, k, l = perm.d, perm.k, perm.l
    q = 0
    for i in range(d):
        for j in range(d):
            for m in range(d):
                for n in range(d):
                    q += (
                        l[i][m] == l[j][m]
                        and l[i][n] == l[j][n]
                        and k[i][m] == k[i][n]
                        and k[j][m] == k[j][n]
                    )
    return q


def scalar_totals(perms) -> list[int]:
    return [q_of(perm) + q_of(compose_with_swap(perm)) for perm in perms]


def block_conditions_from_matrix(perm: BiPerm) -> tuple[bool, bool, bool, bool]:
    """The paper's four block conditions on the d^2 x d^2 0/1 matrix of P.

    P|i j> = |k_ij l_ij>, so the matrix has a 1 at row (k_ij, l_ij) and
    column (i, j), and blocks[a, b] is its d x d block at block row a,
    block column b.  In order, the conditions are: every block has exactly
    one nonzero entry; no two blocks are equal; the nonzeros of a block row
    lie in distinct sub-columns; those of a block column in distinct
    sub-rows.

    Block (k, i) holds one entry per j with k_ij = k, block row k holds the
    cells with k_ij = k at sub-columns j, and block column i holds row i of
    the grid at sub-rows l_ij.  So the four read: the rows of K are
    permutations of [d]; then so are the columns of L; the columns of K
    are; the rows of L are.  All four hold exactly when K and L are Latin.
    """
    d = perm.d
    matrix = np.zeros((d * d, d * d), dtype=np.int8)
    for i in range(d):
        for j in range(d):
            matrix[(perm.k[i][j] - 1) * d + perm.l[i][j] - 1, i * d + j] = 1
    blocks = matrix.reshape(d, d, d, d).transpose(0, 2, 1, 3)
    # nonzero positions (block, sub-row, sub-column) within a block row / column
    row_hits = [np.nonzero(blocks[a])[2] for a in range(d)]
    col_hits = [np.nonzero(blocks[:, b])[1] for b in range(d)]
    return (
        bool((blocks.sum(axis=(2, 3)) == 1).all()),
        len({blocks[a, b].tobytes() for a in range(d) for b in range(d)}) == d * d,
        all(len(set(h.tolist())) == len(h) for h in row_hits),
        all(len(set(h.tolist())) == len(h) for h in col_hits),
    )


def distinct_keys_perm(d: int, seed: int) -> BiPerm:
    """l_im = m, and column m of K a random permutation of the rows.

    Every row pair agrees on l in every column, and almost all of the
    d^3/2 keys (j, k_im, k_jm) of the rows i < j are distinct, so a
    single counter over the whole scan would hold about d^3/2 keys.
    """
    gen = np.random.default_rng(seed)
    cols = [gen.permutation(d) + 1 for _ in range(d)]
    k = [[int(cols[m][i]) for m in range(d)] for i in range(d)]
    return BiPerm(k, [range(1, d + 1)] * d)


def local_perm(d: int, seed: int, swapped: bool = False) -> BiPerm:
    """A random local permutation (i, j) -> (a(i), b(j)), or with `swapped`
    the local-after-swap (i, j) -> (a(j), b(i))."""
    gen = np.random.default_rng(seed)
    a, b = (gen.permutation(d) + 1 for _ in range(2))
    perm = BiPerm([[int(v)] * d for v in a], [b.tolist()] * d)
    return compose_with_swap(perm) if swapped else perm


def relabel(perm: BiPerm, rows=None, cols=None, ks=None, ls=None) -> BiPerm:
    """P'(i, j) = (ks(k), ls(l)) for (k, l) = P(rows(i), cols(j)).

    Each relabelling is a 0-based permutation of range(d), or None for
    the identity.
    """
    d = perm.d
    ident = list(range(d))
    rows, cols, ks, ls = (ident if x is None else x for x in (rows, cols, ks, ls))
    k = [[ks[perm.k[rows[i]][cols[j]] - 1] + 1 for j in range(d)] for i in range(d)]
    l = [[ls[perm.l[rows[i]][cols[j]] - 1] + 1 for j in range(d)] for i in range(d)]
    return BiPerm(k, l)


def exchange_outputs(perm: BiPerm) -> BiPerm:
    """Left-compose with the factor exchange: (k, l) -> (l, k)."""
    return BiPerm(perm.l, perm.k)


@st.composite
def batches(draw):
    """A dimension 2..7 and one to four 0-based flat permutations of it."""
    d = draw(st.integers(min_value=2, max_value=7))
    cells = list(range(d * d))
    return d, draw(st.lists(st.permutations(cells), min_size=1, max_size=4))


@st.composite
def relabelled(draw, max_d: int):
    """A permutation of side 2..max_d and four relabellings of range(d)."""
    d = draw(st.integers(min_value=2, max_value=max_d))
    image = draw(st.permutations(range(1, d * d + 1)))
    maps = [draw(st.permutations(range(d))) for _ in range(4)]
    return biperm_from_flat(image, d), maps


class TestQOf:
    def test_identity_is_maximal(self):
        for d in (2, 3, 4, 5):
            assert q_of(identity_perm(d)) == d**4

    def test_swap_is_minimal(self):
        for d in (2, 3, 4, 5):
            assert q_of(swap_perm(d)) == d * d

    def test_cnot_values(self):
        cnot = builtin_perm("cnot")
        assert q_of(cnot) == 8
        assert q_of(compose_with_swap(cnot)) == 4

    def test_fast_equals_naive(self):
        for d in range(2, 7):
            for perm in random_biperms(100 + d, d, 200):
                assert q_of(perm) == q_of_naive(perm)

    def test_distinct_keys_equals_naive(self):
        for d in range(2, 8):
            for seed in range(5):
                perm = distinct_keys_perm(d, 40 * d + seed)
                for p in (perm, compose_with_swap(perm)):
                    assert q_of(p) == q_of_naive(p)

    def test_memory_bounded(self):
        # about 500k distinct keys at d = 100: one counter for the whole
        # scan peaks near 40 MiB, one counter per row near 1.4 MiB
        perm = distinct_keys_perm(100, 1)
        tracemalloc.start()
        try:
            q_of(perm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize(
        "d, bound_mib, identity",
        [pytest.param(100, 8, False, id="100-8"),
         pytest.param(215, 16, False, id="215-16"),
         pytest.param(215, 16, True, id="215-16-identity")],
    )
    def test_batch_memory_bounded(self, d, bound_mib, identity):
        # the d(d-1) x d cells of the line pairs i < j, as two int32 cell
        # indices and one int32 key offset each, would take 11 MiB at
        # d = 100 and 113 MiB at d = 215 once tabled; only the O(d^2) line
        # tables and the KEY_BUDGET tiles may stay.  Every row pair of the
        # identity agrees on l in every column, so none of its row-pair
        # keys is dropped before the sort.
        if identity:
            flat = np.arange(d * d)[None, :]
        else:
            flat = np.random.default_rng(d).permutation(d * d)[None, :]
        tracemalloc.start()
        try:
            q_totals_batch(flat, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20

    def test_closed_forms_at_cap(self):
        d = 215
        assert q_of(identity_perm(d)) == d**4
        mols = builtin_perm(f"mols:{d}")
        assert q_of(mols) == q_of(compose_with_swap(mols)) == d * d

    @pytest.mark.parametrize("d", [20, 40, 60])
    def test_equals_batch_larger_d(self, d):
        perms = random_biperms(600 + d, d, 3) + [
            local_perm(d, d),
            local_perm(d, d + 1, swapped=True),
            distinct_keys_perm(d, d),
        ]
        assert q_totals_batch(flat_batch(perms), d).tolist() == scalar_totals(perms)

    def test_batch_equals_scalar(self):
        for d in (2, 3, 4):
            perms = random_biperms(17 + d, d, 50)
            assert q_totals_batch(flat_batch(perms), d).tolist() == scalar_totals(perms)

    @settings(max_examples=80, deadline=None)
    @given(batches())
    def test_batch_equals_naive(self, batch):
        d, images = batch
        totals = q_totals_batch(np.array(images, dtype=np.int16), d)
        expected = []
        for image in images:
            perm = biperm_from_flat([v + 1 for v in image], d)
            expected.append(q_of_naive(perm) + q_of_naive(compose_with_swap(perm)))
        assert totals.dtype == np.int64
        assert totals.tolist() == expected

    @pytest.mark.parametrize("d", [3, 8, 12])
    def test_batch_spanning_tiles(self, d):
        # at these sides one tile holds all d(d-1) line pairs i < j of
        # per_tile permutations
        pairs_per_tile, per_tile = entangle._tile_shape(d)
        assert pairs_per_tile == d * (d - 1)
        perms = random_biperms(300 + d, d, 2 * per_tile + 7)
        perms += [identity_perm(d), swap_perm(d), superimpose(construct_mols(d))]
        assert len(perms) > 2 * per_tile >= 2
        assert q_totals_batch(flat_batch(perms), d).tolist() == scalar_totals(perms)

    @pytest.mark.parametrize("d", [3, 8, 12])
    @pytest.mark.parametrize("kind", ["identity-like", "mols"])
    def test_batch_extremes_spanning_tiles(self, d, kind):
        # identity-like: every row pair agrees on l in every column, so
        # every row-pair key is sorted; MOLS: L is Latin, so no pair of
        # distinct lines agrees anywhere and only the i == j lines count.
        # Both the i == j count and the pairs i < j span three tiles.
        per_tile = entangle._tile_shape(d)[1]
        n = 2 * per_tile + 7
        if kind == "identity-like":
            perms = [local_perm(d, seed) for seed in range(n)]
            expected = d**4 + d * d
        else:
            gen = np.random.default_rng(d)
            mols = superimpose(construct_mols(d))
            perms = [relabel(mols, *(gen.permutation(d).tolist() for _ in range(4)))
                     for _ in range(n)]
            expected = 2 * d * d
        totals = q_totals_batch(flat_batch(perms), d).tolist()
        assert totals == scalar_totals(perms) == [expected] * n

    @pytest.mark.parametrize("budget", [1, 7, 30, 61, 200])
    def test_batch_tiling_leaves_totals(self, monkeypatch, budget):
        # a budget below d^2 (d-1) cells splits one permutation's d(d-1)
        # line pairs i < j over several tiles, as the default budget does
        # from d = 41 up
        perms = random_biperms(505, 5, 9) + [identity_perm(5), swap_perm(5)]
        expected = scalar_totals(perms)
        monkeypatch.setattr(entangle, "KEY_BUDGET", budget)
        assert q_totals_batch(flat_batch(perms), 5).tolist() == expected

    @pytest.mark.parametrize(
        "d, budget", [(d, None) for d in range(2, 9)] + [(4, 400), (5, 7)],
        ids=[str(d) for d in range(2, 9)] + ["4-budget-400", "5-budget-7"],
    )
    def test_batch_transposed_grids(self, monkeypatch, d, budget):
        # P -> PS transposes the grid and exchanges Q_P and Q_PS, so it
        # leaves every total Q_P + Q_PS as it is
        perms = random_biperms(700 + d, d, 40)
        perms += [identity_perm(d), swap_perm(d), min_nonzero_perm(d)]
        flat = flat_batch(perms)
        swapped = flat.reshape(-1, d, d).transpose(0, 2, 1).reshape(flat.shape)
        assert (swapped == flat_batch(map(compose_with_swap, perms))).all()
        if budget is not None:
            monkeypatch.setattr(entangle, "KEY_BUDGET", budget)
            assert len(perms) > 2 * entangle._tile_shape(d)[1]
        totals = q_totals_batch(flat, d).tolist()
        assert q_totals_batch(swapped, d).tolist() == totals

    def test_batch_empty(self):
        assert q_totals_batch(np.empty((0, 9), dtype=np.int16), 3).shape == (0,)

    def test_parity_and_range(self):
        for d in range(2, 7):
            for perm in random_biperms(900 + d, d, 50):
                q = q_of(perm)
                assert d * d <= q <= d**4
                assert q % 2 == (d * d) % 2

    def test_maximal_iff_identity_like(self):
        # the identity-like permutations (i, j) -> (a(i), b(j)) are the
        # first (d!)^2 local rows
        for d, perms in ((2, all_biperms(2)), (3, random_biperms(55, 3, 200))):
            rows = local_rows(d)
            identity_like = {tuple(row) for row in (rows[: len(rows) // 2] + 1).tolist()}
            for perm in perms:
                assert (q_of(perm) == d**4) == (biperm_to_flat(perm) in identity_like)

    def test_minimal_iff_latin_conditions(self):
        # q = d^2 exactly when K has Latin rows and L has Latin columns
        d3_perms = random_biperms(56, 3, 200) + [
            superimpose(construct_mols(3)),
            identity_perm(3),
            swap_perm(3),
        ]
        for d, perms in ((2, list(all_biperms(2))), (3, d3_perms)):
            full = set(range(1, d + 1))
            for perm in perms:
                rows_ok = all(set(row) == full for row in perm.k)
                cols_ok = all(
                    {perm.l[i][j] for i in range(d)} == full for j in range(d)
                )
                assert (q_of(perm) == d * d) == (rows_ok and cols_ok)

    def test_dimension_cap(self):
        with pytest.raises(PermupowerError, match="^d = 216 exceeds the supported cap 215$"):
            q_of(identity_perm(216))


class TestEntanglingPower:
    def test_identity_and_swap_are_zero(self):
        for d in range(2, 9):
            assert entangling_power(identity_perm(d)).epsilon == 0
            assert entangling_power(swap_perm(d)).epsilon == 0

    def test_r9(self):
        report = entangling_power(builtin_perm("r9"))
        assert (report.q_p, report.q_ps) == (9, 9)
        assert report.epsilon == Fraction(3, 4)

    def test_min_nonzero_d3(self):
        report = entangling_power(min_nonzero_perm(3))
        assert (report.q_p, report.q_ps) == (49, 9)
        assert report.epsilon == Fraction(1, 3)

    def test_swap_composition_exchanges_qs(self):
        for perm in random_biperms(11, 3, 30):
            a = entangling_power(perm)
            b = entangling_power(compose_with_swap(perm))
            assert (a.q_p, a.q_ps) == (b.q_ps, b.q_p)
            assert a.epsilon == b.epsilon

    def test_range(self):
        for d in (2, 3, 4):
            top = Fraction(d, d + 1)
            for perm in random_biperms(500 + d, d, 50):
                assert 0 <= entangling_power(perm).epsilon <= top

    def test_degenerate_dimension(self):
        with pytest.raises(PermupowerError, match="^entangling power needs d >= 2$"):
            entangling_power(identity_perm(1))

    def test_report_epsilon_from_counts(self):
        for d, q_p, q_ps in ((2, 8, 4), (3, 49, 9), (4, 16, 16), (6, 40, 36)):
            assert PowerReport(d, q_p, q_ps).epsilon == epsilon_from_q(d, q_p, q_ps)

    @pytest.mark.parametrize(
        "q_p,q_ps,message",
        [(2, 4, "outside"), (5, 4, "parity"), (16, 16, "epsilon -2/3 outside")],
    )
    def test_report_rejects(self, q_p, q_ps, message):
        with pytest.raises(ValueError, match=message):
            PowerReport(2, q_p, q_ps)

    def test_report_json(self):
        payload = json.loads(entangling_power(builtin_perm("cnot")).to_json())
        assert payload == {
            "d": 2,
            "q_p": 8,
            "q_ps": 4,
            "epsilon": {"num": 4, "den": 9},
            "epsilon_float": 4 / 9,
        }


class TestInvariance:
    """Q_P and Q_PS under the relabellings of the four factors and the two exchanges."""

    @pytest.mark.parametrize("which", ["rows", "cols", "ks", "ls"])
    @settings(max_examples=40, deadline=None)
    @given(case=relabelled(12))
    def test_relabelling_keeps_each_q(self, which, case):
        perm, maps = case
        other = relabel(perm, **{which: maps[0]})
        assert q_of(other) == q_of(perm)
        assert q_of(compose_with_swap(other)) == q_of(compose_with_swap(perm))

    @settings(max_examples=60, deadline=None)
    @given(case=relabelled(12))
    def test_exchanges_swap_the_qs(self, case):
        perm, _ = case
        q_p, q_ps = q_of(perm), q_of(compose_with_swap(perm))
        for other in (exchange_outputs(perm), compose_with_swap(perm)):
            assert (q_of(other), q_of(compose_with_swap(other))) == (q_ps, q_p)

    @settings(max_examples=200, deadline=None)
    @given(case=relabelled(6), swap_in=st.booleans(), swap_out=st.booleans())
    def test_epsilon_invariant_under_local_group(self, case, swap_in, swap_out):
        # relabellings (d!^4) and the two exchanges (4) form a group of
        # order 4 (d!)^4 that leaves eps unchanged
        perm, maps = case
        other = relabel(perm, *maps)
        if swap_in:
            other = compose_with_swap(other)
        if swap_out:
            other = exchange_outputs(other)
        assert entangling_power(other).epsilon == entangling_power(perm).epsilon


class TestBlockConditions:
    """The block conditions on the matrix of P hold exactly when K and L are
    Latin, and exactly when eps = d/(d+1)."""

    def test_r9_all_true(self):
        perm = builtin_perm("r9")
        assert all(block_conditions_from_matrix(perm))
        assert is_latin(perm.k) and is_latin(perm.l)

    def test_identity(self):
        assert block_conditions_from_matrix(identity_perm(3)) == (False, False, True, True)

    def test_swap(self):
        assert block_conditions_from_matrix(swap_perm(3)) == (True, True, False, False)

    def test_equivalence_with_maximum_d2(self):
        # no d=2 permutation reaches 2/3, so all four never hold
        for perm in all_biperms(2):
            assert not all(block_conditions_from_matrix(perm))
            assert not (is_latin(perm.k) and is_latin(perm.l))

    def test_equivalence_on_constructions(self):
        for d in (3, 4, 5, 7):
            perm = superimpose(construct_mols(d))
            assert entangling_power(perm).epsilon == Fraction(d, d + 1)
            assert all(block_conditions_from_matrix(perm))

    def test_matches_matrix_reference(self):
        cases = {2: list(all_biperms(2)), 3: random_biperms(303, 3, 2000)}
        for d in (4, 5, 6):
            cases[d] = random_biperms(300 + d, d, 200)
        for d in range(2, 8):
            names = ["identity", "swap", f"min:{d}"] + [f"mols:{d}"] * (d in (3, 4, 5, 7))
            cases.setdefault(d, []).extend(builtin_perm(name, d) for name in names)
        cases[3].append(builtin_perm("r9"))
        cases[6].append(builtin_perm("d6hat"))
        for d, perms in cases.items():
            # the conditions hold exactly when eps = d/(d+1), Q_P + Q_PS = 2d^2
            maximal = (q_totals_batch(flat_batch(perms), d) == 2 * d * d).tolist()
            for perm, top in zip(perms, maximal):
                conditions = block_conditions_from_matrix(perm)
                rows_k = lines_are_permutations(perm.k, d)
                # each condition as the reference's docstring reads it off the lines
                assert conditions == (
                    rows_k,
                    rows_k and lines_are_permutations(zip(*perm.l), d),
                    lines_are_permutations(zip(*perm.k), d),
                    lines_are_permutations(perm.l, d),
                )
                latin = is_latin(perm.k) and is_latin(perm.l)
                assert all(conditions) == latin == top

    def test_random_perms_match_threshold(self):
        for d in (3, 4):
            top = Fraction(d, d + 1)
            for perm in random_biperms(30 + d, d, 40):
                reaches = entangling_power(perm).epsilon == top
                assert (is_latin(perm.k) and is_latin(perm.l)) == reaches
