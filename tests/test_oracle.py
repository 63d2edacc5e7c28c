"""Dense linear-algebra path: states, entropies, and the defining integral.

The 4-party state of an operator and its linear entropy are built here,
entry by entry and as tr(rho^2) of the reduced density matrix, as the
reference route that the oracle's own tensor and purity are checked
against."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from permupower import (
    BudgetExceeded,
    PermupowerError,
    Unitary,
    entangling_power,
    identity_perm,
    mc_power,
    min_nonzero_perm,
    oracle_power,
    random_perm,
    rezakhani_power,
    split_entropies,
    superimpose,
    construct_mols,
    swap_perm,
    unitary_of,
)
from permupower import oracle as oracle_module
from permupower.catalog import builtin_perm
from permupower.oracle import COMPARISON_TOL

from conftest import all_biperms, random_biperms

TOL = COMPARISON_TOL


class UnnormalizedState(Exception):
    """State vector norm deviates from 1 beyond tolerance."""


class PureState:
    """State vector over listed local dimensions, unit norm enforced."""

    def __init__(self, parts, amplitudes):
        self.parts = tuple(int(p) for p in parts)
        self.amplitudes = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if self.amplitudes.size != math.prod(self.parts):
            raise UnnormalizedState(f"{self.amplitudes.size} amplitudes for parts {self.parts}")
        norm = float(np.linalg.norm(self.amplitudes))
        if abs(norm - 1.0) > 1e-12:
            raise UnnormalizedState(f"norm {norm} deviates from 1")


def state_of_unitary(u):
    """4-party state of an operator: amp(k,i,l,m) = <kl|U|im> / d."""
    d = u.d
    amp = np.empty((d,) * 4, dtype=complex)
    for k, i, l, m in np.ndindex(amp.shape):
        amp[k, i, l, m] = u.matrix[k * d + l, i * d + m] / d
    return PureState((d,) * 4, amp)


def linear_entropy(psi, cut):
    """Linear entropy across the bipartition (`cut` | complement).

    `cut` lists 1-based parts.  The reduced density matrix rho of the cut
    gives the purity tr(rho^2), normalized by D/(D-1) with D the smaller
    side's dimension: 0 for product states, 1 for maximally entangled ones.
    The oracle takes the same purity as the squared Frobenius norm of rho,
    from its own reshape of U; this is the reference it is checked against.
    """
    keep = [k - 1 for k in cut]
    rest = [a for a in range(len(psi.parts)) if a not in keep]
    mat = psi.amplitudes.reshape(psi.parts).transpose(*keep, *rest)
    mat = mat.reshape(math.prod(psi.parts[a] for a in keep), -1)
    rho = mat @ mat.conj().T
    purity = float(np.trace(rho @ rho).real)
    dim = min(mat.shape)
    return dim / (dim - 1) * (1.0 - purity)


def haar_unitary(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestStates:
    def test_product_state_entropy(self):
        psi = PureState((2, 2), [1, 0, 0, 0])
        assert linear_entropy(psi, (1,)) == pytest.approx(0.0, abs=TOL)

    def test_maximally_entangled(self):
        for d in (2, 3, 4, 5):
            amps = np.zeros(d * d)
            for i in range(d):
                amps[i * d + i] = 1 / math.sqrt(d)
            psi = PureState((d, d), amps)
            assert linear_entropy(psi, (1,)) == pytest.approx(1.0, abs=TOL)

    def test_norm_enforced(self):
        with pytest.raises(UnnormalizedState):
            PureState((2, 2), [1, 1, 0, 0])


class TestStateOfUnitary:
    def test_identity_amplitudes(self):
        d = 3
        amp = state_of_unitary(unitary_of(identity_perm(d))).amplitudes.reshape(
            d, d, d, d
        )
        expected = np.zeros((d, d, d, d))
        for i in range(d):
            for j in range(d):
                expected[i, i, j, j] = 1 / d
        assert np.allclose(amp, expected, atol=1e-14)

    def test_swap_amplitudes(self):
        # amp(k, i, l, m) = delta(k, m) delta(l, i) / d
        d = 3
        amp = state_of_unitary(unitary_of(swap_perm(d))).amplitudes.reshape(
            d, d, d, d
        )
        expected = np.zeros((d, d, d, d))
        for k in range(d):
            for i in range(d):
                expected[k, i, i, k] = 1 / d
        assert np.allclose(amp, expected, atol=1e-14)

    def test_entropy_of_named_states(self):
        d = 3
        s_i = linear_entropy(state_of_unitary(unitary_of(identity_perm(d))), (1, 2))
        s_s = linear_entropy(state_of_unitary(unitary_of(swap_perm(d))), (1, 2))
        assert s_i == pytest.approx(0.0, abs=TOL)
        assert s_s == pytest.approx(1.0, abs=TOL)

    def test_unit_norm_always(self, rng):
        for d in (2, 3, 4):
            u = Unitary(d, haar_unitary(d * d, rng))
            psi = state_of_unitary(u)
            assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_not_unitary_rejected(self):
        with pytest.raises(PermupowerError, match=r"^U\^dag U deviates from identity by "):
            Unitary(2, np.ones((4, 4)))

    def test_wrong_shape_rejected(self):
        with pytest.raises(PermupowerError, match=r"^shape \(9, 9\), expected \(4, 4\)$"):
            Unitary(2, np.eye(9))

    @pytest.mark.parametrize(
        "d,error,message",
        [
            (13, BudgetExceeded, "^dense oracle capped at d <= 12$"),
            (1, PermupowerError, "^entangling power needs d >= 2$"),
        ],
        ids=["13-BudgetExceeded", "1-PermupowerError"],
    )
    def test_oracle_dimension_cap(self, d, error, message):
        with pytest.raises(error, match=message):
            Unitary(d, np.eye(d * d))
        with pytest.raises(error, match=message):
            unitary_of(identity_perm(d))


class TestOraclePower:
    def test_identity_and_swap_vanish(self):
        for d in (2, 3, 4):
            assert abs(oracle_power(unitary_of(identity_perm(d)))) < TOL
            assert abs(oracle_power(unitary_of(swap_perm(d)))) < TOL

    def test_cnot(self):
        u = unitary_of(builtin_perm("cnot"))
        assert oracle_power(u) == pytest.approx(4 / 9, abs=TOL)

    def test_min_nonzero_d4(self):
        u = unitary_of(min_nonzero_perm(4))
        assert oracle_power(u) == pytest.approx(24 / 100, abs=TOL)

    def test_matches_formula_on_random_perms(self):
        for d in (2, 3, 4, 5):
            for perm in random_biperms(400 + d, d, 25):
                exact = float(entangling_power(perm).epsilon)
                assert oracle_power(unitary_of(perm)) == pytest.approx(exact, abs=TOL)

    def test_exhaustive_d2(self):
        for perm in all_biperms(2):
            exact = float(entangling_power(perm).epsilon)
            assert oracle_power(unitary_of(perm)) == pytest.approx(exact, abs=TOL)


class TestSplitEntropies:
    def test_maximum_entangler_all_seven(self):
        ents = split_entropies(unitary_of(builtin_perm("r9")))
        assert set(ents) == {
            "12|34", "13|24", "14|23", "1|234", "2|134", "3|124", "4|123",
        }
        for name, value in ents.items():
            assert value == pytest.approx(1.0, abs=TOL), name

    def test_identity_cuts(self):
        ents = split_entropies(unitary_of(identity_perm(3)))
        assert ents["12|34"] == pytest.approx(0.0, abs=TOL)
        assert ents["13|24"] == pytest.approx(1.0, abs=TOL)

    def test_swap_cut(self):
        ents = split_entropies(unitary_of(swap_perm(3)))
        assert ents["12|34"] == pytest.approx(1.0, abs=TOL)

    def test_us_state_is_u_under_1423(self, rng):
        # |US> across 12|34 carries the entropy of |U> across 14|23
        for d in (2, 3):
            for u_mat in (
                unitary_of(random_perm(d, rng)).matrix,
                haar_unitary(d * d, rng),
            ):
                u = Unitary(d, u_mat)
                us = Unitary(d, u.matrix @ unitary_of(swap_perm(d)).matrix)
                lhs = linear_entropy(state_of_unitary(us), (1, 2))
                rhs = split_entropies(u)["14|23"]
                assert lhs == pytest.approx(rhs, abs=TOL)


class TestMonteCarlo:
    def test_identity_mean_vanishes(self):
        mean, _ = mc_power(unitary_of(identity_perm(2)), 1000, seed=1)
        assert abs(mean) < 1e-12

    def test_cnot(self):
        mean, se = mc_power(unitary_of(builtin_perm("cnot")), 100_000, seed=7)
        assert abs(mean - 4 / 9) <= 4 * se

    def test_r9(self):
        mean, se = mc_power(unitary_of(builtin_perm("r9")), 100_000, seed=11)
        assert abs(mean - 0.75) <= 4 * se

    def test_deterministic(self):
        u = unitary_of(builtin_perm("cnot"))
        assert mc_power(u, 5000, seed=3) == mc_power(u, 5000, seed=3)

    def test_sample_floor(self):
        with pytest.raises(PermupowerError, match="^need at least 2 samples for a standard"):
            mc_power(unitary_of(builtin_perm("cnot")), 1, seed=0)

    def test_tracks_oracle_on_random_perms(self):
        # statistical check; one reseeded retry tolerated before failing
        for d in (2, 3):
            gen = np.random.default_rng(600 + d)
            for idx in range(20):
                perm = random_perm(d, gen)
                u = unitary_of(perm)
                target = oracle_power(u)
                for attempt, seed in enumerate((1000 + idx, 5000 + idx)):
                    mean, se = mc_power(u, 100_000, seed=seed)
                    if abs(mean - target) <= 5 * se or mean == target:
                        break
                else:
                    pytest.fail(f"d={d} perm #{idx}: {mean} vs {target} (se {se})")


class TestMonteCarloTiles:
    @pytest.mark.parametrize("tile", ["one sample", "whole chunk"])
    def test_tile_invariance(self, monkeypatch, tile):
        # 25,001 is a multiple of neither MC_CHUNK nor the default tile, so
        # the last chunk and the last default tile of each chunk are partial
        perms = (
            builtin_perm("cnot"), builtin_perm("r9"), random_perm(5, np.random.default_rng(55))
        )
        for u in map(unitary_of, perms):
            n = u.d * u.d
            reference = mc_power(u, 25_001, seed=17)
            cells = n if tile == "one sample" else oracle_module.MC_CHUNK * n
            with monkeypatch.context() as patch:
                patch.setattr(oracle_module, "MC_TILE_CELLS", cells)
                mean, se = mc_power(u, 25_001, seed=17)
            assert mean == pytest.approx(reference[0], abs=1e-12)
            assert se == pytest.approx(reference[1], rel=1e-9)

    def test_memory_bounded(self):
        # whole 20,000-sample chunks of d^2 complex products, outputs and
        # Gram matrices peak near 227 MiB at d = 12; the draws and one
        # MC_TILE_CELLS tile of each stay under 20 MiB
        u = unitary_of(random_perm(12, np.random.default_rng(12)))
        tracemalloc.start()
        try:
            mc_power(u, 50_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestRezakhani:
    def test_local_point(self):
        assert rezakhani_power(0, 0, 0) == pytest.approx(0.0, abs=1e-15)

    def test_maximum_points(self):
        q = math.pi / 4
        assert rezakhani_power(q, q, 0) == pytest.approx(4 / 9, abs=1e-12)
        assert rezakhani_power(q, 0, 0) == pytest.approx(4 / 9, abs=1e-12)

    def test_order_enforced(self):
        chamber = r"^need \|c3\| <= c2 <= c1 <= pi/4, got "
        with pytest.raises(PermupowerError, match=chamber + r"\(0\.1, 0\.5, 0\.0\)$"):
            rezakhani_power(0.1, 0.5, 0.0)
        with pytest.raises(PermupowerError, match=chamber + r"\(1\.0, 0\.5, 0\.0\)$"):
            rezakhani_power(1.0, 0.5, 0.0)

    def test_matches_mc_for_cnot_point(self):
        # the quarter-pi point is the controlled-not class
        exact = rezakhani_power(math.pi / 4, 0, 0)
        mean, se = mc_power(unitary_of(builtin_perm("cnot")), 50_000, seed=21)
        assert abs(mean - exact) <= 5 * se


class TestMolsStates:
    def test_constructed_maximum_d4(self):
        ents = split_entropies(unitary_of(superimpose(construct_mols(4))))
        for value in ents.values():
            assert value == pytest.approx(1.0, abs=TOL)


def reference_matrix(perm):
    """Column i*d + j holds its 1 at row (k_ij - 1)*d + l_ij - 1."""
    d = perm.d
    m = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            m[(perm.k[i][j] - 1) * d + perm.l[i][j] - 1, i * d + j] = 1.0
    return m


def reference_power(u):
    """eps(U) from the definition: two state entropies, US by a matrix product."""
    d = u.d
    us = Unitary(d, u.matrix @ unitary_of(swap_perm(d)).matrix)
    s_u = linear_entropy(state_of_unitary(u), (1, 2))
    s_us = linear_entropy(state_of_unitary(us), (1, 2))
    return d / (d + 1) * (s_u + s_us - 1.0)


class TestPermutationUnitaries:
    def assert_matches_definition(self, perm):
        u = unitary_of(perm)
        assert u.matrix.dtype == np.complex128
        assert not u.matrix.flags.writeable
        assert np.array_equal(u.matrix, reference_matrix(perm))

    def test_random_perms(self, rng):
        for d in range(2, 13):
            for _ in range(3):
                self.assert_matches_definition(random_perm(d, rng))

    def test_named_perms(self):
        for d in range(2, 13):
            self.assert_matches_definition(identity_perm(d))
            self.assert_matches_definition(swap_perm(d))
            self.assert_matches_definition(builtin_perm(f"min:{d}"))
        for d in (3, 4, 5, 7, 8, 9, 11, 12):
            self.assert_matches_definition(builtin_perm(f"mols:{d}"))

    def test_cap(self, rng):
        with pytest.raises(BudgetExceeded):
            unitary_of(random_perm(13, rng))


class TestOraclePowerPaths:
    def test_complex_path_haar(self, rng):
        for d in (2, 3, 4):
            for _ in range(3):
                u = Unitary(d, haar_unitary(d * d, rng))
                assert oracle_power(u) == pytest.approx(reference_power(u), abs=TOL)

    def test_real_non_permutation(self, rng):
        # a real orthogonal matrix takes the float64 Gram path
        for d in (2, 3, 4):
            q, r = np.linalg.qr(rng.standard_normal((d * d, d * d)))
            u = Unitary(d, q * np.sign(np.diag(r)))
            assert oracle_power(u) == pytest.approx(reference_power(u), abs=TOL)

    def test_matches_formula_at_larger_d(self):
        for d in (8, 12):
            for perm in random_biperms(800 + d, d, 4):
                exact = float(entangling_power(perm).epsilon)
                assert oracle_power(unitary_of(perm)) == pytest.approx(exact, abs=TOL)


def test_oracle_does_not_import_entangle():
    # the dense route checks the rectangle formula, so it must not call it
    tree = ast.parse(Path(oracle_module.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported.append(module)
            imported += [f"{module}.{alias.name}" for alias in node.names]
    assert "perm_core.BiPerm" in imported
    assert not [name for name in imported if "entangle" in name.split(".")]
