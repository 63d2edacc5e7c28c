"""Grid permutation representation, enumeration, the local permutations and text form."""

import dataclasses
import io
import itertools
import math
import pickle
import re

import numpy as np
import pytest

from permupower import (
    BiPerm,
    NotOrthogonal,
    ParseError,
    PermupowerError,
    biperm_from_flat,
    biperm_to_flat,
    compose_with_swap,
    format_biperm,
    identity_perm,
    parse_biperm,
    random_perm,
    superimpose,
    swap_perm,
    unitary_of,
)

from permupower import perm_core
from permupower.perm_core import lex_blocks

from conftest import all_biperms, latin_squares, local_rows, random_biperms


class TestBiPermFromFlat:
    def test_identity_d2(self):
        p = biperm_from_flat((1, 2, 3, 4), 2)
        assert p.k == ((1, 1), (2, 2))
        assert p.l == ((1, 2), (1, 2))

    def test_cnot_d2(self):
        p = biperm_from_flat((1, 2, 4, 3), 2)
        assert p.k == ((1, 1), (2, 2))
        assert p.l == ((1, 2), (2, 1))

    def test_swap_as_flat(self):
        p = biperm_from_flat((1, 3, 2, 4), 2)
        assert p.k == ((1, 2), (1, 2))
        assert p.l == ((1, 1), (2, 2))
        assert p == swap_perm(2)

    def test_wrong_length(self):
        with pytest.raises(PermupowerError, match=r"^flat permutation has length 4, need d\^2"):
            biperm_from_flat((1, 2, 3, 4), 3)

    def test_repeats_rejected(self):
        with pytest.raises(PermupowerError, match="^token 2: duplicate value 1$"):
            biperm_from_flat((1, 1, 3, 4), 2)
        with pytest.raises(PermupowerError, match="^token 3: duplicate value 2$"):
            biperm_from_flat((1, 2, 2, 4), 2)

    def test_biperm_validation(self):
        with pytest.raises(PermupowerError, match="^image pairs repeat; not a bijection"):
            BiPerm(((1, 1), (1, 2)), ((1, 1), (2, 2)))  # image (1,1) repeats
        with pytest.raises(PermupowerError, match=r"^cell \(2,2\) -> \(5,2\) outside \[1,2\]"):
            BiPerm(((1, 1), (2, 5)), ((1, 2), (1, 2)))  # value out of range
        for cell in (2.7, "1"):
            with pytest.raises(PermupowerError, match="^k and l must hold integers$"):
                BiPerm(((1, 1), (2, 2)), ((1, cell), (1, 2)))

    def test_dimension_below_one_rejected(self):
        # (-2)^2 = 4 entries pass the length check, but d = -2 has no text form
        for image, d in (((1, 2, 3, 4), -2), ((), 0), ((1,), -1)):
            with pytest.raises(PermupowerError, match=f"^dimension must be positive, got {d}$"):
                biperm_from_flat(image, d)

    def test_accepted_images_have_a_text_form(self, rng):
        for d in (1, 2, 3, 4):
            for _ in range(10):
                p = biperm_from_flat([int(v) + 1 for v in rng.permutation(d * d)], d)
                assert parse_biperm(format_biperm(p)) == p

    def test_non_integers_rejected(self):
        with pytest.raises(PermupowerError, match="^flat permutation values must be integers$"):
            biperm_from_flat([1.5, 2, 3, 4], 2)
        # numpy integers are integers
        assert biperm_from_flat(np.arange(4, dtype=np.int32) + 1, 2) == identity_perm(2)

    def test_roundtrip_exhaustive_small(self):
        for d in (1, 2):
            for p in itertools.permutations(range(1, d * d + 1)):
                assert biperm_to_flat(biperm_from_flat(p, d)) == p

    def test_roundtrip_exhaustive_d3(self):
        for p in itertools.permutations(range(1, 10)):
            assert biperm_to_flat(biperm_from_flat(p, 3)) == p

    def test_roundtrip_random_to_d8(self, rng):
        for d in range(2, 9):
            for _ in range(20):
                image = tuple(int(v) + 1 for v in rng.permutation(d * d))
                assert biperm_to_flat(biperm_from_flat(image, d)) == image


def covers_grid_reference(k, l) -> bool:
    """The definition: K and L are d x d, and {(k_ij, l_ij)} equals [d]^2."""
    d = len(k)
    if len(l) != d or any(len(row) != d for row in (*k, *l)):
        return False
    pairs = {(k[i][j], l[i][j]) for i in range(d) for j in range(d)}
    return pairs == set(itertools.product(range(1, d + 1), repeat=2))


# the messages of BiPerm's four rejections: cell type, shape, range, repeat
BIPERM_REJECTIONS = (
    r"k and l must hold integers$|k and l must both be d x d$"
    r"|cell \(\d+,\d+\) -> \(-?\d+,-?\d+\) outside \[1,\d+\]\^2$"
    r"|image pairs repeat; not a bijection of the grid$"
)


def biperm_accepts(k, l) -> bool:
    try:
        BiPerm(k, l)
    except PermupowerError as exc:
        assert re.match(BIPERM_REJECTIONS, str(exc))
        return False
    return True


def near_bijections(d: int, count: int, seed: int):
    """Grid pairs one edit away from a random bijection: a cell changed in
    range, a value out of range, sides that differ, or two cells swapped."""
    gen = np.random.default_rng([seed, d])
    for t in range(count):
        perm = random_perm(d, gen)
        k = [list(row) for row in perm.k]
        l = [list(row) for row in perm.l]
        kind, grid = t % 4, (k, l)[t // 4 % 2]
        i, j, i2, j2 = gen.integers(d, size=4).tolist()
        if kind == 0:
            grid[i][j] = int(gen.integers(1, d + 1))
        elif kind == 1:
            grid[i][j] = int(gen.choice([0, -1, d + 1, d * d]))
        elif kind == 2:
            side = d + int(gen.choice([-1, 1]))
            grid[:] = gen.integers(1, side + 1, size=(side, side)).tolist()
        else:
            grid[i][j], grid[i2][j2] = grid[i2][j2], grid[i][j]
        yield k, l


class TestCoverRule:
    """BiPerm and superimpose accept exactly the pairs the definition does."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_reference(self, d):
        cases = list(near_bijections(d, 400, seed=13))
        if d == 3:
            cases += itertools.product(latin_squares(3), repeat=2)
            # nine flat cells that cover [3]^2 once, in rows that are not 3 long
            cases.append((((1, 1), (1, 2, 2, 2), (3, 3, 3)), ((1, 2), (3, 1, 2, 3), (1, 2, 3))))
        verdicts = []
        for k, l in cases:
            expected = covers_grid_reference(k, l)
            assert biperm_accepts(k, l) == expected, (k, l)
            if expected:
                assert superimpose((k, l)) == BiPerm(k, l)
            else:
                with pytest.raises(NotOrthogonal, match="are not orthogonal$"):
                    superimpose((k, l))
            verdicts.append(expected)
        assert 0 < sum(verdicts) < len(verdicts)


def test_frozen_values():
    perm = biperm_from_flat((1, 2, 4, 3), 2)
    u = unitary_of(perm)
    for obj, field in [(perm, "d"), (perm, "k"), (perm, "l"), (u, "d"), (u, "matrix")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, getattr(obj, field))
    copy = pickle.loads(pickle.dumps(perm))
    assert copy == perm and hash(copy) == hash(perm)
    assert (copy.d, copy.k, copy.l) == (perm.d, perm.k, perm.l)
    # a pickled unitary keeps its matrix read-only
    u_copy = pickle.loads(pickle.dumps(u))
    assert u_copy.d == u.d and np.array_equal(u_copy.matrix, u.matrix)
    assert not u_copy.matrix.flags.writeable


class TestBasicPerms:
    def test_identity(self):
        p = identity_perm(2)
        assert p.k == ((1, 1), (2, 2))
        assert p.l == ((1, 2), (1, 2))

    def test_swap(self):
        p = swap_perm(2)
        assert p.k == ((1, 2), (1, 2))
        assert p.l == ((1, 1), (2, 2))
        assert swap_perm(3).k[0] == (1, 2, 3)

    def test_cell_images(self):
        assert (swap_perm(3).k[0][2], swap_perm(3).l[0][2]) == (3, 1)
        assert (identity_perm(4).k[1][2], identity_perm(4).l[1][2]) == (2, 3)


class TestComposeWithSwap:
    def test_identity_becomes_swap(self):
        for d in (2, 3, 5):
            assert compose_with_swap(identity_perm(d)) == swap_perm(d)
            assert compose_with_swap(swap_perm(d)) == identity_perm(d)

    def test_cnot(self):
        ps = compose_with_swap(biperm_from_flat((1, 2, 4, 3), 2))
        assert ps.k == ((1, 2), (1, 2))
        assert ps.l == ((1, 2), (2, 1))

    def test_involution(self):
        for perm in random_biperms(3, 4, 25):
            assert compose_with_swap(compose_with_swap(perm)) == perm

    def test_pointwise_relation(self, rng):
        perm = random_perm(5, rng)
        ps = compose_with_swap(perm)
        for i in range(5):
            for j in range(5):
                assert (ps.k[i][j], ps.l[i][j]) == (perm.k[j][i], perm.l[j][i])


class TestDetectNonEntangling:
    """The tests' local rows, indexed by their witness (a, b): with a_p the
    permutation of rank p of [d] and n = d!, row p * n + q maps (i, j) to
    (a_p(i), a_q(j)) and row n^2 + p * n + q maps it to (a_p(j), a_q(i))."""

    def test_identity_witness(self):
        assert tuple(local_rows(3)[0] + 1) == biperm_to_flat(identity_perm(3))

    def test_swap_witness(self):
        rows = local_rows(3)
        assert tuple(rows[len(rows) // 2] + 1) == biperm_to_flat(swap_perm(3))

    def test_cnot_entangles(self):
        assert (1, 2, 4, 3) not in {tuple(row) for row in (local_rows(2) + 1).tolist()}

    def test_witness_reconstructs(self, rng):
        # rebuild random rows from their witness (a, b)
        for d in (2, 3, 5):
            perms = list(itertools.permutations(range(1, d + 1)))
            n = len(perms)
            rows = local_rows(d) + 1
            for _ in range(10):
                p, q = (int(v) for v in rng.integers(n, size=2))
                pa, pb = perms[p], perms[q]
                ident_like = BiPerm([[pa[i]] * d for i in range(d)], [pb] * d)
                assert tuple(rows[p * n + q]) == biperm_to_flat(ident_like)
                swap_like = BiPerm([pa] * d, [[pb[i]] * d for i in range(d)])
                assert tuple(rows[n * n + p * n + q]) == biperm_to_flat(swap_like)

    def test_count_over_all_d2(self):
        # the local permutations are those with K constant along rows and L
        # the same in every row, or K the same in every row and L constant
        # along rows
        def constant_rows(grid):
            return all(len(set(row)) == 1 for row in grid)

        structural = {
            biperm_to_flat(p)
            for p in all_biperms(2)
            if (constant_rows(p.k) and len(set(p.l)) == 1)
            or (len(set(p.k)) == 1 and constant_rows(p.l))
        }
        assert structural == {tuple(row) for row in (local_rows(2) + 1).tolist()}
        assert len(structural) == 2 * math.factorial(2) ** 2  # 8


def lex_rows(n: int, prefix: tuple = ()) -> list[tuple[int, ...]]:
    """The rows lex_blocks yields, as tuples."""
    return [tuple(row) for block in lex_blocks(n, prefix) for row in block.tolist()]


def lex_array(n: int, prefix: tuple = (), blocks: int | None = None) -> np.ndarray:
    """The rows of the first `blocks` blocks lex_blocks yields (all when None)."""
    return np.concatenate(list(itertools.islice(lex_blocks(n, prefix), blocks)))


def perms_array(symbols, head: tuple = (), count: int | None = None) -> np.ndarray:
    """`head` followed by the first `count` arrangements of `symbols` in
    itertools.permutations order, one row each."""
    rows = itertools.islice(itertools.permutations(symbols), count)
    flat = itertools.chain.from_iterable(head + row for row in rows)
    return np.fromiter(flat, dtype=np.int32).reshape(-1, len(head) + len(symbols))


class TestEnumeration:
    """lex_blocks against itertools.permutations, which lists range(n) in
    lexicographic order."""

    def test_d2_count_and_order(self):
        assert lex_rows(4) == list(itertools.permutations(range(4)))
        assert next(all_biperms(2)) == identity_perm(2)

    def test_d3_count(self):
        # at n = 9 each stratum is one block of the 8! permutations
        # sharing their first symbol
        assert [block.shape for block in lex_blocks(9)] == [(40320, 9)] * 9

    def test_smallest_n(self):
        assert lex_rows(1) == lex_rows(1, (0,)) == [(0,)]
        assert lex_rows(2) == [(0, 1), (1, 0)]
        assert lex_rows(2, (0,)) == [(0, 1)] and lex_rows(2, (1,)) == [(1, 0)]

    @pytest.mark.parametrize("n", [4, 9])
    def test_strata_make_the_whole_order(self, n):
        # stratum s holds the (n - 1)! permutations that start with s
        whole = perms_array(range(n))
        size = math.factorial(n - 1)
        strata = [lex_array(n, (s,)) for s in range(n)]
        for s, stratum in enumerate(strata):
            assert np.array_equal(stratum, whole[s * size : (s + 1) * size])
        assert np.array_equal(np.concatenate(strata), whole)
        assert np.array_equal(lex_array(n), whole)

    @pytest.mark.parametrize("n", [4, 9])
    def test_two_symbol_strata_make_the_whole_order(self, n):
        # stratum (s, t) holds the (n - 2)! permutations that start with s, t
        whole = perms_array(range(n))
        strata = [lex_array(n, prefix) for prefix in itertools.permutations(range(n), 2)]
        assert {len(stratum) for stratum in strata} == {math.factorial(n - 2)}
        assert np.array_equal(np.concatenate(strata), whole)

    def test_d4_stratum_crosses_block(self):
        # n = 16 blocks hold the 8! permutations sharing an 8-symbol prefix
        blocks = list(itertools.islice(lex_blocks(16, (5,)), 2))
        assert [block.shape for block in blocks] == [(40320, 16)] * 2
        others = [s for s in range(16) if s != 5]
        want = perms_array(others, head=(5,), count=2 * 40320)
        assert np.array_equal(np.concatenate(blocks), want)

    def test_d5_last_stratum_first_block(self):
        # n = 25 blocks hold the 8! permutations sharing a 17-symbol prefix
        got = lex_array(25, (24,), blocks=1)
        assert got.shape == (40320, 25)
        assert np.array_equal(got, perms_array(range(24), head=(24,), count=40320))


class TestRandomPerm:
    def test_deterministic(self):
        a = random_perm(4, np.random.default_rng(99))
        b = random_perm(4, np.random.default_rng(99))
        assert a == b

    def test_always_valid(self, rng):
        for d in (2, 3, 6):
            p = random_perm(d, rng)
            # reconstruct through the validating constructor
            assert BiPerm(p.k, p.l) == p

    def test_uniform_d2(self):
        # 1e5 draws over the 24 permutations; every count within 5 SE
        n = 100_000
        gen = np.random.default_rng(42)
        counts = {}
        for _ in range(n):
            key = biperm_to_flat(random_perm(2, gen))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 24
        expected = n / 24
        se = math.sqrt(n * (1 / 24) * (23 / 24))
        worst = max(abs(c - expected) for c in counts.values())
        assert worst <= 5 * se


class TestSerialization:
    def test_roundtrip(self, rng):
        for d in (1, 2, 3, 7):
            p = random_perm(d, rng)
            assert parse_biperm(format_biperm(p)) == p

    def test_format_shape(self):
        text = format_biperm(identity_perm(2))
        assert text == "d=2\n1 2 3 4\n"

    def test_cap_checked_before_line_2(self, monkeypatch):
        assert parse_biperm(format_biperm(swap_perm(215))) == swap_perm(215)

        def refuse(*args):
            raise AssertionError("tokenized line 2 above the dimension cap")

        monkeypatch.setattr(perm_core, "read_int_line", refuse)
        with pytest.raises(PermupowerError, match="^d = 216 exceeds the supported cap 215$"):
            parse_biperm("d=216\n" + "1 " * 216**2)

    def test_lines_read_lazily(self):
        # an iterable of lines is read up to line 2, or only to line 1 when
        # the header is above the cap
        def lines(*given):
            yield from given
            raise AssertionError("read past the lines the parser needs")

        text = format_biperm(swap_perm(3))
        assert parse_biperm(lines("\n", *text.splitlines(keepends=True))) == swap_perm(3)
        assert parse_biperm(io.StringIO(text + "trailing junk\n")) == swap_perm(3)
        # a form feed ends a line of the text, so also of the file's lines
        assert parse_biperm(io.StringIO(text.replace("\n", "\f", 1))) == swap_perm(3)
        with pytest.raises(PermupowerError, match="cap 215"):
            parse_biperm(lines("d=216\n"))

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "expected 2 non-empty lines"),
            ("d=2\n", "expected 2 non-empty lines"),
            ("x=2\n1 2 3 4", "line 1"),
            ("d=two\n1 2 3 4", "line 1"),
            ("d=0\n1", "positive"),
            ("d=2\n1 2 3", "expected 4 values"),
            ("d=2\n1 2 3 five", "token 4"),
            # plain decimal only: int() alone reads "+4", "\u0664" (Arabic-Indic
            # four) and "1_0" as 4, 4 and 10, which made these valid
            ("d=2\n1 2 3 +4", "line 2, token 4: '\\+4' is not an integer"),
            ("d=2\n1 2 3 \u0664", "line 2, token 4: '\u0664' is not an integer"),
            ("d=4\n" + " ".join("1_0" if v == 10 else str(v) for v in range(1, 17)),
             "line 2, token 10: '1_0' is not an integer"),
            ("d=1_0\n" + " ".join(map(str, range(1, 101))),
             "line 1: malformed dimension '1_0'"),
            ("d=+2\n1 2 3 4", "line 1: malformed dimension '\\+2'"),
            ("d=2\n1 2 3 9", "token 4"),
            ("d=2\n1 2 2 3", "duplicate"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ParseError, match=fragment.replace("(", "\\(")):
            parse_biperm(text)
