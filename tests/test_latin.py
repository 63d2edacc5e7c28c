"""Latin squares, orthogonal pairs, and induced permutations."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from permupower import (
    BiPerm,
    NotOrthogonal,
    ParseError,
    UnsupportedOrder,
    construct_mols,
    entangling_power,
    is_latin,
    special_d6_perm,
    superimpose,
)
from permupower.entangle import q_totals_batch
from permupower.latin import (
    _gf2_modulus,
    format_latin_square,
    format_pair,
    mols_supported,
    parse_pair_file,
)
from permupower.perm_core import biperm_to_flat

from conftest import latin_squares, orthogonal_pair_count

R9_K = ((1, 2, 3), (2, 3, 1), (3, 1, 2))
R9_L = ((1, 3, 2), (2, 1, 3), (3, 2, 1))

SUPPORTED_UP_TO_12 = (3, 4, 5, 7, 8, 9, 11, 12)

# Grids of three rows each whose 9 flat cells cover [3]^2 once, but whose
# rows are not of length 3: no orthogonal pair (tests/test_perm_core.py
# checks BiPerm and superimpose on it).
RAGGED = (((1, 1), (1, 2, 2, 2), (3, 3, 3)), ((1, 2), (3, 1, 2, 3), (1, 2, 3)))

# The two side-6 Latin squares that come as close to orthogonality as
# possible; superimposing them repeats the pairs 33 and 44, so they do NOT
# induce a permutation.
D6_NEAR_ORTHOGONAL = (
    (
        (1, 2, 3, 4, 5, 6),
        (2, 1, 4, 3, 6, 5),
        (3, 4, 6, 5, 1, 2),
        (4, 3, 5, 6, 2, 1),
        (5, 6, 2, 1, 4, 3),
        (6, 5, 1, 2, 3, 4),
    ),
    (
        (1, 2, 3, 4, 5, 6),
        (3, 4, 5, 6, 1, 2),
        (2, 1, 4, 3, 6, 5),
        (6, 5, 1, 2, 4, 3),
        (4, 3, 6, 5, 2, 1),
        (5, 6, 2, 1, 3, 4),
    ),
)


class TestPredicates:
    def test_r9_squares_orthogonal(self):
        assert is_latin(R9_K) and is_latin(R9_L)
        assert superimpose((R9_K, R9_L)).d == 3

    def test_square_not_self_orthogonal(self):
        with pytest.raises(NotOrthogonal, match="are not orthogonal"):
            superimpose((R9_K, R9_K))

    def test_near_orthogonal_side6(self):
        a, b = D6_NEAR_ORTHOGONAL
        assert is_latin(a) and is_latin(b)
        with pytest.raises(NotOrthogonal, match="are not orthogonal"):
            superimpose((a, b))

    def test_not_latin(self):
        assert not is_latin(((1, 2), (1, 2)))
        assert not is_latin(((1, 2), (2, 2)))
        assert not is_latin(((1, 2, 3), (2, 3, 1)))


class TestSuperimpose:
    def test_r9(self):
        perm = superimpose((R9_K, R9_L))
        assert perm == BiPerm(R9_K, R9_L)
        assert entangling_power(perm).epsilon == Fraction(3, 4)
        # rows given as lists give the same permutation
        assert superimpose(([list(row) for row in R9_K], [list(row) for row in R9_L])) == perm

    def test_cyclic_d5(self):
        report = entangling_power(superimpose(construct_mols(5)))
        assert report.epsilon == Fraction(5, 6)

    def test_non_orthogonal_rejected(self):
        k4, l4 = construct_mols(4)
        floats = tuple(tuple(map(float, row)) for row in R9_K), R9_L
        # a repeated square, the closest side-6 pair, ragged rows, sides that
        # differ, and an orthogonal pair with float cells
        for pair in [(R9_K, R9_K), (R9_L, R9_L), D6_NEAR_ORTHOGONAL, RAGGED,
                     (R9_K, l4), (k4, R9_L), floats]:
            with pytest.raises(NotOrthogonal, match="are not orthogonal"):
                superimpose(pair)


class TestConstructMols:
    def test_d3_matches_classic_pair(self):
        assert construct_mols(3) == (R9_K, R9_L)

    @pytest.mark.parametrize("d", [2, 6])
    def test_nonexistent_orders(self, d):
        with pytest.raises(UnsupportedOrder):
            construct_mols(d)

    def test_d10_not_constructed(self):
        with pytest.raises(UnsupportedOrder, match="Bose-Shrikhande-Parker"):
            construct_mols(10)

    def test_d4_field_pair(self):
        report = entangling_power(superimpose(construct_mols(4)))
        assert report.epsilon == Fraction(4, 5)

    @pytest.mark.parametrize("d", SUPPORTED_UP_TO_12)
    def test_supported_sweep(self, d):
        assert mols_supported(d)
        first, second = pair = construct_mols(d)
        assert is_latin(first) and is_latin(second)
        perm = superimpose(pair)
        assert entangling_power(perm).epsilon == Fraction(d, d + 1)
        assert is_latin(perm.k) and is_latin(perm.l)

    @pytest.mark.parametrize("d", [2, 6, 10])
    def test_unsupported_set(self, d):
        assert not mols_supported(d)

    def test_support_rule(self):
        # every side of at least 3 that is not 2 mod 4 is built
        for d in range(1, 216):
            supported = d >= 3 and d % 4 != 2
            assert mols_supported(d) == supported, d
            if supported:
                first, second = construct_mols(d)
                assert len(first) == len(second) == d
            else:
                with pytest.raises(UnsupportedOrder):
                    construct_mols(d)

    def test_gf2_modulus(self):
        # x^2+x+1, x^3+x+1, x^4+x+1, then x^5+x^2+1, x^6+x+1, x^7+x+1
        assert [_gf2_modulus(k) for k in range(2, 8)] == [
            0b111, 0b1011, 0b10011, 0b100101, 0b1000011, 0b10000011
        ]

    @pytest.mark.parametrize("d", [32, 64, 128])
    def test_large_field_pairs(self, d):
        first, second = pair = construct_mols(d)
        assert is_latin(first) and is_latin(second)
        flat = np.array([biperm_to_flat(superimpose(pair))], dtype=np.int32) - 1
        assert q_totals_batch(flat, d).tolist() == [2 * d * d]

    def test_table_file_load(self):
        pair = parse_pair_file(format_pair(construct_mols(7)))
        assert pair == construct_mols(7)
        assert superimpose(pair).d == 7

    def test_table_file_validated(self):
        # parsing reads any two Latin squares; superimpose checks the pair
        sq = format_latin_square(R9_K)
        pair = parse_pair_file(sq + "\n" + sq)
        assert pair == (R9_K, R9_K)
        with pytest.raises(NotOrthogonal):
            superimpose(pair)


class TestSpecialD6:
    def test_valid_biperm_and_power(self):
        perm = special_d6_perm()
        report = entangling_power(perm)
        assert (report.q_p, report.q_ps) == (40, 36)
        assert report.epsilon == Fraction(628, 735)

    def test_defect_structure(self):
        # K is fully Latin; L is Latin in rows; the only defects are one
        # repeated symbol in each of L's columns 3 and 4
        perm = special_d6_perm()
        assert is_latin(perm.k)
        full = set(range(1, 7))
        assert all(set(row) == full for row in perm.l)
        defects = []
        for col in range(6):
            column = [perm.l[row][col] for row in range(6)]
            for sym in full:
                if column.count(sym) == 2:
                    defects.append((col + 1, sym))
        assert defects == [(3, 3), (4, 4)]


class TestEnumeration:
    """The tests' reference enumeration of Latin squares."""

    @pytest.mark.parametrize("d,count", [(1, 1), (2, 2), (3, 12), (4, 576)])
    def test_counts(self, d, count):
        assert sum(1 for _ in latin_squares(d)) == count

    def test_first_square_is_cyclic(self):
        assert next(latin_squares(3)) == R9_K

    def test_all_valid_and_distinct(self):
        squares = list(latin_squares(3))
        assert len(set(squares)) == 12
        assert all(is_latin(sq) for sq in squares)


class TestPairCounting:
    def test_counts(self):
        assert orthogonal_pair_count(2) == 0
        assert orthogonal_pair_count(3) == 36

    def test_count_d4(self):
        assert orthogonal_pair_count(4) == 3456


class TestConverseAtD3:
    def test_maximum_class_is_exactly_the_orthogonal_pairs(self):
        # over all 9! grid permutations: power is 3/4 exactly when both
        # component matrices are Latin squares (orthogonality is then
        # automatic); that class has 72 = 2 * 36 members
        perms = np.array(
            list(itertools.permutations(range(9))), dtype=np.int8
        )
        k = (perms // 3).reshape(-1, 3, 3)
        l = (perms % 3).reshape(-1, 3, 3)
        ref = np.arange(3, dtype=np.int8)
        k_latin = (
            (np.sort(k, axis=2) == ref).all(axis=(1, 2))
            & (np.sort(k, axis=1) == ref[:, None]).all(axis=(1, 2))
        )
        l_latin = (
            (np.sort(l, axis=2) == ref).all(axis=(1, 2))
            & (np.sort(l, axis=1) == ref[:, None]).all(axis=(1, 2))
        )
        both = k_latin & l_latin

        from permupower.entangle import q_totals_batch

        totals = np.concatenate(
            [
                q_totals_batch(perms[lo : lo + 60480], 3)
                for lo in range(0, len(perms), 60480)
            ]
        )
        is_max = totals == 18  # q_p = q_ps = 9
        assert int(both.sum()) == 72
        assert np.array_equal(both, is_max)
        assert 72 == 2 * orthogonal_pair_count(3)


class TestSerialization:
    def test_square_roundtrip(self):
        text = format_latin_square(R9_L) + "\n" + format_latin_square(R9_K)
        assert parse_pair_file(text) == (R9_L, R9_K)

    def test_pair_roundtrip(self):
        pair = construct_mols(4)
        assert parse_pair_file(format_pair(pair)) == pair

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "expected 2 squares"),
            ("1 2\n2 1", "expected 2 squares"),
            ("1 2\n2 1\n\n1 2\n2 x", "token 2"),
            # plain decimal tokens only
            ("1 2\n2 1\n\n1 2\n2 +1", "^line 5, token 2: '\\+1' is not an integer$"),
            # lines are numbered as in the file, blank ones included
            ("\n1 2\n2 x\n\n1 2\n2 1", "^line 3, token 2"),
            ("1 2\n2 1\n\n\n1 2\n2 x", "^line 6, token 2"),
            ("1 2\n2 1\n\n1 3\n3 1", "outside"),
            ("1 2\n2 2\n\n1 2\n2 1", "not a Latin square"),
            ("1 2 3\n2 3 1\n3 1 2\nextra junk\n\n1 3 2\n2 1 3\n3 2 1",
             "^line 1: square of side 3 needs 3 lines$"),
        ],
    )
    def test_pair_parse_errors(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_pair_file(text)

    def test_square_parse_short(self):
        with pytest.raises(ParseError, match="^line 1: square of side 3 needs 3 lines$"):
            parse_pair_file("1 2 3\n2 3 1\n\n" + format_latin_square(R9_L))
