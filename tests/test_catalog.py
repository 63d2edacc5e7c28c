"""Named permutation registry: embedded data matches known powers."""

import re
from fractions import Fraction

import pytest

from permupower import ParseError, PermupowerError, compose_with_swap, entangling_power
from permupower.catalog import builtin_perm


@pytest.mark.parametrize(
    "name,power",
    [
        ("cnot", Fraction(4, 9)),
        ("m", Fraction(4, 9)),
        ("r9", Fraction(3, 4)),
        ("d6hat", Fraction(628, 735)),
        ("min:6", Fraction(20, 147)),
        ("mols:9", Fraction(9, 10)),
    ],
)
def test_builtin_powers(name, power):
    assert entangling_power(builtin_perm(name)).epsilon == power


def test_m_is_cnot_times_swap():
    assert builtin_perm("m") == compose_with_swap(builtin_perm("cnot"))


def test_identity_swap_need_dimension():
    assert entangling_power(builtin_perm("swap", d=4)).epsilon == 0
    with pytest.raises(ParseError):
        builtin_perm("identity")


@pytest.mark.parametrize("name,d", [("identity", 1000), ("swap", 216), ("mols:218", None)])
def test_cap_checked_first(name, d):
    with pytest.raises(PermupowerError, match="cap 215"):
        builtin_perm(name, d)


def test_bad_names():
    with pytest.raises(ParseError):
        builtin_perm("nope")
    for tail in ("x", "+5", "1_0", "٤"):
        message = f"builtin 'min:{tail}': '{tail}' is not an integer"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            builtin_perm(f"min:{tail}")
    with pytest.raises(ParseError):
        builtin_perm("mols:0")
    with pytest.raises(ParseError, match="dimension must be positive"):
        builtin_perm("identity", 0)
    with pytest.raises(ParseError, match="dimension must be positive"):
        builtin_perm("swap", -1)


def test_case_insensitive():
    assert builtin_perm("CNOT") == builtin_perm("cnot")
    assert builtin_perm("R9") == builtin_perm("r9")
