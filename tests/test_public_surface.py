"""The package's public surface: `permupower.__all__` is pinned here, so
removing or adding a public name shows up as a diff of this file."""

import re
import types
from pathlib import Path

import permupower

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "BiPerm", "BudgetExceeded", "ClassHistogram",
    "NotOrthogonal", "ParseError", "PermupowerError", "PowerReport",
    "Unitary",
    "UnsupportedOrder", "biperm_from_flat",
    "biperm_to_flat", "builtin_perm", "class_bound",
    "classify_exhaustive", "classify_sampled", "compose_with_swap", "construct_mols",
    "e0_stats", "entangling_power", "epsilon_from_q", "exact_mean",
    "format_biperm", "identity_perm", "is_latin", "mc_power", "min_nonzero_perm",
    "oracle_power", "parse_biperm", "q_of", "random_perm",
    "rezakhani_power", "special_d6_perm", "split_entropies",
    "superimpose", "swap_perm", "unitary_of",
]

# Module-level helpers that other modules of the package share.
INTERNAL_HELPERS = {
    "lines_are_permutations", "read_int_line", "check_dimension_cap",
    "check_power_dimension", "check_oracle_dimension", "epsilon_denominator",
    "q_totals_batch", "lex_blocks", "random_blocks", "format_flat", "plain_int",
}


def test_all_is_the_public_surface():
    names = permupower.__all__
    assert names == sorted(set(names)) == PUBLIC_NAMES
    assert all(hasattr(permupower, name) for name in names)
    public = {
        name
        for name, value in vars(permupower).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public
    assert not INTERNAL_HELPERS & public


def test_every_public_name_has_a_caller():
    # a public name is used by the package itself or by a demo, not only by
    # the tests: its own def or class line and __init__.py do not count
    package = Path(permupower.__file__).parent
    sources = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    sources += (ROOT / "demos").glob("*.py")
    lines = [line for path in sources for line in path.read_text().splitlines()]
    unused = [
        name for name in permupower.__all__
        if not any(
            re.search(rf"\b{name}\b", line)
            and not re.match(rf"\s*(def|class) {name}\b", line)
            for line in lines
        )
    ]
    assert unused == []


def test_internal_helpers_are_shared():
    # each helper is defined in one package module and used in another
    package = Path(permupower.__file__).parent
    texts = {path.name: path.read_text() for path in package.glob("*.py")}
    for name in sorted(INTERNAL_HELPERS):
        homes = [m for m, text in texts.items() if re.search(rf"^def {name}\b", text, re.M)]
        users = [m for m, text in texts.items() if m not in homes and re.search(rf"\b{name}\b", text)]
        assert len(homes) == 1 and users, (name, homes, users)
