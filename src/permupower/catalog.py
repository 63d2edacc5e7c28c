"""Named permutations exposed by the command line and the test suite.

The explicit gate data is embedded rather than derived, so user-facing
names cannot drift; tests validate each entry against its known power.
"""

from __future__ import annotations

from .errors import ParseError
from .latin import construct_mols, special_d6_perm, superimpose
from .perm_core import (
    BiPerm, biperm_from_flat, check_dimension_cap, check_power_dimension, identity_perm,
    min_nonzero_perm, plain_int, swap_perm,
)

# d=2 controlled-not: |i j> -> |i, j + i - 1 mod 2>, flat one-line form.
_CNOT_FLAT = (1, 2, 4, 3)

# d=2 companion gate with the same (maximal) power 4/9: CNOT composed with
# the factor exchange.
_M_FLAT = (1, 4, 2, 3)

# d=3 maximum-power permutation from the classic orthogonal pair of side 3.
_R9_K = ((1, 2, 3), (2, 3, 1), (3, 1, 2))
_R9_L = ((1, 3, 2), (2, 1, 3), (3, 2, 1))

# name -> (kind, builder).  A "fixed" builder takes no argument; a "sized"
# one takes the caller's d; a name ending in ":<d>" carries its own d.  The
# mols builder looks construct_mols and superimpose up when it runs, so a
# wrapper installed on this module's globals sees the call.
_BUILTINS = {
    "identity": ("sized", identity_perm),
    "swap": ("sized", swap_perm),
    "cnot": ("fixed", lambda: biperm_from_flat(_CNOT_FLAT, 2)),
    "m": ("fixed", lambda: biperm_from_flat(_M_FLAT, 2)),
    "r9": ("fixed", lambda: BiPerm(_R9_K, _R9_L)),
    "d6hat": ("fixed", special_d6_perm),
    "min:<d>": ("own", min_nonzero_perm),
    "mols:<d>": ("own", lambda d: superimpose(construct_mols(d))),
}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_perm(name: str, d: int | None = None) -> BiPerm:
    """Resolve a builtin permutation name, case-insensitively.

    `identity` and `swap` require d; `min:<d>` and `mols:<d>` carry their
    own dimension; `cnot`, `m` (d=2), `r9` (d=3) and `d6hat` (d=6) are
    fixed instances.  Before anything is built, a dimension must be
    positive and within the cap, and a `:<d>` one at least 2.
    """
    name = name.strip().lower()
    stem, colon, tail = name.partition(":")
    kind, build = _BUILTINS.get(f"{stem}:<d>" if colon else name, (None, None))
    if kind is None:
        raise ParseError(
            f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        )
    if kind == "fixed":
        return build()
    if kind == "own":
        try:
            d = plain_int(tail)
        except ValueError:
            raise ParseError(f"builtin {name!r}: {tail!r} is not an integer") from None
    elif d is None:
        raise ParseError(f"builtin {name!r} needs an explicit dimension")
    if d < 1:
        raise ParseError(f"builtin {name!r}: dimension must be positive")
    # a `:<d>` name exists only for its power, so it takes the power's domain
    (check_power_dimension if kind == "own" else check_dimension_cap)(d)
    return build(d)
