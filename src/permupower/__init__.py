"""Entangling power of bipartite permutation operators.

A permutation of the product basis [d] x [d] acts as a unitary on two
d-level systems; its entangling power (average linear entropy generated on
random product inputs) is an exact rational, computed here by rectangle
counting, cross-checked by a dense linear-algebra oracle, maximized via
orthogonal Latin squares, and tabulated across all permutations of small
dimension.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BudgetExceeded,
    NotOrthogonal,
    ParseError,
    PermupowerError,
    UnsupportedOrder,
)
from .perm_core import (
    BiPerm,
    biperm_from_flat,
    biperm_to_flat,
    compose_with_swap,
    format_biperm,
    identity_perm,
    min_nonzero_perm,
    parse_biperm,
    random_perm,
    swap_perm,
)
from .entangle import (
    PowerReport,
    entangling_power,
    epsilon_from_q,
    q_of,
)
from .oracle import (
    Unitary,
    mc_power,
    oracle_power,
    rezakhani_power,
    split_entropies,
    unitary_of,
)
from .latin import (
    are_orthogonal,
    construct_mols,
    is_latin,
    special_d6_perm,
    superimpose,
)
from .classify import (
    ClassHistogram,
    class_bound,
    classify_exhaustive,
    classify_sampled,
    e0_stats,
    exact_mean,
)
from .catalog import builtin_perm

__version__ = "0.1.0"

# Every name imported above is public, and only those.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
