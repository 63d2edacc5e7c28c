"""Permutations of the product grid [d] x [d].

A permutation P of the d*d basis cells is stored as a pair of d x d
matrices K, L with P(i, j) = (k_ij, l_ij).  All cell values are 1-based,
matching the usual combinatorial convention; flattening of (i, j) to a
single index t in [d^2] is row-major with i major:

    t = (i - 1) * d + j,        i = ceil(t / d),  j = ((t - 1) mod d) + 1.

`BiPerm` is the package's one cover rule: it accepts only d x d integer
grids K, L whose cells pair up into every (k, l) of [d]^2 once, so every
`BiPerm` is a bijection.

A flat image is a plain tuple of ints at the file boundary; inside a
census, flat permutations travel as numpy blocks of 0-based images, one
permutation per row, never more than `BLOCK_CELLS` cells to a block.
`lex_blocks` walks the lexicographic order, whole or one stratum (the
permutations that start with a given prefix) at a time, in blocks that
share all but their last r positions; `random_blocks` draws uniform
permutations in blocks.

Everything here is immutable after construction and safe to share across
threads.  Parallel consumers of `lex_blocks` should take one stratum
each; parallel users of `random_perm` or `random_blocks` must give
each worker its own generator,
``np.random.default_rng([base_seed, worker_index])``.  (With
``base_seed XOR worker_index``, worker 1 of seed 42 would draw the stream
of worker 0 of seed 43.)
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    import numpy as np

from .errors import ParseError, PermupowerError

# Supported range of d, the largest d with d^4 < 2^31.  No count overflows
# above it (q_of sums Python integers, the batch kernel sums in int64), but
# the CLI, the file formats and the tests are specified up to this cap.
MAX_DIMENSION = 215

# Most cells (rows times d^2) in one permutation block.  Lexicographic
# blocks hold r! rows for the largest r this allows: r = 8 at d = 3 and 4.
BLOCK_CELLS = 1 << 20


@dataclass(frozen=True, slots=True, init=False)
class BiPerm:
    """Permutation of [d] x [d], held as the matrix pair K, L."""

    d: int
    k: tuple[tuple[int, ...], ...]
    l: tuple[tuple[int, ...], ...]

    def __init__(self, k: Sequence[Sequence[int]], l: Sequence[Sequence[int]]):
        try:
            k = tuple(tuple(map(operator.index, row)) for row in k)
            l = tuple(tuple(map(operator.index, row)) for row in l)
        except TypeError:
            raise PermupowerError("k and l must hold integers") from None
        d = len(k)
        if len(l) != d or any(len(r) != d for r in (*k, *l)):
            raise PermupowerError("k and l must both be d x d")
        ks, ls = tuple(itertools.chain(*k)), tuple(itertools.chain(*l))
        if not {*ks, *ls} <= set(range(1, d + 1)):
            for t, (ki, li) in enumerate(zip(ks, ls)):
                if not (1 <= ki <= d and 1 <= li <= d):
                    raise PermupowerError(
                        f"cell ({t // d + 1},{t % d + 1}) -> ({ki},{li}) outside [1,{d}]^2"
                    )
        # the codes k * d + l are distinct on [1, d]^2
        if len({ki * d + li for ki, li in zip(ks, ls)}) != d * d:
            raise PermupowerError("image pairs repeat; not a bijection of the grid")
        self._set(d, k, l)

    def _set(self, d: int, k: tuple, l: tuple) -> "BiPerm":
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        return self

    @classmethod
    def _trusted(cls, d: int, k: tuple, l: tuple) -> "BiPerm":
        """Construct without validation (internal, for grids already known valid)."""
        return object.__new__(cls)._set(d, k, l)


def check_dimension_cap(d: int) -> None:
    """Raise PermupowerError when d exceeds MAX_DIMENSION."""
    if d > MAX_DIMENSION:
        raise PermupowerError(f"d = {d} exceeds the supported cap {MAX_DIMENSION}")


def check_power_dimension(d: int) -> None:
    """Raise unless entangling_power accepts dimension d: 2 <= d <= MAX_DIMENSION."""
    if d < 2:
        raise PermupowerError("entangling power needs d >= 2")
    check_dimension_cap(d)


def lines_are_permutations(lines: Iterable[Sequence[int]], d: int) -> bool:
    """True when every line (a row or column of a d x d matrix) permutes [d]."""
    full = set(range(1, d + 1))
    return all(len(line) == d and set(line) == full for line in lines)


def plain_int(text: str) -> int:
    """`text` as an int if it is plain decimal ('-'? and ASCII digits), else
    ValueError; int alone also takes "+4", "1_0" and "٤"."""
    if not (text.isascii() and text.lstrip("-").isdigit()):
        raise ValueError(text)
    return int(text)


def read_int_line(line: str, count: int, where: str, high: int | None = None) -> list[int]:
    """The `count` integers on a text line, each in [1, high] if `high` is set.

    The ParseError on a wrong count or the first bad token starts with `where`.
    """
    tokens = line.split()
    if len(tokens) != count:
        raise ParseError(f"{where}: expected {count} values, got {len(tokens)}")
    values = []
    for pos, tok in enumerate(tokens, start=1):
        try:
            values.append(plain_int(tok))
        except ValueError:
            raise ParseError(f"{where}, token {pos}: {tok!r} is not an integer") from None
        if high is not None and not 1 <= values[-1] <= high:
            raise ParseError(f"{where}, token {pos}: value {values[-1]} outside [1, {high}]")
    return values


def biperm_from_flat(image: Sequence[int], d: int) -> BiPerm:
    """Reshape a flat permutation of [d^2] (1-based images) into the (K, L) pair.

    Raises PermupowerError unless d >= 1, as in the text form's header, and
    the image has d^2 integer entries and is a bijection of [d^2]; the
    bijection error names the first offending token.
    """
    try:
        image = tuple(map(operator.index, image))
    except TypeError:
        raise PermupowerError("flat permutation values must be integers") from None
    if d < 1:
        raise PermupowerError(f"dimension must be positive, got {d}")
    n = d * d
    if len(image) != n:
        raise PermupowerError(f"flat permutation has length {len(image)}, need d^2 = {n}")
    if sorted(image) != list(range(1, n + 1)):
        seen = set()
        for pos, v in enumerate(image, start=1):
            if not 1 <= v <= n:
                raise PermupowerError(f"token {pos}: value {v} outside [1, {n}]")
            if v in seen:
                raise PermupowerError(f"token {pos}: duplicate value {v}")
            seen.add(v)
    k = tuple(zip(*[iter([(v - 1) // d + 1 for v in image])] * d))
    l = tuple(zip(*[iter([(v - 1) % d + 1 for v in image])] * d))
    return BiPerm._trusted(d, k, l)


def biperm_to_flat(perm: BiPerm) -> tuple[int, ...]:
    """Inverse of biperm_from_flat: the 1-based flat image as a tuple."""
    d = perm.d
    return tuple(
        (ki - 1) * d + li for krow, lrow in zip(perm.k, perm.l) for ki, li in zip(krow, lrow)
    )


def identity_perm(d: int) -> BiPerm:
    """The identity map (i, j) -> (i, j)."""
    k = tuple(tuple([i + 1] * d) for i in range(d))
    l = tuple(tuple(range(1, d + 1)) for _ in range(d))
    return BiPerm._trusted(d, k, l)


def swap_perm(d: int) -> BiPerm:
    """The factor exchange (i, j) -> (j, i)."""
    k = tuple(tuple(range(1, d + 1)) for _ in range(d))
    l = tuple(tuple([i + 1] * d) for i in range(d))
    return BiPerm._trusted(d, k, l)


def min_nonzero_perm(d: int) -> BiPerm:
    """The permutation with the smallest nonzero entangling power.

    Identity except that the last two cells of the bottom row are
    exchanged; its power is exactly 8(d-1) / (d (d+1)^2).
    """
    check_power_dimension(d)
    base = identity_perm(d)
    l = [list(row) for row in base.l]
    l[d - 1][d - 2], l[d - 1][d - 1] = l[d - 1][d - 1], l[d - 1][d - 2]
    return BiPerm(base.k, l)


def compose_with_swap(perm: BiPerm) -> BiPerm:
    """Right-compose with the factor exchange: (PS)(i, j) = P(j, i).

    Equivalently, transpose both K and L.  Involution: applying twice
    returns the original permutation.
    """
    k = tuple(zip(*perm.k))
    l = tuple(zip(*perm.l))
    return BiPerm._trusted(perm.d, k, l)


@functools.cache
def _lex_table(r: int) -> np.ndarray:
    """All permutations of range(r) in lexicographic order, shape (r!, r).

    Read-only, since every caller in the process shares it.
    """
    import numpy as np

    table = np.array(list(itertools.permutations(range(r))), dtype=np.uint8)
    table.flags.writeable = False
    return table


def lex_blocks(n: int, prefix: Sequence[int] = ()) -> Iterator[np.ndarray]:
    """The permutations of range(n) that start with `prefix`, all n! when
    it is empty, in lexicographic order.

    Yields int32 blocks of 0-based images, one permutation per row.  A
    block holds the r! permutations that share their first n - r symbols,
    for the largest r <= n - len(prefix) with r! * n <= BLOCK_CELLS: the
    first n - r symbols are `prefix` followed by an arrangement of the
    other symbols, in the lexicographic order of itertools.permutations,
    and the last r positions index the remaining symbols with the cached
    lexicographic table of range(r).
    """
    import numpy as np

    prefix = tuple(prefix)
    r = 0
    while r < n - len(prefix) and math.factorial(r + 1) * n <= BLOCK_CELLS:
        r += 1
    table = _lex_table(r)
    others = [s for s in range(n) if s not in prefix]
    for tail in itertools.permutations(others, n - len(prefix) - r):
        rest = [s for s in others if s not in tail]
        block = np.empty((len(table), n), dtype=np.int32)
        block[:, : n - r] = prefix + tail
        block[:, n - r :] = np.array(rest, dtype=np.int32)[table]
        yield block


def random_blocks(n: int, count: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """`count` uniform permutations of range(n), in int32 blocks of 0-based images.

    Blocks hold at most BLOCK_CELLS cells.  Every row is one
    `rng.permuted` draw, so the rows equal those of a single
    `rng.permuted` call over all `count` rows, whatever the block size.
    Every block is the same buffer, refilled from the identity before each
    draw: a consumer may change a block in place, but must not keep it past
    its loop step.
    """
    import numpy as np

    rows = max(1, BLOCK_CELLS // n)
    base = np.arange(n, dtype=np.int32)
    buffer = np.empty((min(rows, count), n), dtype=np.int32)
    for lo in range(0, count, rows):
        block = buffer[: count - lo]
        block[:] = base
        yield rng.permuted(block, axis=1, out=block)


def random_perm(d: int, rng: np.random.Generator) -> BiPerm:
    """Uniformly random grid permutation from the given generator."""
    return biperm_from_flat((rng.permutation(d * d) + 1).tolist(), d)


# --- text serialization -----------------------------------------------------
#
# line 1: "d=<d>"
# line 2: the flat one-line permutation, space-separated values in [d^2]


def format_flat(d: int, image: Iterable[int]) -> str:
    """The text form of a flat 1-based image of side d, taken as given."""
    return f"d={d}\n" + " ".join(map(str, image)) + "\n"


def format_biperm(perm: BiPerm) -> str:
    return format_flat(perm.d, biperm_to_flat(perm))


def _header_dimension(header: str) -> int:
    """The d of a 'd=<integer>' header line; ParseError when malformed."""
    header = header.strip()
    if not header.startswith("d="):
        raise ParseError("line 1: expected 'd=<integer>'")
    text = header[2:]
    try:
        d = plain_int(text)
    except ValueError:
        raise ParseError(f"line 1: malformed dimension {text!r}") from None
    if d < 1:
        raise ParseError(f"line 1: dimension must be positive, got {d}")
    return d


def parse_biperm(text: str | Iterable[str]) -> BiPerm:
    """Parse the two-line text form; raise ParseError with the position.

    `text` is the form itself or its lines, such as an open file, which is
    read no further than the second non-empty line.  A header d above
    MAX_DIMENSION raises PermupowerError before line 2 is read.
    """
    chunks = [text] if isinstance(text, str) else text
    # each chunk is split as the whole text would be: str.splitlines also
    # breaks at \f, \x1c and others, where a file's line iterator does not
    filled = (ln for chunk in chunks for ln in chunk.splitlines() if ln.strip() != "")
    header = next(filled, "")
    # the cap is checked before line 2 is read; other header errors are
    # reported only once line 2 is known to exist
    with contextlib.suppress(ParseError):
        check_dimension_cap(_header_dimension(header))
    body = next(filled, None)
    if body is None:
        raise ParseError(f"expected 2 non-empty lines, got {int(header != '')}")
    d = _header_dimension(header)
    image = read_int_line(body, d * d, "line 2")
    try:
        return biperm_from_flat(image, d)
    except PermupowerError as exc:
        raise ParseError(f"line 2, {exc}") from None
