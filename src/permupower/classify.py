"""Census of grid permutations by exact entangling power.

Exhaustive classification counts all d^2! permutations (budgeted to
d <= 3) from three weighted lexicographic strata.  Relabeling the output
symbols, k -> sigma(k) and l -> tau(l), changes neither Q_P nor Q_PS, which
test only equalities among k values and among l values.  These relabelings
carry the first two 0-based flat images (a, b) of a permutation to (0, t),
where t is 1 when a and b share k, d when they share l and d + 1 when they
share neither; the three classes hold d^2 (d-1), d^2 (d-1) and
d^2 (d-1)^2 pairs (a, b).  So the census is the sum over t of its class
size times the histogram of stratum t, the (d^2 - 2)! permutations that
start with (0, t).  Each stratum is a work unit that reads its checkpoint,
or counts and saves the stratum, and returns it weighted; so runs
parallelize, a finished stratum reaches disk in any order, and merged
results do not depend on worker count or scheduling.

Sampled classification draws at most SAMPLE_BUDGET uniform permutations
in fixed-size chunks, with the chunk c generator seeded from the pair
``[seed, c]``.  Seeds are limited to [0, 2**32): numpy splits a larger
seed into 32-bit words, so chunk c of seed s would replay chunk 0 of
seed s + c * 2**32.  Both modes
draw their blocks from the permutation source in `perm_core` and run their
units through one driver that merges exact integer histograms, so results
are byte-identical for any worker count.  A `ClassHistogram` holds the
classes and, for a sampled census, the seed; its total and mode follow
from them.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

from .errors import BudgetExceeded, PermupowerError
from .perm_core import check_power_dimension, lex_blocks, random_blocks
from .entangle import epsilon_denominator, epsilon_from_q, q_totals_batch

# d^2! enumeration is only reasonable up to 9! = 362880.
ENUMERATION_MAX_D = 3

SAMPLE_CHUNK = 50_000

# Largest sampled census accepted.  d = 2 is the fastest side: one worker
# draws and counts 2.6-3.4 x 10^6 permutations per second there
# (`classify_sampled(2, 10**6, 1)` takes 0.29-0.39 s on 2 vCPU), so 10^12
# samples keep one worker busy for 3.4-4.5 days, and any larger d longer.
SAMPLE_BUDGET = 10**12

# Sampled seeds lie in [0, SEED_BOUND), where every chunk stream is distinct.
SEED_BOUND = 1 << 32


def class_bound(d: int) -> int:
    """Upper bound 2 + (d^4 - d^2 - 8(d-1)^2)/2 on the number of classes."""
    check_power_dimension(d)
    return 2 + (d**4 - d**2 - 8 * (d - 1) ** 2) // 2


def e0_stats(d: int) -> tuple[int, Fraction]:
    """Count 2(d!)^2 of non-entangling permutations, and its fraction of d^2!."""
    check_power_dimension(d)
    count = 2 * math.factorial(d) ** 2
    return count, Fraction(count, math.factorial(d * d))


def exact_mean(d: int) -> Fraction:
    """Mean entangling power over all d^2! permutations.

    By linearity of expectation, a uniform permutation has E[Q_P] = E[Q_PS]
    = n + 2n (d-1)/(d+1) + d^4 (d-1)^4 / (n (n-1) (n-2) (n-3)) with
    n = d^2, and the power is linear in Q_P + Q_PS.
    """
    check_power_dimension(d)
    n = d * d
    e_q = (
        Fraction(n)
        + Fraction(2 * n * (d - 1), d + 1)
        + Fraction(d**4 * (d - 1) ** 4, n * (n - 1) * (n - 2) * (n - 3))
    )
    return (d**4 + n - 2 * e_q) / epsilon_denominator(d)


@dataclass(frozen=True)
class ClassHistogram:
    """Exact map from entangling power to permutation count: a sampled
    census when it has a seed, the exhaustive one when it has none."""

    d: int
    classes: tuple[tuple[Fraction, int], ...]  # sorted by increasing power
    seed: int | None = None

    def __post_init__(self):
        # as in a checkpoint, a count is an int and not a bool
        if any(type(c) is not int for _, c in self.classes):
            raise ValueError("class counts must be integers")
        if any(not isinstance(k, Fraction) for k, _ in self.classes):
            raise ValueError("class powers must be Fractions")
        seed = self.seed
        if seed is not None and (type(seed) is not int or not 0 <= seed < SEED_BOUND):
            raise ValueError("seed must be None or an integer in [0, 2**32)")
        keys = [k for k, _ in self.classes]
        if keys != sorted(keys):
            raise ValueError("classes must be sorted by power")
        if any(c < 1 for _, c in self.classes):
            raise ValueError("class counts must be positive")
        top = Fraction(self.d, self.d + 1)
        if any(not 0 <= k <= top for k in keys):
            raise ValueError("power outside [0, d/(d+1)]")
        if len(keys) > class_bound(self.d):
            raise ValueError("more classes than the theoretical bound")
        if self.mode == "exhaustive" and self.total != math.factorial(self.d**2):
            raise ValueError("exhaustive total must be d^2!")

    @property
    def mode(self) -> str:
        return "exhaustive" if self.seed is None else "sampled"

    @property
    def total(self) -> int:
        return sum(c for _, c in self.classes)

    def mean(self) -> Fraction | None:
        """Exact mean power over the census (None when empty)."""
        if self.total == 0:
            return None
        return sum((k * c for k, c in self.classes), Fraction(0)) / self.total

    def std_error(self) -> float | None:
        """Standard error of the mean power (None below 2 members).

        The sample variance sum (k - mean)^2 c / (total - 1) is summed
        exactly over the classes; only sqrt(variance / total) is a float.
        """
        if self.total < 2:
            return None
        mean = self.mean()
        var = sum(((k - mean) ** 2 * c for k, c in self.classes), Fraction(0))
        return math.sqrt(var / (self.total - 1) / self.total)

    def to_json(self) -> str:
        mean = self.mean()
        payload = {
            "d": self.d,
            "mode": self.mode,
            "total": self.total,
            "classes": [
                {"num": k.numerator, "den": k.denominator, "count": c}
                for k, c in self.classes
            ],
            "mean": None if mean is None else {"num": mean.numerator, "den": mean.denominator},
            "seed": self.seed,
        }
        return json.dumps(payload, indent=2)

    def to_csv(self) -> str:
        lines = ["epsilon_num,epsilon_den,epsilon_float,count"]
        for k, c in self.classes:
            lines.append(f"{k.numerator},{k.denominator},{float(k):.12g},{c}")
        return "\n".join(lines) + "\n"


def _histogram_from_q_counts(
    d: int, q_counts: dict[int, int], seed: int | None = None
) -> ClassHistogram:
    classes = sorted((epsilon_from_q(d, q_total, 0), c) for q_total, c in q_counts.items())
    return ClassHistogram(d=d, classes=tuple(classes), seed=seed)


# --- work units ---------------------------------------------------------------


def _q_histogram(blocks: Iterable[np.ndarray], d: int) -> Counter:
    """Q_P + Q_PS histogram over blocks of flat 0-based permutations."""
    import numpy as np

    counts: Counter = Counter()
    for flat in blocks:
        values, hits = np.unique(q_totals_batch(flat, d), return_counts=True)
        counts.update(dict(zip(values.tolist(), hits.tolist())))
    return counts


def _stratum_q_counts(d: int, stratum: int, directory: Path | None = None) -> Counter:
    """Q_P + Q_PS histogram of the (d^2 - 2)! permutations whose 0-based flat
    images start with (0, `stratum`), times the pairs relabeled onto them.

    With `directory`, the unweighted histogram is read from the stratum's
    checkpoint, or counted and saved there at once by this process.
    """
    path = None if directory is None else directory / f"census-d{d}-stratum-{stratum}.json"
    counts = None if path is None else _load_checkpoint(path, d, stratum)
    if counts is None:
        counts = _q_histogram(lex_blocks(d * d, (0, stratum)), d)
        if path is not None:
            _write_checkpoint(path, d, stratum, counts)
    weight = d * d * (d - 1) * (d - 1 if stratum == d + 1 else 1)
    return Counter({q: c * weight for q, c in counts.items()})


def _sample_chunk_q(d: int, seed: int, chunk_index: int, count: int) -> Counter:
    """Q_P + Q_PS histogram of `count` uniform permutations from chunk `chunk_index`."""
    import numpy as np

    rng = np.random.default_rng([seed, chunk_index])
    return _q_histogram(random_blocks(d * d, count, rng), d)


def _run_units(fn: Callable, units: Iterable[tuple], workers: int) -> Iterator:
    """Yield fn(*unit) for each unit in order, serially or in a process pool.

    Units are read a few per worker at a time, so neither this process nor
    the pool's queue ever holds a long sequence of them whole.
    """
    if workers < 1:
        raise PermupowerError(f"need at least 1 worker, got {workers}")
    units = iter(units)
    batch = list(itertools.islice(units, 4 * workers))
    if workers > 1 and len(batch) > 1:
        # numpy is imported before the pool forks, so that the children
        # share the parent's copy rather than each importing its own.
        import numpy
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(batch))) as pool:
            while batch:
                yield from pool.map(fn, *zip(*batch))
                batch = list(itertools.islice(units, 4 * workers))
    else:
        for unit in itertools.chain(batch, units):
            yield fn(*unit)


# --- exhaustive census ---------------------------------------------------------


def _load_checkpoint(path: Path, d: int, stratum: int) -> dict[int, int] | None:
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
        if payload.get("d") != d or payload.get("stratum") != stratum:
            return None
        counts = {int(key): cnt for key, cnt in payload["q_counts"].items()}
    except (ValueError, KeyError, AttributeError, TypeError):
        return None  # damaged checkpoint: recompute the stratum
    # each count is a positive JSON integer (not a float, string or bool),
    # and each Q_P + Q_PS total even and in [2d^2, d^4 + d^2], where the
    # power lies in [0, d/(d+1)]
    if any(
        type(c) is not int or c < 1 or q % 2 or not 2 * d * d <= q <= d**4 + d * d
        for q, c in counts.items()
    ):
        return None  # not a census of this d: recompute
    if sum(counts.values()) != math.factorial(d * d - 2):
        return None  # counts do not cover the stratum: recompute
    return counts


def _write_checkpoint(path: Path, d: int, stratum: int, counts: dict[int, int]) -> None:
    payload = {
        "d": d,
        "stratum": stratum,
        "q_counts": {str(key): cnt for key, cnt in sorted(counts.items())},
    }
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=2))
    os.replace(tmp, path)


def classify_exhaustive(
    d: int,
    workers: int = 1,
    force: bool = False,
    checkpoint_dir: str | Path | None = None,
) -> ClassHistogram:
    """Exact census over all d^2! permutations: the sum of the three
    weighted strata t = 1, d, d + 1, one per work unit.

    Needs 2 <= d <= 215, and `force` above ENUMERATION_MAX_D.  With
    `checkpoint_dir`, the process that counts a stratum saves its
    unweighted histogram (`census-d{d}-stratum-{t}.json`) as soon as it
    completes, in any order, so a failing stratum discards none that
    finished, and a rerun computes only the strata not already on disk.
    """
    check_power_dimension(d)
    if d > ENUMERATION_MAX_D and not force:
        raise BudgetExceeded(
            f"exhaustive census at d = {d} means 3 x {d * d - 2}! evaluations; "
            "pass force to override"
        )
    directory = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
    strata = ((d, t, directory) for t in (1, d, d + 1))
    merged: Counter = Counter()
    for counts in _run_units(_stratum_q_counts, strata, workers):
        merged.update(counts)
    return _histogram_from_q_counts(d, merged)


# --- sampled census -----------------------------------------------------------


def classify_sampled(
    d: int,
    samples: int,
    seed: int,
    workers: int = 1,
) -> ClassHistogram:
    """Census of `samples` uniform random permutations, 2 <= samples <=
    SAMPLE_BUDGET.

    The observed class list is a lower bound on the true class count.
    Accumulation is exact (integer rectangle totals), so the histogram,
    and the mean and standard error read off it, are reproducible
    bit-for-bit for a given seed, independent of worker count.
    """
    check_power_dimension(d)
    if samples < 2:
        raise PermupowerError("need at least 2 samples")
    if samples > SAMPLE_BUDGET:
        raise BudgetExceeded(f"{samples} samples exceed the budget of {SAMPLE_BUDGET}")
    if not 0 <= seed < SEED_BOUND:
        raise PermupowerError(f"seed {seed} outside [0, 2**32)")
    chunks = (
        (d, seed, index, min(SAMPLE_CHUNK, samples - start))
        for index, start in enumerate(range(0, samples, SAMPLE_CHUNK))
    )
    merged: Counter = Counter()
    for counts in _run_units(_sample_chunk_q, chunks, workers):
        merged.update(counts)
    return _histogram_from_q_counts(d, merged, seed=seed)
