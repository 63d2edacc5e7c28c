"""Workload definitions: the CLI calls each workload makes and the checks on their outputs.

A workload is a list of `Call`s, each one `permupower` command line as a
user types it.  Every call passes `--workers` and `--seed` explicitly.  The
inputs that are random (the d=215 permutation file, the sampled-census
seeds and the verify seeds) are derived from the benchmark's workload seed.

The output checks do not depend on the seed: they compare against exact
values (the d=3 census table, closed forms for the extremal permutations,
the exact mean of a uniform permutation) or against identities that hold
for every input (eps(P) = eps(P^-1)).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKERS = 2
POWER_D = 215  # today's dimension cap for `power`
ORACLE_D = 12
ORACLE_SAMPLES = 200
MC_SAMPLES = 200_000
MC_PERMS = 5  # cnot, r9 and three random permutations
# d -> samples: 10 and 2 chunks of the sampler.  Half the d=4 census a user
# might run at 10^6, so that three passes of every workload fit the run budget.
SAMPLED = {4: 500_000, 8: 100_000}
Z_BAND = 5.0

# d=3 census: 15 classes over 9! permutations, mean 31/56.
PERMS_D3 = math.factorial(9)
CENSUS_D3 = {
    Fraction(0): 72, Fraction(1, 3): 2592, Fraction(3, 8): 864,
    Fraction(5, 12): 1296, Fraction(11, 24): 10368, Fraction(23, 48): 20736,
    Fraction(1, 2): 27432, Fraction(25, 48): 36288, Fraction(13, 24): 44064,
    Fraction(9, 16): 101376, Fraction(7, 12): 44712, Fraction(29, 48): 46656,
    Fraction(5, 8): 22464, Fraction(2, 3): 3888, Fraction(3, 4): 72,
}
MEAN_D3 = Fraction(31, 56)


class CheckFailed(Exception):
    """An output that contradicts an exact value or identity."""


@dataclass(frozen=True)
class Call:
    """One CLI invocation.

    item: the group it is reported under; out: the file `classify` writes,
    else None (stdout); check: validates (stdout, out-file bytes) and
    raises CheckFailed.
    """

    item: str
    label: str
    args: tuple[str, ...]
    check: Callable[[str, bytes | None], None]
    out: Path | None = None


@dataclass
class Result:
    """Outcome of one call: times, resource use, outputs and the first error."""

    label: str
    wall_s: float
    stdout: str
    data: bytes | None
    error: str | None = None
    rss_mb: float = 0.0


def check_result(call: Call, result: Result, code: int, stderr: str = "") -> Result:
    """Record a nonzero exit or a failed output check as the result's error."""
    if code != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        result.error = f"exit {code}: {last[0][:300]}"
        return result
    try:
        call.check(result.stdout, result.data)
    except (CheckFailed, ValueError, KeyError, TypeError) as exc:
        result.error = f"check failed: {exc}"
    return result


def compare_result(compare: Callable, result: Result, reference: Result) -> Result:
    """Apply an untimed comparison (see Workload) unless the call already failed."""
    if result.error is None:
        try:
            compare(result, reference)
        except CheckFailed as exc:
            result.error = f"check failed: {exc}"
    return result


@dataclass(frozen=True)
class Workload:
    """Timed calls, plus untimed calls made once after the timed passes.

    Each untimed entry is (call, label of a timed call, compare), where
    compare(result, reference) checks the untimed result against that
    timed call's result and raises CheckFailed.
    """

    name: str
    calls: tuple[Call, ...]
    extra: tuple[tuple[Call, str, Callable], ...]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def exact_mean(d: int) -> Fraction:
    """Mean entangling power over all d^2! permutations (linearity of expectation)."""
    n = d * d
    e_q = (
        Fraction(n)
        + Fraction(2 * n * (d - 1), d + 1)
        + Fraction(d**4 * (d - 1) ** 4, n * (n - 1) * (n - 2) * (n - 3))
    )
    return (d**4 + n - 2 * e_q) / (d * (d - 1) * (d + 1) ** 2)


def _census_classes(payload: dict, d: int) -> dict[Fraction, int]:
    _require(payload.get("d") == d, f"d is {payload.get('d')}, expected {d}")
    classes = {Fraction(c["num"], c["den"]): c["count"] for c in payload["classes"]}
    _require(sum(classes.values()) == payload["total"], "class counts do not sum to total")
    mean = payload["mean"]
    _require(
        Fraction(mean["num"], mean["den"])
        == sum(k * c for k, c in classes.items()) / payload["total"],
        "reported mean differs from the histogram's mean",
    )
    return classes


def check_exhaustive_d3(_: str, data: bytes | None) -> None:
    classes = _census_classes(json.loads(data), 3)
    _require(classes == CENSUS_D3, "d=3 census differs from the 15-class table")
    _require(
        sum(k * c for k, c in classes.items()) / PERMS_D3 == MEAN_D3,
        "d=3 census mean is not 31/56",
    )


def check_sampled(d: int, samples: int) -> Callable[[str, bytes | None], None]:
    denom = d * (d - 1) * (d + 1) ** 2
    top = Fraction(d, d + 1)
    exact = exact_mean(d)

    def check(_: str, data: bytes | None) -> None:
        classes = _census_classes(json.loads(data), d)
        _require(sum(classes.values()) == samples, f"total is not {samples}")
        for k in classes:
            _require(0 <= k <= top, f"class {k} outside [0, {top}]")
            _require(denom % k.denominator == 0, f"class {k} not a multiple of 1/{denom}")
        mean = sum(float(k) * c for k, c in classes.items()) / samples
        var = sum(c * (float(k) - mean) ** 2 for k, c in classes.items()) / (samples - 1)
        z = abs(mean - float(exact)) / math.sqrt(var / samples)
        _require(z <= Z_BAND, f"d={d} sampled mean {mean:.6f} is {z:.1f} SE from {exact}")

    return check


def _power_report(stdout: str, d: int) -> tuple[int, int, Fraction]:
    payload = json.loads(stdout)
    q_p, q_ps = payload["q_p"], payload["q_ps"]
    eps = Fraction(payload["epsilon"]["num"], payload["epsilon"]["den"])
    _require(payload["d"] == d, f"d is {payload['d']}, expected {d}")
    for q in (q_p, q_ps):
        _require(d * d <= q <= d**4 and q % 2 == d % 2, f"Q = {q} impossible at d={d}")
    _require(
        eps == Fraction(d**4 + d * d - q_p - q_ps, d * (d - 1) * (d + 1) ** 2),
        "epsilon does not follow from Q_P, Q_PS",
    )
    return q_p, q_ps, eps


def check_power(d: int, q: tuple[int, int] | None, eps: Fraction | None):
    def check(stdout: str, _: bytes | None) -> None:
        q_p, q_ps, got = _power_report(stdout, d)
        if q is not None:
            _require((q_p, q_ps) == q, f"(Q_P, Q_PS) = {(q_p, q_ps)}, expected {q}")
        if eps is not None:
            _require(got == eps, f"epsilon {got}, expected {eps}")

    return check


def check_verify(stdout: str, _: bytes | None) -> None:
    _require("[FAIL]" not in stdout, "a verify check failed")
    _require("all checks passed" in stdout, "verify did not report 'all checks passed'")


def same_bytes(result, reference) -> None:
    _require(result.data == reference.data,
             "histogram JSON differs between --workers 1 and --workers 2")


def same_epsilon(result, reference) -> None:
    eps = _power_report(result.stdout, POWER_D)[2]
    ref = _power_report(reference.stdout, POWER_D)[2]
    _require(eps == ref, f"eps(P^-1) = {eps} differs from eps(P) = {ref}")


def _perm_text(image: list[int], d: int) -> str:
    return f"d={d}\n" + " ".join(map(str, image)) + "\n"


def build(name: str, seed: int, work: Path, workers: int = WORKERS) -> Workload:
    """The workload `name` for workload seed `seed`; inputs are written under `work`."""
    rng = random.Random(seed)
    s = [str(rng.randrange(2**31)) for _ in range(4)]
    w = str(workers)
    if name == "census":
        items = [("exhaustive_d3", ("--d", "3", "--exhaustive"), check_exhaustive_d3, s[0])]
        for (d, n), seed_arg in zip(SAMPLED.items(), s[1:]):
            items.append((f"sampled_d{d}", ("--d", str(d), "--samples", str(n)),
                          check_sampled(d, n), seed_arg))

        def classify(item, args, check, seed_arg, workers_arg):
            out = work / f"{item}-w{workers_arg}.json"
            argv = ("classify", *args, "--workers", workers_arg, "--seed", seed_arg,
                    "--out", str(out))
            return Call(item, f"{item}-w{workers_arg}", argv, check, out)

        calls = tuple(classify(*it, w) for it in items)
        # Worker-count invariance on the census that is cheap at one worker;
        # the traced run compares all three.
        extra = ((classify(*items[0], "1"), calls[0].label, same_bytes),)
        return Workload(name, calls, extra)

    if name == "power-large":
        d = POWER_D
        image = list(range(1, d * d + 1))
        rng.shuffle(image)
        inverse = [0] * (d * d)
        for pos, v in enumerate(image, start=1):
            inverse[v - 1] = pos
        (work / "random.txt").write_text(_perm_text(image, d))
        (work / "random-inverse.txt").write_text(_perm_text(inverse, d))
        min_eps = Fraction(8 * (d - 1), d * (d + 1) ** 2)

        def power(item, label, source, check):
            argv = ("power", *source, "--d", str(d), "--workers", w, "--seed", s[0])
            return Call(item, label, argv, check)

        calls = (
            power("structured", "identity", ("--builtin", "identity"),
                  check_power(d, (d**4, d**2), Fraction(0))),
            power("structured", "swap", ("--builtin", "swap"),
                  check_power(d, (d**2, d**4), Fraction(0))),
            power("structured", "min", ("--builtin", f"min:{d}"), check_power(d, None, min_eps)),
            power("unstructured", "mols", ("--builtin", f"mols:{d}"),
                  check_power(d, None, Fraction(d, d + 1))),
            power("unstructured", "random", ("--file", str(work / "random.txt")),
                  check_power(d, None, None)),
        )
        extra = ((power("unstructured", "random-inverse",
                        ("--file", str(work / "random-inverse.txt")), check_power(d, None, None)),
                  "random", same_epsilon),)
        return Workload(name, calls, extra)

    if name == "crosscheck":
        def verify(item, target, args, seed_arg):
            argv = ("verify", target, *args, "--workers", w, "--seed", seed_arg)
            return Call(item, target, argv, check_verify)

        calls = (
            verify("oracle", "formula-vs-oracle",
                   ("--d", str(ORACLE_D), "--samples", str(ORACLE_SAMPLES)), s[1]),
            verify("mc", "mc-vs-formula", ("--samples", str(MC_SAMPLES)), s[2]),
            verify("theorems", "theorem4", (), s[3]),
            verify("theorems", "theorem7", (), s[3]),
        )
        return Workload(name, calls, ())

    raise KeyError(name)


NAMES = ("census", "power-large", "crosscheck")
