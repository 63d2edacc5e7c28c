"""Command line interface.

Subcommands: power, classify, mols, verify, sample.  JSON is the canonical
output format; identical invocations (including seed) produce byte-identical
JSON regardless of worker count.

Exit codes:
  0  success
  1  any other invalid request, e.g. `classify --samples` below 2, d = 1
     where the entangling power is undefined (every command that reports
     a power, with one message), or a `--d` or builtin dimension above the
     cap of 215 (checked first)
  2  unparsable input: a malformed, unreadable or non-UTF-8 file, an
     unknown builtin, or a bad argument (`classify`, `mols` or `sample`
     without `--d`; `--seed` outside [0, 2^32);
     `--d`, `--workers`, `--count` or `verify --samples` below 1; an
     integer argument that is not plain decimal, e.g. `--d +4`; a
     `power --d` other than the permutation's d; a flag the command does
     not take, such as `--format` outside `power` and `classify`, `--seed`
     or `--workers` on `mols`, `--workers` on `sample`, `--out` on
     `verify`, or `classify --samples` with `--checkpoint-dir` or
     `--force`; a `--format` it does not write; a file that `power`,
     `classify` or `mols` would write that is a directory or lies in a
     directory that does not exist, checked before any count is made.  A
     directory the user may not write to is still found only at the
     write, also with exit 2: root may write anywhere, so no test could
     see an up-front check fail)
  3  unsupported Latin square order, or a `mols --table` pair whose side
     is not `--d` or whose squares are not orthogonal
  4  budget exceeded: the exhaustive enumeration budget (`classify --force`
     overrides it), the sampled census budget of 10^12 samples (nothing
     overrides it), the dense oracle's cap of d <= 12 on the two dense
     `verify` targets, or a `verify tables` side with no reference census
  5  verification failure
Every error exit prints one `error:` line to stderr; `verify` checks every
side before its first line.

Some flags are taken but not read: `power --seed/--workers`, `classify
--exhaustive --seed`, and each of `verify --seed/--workers/--samples` that
the target does not use (`theorem4` and `theorem7` use none, `tables` only
`--workers`, the other two `--seed` and `--samples`).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from fractions import Fraction
from pathlib import Path

from . import golden
from .catalog import BUILTIN_NAMES, builtin_perm
from .classify import (
    SEED_BOUND,
    class_bound,
    classify_exhaustive,
    classify_sampled,
    exact_mean,
)
from .entangle import entangling_power
from .errors import (
    BudgetExceeded,
    NotOrthogonal,
    ParseError,
    PermupowerError,
    UnsupportedOrder,
)
from .latin import construct_mols, format_pair, is_latin, parse_pair_file, superimpose
from .oracle import COMPARISON_TOL, check_oracle_dimension, mc_power, oracle_power, unitary_of
from .perm_core import (
    check_dimension_cap, check_power_dimension, format_biperm, format_flat, parse_biperm,
    plain_int, random_blocks, random_perm,
)

# Fixed default seed: bare invocations are reproducible by construction.
DEFAULT_SEED = 42

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VERIFY = 5

# Exit code per error type.  The first match wins, so PermupowerError, the
# base of the other package errors, comes last.
_EXIT_CODES = (
    ((ParseError, OSError), EXIT_PARSE),
    ((UnsupportedOrder, NotOrthogonal), 3),
    (BudgetExceeded, 4),
    (PermupowerError, 1),
)


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports a bad argument as one line and exit 2."""

    def error(self, message: str):
        self.exit(EXIT_PARSE, f"error: {message}\n")


def _int_at_least(low: int | None, below: int | None = None):
    """argparse type: a plain decimal integer, at least `low` and below `below` if set."""

    def parse(text: str) -> int:
        try:
            value = plain_int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(f"must be below {below}, got {value}")
        return value

    return parse


# The flags several subcommands share; each subcommand registers the ones it reads.
_COMMON = {
    "d": dict(type=_int_at_least(1), default=None, help="local dimension"),
    "seed": dict(
        type=_int_at_least(0, SEED_BOUND), default=DEFAULT_SEED,
        help=f"base seed for random draws, in [0, 2^32) (default {DEFAULT_SEED})",
    ),
    "workers": dict(
        type=_int_at_least(1), default=1, help="parallel worker processes (default 1)",
    ),
    "out": dict(type=Path, default=None, help="output file"),
}


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name}", **_COMMON[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="permupower",
        description="Exact entangling power of bipartite permutation operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_power = sub.add_parser("power", help="entangling power of one permutation")
    p_power.set_defaults(run=cmd_power)
    src = p_power.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", help="named permutation: " + ", ".join(BUILTIN_NAMES))
    src.add_argument("--file", type=Path, help="permutation file (text form)")
    p_power.add_argument(
        "--format", choices=POWER_FORMATS, default="json",
        help="output format (json is canonical)",
    )
    _add_common(p_power, "d", "seed", "workers", "out")

    p_cls = sub.add_parser("classify", help="census of permutations by power")
    p_cls.set_defaults(run=cmd_classify)
    mode = p_cls.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true", help="all d^2! permutations")
    mode.add_argument(
        "--samples", type=_int_at_least(None), help="number of random permutations"
    )
    p_cls.add_argument(
        "--checkpoint-dir", type=Path, default=None,
        help="persist the histogram of each of the three strata and resume from them",
    )
    p_cls.add_argument(
        "--force", action="store_true", help="override the exhaustive enumeration budget"
    )
    p_cls.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="output format (json is canonical)",
    )
    p_cls.add_argument("--d", **_COMMON["d"], required=True)
    _add_common(p_cls, "seed", "workers", "out")

    p_mols = sub.add_parser("mols", help="construct an orthogonal Latin pair")
    p_mols.set_defaults(run=cmd_mols)
    p_mols.add_argument(
        "--table", type=Path, default=None,
        help="load the pair from a file instead of constructing (validated)",
    )
    p_mols.add_argument("--d", **_COMMON["d"], required=True)
    _add_common(p_mols, "out")

    p_ver = sub.add_parser("verify", help="run a named cross-check suite")
    p_ver.set_defaults(run=cmd_verify)
    p_ver.add_argument("target", choices=VERIFY_TARGETS)
    p_ver.add_argument(
        "--samples", type=_int_at_least(1), default=None,
        help="sample count for the statistical targets",
    )
    _add_common(p_ver, "d", "seed", "workers")

    p_sample = sub.add_parser("sample", help="draw uniform random permutations")
    p_sample.set_defaults(run=cmd_sample)
    p_sample.add_argument(
        "--count", type=_int_at_least(1), default=1, help="how many to draw"
    )
    p_sample.add_argument("--d", **_COMMON["d"], required=True)
    _add_common(p_sample, "seed", "out")

    return parser


def _check_out(path: Path) -> Path:
    """`path`, once it is known to be no directory and to lie in one."""
    if path.is_dir():
        raise ParseError(f"{path} is a directory")
    if not path.parent.is_dir():
        raise ParseError(f"{path}: no directory {path.parent}")
    return path


def _output(out: Path | None):
    """The stream a command writes to: the file `out`, or else stdout."""
    return contextlib.nullcontext(sys.stdout) if out is None else out.open("w")


@contextlib.contextmanager
def _utf8(path: Path):
    """Report a decoding error while reading `path` as a ParseError naming it."""
    try:
        yield
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not valid UTF-8 text") from None


# --- power --------------------------------------------------------------------


def _power_text(report) -> str:
    eps = report.epsilon
    return (
        f"d        {report.d}\n"
        f"q_p      {report.q_p}\n"
        f"q_ps     {report.q_ps}\n"
        f"epsilon  {eps.numerator}/{eps.denominator} = {float(eps):.12g}\n"
    )


def _power_csv(report) -> str:
    eps = report.epsilon
    return (
        "d,q_p,q_ps,epsilon_num,epsilon_den,epsilon_float\n"
        f"{report.d},{report.q_p},{report.q_ps},"
        f"{eps.numerator},{eps.denominator},{float(eps):.12g}\n"
    )


# `power --format`: name -> the report in that format
POWER_FORMATS = {
    "json": lambda report: report.to_json() + "\n",
    "csv": _power_csv,
    "text": _power_text,
}


def cmd_power(args: argparse.Namespace) -> int:
    if args.builtin is not None:
        perm = builtin_perm(args.builtin, args.d)
    else:
        with _utf8(args.file), args.file.open() as lines:
            perm = parse_biperm(lines)
    if args.d is not None and args.d != perm.d:
        raise ParseError(f"--d {args.d} contradicts the permutation's dimension {perm.d}")
    if args.out is not None:
        _check_out(args.out)  # before the count, which takes seconds at the cap
    report = entangling_power(perm)
    with _output(args.out) as stream:
        stream.write(POWER_FORMATS[args.format](report))
    return EXIT_OK


# --- classify -------------------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> int:
    d = args.d
    if args.checkpoint_dir is not None and not args.exhaustive:
        raise ParseError("--checkpoint-dir applies to exhaustive runs only")
    if args.force and not args.exhaustive:
        raise ParseError("--force applies to exhaustive runs only")
    mode = "exhaustive" if args.exhaustive else "sampled"
    # before the census, which may run for hours
    out = _check_out(args.out or Path(f"classify-d{d}-{mode}.{args.format}"))
    if args.exhaustive:
        hist = classify_exhaustive(
            d, workers=args.workers, force=args.force,
            checkpoint_dir=args.checkpoint_dir,
        )
    else:
        hist = classify_sampled(d, args.samples, args.seed, workers=args.workers)

    payload = hist.to_csv() if args.format == "csv" else hist.to_json() + "\n"
    out.write_text(payload)

    mean = hist.mean()
    print(f"classes   {len(hist.classes)} (bound {class_bound(d)})")
    print(f"total     {hist.total}")
    print(f"mean      {mean} = {float(mean):.6f}")
    if hist.mode == "sampled":
        se = hist.std_error()
        print(f"sampled   mean {float(mean):.6f} +- {se:.2g} (seed {hist.seed})")
        exact = exact_mean(d)
        z = f"{float(mean - exact) / se:+.2f}" if se > 0 else "undefined (SE 0)"
        print(f"exact     mean {exact} = {float(exact):.6f}, z = {z}")
    print(f"written   {out}")
    return EXIT_OK


# --- mols ----------------------------------------------------------------------


def cmd_mols(args: argparse.Namespace) -> int:
    d = args.d
    check_power_dimension(d)  # before the pair is built or read
    out = _check_out(args.out or Path(f"mols-d{d}.txt"))
    perm_path = _check_out(Path(f"{out}.perm"))
    if args.table is None:
        pair = construct_mols(d)
    else:
        with _utf8(args.table):
            pair = parse_pair_file(args.table.read_text())
        if len(pair[0]) != d:
            raise UnsupportedOrder(f"pair file has side {len(pair[0])}, requested {d}")
    perm = superimpose(pair)
    report = entangling_power(perm)
    out.write_text(format_pair(pair))
    perm_path.write_text(format_biperm(perm))
    print(f"pair      {out}")
    print(f"perm      {perm_path}")
    print(f"epsilon   {report.epsilon} (maximum d/(d+1) = {Fraction(d, d + 1)})")
    return EXIT_OK


# --- sample --------------------------------------------------------------------


def cmd_sample(args: argparse.Namespace) -> int:
    d = args.d
    # row r of random_blocks is the r-th rng.permutation draw, so this writes
    # format_biperm(random_perm(d, rng)) for each draw, as it is drawn
    import numpy as np

    rng = np.random.default_rng(args.seed)
    sep = ""
    with _output(args.out) as stream:
        for block in random_blocks(d * d, args.count, rng):
            block += 1
            for row in block:
                stream.write(sep + format_flat(d, row.tolist()))
                sep = "\n"
    return EXIT_OK


# --- verify --------------------------------------------------------------------


class _VerifyFailure(Exception):
    pass


def _check(label: str, ok: bool, expected, actual) -> None:
    status = "pass" if ok else "FAIL"
    print(f"[{status}] {label}: expected {expected}, got {actual}")
    if not ok:
        raise _VerifyFailure(label)


def _verify_formula_vs_oracle(args: argparse.Namespace, d: int) -> None:
    import numpy as np

    samples = args.samples or 100
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(samples):
        perm = random_perm(d, rng)
        exact = float(entangling_power(perm).epsilon)
        dense = oracle_power(unitary_of(perm))
        worst = max(worst, abs(exact - dense))
    _check(
        f"formula vs oracle, {samples} random permutations at d={d}",
        worst <= COMPARISON_TOL, f"max |diff| <= {COMPARISON_TOL}", f"max |diff| = {worst:.2e}",
    )


def _mc_within(perm, label: str, samples: int, seed: int) -> None:
    exact = float(entangling_power(perm).epsilon)
    # statistical check: one reseeded retry tolerated before failing
    for s in (seed, seed + 1):
        mean, se = mc_power(unitary_of(perm), samples, s)
        dev = abs(mean - exact) / se if se > 0 else 0.0
        if dev <= 5.0 or mean == exact:
            _check(f"monte carlo vs formula, {label}", True,
                   f"within 5 SE of {exact:.6f}", f"{dev:.2f} SE")
            return
    _check(f"monte carlo vs formula, {label}", False,
           f"within 5 SE of {exact:.6f}", f"{dev:.2f} SE after retry")


def _verify_mc_vs_formula(args: argparse.Namespace, d: int) -> None:
    import numpy as np

    samples = args.samples or 100_000
    _mc_within(builtin_perm("cnot"), "cnot", samples, args.seed)
    _mc_within(builtin_perm("r9"), "r9", samples, args.seed + 101)
    rng = np.random.default_rng(args.seed)
    for idx in range(3):
        perm = random_perm(d, rng)
        _mc_within(perm, f"random d={d} #{idx}", samples, args.seed + 200 + idx)


def _verify_theorem4(args: argparse.Namespace, d: int) -> None:
    perm = superimpose(construct_mols(d))
    ok = is_latin(perm.k) and is_latin(perm.l)
    _check(f"d={d} constructed pair is orthogonal Latin", ok, True, ok)
    report = entangling_power(perm)
    _check(
        f"d={d} superimposed power",
        report.epsilon == Fraction(d, d + 1),
        f"{d}/{d + 1}", str(report.epsilon),
    )


def _verify_theorem7(args: argparse.Namespace, d: int) -> None:
    report = entangling_power(builtin_perm(f"min:{d}"))
    expected = Fraction(8 * (d - 1), d * (d + 1) ** 2)
    _check(
        f"d={d} minimal nonzero power",
        report.epsilon == expected, str(expected), str(report.epsilon),
    )


def _check_reference_census(d: int) -> None:
    check_power_dimension(d)
    if d not in golden.EXPECTED_CENSUS:
        known = ", ".join(map(str, golden.EXPECTED_CENSUS))
        raise BudgetExceeded(f"reference census only available for d = {known}")


def _verify_tables(args: argparse.Namespace, d: int) -> None:
    known = golden.EXPECTED_CENSUS[d]
    hist = classify_exhaustive(d, workers=args.workers)
    _check(
        f"d={d} census classes",
        dict(hist.classes) == known,
        f"{len(known)} known classes", f"{len(hist.classes)} classes",
    )
    mean, exact = hist.mean(), exact_mean(d)
    _check(f"d={d} census mean", mean == exact, str(exact), str(mean))


# `verify` target name -> (the checks at one side d, the sides checked
# without --d, the check each side must pass before any output; each
# side check applies the d >= 2 rule first)
VERIFY_TARGETS = {
    "formula-vs-oracle": (_verify_formula_vs_oracle, (3,), check_oracle_dimension),
    "mc-vs-formula": (_verify_mc_vs_formula, (3,), check_oracle_dimension),
    "theorem4": (_verify_theorem4, (3, 4, 5, 7, 8, 9, 11, 12), check_power_dimension),
    "theorem7": (_verify_theorem7, tuple(range(2, 9)), check_power_dimension),
    "tables": (_verify_tables, tuple(golden.EXPECTED_CENSUS), _check_reference_census),
}


def cmd_verify(args: argparse.Namespace) -> int:
    run_side, sides, check_side = VERIFY_TARGETS[args.target]
    sides = sides if args.d is None else (args.d,)
    for d in sides:  # every side is checked before the first line is printed
        check_side(d)
    try:
        for d in sides:
            run_side(args, d)
    except _VerifyFailure:
        return EXIT_VERIFY
    print("all checks passed")
    return EXIT_OK


# --- entry point ----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.d is not None:  # every subcommand takes --d
            check_dimension_cap(args.d)
        return args.run(args)
    except (PermupowerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
