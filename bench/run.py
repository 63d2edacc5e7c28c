"""permupower benchmark: census, large-d power and cross-check workloads.

Run from the root of a source checkout (the package is imported from
./src, nothing needs installing):

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for the exact command lines):

    census       classify --d 3 --exhaustive; --d 4 --samples 500000;
                 --d 8 --samples 100000
    power-large  power at d=215 on identity, swap, min:215 (structured)
                 and mols:215, a seeded random file (unstructured)
    crosscheck   verify formula-vs-oracle --d 12 --samples 200;
                 mc-vs-formula --samples 200000; theorem4; theorem7

With --trace 0, one closed-loop client runs the workload's CLI calls one
after another, each in a fresh interpreter with --workers 2, in passes
until --seconds have elapsed (at least three passes).  Before each call
the client times a reference call (time_reference): a fresh interpreter
that imports numpy and runs a fixed pure-Python loop.
pass_ref is the median over passes of a pass's wall time divided by the
mean reference time of that pass: the pass's time in units of the
reference call.  The speed a shared host gives a process drifts by 1.5x
over tens of seconds, which moves a pass's wall time and the reference
alike, so the ratio is steady where the wall time is not; the reference
shares no code with permupower, so a change to the program moves the
ratio as it moves the wall time.  The raw pass wall time (pass_s) is
printed with the workload's other figures.  peak_rss_mb is the largest
peak RSS of any call, taken from wait4() on its process, so that pool
children are included.
Before each pass three fresh imports of permupower.cli are timed, and
setup_s is the median over passes of their mean.

With --trace 1, the CLI runs in this process with spans around the calls
into each module (tracing.py), and every workload runs so that every
per-layer metric is present.

Every output is checked against exact values; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  Exit code 2
means the checkout has no permupower sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
MIN_PASSES = 3
SETUP_PER_PASS = 3
# The reference call: interpreter start and numpy import, as in every CLI
# call, then integer arithmetic, list reads and dict counting, as in q_of.
# 0.25-0.4 s on a 2-vCPU Xeon.
REFERENCE = """
import numpy
cells = list(range(211))
counts = {}
total = 0
for r in range(2500):
    for m in cells:
        if m & 3:
            key = (m * 7 + r) % 97
            counts[key] = counts.get(key, 0) + 1
    total += sum(c * c for c in counts.values())
"""


def pinned_env(work: Path) -> dict[str, str]:
    """Environment for every CLI process: sources from ./src, no inherited worker
    count, BLAS threads x pool workers <= nproc, temporary files in the checkout."""
    env = {k: v for k, v in os.environ.items() if k != "PERMUPOWER_THREADS"}
    blas = str(max(1, (os.cpu_count() or 1) // workloads.WORKERS))
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS=blas,
        OMP_NUM_THREADS=blas,
        MKL_NUM_THREADS=blas,
        TMPDIR=str(work),
    )
    return env


def run_cli(call: workloads.Call, env: dict[str, str], work: Path) -> workloads.Result:
    """Run one call in a fresh interpreter; wait4() gives its peak RSS,
    which covers the pool children it reaped."""
    with open(work / "stdout", "w+b") as out, open(work / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "permupower.cli", *call.args],
            stdout=out, stderr=err, env=env, cwd=work,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode()
        stderr = err.read().decode()
    data = call.out.read_bytes() if call.out is not None and call.out.exists() else None
    result = workloads.Result(call.label, wall, stdout, data, rss_mb=usage.ru_maxrss / 1024)
    return workloads.check_result(call, result, code, stderr)


def time_setup(env: dict[str, str], work: Path) -> float:
    """Wall time for a fresh interpreter to import permupower.cli, the set-up
    cost every invocation pays."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import permupower.cli"],
                   env=env, cwd=work, check=True)
    return time.perf_counter() - start


def time_reference(env: dict[str, str], work: Path) -> float:
    """Wall time of the reference call, the unit of pass_ref: a fresh
    interpreter, started like a CLI call, that imports numpy and runs a
    fixed pure-Python loop.  It runs no permupower code; what moves it is
    how fast the host starts and runs a process at that moment."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE], env=env, cwd=work, check=True)
    return time.perf_counter() - start


def environment(env: dict[str, str], work: Path) -> dict:
    """nproc, Python, numpy, BLAS and commit, recorded with every result."""
    probe = (
        "import json, numpy\n"
        "try:\n"
        "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "    blas = f\"{blas['name']} {blas['version']}\"\n"
        "except Exception:\n"
        "    blas = 'unknown'\n"
        "print(json.dumps({'numpy': numpy.__version__, 'blas': blas}))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=work,
                         capture_output=True, text=True, check=True).stdout
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **json.loads(out),
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "workers": workloads.WORKERS,
        "commit": commit,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def user_metrics(name: str, walls: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
    """The workload's own figures, by name and unit, from per-item wall times."""
    med = {item: statistics.median(v) for item, v in walls.items()}
    if name == "census":
        return {
            "exhaustive_d3_perms_per_s": (workloads.PERMS_D3 / med["exhaustive_d3"], "perms/s"),
            **{f"sampled_d{d}_perms_per_s": (n / med[f"sampled_d{d}"], "perms/s")
               for d, n in workloads.SAMPLED.items()},
        }
    if name == "power-large":
        return {"power_structured_s": (med["structured"], "s/call"),
                "power_unstructured_s": (med["unstructured"], "s/call")}
    return {
        "oracle_perms_per_s": (workloads.ORACLE_SAMPLES / med["oracle"], "perms/s"),
        "mc_samples_per_s": (workloads.MC_PERMS * workloads.MC_SAMPLES / med["mc"],
                             "samples/s"),
    }


def run_untraced(name: str, seed: int, seconds: float, work: Path,
                 env: dict[str, str]) -> tuple[dict, int, int]:
    load = workloads.build(name, seed, work)
    time_setup(env, work)  # fills the bytecode cache

    # Before every pass, set-up is timed as the mean of a few imports.  One
    # import is short enough to fall wholly into a fast or a slow phase of a
    # shared host, which makes single imports bimodal and their median
    # jumpy; a batch mean averages over phases, and the median over passes
    # spans the whole run.
    setups: list[float] = []
    passes: list[list[workloads.Result]] = []
    refs: list[list[float]] = []  # reference call times, one before each call
    time_reference(env, work)  # warm-up
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        setups.append(statistics.fmean(time_setup(env, work) for _ in range(SETUP_PER_PASS)))
        done, ref_times = [], []
        for call in load.calls:
            ref_times.append(time_reference(env, work))
            done.append(run_cli(call, env, work))
        passes.append(done)
        refs.append(ref_times)
    timed = [r for p in passes for r in p]
    first = {}
    for r in timed:  # the same command line must write the same histogram every pass
        ref = first.setdefault(r.label, r)
        if r.error is None and ref.error is None and r.data != ref.data:
            r.error = "check failed: histogram JSON differs between passes"
    results = list(timed)
    for call, ref_label, compare in load.extra:
        ref = next(r for r in timed if r.label == ref_label)
        results.append(workloads.compare_result(compare, run_cli(call, env, work), ref))

    failed = [r for r in results if r.error is not None]
    for r in failed:
        print(f"FAILED {r.label}: {r.error}")

    walls: dict[str, list[float]] = {}
    for call, r in zip(load.calls * len(passes), timed):
        walls.setdefault(call.item, []).append(r.wall_s)
    pass_walls = [sum(r.wall_s for r in p) for p in passes]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_ref": (statistics.median(w / statistics.fmean(ref_times)
                                       for w, ref_times in zip(pass_walls, refs)), "ref"),
        "peak_rss_mb": (max(r.rss_mb for r in results), "MB"),
    }
    print(f"workload {name}  seed {seed}  passes {len(passes)}  calls {len(results)}")
    report = {**metrics,
              "pass_s": (statistics.median(pass_walls), "s"),
              "reference_s": (statistics.median(t for ref_times in refs for t in ref_times), "s"),
              **user_metrics(name, walls),
              "failed_share": (len(failed) / len(results), "ratio")}
    for key, (value, unit) in report.items():
        print(f"  {key:28s} {_fmt(value):>12s} {unit}")
    print("report", json.dumps({k: {"value": v, "unit": u} for k, (v, u) in report.items()}))
    for i, call in enumerate(load.calls):
        w = sorted(p[i].wall_s for p in passes)
        print(f"  call {call.label:23s} {_fmt(statistics.median(w)):>12s} s  "
              f"(min {_fmt(w[0])}, max {_fmt(w[-1])}, n {len(w)})")
    return metrics, len(results), len(failed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still kills and reaps the CLI process it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "permupower" / "cli.py").is_file():
        print(f"error: no permupower sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        env = pinned_env(work)
        print("env", json.dumps(environment(env, work)))
        if args.trace:
            import tracing

            metrics, attempted, failed = tracing.run_traced(args.seed, work, env)
        else:
            metrics, attempted, failed = run_untraced(
                args.workload, args.seed, args.seconds, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
