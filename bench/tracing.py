"""Traced run: spans around the calls into each permupower module.

The CLI runs in this process through `cli.main`.  Each public function is
wrapped where its caller looks it up (`cli.entangling_power`,
`classify.q_totals_batch`, `entangle.q_of`, ...), so no source file
changes.  A span records its name, start, end and parent; spans stay in
memory and the per-layer metrics are derived from them at the end.  A
span's self time is its duration minus that of its child spans; the self
times of all spans of a workload, `cli.main` included, add up to the time
spent inside `cli.main`.

Every workload runs, so that every per-layer metric is present whatever
--workload says.  Census commands run at --workers 1, so that all spans
are in this process, and once more untraced at --workers 2 for the pool
efficiency t(1) / (2 t(2)).  The tracing overhead is traced wall /
untraced wall of one call per workload, repeated: the one with the most
spans per second, where wrapping costs the largest share of the time.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

REF_MIN_S = 0.5
REF_PAIRS = 2


@dataclass
class Span:
    name: str
    parent: int | None
    size: int  # work handed to the call: batch rows, Monte Carlo samples
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, fn, size=None):
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None,
                        size(args) if size else 0)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()

        return traced

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own


# (module, attribute, span name, work size from the positional arguments)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "classify_exhaustive", "classify.classify_exhaustive", None),
    ("cli", "classify_sampled", "classify.classify_sampled", None),
    # one span per work unit (stratum or chunk), for the unit counts
    ("classify", "_stratum_q_counts", "classify.unit", None),
    ("classify", "_sample_chunk_q", "classify.unit", None),
    ("classify", "q_totals_batch", "entangle.q_totals_batch", lambda a: len(a[0])),
    ("cli", "entangling_power", "entangle.entangling_power", None),
    ("entangle", "q_of", "entangle.q_of", None),
    ("cli", "unitary_of", "oracle.unitary_of", None),
    ("cli", "oracle_power", "oracle.oracle_power", None),
    ("cli", "mc_power", "oracle.mc_power", lambda a: a[1]),
    ("cli", "random_perm", "perm_core.random_perm", None),
    ("cli", "parse_biperm", "perm_core.parse_biperm", None),
    ("cli", "builtin_perm", "catalog.builtin_perm", None),
    ("catalog", "construct_mols", "latin.construct_mols", None),
    ("catalog", "superimpose", "latin.superimpose", None),
    ("cli", "construct_mols", "latin.construct_mols", None),
    ("cli", "superimpose", "latin.superimpose", None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    saved = []
    try:
        for module, attr, name, size in TARGETS:
            mod = importlib.import_module(f"permupower.{module}")
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, tracer.wrap(name, fn, size))
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def run_inproc(call: workloads.Call) -> workloads.Result:
    from permupower import cli

    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(call.args))
    except Exception as exc:  # a crash is a failed operation, not a failed benchmark
        code, err = 1, f"{type(exc).__name__}: {exc}"
    else:
        err = ""
    wall = time.perf_counter() - start
    data = call.out.read_bytes() if call.out is not None and call.out.exists() else None
    return workloads.check_result(call, workloads.Result(call.label, wall, out.getvalue(), data),
                                  code, err)


@dataclass
class Agg:
    total: float = 0.0
    own: float = 0.0  # self time
    calls: int = 0
    size: int = 0


def aggregate(tracer: Tracer, own: list[float], lo: int, hi: int) -> dict[str, Agg]:
    """Per span name: summed duration, self time, call count and work size."""
    out: dict[str, Agg] = {}
    for span, self_s in zip(tracer.spans[lo:hi], own[lo:hi]):
        agg = out.setdefault(span.name, Agg())
        agg.total += span.duration
        agg.own += self_s
        agg.calls += 1
        agg.size += span.size
    return out


def run_traced(seed: int, work: Path, env: dict[str, str]) -> tuple[dict, int, int]:
    os.environ.pop("PERMUPOWER_THREADS", None)
    os.environ.update(env)  # before numpy loads: pins the BLAS thread count
    sys.path.insert(0, env["PYTHONPATH"])

    tracer = Tracer()
    results: list[workloads.Result] = []
    per_call: dict[str, tuple[int, int]] = {}  # traced call label -> its span range
    walls: dict[str, dict] = {}  # workload -> walls, overhead ratio, span range
    walls_w: dict[str, tuple[float, float]] = {}  # census item -> wall at workers 1, 2

    for name in workloads.NAMES:
        workers = 1 if name == "census" else workloads.WORKERS
        load = workloads.build(name, seed, work, workers=workers)

        first = len(tracer.spans)
        start = time.perf_counter()
        with installed(tracer):
            traced = []
            for call in load.calls:
                lo = len(tracer.spans)
                traced.append(run_inproc(call))
                per_call[call.label] = (lo, len(tracer.spans))
        traced_wall = time.perf_counter() - start
        results += traced
        walls[name] = {"traced": traced_wall, "spans": (first, len(tracer.spans))}

        # Overhead reference: the call of at least REF_MIN_S with the most
        # spans per second, where wrapping costs the largest share of the
        # time.  It runs again in alternating untraced and traced pairs, and
        # the ratio of the medians is the workload's overhead.
        rate = {i: (per_call[c.label][1] - per_call[c.label][0]) / traced[i].wall_s
                for i, c in enumerate(load.calls) if traced[i].wall_s >= REF_MIN_S}
        busiest = max(rate, key=rate.get)
        on, off = [traced[busiest].wall_s], []
        for _ in range(REF_PAIRS):
            plain = run_inproc(load.calls[busiest])
            with installed(tracer):
                again = run_inproc(load.calls[busiest])
            off.append(plain.wall_s)
            on.append(again.wall_s)
            for res in (plain, again):
                if (res.error is None and traced[busiest].error is None
                        and (res.stdout, res.data) != (traced[busiest].stdout,
                                                       traced[busiest].data)):
                    res.error = "check failed: output differs between repeated calls"
                results.append(res)
        walls[name]["overhead"] = statistics.median(on) / statistics.median(off)

        if name == "census":
            # Tracing adds a few hundred spans to many seconds of census, so
            # the traced --workers 1 walls serve as t(1) for pool efficiency.
            for call, ref in zip(workloads.build(name, seed, work).calls, traced):
                res = workloads.compare_result(workloads.same_bytes, run_inproc(call), ref)
                walls_w[call.item] = (ref.wall_s, res.wall_s)
                results.append(res)
        else:
            for call, ref_label, compare in load.extra:
                ref = next(r for r in traced if r.label == ref_label)
                results.append(workloads.compare_result(compare, run_inproc(call), ref))

    own = tracer.self_times()
    stats = {label: aggregate(tracer, own, lo, hi) for label, (lo, hi) in per_call.items()}
    by_workload = {name: aggregate(tracer, own, *w["spans"]) for name, w in walls.items()}
    metrics = layer_metrics(stats, by_workload, walls, walls_w)

    failed = [r for r in results if r.error is not None]
    for r in failed:
        print(f"FAILED {r.label}: {r.error}")
    for name, agg in by_workload.items():
        layers: dict[str, float] = {}
        for span_name, a in agg.items():
            layer = span_name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + a.own
        parts = "  ".join(f"{k} {v:.3f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
        print(f"trace {name}: traced {walls[name]['traced']:.3f} s, overhead ratio "
              f"{walls[name]['overhead']:.3f}; self s by layer: {parts}")
    return metrics, len(results), len(failed)


def layer_metrics(stats, by_workload, walls, walls_w) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    census = {"exhaustive_d3": ("d3", "exhaustive", "classify.classify_exhaustive"),
              **{f"sampled_d{d}": (f"d{d}", f"d{d}", "classify.classify_sampled")
                 for d in workloads.SAMPLED}}
    for item, (dk, uk, fn) in census.items():
        st = stats[f"{item}-w1"]
        kern = st["entangle.q_totals_batch"]
        m[f"entangle.q_totals_batch_s.{dk}"] = (kern.total, "s")
        m[f"entangle.q_totals_batch_perms_per_s.{dk}"] = (kern.size / kern.total, "perms/s")
        m[f"entangle.q_totals_batch_calls.{dk}"] = (kern.calls, "count")
        m[f"classify.perms.{uk}"] = (kern.size, "count")
        m[f"classify.units.{uk}"] = (st["classify.unit"].calls, "count")
        self_key = ("classify.exhaustive_self_s" if uk == "exhaustive"
                    else f"classify.sampled_self_s.{dk}")
        m[self_key] = (st[fn].total - kern.total, "s")
        w1, w2 = walls_w[item]
        m[f"classify.pool_efficiency.{uk}"] = (w1 / (2 * w2), "ratio")
        m[f"classify.wall_w1_s.{uk}"] = (w1, "s")
        m[f"classify.wall_w2_s.{uk}"] = (w2, "s")

    power = ("identity", "swap", "min", "mols", "random")
    for label in power:
        m[f"entangle.entangling_power_s.{label}"] = (
            stats[label]["entangle.entangling_power"].total, "s")
    m["perm_core.parse_biperm_s.d215"] = (stats["random"]["perm_core.parse_biperm"].total, "s")
    m["latin.construct_mols_s.d215"] = (stats["mols"]["latin.construct_mols"].total, "s")
    m["latin.superimpose_s.d215"] = (stats["mols"]["latin.superimpose"].total, "s")
    m["catalog.builtin_perm_self_s"] = (
        sum(stats[label]["catalog.builtin_perm"].own for label in power[:4]), "s")

    fvo = stats["formula-vs-oracle"]
    m["entangle.entangling_power_s.d12"] = (fvo["entangle.entangling_power"].total, "s")
    m["perm_core.random_perm_s.d12"] = (fvo["perm_core.random_perm"].total, "s")
    m["oracle.unitary_of_s.d12"] = (fvo["oracle.unitary_of"].total, "s")
    m["oracle.oracle_power_s.d12"] = (fvo["oracle.oracle_power"].total, "s")
    m["oracle.oracle_power_calls"] = (fvo["oracle.oracle_power"].calls, "count")
    mc = stats["mc-vs-formula"]["oracle.mc_power"]
    m["oracle.mc_power_samples_per_s"] = (mc.size / mc.total, "samples/s")
    m["oracle.mc_power_samples"] = (mc.size, "count")

    for name, agg in by_workload.items():
        w = walls[name]
        m[f"cli.main_self_s.{name}"] = (agg["cli.main"].own, "s")
        m[f"trace.overhead_ratio.{name}"] = (w["overhead"], "ratio")
        m[f"trace.accounted_share.{name}"] = (sum(a.own for a in agg.values()) / w["traced"],
                                              "ratio")
        if name != "census":
            m[f"entangle.q_of_calls.{name}"] = (agg["entangle.q_of"].calls, "count")
        if name == "crosscheck":
            m["entangle.entangling_power_calls"] = (agg["entangle.entangling_power"].calls,
                                                    "count")
    return m
