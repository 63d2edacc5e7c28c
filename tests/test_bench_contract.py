"""What the benchmark's tracer needs from the package.

`bench/tracing.py` replaces each `(module, attribute)` in its `TARGETS`
with a wrapper that records a span, and derives its per-layer metrics
from the span names a workload's CLI calls leave behind.  A renamed
function, or a call path that stops going through a wrapped module
global, makes the traced run crash.  These tests run small versions of
the benchmark's calls under the tracer; they read `bench/` and never
change it.
"""

import importlib
from pathlib import Path

import pytest

from permupower import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

# (argv, span names that layer_metrics reads from such a call); every call
# passes --workers and --seed, as the benchmark's calls do
CALLS = {
    "power-builtin": (
        ["power", "--builtin", "mols:5"],
        {"cli.main", "catalog.builtin_perm", "latin.construct_mols",
         "latin.superimpose", "entangle.entangling_power", "entangle.q_of"},
    ),
    "power-sized": (
        ["power", "--builtin", "identity", "--d", "4"],
        {"cli.main", "catalog.builtin_perm", "entangle.entangling_power", "entangle.q_of"},
    ),
    "power-file": (
        ["power", "--file", "{perm}"],
        {"cli.main", "perm_core.parse_biperm", "entangle.entangling_power",
         "entangle.q_of"},
    ),
    "formula-vs-oracle": (
        ["verify", "formula-vs-oracle", "--d", "3", "--samples", "2"],
        {"cli.main", "entangle.entangling_power", "perm_core.random_perm",
         "oracle.unitary_of", "oracle.oracle_power", "entangle.q_of"},
    ),
    "mc-vs-formula": (
        ["verify", "mc-vs-formula", "--d", "2", "--samples", "200"],
        {"cli.main", "oracle.mc_power"},
    ),
    "theorem4": (
        ["verify", "theorem4", "--d", "3"],
        {"cli.main", "latin.construct_mols", "latin.superimpose",
         "entangle.entangling_power", "entangle.q_of"},
    ),
    "theorem7": (
        ["verify", "theorem7", "--d", "3"],
        {"cli.main", "catalog.builtin_perm", "entangle.entangling_power", "entangle.q_of"},
    ),
    "tables": (
        ["verify", "tables", "--d", "2"],
        {"cli.main", "classify.classify_exhaustive", "classify.unit",
         "entangle.q_totals_batch"},
    ),
    "exhaustive": (
        ["classify", "--d", "2", "--exhaustive", "--out", "{out}"],
        {"cli.main", "classify.classify_exhaustive", "classify.unit",
         "entangle.q_totals_batch"},
    ),
    "sampled": (
        ["classify", "--d", "3", "--samples", "50", "--out", "{out}"],
        {"cli.main", "classify.classify_sampled", "classify.unit",
         "entangle.q_totals_batch"},
    ),
}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def test_targets_resolve(tracing):
    for module, attr, _, _ in tracing.TARGETS:
        fn = getattr(importlib.import_module(f"permupower.{module}"), attr, None)
        assert callable(fn), f"permupower.{module}.{attr}"


def traced_call(tracing, name, tmp_path, capsys):
    """Run CALLS[name] under a fresh tracer; return the tracer."""
    argv, _ = CALLS[name]
    perm = tmp_path / "perm.txt"
    perm.write_text("d=3\n2 9 4 7 5 3 6 1 8\n")
    out = tmp_path / "out.json"
    argv = [a.format(perm=perm, out=out) for a in argv] + ["--workers", "1", "--seed", "7"]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        code = cli.main(argv)
    capsys.readouterr()
    assert code == 0
    return tracer


@pytest.mark.parametrize("name", CALLS)
def test_traced_spans(tracing, name, tmp_path, capsys):
    _, want = CALLS[name]
    tracer = traced_call(tracing, name, tmp_path, capsys)
    seen = {span.name for span in tracer.spans}
    assert want <= seen, sorted(want - seen)
    assert all(span.size > 0 for span in tracer.spans if span.name == "oracle.mc_power")


@pytest.mark.parametrize(
    "name", [n for n, (_, want) in CALLS.items() if "entangle.entangling_power" in want]
)
def test_power_calls_q_of_twice(tracing, name, tmp_path, capsys):
    # entangle.q_of_calls.* counts q_of spans: each entangling_power makes
    # exactly two, one for P and one for PS, through the module global
    spans = traced_call(tracing, name, tmp_path, capsys).spans
    powers = [i for i, span in enumerate(spans) if span.name == "entangle.entangling_power"]
    assert powers
    for i in powers:
        children = [span.name for span in spans if span.parent == i]
        assert children == ["entangle.q_of", "entangle.q_of"]


def test_exhaustive_census_runs_three_strata(tracing, tmp_path, capsys):
    # classify.units.exhaustive counts classify.unit spans and
    # classify.perms.exhaustive sums the kernel's batch sizes: the census
    # runs the three strata (0, t), t = 1, d, d + 1, of (d^2 - 2)! each
    spans = traced_call(tracing, "exhaustive", tmp_path, capsys).spans
    assert sum(span.name == "classify.unit" for span in spans) == 3
    sizes = [span.size for span in spans if span.name == "entangle.q_totals_batch"]
    assert sum(sizes) == 3 * 2
