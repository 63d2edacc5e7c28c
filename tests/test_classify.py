"""Census engine: exhaustive, sampled, parallel, checkpointed."""

import itertools
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from permupower import (
    BudgetExceeded,
    ClassHistogram,
    PermupowerError,
    class_bound,
    classify_exhaustive,
    classify_sampled,
    e0_stats,
    entangling_power,
    exact_mean,
    min_nonzero_perm,
)
from permupower import classify, golden
from permupower.catalog import builtin_perm
from permupower.entangle import q_totals_batch
from permupower.perm_core import BLOCK_CELLS, biperm_to_flat, lex_blocks

from conftest import local_rows, orthogonal_pair_count

D2_CLASSES = (
    (Fraction(0), 8),
    (Fraction(4, 9), 16),
)

# the 10368-member class is 11/24; a decimal-transcription artifact
# (182/375 ~ 0.4853) circulates for it, impossible since every d=3 class
# value is an even integer over 96; with it the mean would be 9701/17500,
# not the exact 31/56
D3_CLASSES = (
    (Fraction(0), 72),
    (Fraction(1, 3), 2592),
    (Fraction(3, 8), 864),
    (Fraction(5, 12), 1296),
    (Fraction(11, 24), 10368),
    (Fraction(23, 48), 20736),
    (Fraction(1, 2), 27432),
    (Fraction(25, 48), 36288),
    (Fraction(13, 24), 44064),
    (Fraction(9, 16), 101376),
    (Fraction(7, 12), 44712),
    (Fraction(29, 48), 46656),
    (Fraction(5, 8), 22464),
    (Fraction(2, 3), 3888),
    (Fraction(3, 4), 72),
)


@pytest.fixture(scope="module")
def census_d3():
    return classify_exhaustive(3)


def counting_lex_blocks(monkeypatch) -> list:
    """Record the prefix of every stratum that `classify` enumerates."""
    real = classify.lex_blocks
    prefixes = []

    def recorded(n, prefix=()):
        prefixes.append(prefix)
        return real(n, prefix)

    monkeypatch.setattr(classify, "lex_blocks", recorded)
    return prefixes


class TestExhaustive:
    def test_d2_census(self):
        hist = classify_exhaustive(2)
        assert hist.classes == D2_CLASSES
        assert hist.total == 24
        assert hist.mode == "exhaustive"

    def test_d3_census(self, census_d3):
        assert census_d3.classes == D3_CLASSES
        assert census_d3.total == math.factorial(9)

    def test_means_exact(self, census_d3):
        assert classify_exhaustive(2).mean() == Fraction(8, 27)
        assert census_d3.mean() == Fraction(31, 56)

    def test_exact_mean_is_the_census_mean(self, census_d3):
        assert exact_mean(2) == classify_exhaustive(2).mean() == Fraction(8, 27)
        assert exact_mean(3) == census_d3.mean() == Fraction(31, 56)

    @pytest.mark.parametrize(
        "d, mean", [(4, Fraction(7608, 11375)), (8, Fraction(1164464, 1378539))]
    )
    def test_exact_mean_beyond_enumeration(self, d, mean):
        assert exact_mean(d) == mean

    def test_exact_mean_degenerate(self):
        with pytest.raises(PermupowerError, match="^entangling power needs d >= 2$"):
            exact_mean(1)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            classify_exhaustive(4)

    def test_budget_is_the_enumeration_budget(self, monkeypatch):
        monkeypatch.setattr(classify, "ENUMERATION_MAX_D", 2)
        with pytest.raises(BudgetExceeded, match="3 x 7! evaluations"):
            classify_exhaustive(3)
        for force in (False, True):
            with pytest.raises(PermupowerError, match="entangling power needs d >= 2"):
                classify_exhaustive(1, force=force)

    def test_zero_class_matches_e0(self, census_d3):
        assert dict(classify_exhaustive(2).classes)[Fraction(0)] == e0_stats(2)[0]
        assert dict(census_d3.classes)[Fraction(0)] == e0_stats(3)[0]

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_local_permutations_have_zero_power(self, d):
        # the 2(d!)^2 local and local-after-swap permutations are distinct
        # and have power 0, and at d = 2, 3 the zero class has e0_stats(d)
        # members (above), so it is exactly these permutations
        rows = local_rows(d)
        assert len(rows) == e0_stats(d)[0]
        assert (np.sort(rows, axis=1) == np.arange(d * d)).all()
        assert len(np.unique(rows, axis=0)) == len(rows)
        assert (q_totals_batch(rows, d) == d**4 + d**2).all()

    def test_smallest_nonzero_class_is_the_minimum(self, census_d3):
        for d, hist in ((2, classify_exhaustive(2)), (3, census_d3)):
            nonzero = [k for k, _ in hist.classes if k > 0]
            assert min(nonzero) == Fraction(8 * (d - 1), d * (d + 1) ** 2)

    def test_largest_class_d3(self, census_d3):
        top, count = census_d3.classes[-1]
        assert top == Fraction(3, 4)
        assert count == 72 == 2 * orthogonal_pair_count(3)

    def test_largest_class_d2_below_maximum(self):
        top, _ = classify_exhaustive(2).classes[-1]
        assert top == Fraction(4, 9) < Fraction(2, 3)

    def test_class_count_within_bound(self, census_d3):
        assert len(classify_exhaustive(2).classes) <= class_bound(2)
        assert len(census_d3.classes) <= class_bound(3)

    def test_parallel_matches_serial(self, census_d3):
        assert classify_exhaustive(2, workers=4).classes == D2_CLASSES
        assert classify_exhaustive(3, workers=4).classes == census_d3.classes

    @pytest.mark.parametrize("d", [2, 3])
    def test_strata_share_their_representative_histogram(self, d):
        # relabeling the output symbols carries the stratum of the first two
        # images (s, t) onto (0, 1) when s and t share k, onto (0, d) when
        # they share l, and onto (0, d + 1) otherwise
        n = d * d

        def histogram(prefix):
            return Counter(np.concatenate(
                [q_totals_batch(block, d) for block in lex_blocks(n, prefix)]
            ).tolist())

        reps = {t: histogram((0, t)) for t in (1, d, d + 1)}
        members = Counter()
        for s, t in itertools.permutations(range(n), 2):
            (ks, ls), (kt, lt) = divmod(s, d), divmod(t, d)
            rep = 1 if ks == kt else d if ls == lt else d + 1
            assert histogram((s, t)) == reps[rep], (s, t)
            members[rep] += 1
        assert members == {1: n * (d - 1), d: n * (d - 1), d + 1: n * (d - 1) ** 2}

    @pytest.mark.parametrize("d", [2, 3])
    def test_weighted_census_is_the_naive_count(self, d):
        naive = Counter()
        for block in lex_blocks(d * d):
            naive.update(q_totals_batch(block, d).tolist())
        hist = classify_exhaustive(d)
        assert hist.classes == classify._histogram_from_q_counts(d, naive).classes

    def test_checkpoint_resume(self, tmp_path, census_d3):
        first = classify_exhaustive(3, checkpoint_dir=tmp_path)
        files = sorted(tmp_path.glob("census-d3-*.json"))
        assert len(files) == 3
        # drop one stratum and rerun: only that stratum is recomputed
        files[1].unlink()
        second = classify_exhaustive(3, checkpoint_dir=tmp_path)
        assert first.classes == second.classes == census_d3.classes

    def test_checkpoint_persists_each_stratum(self, tmp_path, monkeypatch):
        real = classify._stratum_q_counts
        calls = []

        def interrupted_at_second(d, stratum, directory):
            calls.append(stratum)
            if len(calls) == 2:
                raise RuntimeError("run interrupted")
            return real(d, stratum, directory)

        monkeypatch.setattr(classify, "_stratum_q_counts", interrupted_at_second)
        with pytest.raises(RuntimeError, match="interrupted"):
            classify_exhaustive(3, checkpoint_dir=tmp_path)
        assert len(list(tmp_path.glob("census-d3-*.json"))) == 1

        monkeypatch.setattr(classify, "_stratum_q_counts", real)
        counted = counting_lex_blocks(monkeypatch)
        hist = classify_exhaustive(3, checkpoint_dir=tmp_path)
        assert counted == [(0, 3), (0, 4)]
        assert dict(hist.classes) == golden.EXPECTED_CENSUS[3]
        assert len(list(tmp_path.glob("census-d3-*.json"))) == 3

    def test_finished_strata_survive_a_failed_one(self, tmp_path, monkeypatch):
        # stratum 1 cannot read or write its checkpoint; in a real pool the
        # strata that finish are on disk when the run fails
        blocked = tmp_path / "census-d3-stratum-1.json"
        blocked.mkdir()
        with pytest.raises(IsADirectoryError):
            classify_exhaustive(3, workers=3, checkpoint_dir=tmp_path)
        for t in (3, 4):
            assert classify._load_checkpoint(tmp_path / f"census-d3-stratum-{t}.json", 3, t)
        blocked.rmdir()
        counted = counting_lex_blocks(monkeypatch)
        hist = classify_exhaustive(3, checkpoint_dir=tmp_path)
        assert counted == [(0, 1)]
        assert dict(hist.classes) == golden.EXPECTED_CENSUS[3]

    def test_checkpoint_rejects_wrong_total(self, tmp_path):
        classify_exhaustive(2, checkpoint_dir=tmp_path)
        path = tmp_path / "census-d2-stratum-1.json"
        payload = json.loads(path.read_text())
        good = dict(payload["q_counts"])
        # a wrong sum; then sums of (d^2 - 2)! = 2 with a count below 1, a
        # Q total outside [2d^2, d^4 + d^2] = [8, 20], or a count that is not
        # a JSON integer (int() would read 2.9 as 2, "2" as 2 and true as 1)
        damaged = [{key: 2 * cnt for key, cnt in good.items()},
                   {"12": 3, "20": -1}, {"0": 2}, {"20": -1, "40": 3},
                   {"12": 2.9}, {"12": "2"}, {"12": 1, "20": True}]
        clean = classify_exhaustive(2).to_json()
        for q_counts in damaged:
            path.write_text(json.dumps(dict(payload, q_counts=q_counts)))
            assert classify._load_checkpoint(path, 2, 1) is None
            hist = classify_exhaustive(2, checkpoint_dir=tmp_path)
            assert hist.classes == D2_CLASSES and hist.to_json() == clean
            assert json.loads(path.read_text())["q_counts"] == good

    def test_checkpoint_ignores_stale(self, tmp_path):
        stale = tmp_path / "census-d2-stratum-2.json"
        stale.write_text(json.dumps({"d": 3, "stratum": 2, "q_counts": {}}))
        # files of the earlier rank-range layout, here claiming that every
        # permutation of each stratum has power zero, are never read
        for s in range(4):
            old = tmp_path / f"census-d2-ranks-{6 * s}-{6 * s + 6}.json"
            old.write_text(json.dumps(
                {"d": 2, "lo": 6 * s, "hi": 6 * s + 6, "q_counts": {"20": 6}}
            ))
        # nor is a file of the one-symbol stratum layout, whose counts sum
        # to (d^2 - 1)! = 6, not (d^2 - 2)! = 2
        one_symbol = tmp_path / "census-d2-stratum-1.json"
        one_symbol.write_text(json.dumps({"d": 2, "stratum": 1, "q_counts": {"20": 6}}))
        hist = classify_exhaustive(2, checkpoint_dir=tmp_path)
        assert hist.classes == D2_CLASSES
        assert json.loads(stale.read_text())["d"] == 2
        assert sum(json.loads(one_symbol.read_text())["q_counts"].values()) == 2
        assert len(list(tmp_path.glob("census-d2-stratum-*.json"))) == 3

    @pytest.mark.parametrize("text", ["{", "[]"], ids=["truncated", "not-an-object"])
    def test_checkpoint_ignores_unreadable(self, tmp_path, text):
        path = tmp_path / "census-d2-stratum-1.json"
        path.write_text(text)
        assert classify._load_checkpoint(path, 2, 1) is None
        hist = classify_exhaustive(2, checkpoint_dir=tmp_path)
        assert hist.classes == D2_CLASSES
        assert sum(json.loads(path.read_text())["q_counts"].values()) == 2


class TestSampled:
    def test_d2_mean_near_exact(self):
        hist = classify_sampled(2, 10_000, seed=42)
        assert abs(hist.mean() - Fraction(8, 27)) <= 5 * hist.std_error()

    def test_d3_mean_near_exact(self):
        hist = classify_sampled(3, 100_000, seed=42)
        assert abs(hist.mean() - Fraction(31, 56)) <= 5 * hist.std_error()

    def test_histogram_fields(self):
        hist = classify_sampled(3, 5_000, seed=9)
        assert hist.mode == "sampled"
        assert hist.total == 5_000
        assert hist.seed == 9
        assert all(c > 0 for _, c in hist.classes)
        # observed classes are a lower bound on the true count
        assert len(hist.classes) <= 15

    def test_worker_count_invariance(self):
        one = classify_sampled(3, 120_000, seed=5, workers=1)
        many = classify_sampled(3, 120_000, seed=5, workers=3)
        assert one.to_json() == many.to_json()
        assert one.std_error() == many.std_error()

    def test_seed_sensitivity(self):
        a = classify_sampled(2, 2_000, seed=1)
        b = classify_sampled(2, 2_000, seed=2)
        assert a.to_json() != b.to_json()

    def test_mean_is_exact_histogram_mean(self):
        # the mean 0.7393875 is a decimal tie at six places; evaluated in
        # floats as (d^4 + d^2 - mean Q) / denominator it reads
        # 0.7393875000000001, and `classify` printed 0.739387 for the
        # exact mean and 0.739388 for the sampled one
        hist = classify_sampled(5, 2_000, seed=17)
        assert hist.mean() == Fraction(59151, 80000)
        assert f"{float(hist.mean()):.6f}" == "0.739387"

    def test_std_error_from_histogram(self):
        # two chunks, so the moments come from a merged histogram; the
        # variance is exact, so only the final square root rounds
        hist = classify_sampled(3, 60_000, seed=11)
        n, mean = hist.total, hist.mean()
        var = sum((k - mean) ** 2 * c for k, c in hist.classes) / (n - 1)
        assert hist.std_error() == math.sqrt(var / n)

    def test_chunk_streams_independent(self):
        # chunk 1 of seed s must not replay chunk 0 of seed s + 1
        for seed in (42, 1000):
            later = classify._sample_chunk_q(4, seed, 1, 500)
            assert later != classify._sample_chunk_q(4, seed + 1, 0, 500)

    def test_first_chunk_draws_from_plain_seed(self):
        # runs of at most SAMPLE_CHUNK samples keep the plain seed's stream,
        # also when the chunk is drawn in several blocks
        for d, count, blocks in ((4, 500, 1), (8, 40_000, 3)):
            assert math.ceil(count / (BLOCK_CELLS // (d * d))) == blocks
            rng = np.random.default_rng(42)
            base = np.tile(np.arange(d * d, dtype=np.int16), (count, 1))
            expected = Counter(q_totals_batch(rng.permuted(base, axis=1), d).tolist())
            assert classify._sample_chunk_q(d, 42, 0, count) == expected

    def test_sampled_blocks_bounded(self, monkeypatch):
        # a stub kernel records every block it is given; at d = 215 one
        # permutation has 46,225 cells, so a chunk must be cut into blocks
        d, count = 215, 100
        shapes = []

        def stub(flat, d):
            shapes.append(flat.shape)
            return np.full(flat.shape[0], 2 * d * d, dtype=np.int64)

        monkeypatch.setattr(classify, "q_totals_batch", stub)
        assert classify._sample_chunk_q(d, 7, 0, count) == Counter({2 * d * d: count})
        assert len(shapes) > 1
        assert all(cols == d * d and rows * cols <= BLOCK_CELLS for rows, cols in shapes)
        assert sum(rows for rows, _ in shapes) == count

    def test_degenerate(self):
        with pytest.raises(PermupowerError, match="^entangling power needs d >= 2$"):
            classify_sampled(1, 100, seed=0)

    def test_seed_range(self):
        # chunk c of seed s would replay chunk 0 of seed s + c * 2**32
        for seed in (-1, 2**32, 2**32 + 42):
            with pytest.raises(PermupowerError, match="seed"):
                classify_sampled(2, 100, seed=seed)
        hist = classify_sampled(2, 100, seed=2**32 - 1)
        assert hist.total == 100


@pytest.mark.parametrize(
    "census",
    [lambda: classify_sampled(216, 10, 0), lambda: classify_exhaustive(216, force=True)],
    ids=["sampled", "exhaustive"],
)
def test_cap_checked_before_any_block(monkeypatch, census):
    def refuse(*args):
        raise AssertionError("drew a block above the dimension cap")

    monkeypatch.setattr(classify, "random_blocks", refuse)
    monkeypatch.setattr(classify, "lex_blocks", refuse)
    with pytest.raises(PermupowerError, match="cap 215"):
        census()


@pytest.fixture
def in_process_pool(monkeypatch):
    """Swap the process pool for one that maps in this process; record the
    size of each pool and the number of units of each map call."""
    log = {"sizes": [], "fed": []}

    class InProcessPool:
        def __init__(self, max_workers):
            log["sizes"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            log["fed"].append(len(iterables[0]))
            return map(fn, *iterables)

    # _run_units imports the pool class when it opens a pool
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    return log


def test_pool_no_larger_than_the_units(in_process_pool):
    # a fork pool starts all max_workers processes at the first submit
    assert classify_exhaustive(2, workers=64).classes == D2_CLASSES  # 3 strata
    units = [(2, 3), (3, 2), (4, 1)]
    for workers in (8, 2):
        assert list(classify._run_units(pow, units, workers)) == [8, 9, 4]
    assert in_process_pool["sizes"] == [3, 3, 2]


def test_pool_fed_a_few_units_at_a_time(in_process_pool):
    # Executor.map submits every unit it is given at once, so the runner
    # hands it a few units per worker from a lazy sequence
    units = ((2, k) for k in range(100))
    assert list(classify._run_units(pow, units, 3)) == [2**k for k in range(100)]
    assert in_process_pool["sizes"] == [3]
    assert sum(in_process_pool["fed"]) == 100
    assert max(in_process_pool["fed"]) <= 4 * 3


@pytest.mark.parametrize("workers", [0, -1])
@pytest.mark.parametrize(
    "census",
    [lambda w: classify_exhaustive(2, workers=w), lambda w: classify_sampled(2, 10, 1, workers=w)],
    ids=["exhaustive", "sampled"],
)
def test_workers_below_one(census, workers):
    with pytest.raises(PermupowerError, match=f"^need at least 1 worker, got {workers}$"):
        census(workers)


def test_sample_budget(monkeypatch):
    def refuse(*args):
        raise AssertionError("no unit may run")

    monkeypatch.setattr(classify, "_sample_chunk_q", refuse)
    budget = classify.SAMPLE_BUDGET
    with pytest.raises(BudgetExceeded, match=f"^{budget + 1} samples exceed the budget of {budget}$"):
        classify_sampled(2, budget + 1, 0)


def test_sampled_units_built_lazily(monkeypatch):
    # 10**10 samples are 200,000 chunks: listing their units up front
    # peaks at about 21 MiB, counting three of them should not
    calls = []

    def three_units(d, seed, chunk_index, count):
        if len(calls) == 3:
            raise RuntimeError("stopped after three units")
        calls.append(chunk_index)
        return Counter({2 * d * d: count})

    monkeypatch.setattr(classify, "_sample_chunk_q", three_units)
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="three units"):
            classify_sampled(2, 10**10, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == [0, 1, 2]
    assert peak < 256 * 1024


class TestMinNonzero:
    def test_d2_is_the_maximum_too(self):
        report = entangling_power(min_nonzero_perm(2))
        assert report.epsilon == Fraction(4, 9)
        assert min_nonzero_perm(2) == builtin_perm("cnot")

    def test_d3(self):
        assert entangling_power(min_nonzero_perm(3)).epsilon == Fraction(1, 3)

    def test_d5(self):
        assert entangling_power(min_nonzero_perm(5)).epsilon == Fraction(8, 45)

    def test_structure(self):
        perm = min_nonzero_perm(4)
        assert biperm_to_flat(perm) not in {tuple(row) for row in (local_rows(4) + 1).tolist()}
        # identity everywhere but the last two cells of the bottom row
        assert (perm.k[3][2], perm.l[3][2]) == (4, 4)
        assert (perm.k[3][3], perm.l[3][3]) == (4, 3)
        assert (perm.k[0][0], perm.l[0][0]) == (1, 1)


class TestBoundsAndStats:
    @pytest.mark.parametrize("d,bound", [(2, 4), (3, 22), (4, 86)])
    def test_class_bound(self, d, bound):
        assert class_bound(d) == bound

    def test_e0_stats(self):
        assert e0_stats(2) == (8, Fraction(1, 3))
        count, frac = e0_stats(3)
        assert count == 72
        assert frac == Fraction(72, math.factorial(9))
        assert e0_stats(4)[0] == 1152
        assert e0_stats(4)[1] == Fraction(1152, math.factorial(16))

    def test_std_error_exact(self):
        # Var = (8 (8/27)^2 + 16 (4/27)^2) / 23 = 768 / (729 * 23), over n = 24
        assert classify_exhaustive(2).std_error() == math.sqrt(Fraction(32, 729 * 23))
        one_class = ClassHistogram(d=2, classes=((Fraction(0), 2),), seed=0)
        assert one_class.std_error() == 0.0
        for total in (0, 1):
            classes = ((Fraction(0), total),) if total else ()
            hist = ClassHistogram(d=2, classes=classes, seed=0)
            assert hist.std_error() is None

    @pytest.mark.parametrize("fn", [class_bound, e0_stats], ids=lambda fn: fn.__name__)
    def test_degenerate(self, fn):
        # e0_stats(1) once counted 2 non-entangling permutations of the 1 there is
        with pytest.raises(PermupowerError, match="^entangling power needs d >= 2$"):
            fn(1)

    def test_e0_fraction_shrinks(self):
        fractions = [e0_stats(d)[1] for d in range(2, 8)]
        assert all(a > b for a, b in zip(fractions, fractions[1:]))


def histogram_from_json(payload: dict) -> ClassHistogram:
    """Reference parser of `ClassHistogram.to_json`."""
    classes = tuple(
        (Fraction(entry["num"], entry["den"]), entry["count"]) for entry in payload["classes"]
    )
    return ClassHistogram(d=payload["d"], classes=classes, seed=payload["seed"])


class TestHistogramSerialization:
    def test_json_roundtrip(self, census_d3):
        payload = json.loads(census_d3.to_json())
        assert set(payload) == {"d", "mode", "total", "classes", "mean", "seed"}
        assert payload["mean"] == {"num": 31, "den": 56}
        assert histogram_from_json(payload) == census_d3

    def test_csv_layout(self):
        hist = classify_exhaustive(2)
        lines = hist.to_csv().strip().splitlines()
        assert lines[0] == "epsilon_num,epsilon_den,epsilon_float,count"
        assert lines[1] == "0,1,0,8"
        assert lines[2].startswith("4,9,0.4444") and lines[2].endswith(",16")

    def test_validation(self):
        with pytest.raises(ValueError):
            ClassHistogram(
                d=2, classes=((Fraction(4, 9), 1), (Fraction(0), 1)), seed=0,
            )
        with pytest.raises(ValueError):
            ClassHistogram(d=2, classes=((Fraction(7, 9), 1),), seed=0)
        for counts in ((0, 2), (-1, 3)):
            with pytest.raises(ValueError, match="positive"):
                ClassHistogram(
                    d=2, seed=0,
                    classes=((Fraction(0), counts[0]), (Fraction(4, 9), counts[1])),
                )

    @pytest.mark.parametrize("argv", [["--exhaustive"], ["--samples", "3000", "--seed", "11"]],
                             ids=["exhaustive", "sampled"])
    def test_json_recipe_roundtrip(self, tmp_path, argv):
        # the README's replacement for from_json_dict, on the CLI's own output
        from permupower import cli

        out = tmp_path / "census.json"
        assert cli.main(["classify", "--d", "3", *argv, "--out", str(out)]) == 0
        text = out.read_text()
        payload = json.loads(text)
        hist = histogram_from_json(payload)
        assert hist.to_json() + "\n" == text
        if payload["seed"] is None:
            assert hist == classify_exhaustive(3)
        else:
            assert hist == classify_sampled(3, 3000, 11)

        first = payload["classes"][0]
        bad = [{**payload, "classes": [{**first, "count": value}, *payload["classes"][1:]]}
               for value in (True, 2.5)]
        bad += [{**payload, "seed": seed} for seed in (-5, "x", True, 2**32)]
        for damaged in bad:
            with pytest.raises(ValueError, match="^(class counts|seed) must be"):
                histogram_from_json(damaged)
        float_power = ((0.0, first["count"]), *hist.classes[1:])
        with pytest.raises(ValueError, match="^class powers must be Fractions$"):
            ClassHistogram(d=3, classes=float_power, seed=0)

    def test_class_bound_enforced(self):
        # d = 2 has at most class_bound(2) = 4 classes
        five = tuple((Fraction(i, 9), 1) for i in range(5))
        with pytest.raises(ValueError, match="^more classes than the theoretical bound$"):
            ClassHistogram(d=2, classes=five, seed=0)

    def test_exhaustive_total(self):
        # a histogram without a seed is an exhaustive census of all d^2! = 24
        with pytest.raises(ValueError, match=r"^exhaustive total must be d\^2!$"):
            ClassHistogram(d=2, classes=((Fraction(0), 8),))

    def test_total_and_mode_derived(self):
        exhaustive = classify_exhaustive(2)
        assert (exhaustive.mode, exhaustive.total, exhaustive.seed) == ("exhaustive", 24, None)
        sampled = ClassHistogram(d=2, classes=((Fraction(0), 3), (Fraction(4, 9), 5)), seed=7)
        assert (sampled.mode, sampled.total) == ("sampled", 8)
        with pytest.raises(TypeError):
            ClassHistogram(d=2, mode="sampled", classes=(), seed=7)
