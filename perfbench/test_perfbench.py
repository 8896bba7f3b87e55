"""Self-tests of the benchmark: percentile rule, self-time arithmetic,
correctness gate and verdicts.  Run with ``python3 -m pytest perfbench``."""

import csv
import json
import os
import types

import pytest

import calibrate
import run
import stats
import suite
import tracer
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))


# -- percentile rule ---------------------------------------------------------------

def test_p90_withheld_below_100_samples():
    assert stats.percentile(list(range(99)), 90) is None
    assert stats.percentile(list(range(100)), 90) == 89
    assert stats.percentile(list(range(1, 101)), 50) == 50


def test_mode_percentiles_skip_warm_steps_and_count():
    steps = [[("exact", 1000.0, 0.0)] * run.WARM_STEPS
             + [("exact", float(i), 0.0) for i in range(100)]]
    p = run.mode_percentiles([{"steps": steps}])
    assert p["exact"]["n"] == 100
    assert p["exact"]["p90"] == 89.0
    assert p["vanilla"] == {"p50": None, "p90": None, "n": 0}


# -- calibration -------------------------------------------------------------------

def test_step_times_are_divided_by_the_interpolated_speed_factor():
    # the machine runs at half speed from t=1 on: factor 1 at t=0, 2 at t=1
    child = {"factors": [[0.0, 1.0], [1.0, 2.0], [3.0, 2.0]],
             "steps": [[("vanilla", 10.0, t) for t in (0.0, 0.0, 0.0, 0.5, 2.0)]]}
    assert run.step_factors(child, [0.0, 0.5, 2.0]).tolist() == [1.0, 1.5, 2.0]
    samples = run.mode_percentiles([child])["vanilla"]
    assert samples["n"] == 5 - run.WARM_STEPS
    raw = run.mode_percentiles([child], normalise=False)["vanilla"]
    assert raw["n"] == samples["n"]
    assert run.process_factor(child) == 2.0
    assert run.process_factor({"factors": []}) == 1.0


def test_speed_factors_are_running_medians():
    samples = [[float(t), ms] for t, ms in enumerate([1.0, 1.0, 1.0, 9.0, 1.0, 2.0, 2.0, 2.0,
                                                      2.0, 2.0])]
    got = [f for _, f in run.speed_factors(samples, 0.5)]
    assert got[3] == 2.0  # the outlier 9.0 is voted down
    assert got[-1] == 4.0 and got[0] == 2.0


def test_calibration_kernels_run_and_take_cpu_time():
    for kernel in calibrate.KERNELS:
        assert calibrate.sample(kernel) > 0.0


# -- self time ---------------------------------------------------------------------

def test_self_time_of_nested_spans():
    # 0: root [0, 10]; 1: child [1, 3]; 2: child [2, 5] overlapping 1;
    # 3: grandchild [1.5, 2] under 1; 4: child [9, 12] running past the root
    start = [0.0, 1.0, 2.0, 1.5, 9.0]
    end = [10.0, 3.0, 5.0, 2.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    got = tracer.self_times(start, end, parent)
    assert got.tolist() == pytest.approx([10 - 4 - 1, 1.5, 3.0, 0.5, 3.0])


def test_tracer_records_parents_and_aggregates(tmp_path):
    t = tracer.Tracer("run-1")

    def leaf():
        return 1

    inner = t.wrap(leaf, "inner")

    def middle():
        return inner() + inner()

    outer = t.wrap(middle, "outer")
    assert outer() == 2
    assert list(t.parent) == [-1, 0, 0]
    t.counters["autodiff.tape_nodes"] += 7
    t.write(tmp_path / "spans.npz")
    agg = tracer.aggregate(tmp_path / "spans.npz")
    assert agg["run_id"] == "run-1"
    assert agg["spans"]["outer"]["calls"] == 1
    assert agg["spans"]["inner"]["calls"] == 2
    o = agg["spans"]["outer"]
    assert o["self_ms"] == pytest.approx(o["ms"] - agg["spans"]["inner"]["ms"])
    assert agg["counters"] == {"autodiff.tape_nodes": 7}


def test_tracer_refuses_a_missing_function():
    with pytest.raises(AttributeError, match="gradguide.fake.gone"):
        tracer._replace(types.ModuleType("gradguide.fake"), "gone", lambda fn: fn)


def test_tracer_counts_errors_and_reraises():
    t = tracer.Tracer("run-2")

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap(boom, "f", "autodiff.errors")()
    assert t.counters["autodiff.errors"] == 1
    assert t.end[0] >= t.start[0]


# -- correctness gate --------------------------------------------------------------

def _write_run(out, seed, loss=0.5, acc=0.75):
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"steps_seed{seed}.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(wl.STEP_COLUMNS)
        w.writerow(["1", "0.7", "0.7", "0.0", "0.0", "0.0", "1.0", "", "", "0.1", ""])
    with open(os.path.join(out, f"report_seed{seed}.json"), "w") as f:
        json.dump({"final": {"final_loss": loss, "final_accuracy": acc}}, f)
    with open(os.path.join(out, "summary.csv"), "w", newline="") as f:
        csv.writer(f).writerow(wl.SUMMARY_COLUMNS)


@pytest.fixture
def vanilla_run(tmp_path):
    out = str(tmp_path / "out")
    _write_run(out, 0)
    reference = wl.observe("wide-vanilla", 0, out)
    return out, reference


def test_gate_passes_matching_run(vanilla_run):
    out, reference = vanilla_run
    assert "digest" in reference["vanilla/seed0"]
    assert wl.check("wide-vanilla", 0, out, 0, reference) == {"vanilla/seed0": []}


def test_gate_flags_perturbed_reference(vanilla_run):
    out, reference = vanilla_run
    reference["vanilla/seed0"]["final_loss"] *= 1 + 10 * wl.LOSS_RTOL
    assert "final_loss" in wl.check("wide-vanilla", 0, out, 0, reference)["vanilla/seed0"][0]
    reference["vanilla/seed0"]["final_loss"] = 0.5
    reference["vanilla/seed0"]["final_accuracy"] += 2 * wl.ACCURACY_ATOL
    assert "final_accuracy" in wl.check("wide-vanilla", 0, out, 0,
                                        reference)["vanilla/seed0"][0]


def test_gate_flags_changed_vanilla_digest(vanilla_run):
    out, reference = vanilla_run
    with open(os.path.join(out, "steps_seed0.csv"), "a") as f:
        f.write("2,0.6,0.6,0.0,0.0,0.0,1.0,,,0.1,\r\n")
    assert wl.check("wide-vanilla", 0, out, 0, reference)["vanilla/seed0"] == [
        "vanilla artifact differs from its recorded digest"]


def test_gate_flags_missing_or_broken_artifact(vanilla_run):
    out, reference = vanilla_run
    with open(os.path.join(out, "summary.csv"), "w") as f:
        f.write("not,the,header\n")
    assert "summary.csv" in wl.check("wide-vanilla", 0, out, 0, reference)["vanilla/seed0"][0]
    _write_run(out, 0)
    os.remove(os.path.join(out, "report_seed0.json"))
    assert "report_seed0.json" in wl.check("wide-vanilla", 0, out, 0,
                                           reference)["vanilla/seed0"][0]


def test_gate_flags_nonzero_exit(vanilla_run):
    out, reference = vanilla_run
    assert wl.check("wide-vanilla", 0, out, 3, reference) == {"vanilla/seed0": ["exit code 3"]}


def _write_compare(out, fd_loss):
    os.makedirs(out, exist_ok=True)
    rows = [("vanilla", 0.6), ("guided-exact", 1.1), ("guided-fd", fd_loss)]
    with open(os.path.join(out, "compare.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(wl.COMPARE_COLUMNS)
        for method, loss in rows:
            w.writerow([method, "0", "", "0.9", "0.7", "0.5", repr(loss)])
    with open(os.path.join(out, "compare_summary.csv"), "w", newline="") as f:
        csv.writer(f).writerow(wl.COMPARE_SUMMARY_COLUMNS)


def test_gate_flags_fd_exact_disagreement(tmp_path):
    out = str(tmp_path / "out")
    _write_compare(out, 1.1)
    reference = wl.observe("pair-compare", 0, out)
    assert not any(wl.check("pair-compare", 0, out, 0, reference).values())
    _write_compare(out, 1.1 * (1 + 10 * wl.FD_EXACT_RTOL))
    reference["guided-fd/seed0"]["final_loss"] = 1.1 * (1 + 10 * wl.FD_EXACT_RTOL)
    problems = wl.check("pair-compare", 0, out, 0, reference)
    assert problems["vanilla/seed0"] == [] and problems["guided-exact/seed0"] == []
    assert "guided-exact" in problems["guided-fd/seed0"][0]


def test_references_cover_every_variant():
    refs = wl.load_references()
    for w in wl.WORKLOADS:
        assert sorted(map(int, refs[w])) == list(range(wl.VARIANTS))
        for v in range(wl.VARIANTS):
            assert sorted(refs[w][str(v)]) == sorted(wl.trainings(w, v))


def test_suite_counts_a_run_without_result_as_failed_trainings():
    bench = suite.load_benchmark()
    ok = {"workload": "pair-compare", "seed": 0, "trace": 0,
          "result": {"correct": True, "attempted": 6, "failed": 0, "metrics": {}}}
    lost = {"workload": "pair-compare", "seed": 1, "trace": 0, "result": None}
    head = suite.table([ok, lost], bench, 0)[0]
    assert "failed_ratio 0.3333 (3/9 trainings)" in head


# -- verdicts ----------------------------------------------------------------------

def test_verdicts():
    parent = {s: 10.0 + 0.01 * s for s in range(10)}
    assert stats.verdict(parent, {s: v * 0.8 for s, v in parent.items()}, 0.1,
                         "lower") == "better"
    assert stats.verdict(parent, {s: v * 1.2 for s, v in parent.items()}, 0.1,
                         "lower") == "worse"
    assert stats.verdict(parent, dict(parent), 0.1, "lower") == "within bound"
    assert stats.verdict(parent, {s: v * 1.2 for s, v in parent.items()}, 0.1,
                         "higher") == "better"
    noisy = {s: 10.0 * (1 + (s % 2)) for s in range(10)}
    assert stats.verdict(parent, noisy, 0.1, "lower") == "unresolved"


# -- benchmark description -----------------------------------------------------------

def test_every_per_layer_metric_has_an_interaction():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "interactions.json")) as f:
        doc = json.load(f)
    assert [m["name"] for m in bench["per_layer"]] == list(doc["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS) == list(doc["workloads"])
