"""CLI contract: artifacts, error payloads, determinism, diagnostics."""

import copy
import json

import numpy as np
import pytest

from gradguide import autodiff as ad
from gradguide import cli
from gradguide import tasks as tk

BASE_CONFIG = {
    "model": {"kind": "logistic", "input_dim": 6, "num_classes": 3, "init_seed": 1},
    "task": {"kind": "gaussian", "dim": 6, "num_classes": 3, "n_per_class": 40,
             "separation": 2.0, "noise_std": 0.6, "seed": 5},
    "train": {"learning_rate": 0.05, "epochs": 2, "batch_size": 20,
              "warmup_steps": 4, "eval_interval": 5,
              "guidance": {"lambda1": 0.2, "lambda2": 0.2, "lambda3": 0.0}},
    "method": "guided-exact",
    "seeds": [0, 1, 2],
}

PAIR_TASK = {"kind": "pair", "dim": 6, "num_classes": 3, "separation": 2.0,
             "conflict_angle_deg": 30.0, "noise_std": 0.6, "seed": 5,
             "n_per_class": 40}


def write_config(tmp_path, overrides=None, name="cfg.json"):
    doc = copy.deepcopy(BASE_CONFIG)
    for key, value in (overrides or {}).items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def last_json_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


# -- run --------------------------------------------------------------------------

def test_run_writes_per_seed_and_aggregate_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "runs"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    for s in (0, 1, 2):
        assert (out / f"steps_seed{s}.csv").exists()
        assert (out / f"report_seed{s}.json").exists()
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == ",".join(cli.RUN_SUMMARY_COLUMNS)
    assert len(lines) == 4


def test_run_zero_epochs_noop(tmp_path):
    cfg = write_config(tmp_path, {"train": {"epochs": 0, "warmup_steps": 3,
                                            "guidance": {"lambda1": 0.0, "lambda2": 0.0,
                                                         "lambda3": 0.0}},
                                  "seeds": [0]})
    out = tmp_path / "runs"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    steps = (out / "steps_seed0.csv").read_text().splitlines()
    assert len(steps) == 1  # header only
    report = json.loads((out / "report_seed0.json").read_text())
    assert report["records"] == []
    assert report["final"]["final_loss"] is None
    row = (out / "summary.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "0" and row[2] == "" and row[4] == ""


def test_run_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("summary.csv", "steps_seed0.csv", "steps_seed1.csv", "steps_seed2.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    r1 = json.loads((out1 / "report_seed0.json").read_text())
    r2 = json.loads((out2 / "report_seed0.json").read_text())
    r1["final"].pop("wall_time_s"), r2["final"].pop("wall_time_s")
    assert r1 == r2


def test_vanilla_method_forces_lambdas_to_zero(tmp_path):
    cfg = write_config(tmp_path, {"method": "vanilla", "seeds": [0]})
    out = tmp_path / "runs"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report_seed0.json").read_text())
    g = report["config"]["train"]["guidance"]
    assert g["lambda1"] == g["lambda2"] == g["lambda3"] == 0.0
    assert all(r["r_dir"] == 0.0 and r["r_mag"] == 0.0 for r in report["records"])


def test_run_requires_method(tmp_path, capsys):
    cfg = write_config(tmp_path, {"method": None})
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    payload = last_json_line(capsys)
    assert payload["error"] == "config" and payload["field"] == "method"


def test_run_requires_out(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert last_json_line(capsys)["field"] == "out"


@pytest.mark.parametrize("overrides,field", [
    ({"bogus": 1}, "bogus"),
    ({"model": {"kind": "perceptron", "input_dim": 6, "num_classes": 3}}, "model"),
    ({"task": {"kind": "uniform"}}, "task.kind"),
    ({"train": {"learning_rate": -1.0}}, "train"),
    ({"seeds": []}, "seeds"),
    ({"seeds": [0, 0]}, "seeds"),
    ({"method": "sgd"}, "method"),
    ({"loss_threshold": "low"}, "loss_threshold"),
    ({"model": dict(BASE_CONFIG["model"], init_scale="x")}, "model"),
    ({"model": dict(BASE_CONFIG["model"], init_seed=-1)}, "model"),
    ({"model": dict(BASE_CONFIG["model"], kind="mlp", hidden_dims="abc")}, "model"),
    ({"task": dict(PAIR_TASK, separation="x")}, "task"),
    ({"task": dict(PAIR_TASK, seed="x")}, "task"),
    ({"task": dict(PAIR_TASK, seed=-1)}, "task"),
    ({"task": dict(BASE_CONFIG["task"], separation="x")}, "task.separation"),
    ({"task": dict(BASE_CONFIG["task"], seed="x")}, "task.seed"),
    ({"task": dict(BASE_CONFIG["task"], seed=-1)}, "task.seed"),
    ({"task": dict(BASE_CONFIG["task"], dim="x")}, "task.dim"),
    ({"task": dict(BASE_CONFIG["task"], dim=16.5)}, "task.dim"),
    ({"task": dict(BASE_CONFIG["task"], n_per_class=True)}, "task.n_per_class"),
    ({"task": dict(BASE_CONFIG["task"], noise_std=None)}, "task.noise_std"),
    ({"train": {"seed": "x"}}, "train"),
    ({"train": {"seed": True}}, "train"),
    ({"train": {"seed": -1}}, "train"),
    ({"train": {"seed": 1.5}}, "train"),
])
def test_config_errors_name_the_field(tmp_path, capsys, overrides, field):
    cfg = write_config(tmp_path, overrides)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    payload = last_json_line(capsys)
    assert payload["error"] == "config" and payload["field"] == field


def test_unparseable_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert last_json_line(capsys)["field"] == "config"


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_names_seed_and_step(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"kind": "logistic", "input_dim": 6, "num_classes": 3,
                  "init_scale": 8e307, "init_seed": 1},
        "task": {"kind": "gaussian", "dim": 6, "num_classes": 3, "n_per_class": 40,
                 "separation": 4.0, "noise_std": 0.6, "seed": 5},
        "method": "vanilla",
        "train": {"epochs": 1, "warmup_steps": 0,
                  "guidance": {"lambda1": 0.0, "lambda2": 0.0, "lambda3": 0.0}},
        "seeds": [0]})
    out = tmp_path / "runs"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    payload = last_json_line(capsys)
    assert payload["error"] == "divergence"
    assert payload["seed"] == 0 and payload["step"] >= 1
    # machine-readable copy lands next to the artifacts
    assert json.loads((out / "error.json").read_text()) == payload


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_warmup_overflow_is_a_divergence_at_step_0(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"kind": "logistic", "input_dim": 6, "num_classes": 3,
                  "init_scale": 8e307, "init_seed": 1},
        "train": {"epochs": 1, "warmup_steps": 2,
                  "guidance": {"lambda1": 0.2, "lambda2": 0.1, "lambda3": 0.0}},
        "seeds": [0]})
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 3
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "divergence" and payload["step"] == 0
    assert "warmup" in payload["detail"]
    assert "Traceback" not in captured.out + captured.err


# -- sweep ------------------------------------------------------------------------

def test_sweep_rows_and_mean_summary(tmp_path):
    cfg = write_config(tmp_path, {"seeds": [0, 1]})
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--config", str(cfg), "--shots", "4,8",
                     "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == ",".join(cli.SWEEP_COLUMNS)
    assert len(rows) == 1 + 4
    summary = (out / "sweep_summary.csv").read_text().splitlines()
    assert summary[0] == ",".join(cli.SWEEP_SUMMARY_COLUMNS)
    assert [line.split(",")[0] for line in summary[1:]] == ["4", "8"]
    # mean of the two per-seed accuracies, reproduced from the row file
    accs = [float(r.split(",")[2]) for r in rows[1:] if r.startswith("4,")]
    assert float(summary[1].split(",")[1]) == pytest.approx(sum(accs) / 2, abs=1e-15)


def test_sweep_single_point_equals_run_at_those_shots(tmp_path):
    run_cfg = write_config(tmp_path, {"seeds": [0],
                                      "split": {"shots_per_class": 4,
                                                "eval_fraction": 1.0}},
                           name="run.json")
    sweep_cfg = write_config(tmp_path, {"seeds": [0]}, name="sweep.json")
    out_r, out_s = tmp_path / "r", tmp_path / "s"
    assert cli.main(["run", "--config", str(run_cfg), "--out", str(out_r)]) == 0
    assert cli.main(["sweep", "--config", str(sweep_cfg), "--shots", "4",
                     "--out", str(out_s)]) == 0
    run_row = (out_r / "summary.csv").read_text().splitlines()[1].split(",")
    sweep_row = (out_s / "sweep.csv").read_text().splitlines()[1].split(",")
    # same accuracy/stability/alignment cells, byte for byte
    assert run_row[1:4] == sweep_row[2:5]


def test_sweep_rerun_identical(tmp_path):
    cfg = write_config(tmp_path, {"seeds": [0]})
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        assert cli.main(["sweep", "--config", str(cfg), "--shots", "4,8",
                         "--out", str(out)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "sweep_summary.csv").read_bytes() == (out2 / "sweep_summary.csv").read_bytes()


def test_sweep_insufficient_shots(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seeds": [0]})
    assert cli.main(["sweep", "--config", str(cfg), "--shots", "4,1000",
                     "--out", str(tmp_path / "x")]) == 3
    payload = last_json_line(capsys)
    assert payload["field"] == "shots" and payload["shots"] == 1000


@pytest.mark.parametrize("shots", ["", "8,4", "4,4", "0,8", "a,b"])
def test_sweep_rejects_bad_shot_lists(tmp_path, capsys, shots):
    cfg = write_config(tmp_path, {"seeds": [0]})
    assert cli.main(["sweep", "--config", str(cfg), "--shots", shots,
                     "--out", str(tmp_path / "x")]) == 2
    assert last_json_line(capsys)["field"] == "shots"


# -- compare ----------------------------------------------------------------------

def test_compare_requires_pair_task(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["compare", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert last_json_line(capsys)["field"] == "task.kind"


def test_compare_schema_and_zero_lambda_collapse(tmp_path):
    cfg = write_config(tmp_path, {
        "task": PAIR_TASK, "seeds": [0, 1],
        "train": {"learning_rate": 0.05, "epochs": 1, "batch_size": 20,
                  "warmup_steps": 3,
                  "guidance": {"lambda1": 0.0, "lambda2": 0.0, "lambda3": 0.0}}})
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == ",".join(cli.COMPARE_COLUMNS)
    assert len(lines) == 1 + 2 * 3
    # with every lambda at zero the guided methods are the vanilla run,
    # so all numeric cells must agree exactly within a seed
    by_seed = {}
    for line in lines[1:]:
        cells = line.split(",")
        by_seed.setdefault(cells[1], []).append(cells[2:])
    for rows in by_seed.values():
        assert rows[0] == rows[1] == rows[2]
    summary = (out / "compare_summary.csv").read_text().splitlines()
    assert summary[0] == ",".join(cli.COMPARE_SUMMARY_COLUMNS)
    assert [line.split(",")[0] for line in summary[1:]] == list(cli.METHODS)


def test_compare_guided_differs_with_active_lambdas(tmp_path):
    cfg = write_config(tmp_path, {"task": PAIR_TASK, "seeds": [0]})
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "compare.csv").read_text().splitlines()[1:]
    vanilla = [l for l in lines if l.startswith("vanilla,")][0]
    exact = [l for l in lines if l.startswith("guided-exact,")][0]
    assert vanilla.split(",")[6] != exact.split(",")[6]  # final_loss differs


# -- jsonl plumbing ---------------------------------------------------------------

def test_jsonl_task_end_to_end(tmp_path):
    full = tk.make_gaussian_task(dim=4, num_classes=2, n_per_class=30,
                                 separation=2.5, noise_std=0.5, seed=9)
    train, hold = tk.few_shot_split(full, 20, 1.0, 0)
    tk.save_jsonl(tmp_path / "train.jsonl", train)
    tk.save_jsonl(tmp_path / "eval.jsonl", hold)
    cfg = write_config(tmp_path, {
        "model": {"kind": "logistic", "input_dim": 4, "num_classes": 2},
        "task": {"kind": "jsonl", "train_path": str(tmp_path / "train.jsonl"),
                 "eval_path": str(tmp_path / "eval.jsonl")},
        "train": {"epochs": 2, "warmup_steps": 2,
                  "guidance": {"lambda1": 0.1, "lambda2": 0.1, "lambda3": 0.0}},
        "seeds": [0]})
    out = tmp_path / "runs"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report_seed0.json").read_text())
    assert report["final"]["final_accuracy"] >= 0.5


def test_missing_jsonl_file_is_a_task_error(tmp_path, capsys):
    missing = tmp_path / "nofile.jsonl"
    cfg = write_config(tmp_path, {"task": {"kind": "jsonl", "train_path": str(missing)},
                                  "seeds": [0]})
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    captured = capsys.readouterr()
    payload = json.loads(captured.out.strip().splitlines()[-1])
    assert payload["error"] == "task" and str(missing) in payload["detail"]
    assert "Traceback" not in captured.out + captured.err


def test_non_utf8_jsonl_file_is_a_task_error(tmp_path, capsys):
    path = tmp_path / "bom16.jsonl"
    path.write_bytes(b"\xff\xfe\x00")
    cfg = write_config(tmp_path, {"task": {"kind": "jsonl", "train_path": str(path)},
                                  "method": "vanilla", "seeds": [0]})
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    captured = capsys.readouterr()
    payload = json.loads(captured.out.strip().splitlines()[-1])
    assert payload["error"] == "task" and str(path) in payload["detail"]
    assert "UTF-8" in payload["detail"]
    assert "Traceback" not in captured.out + captured.err


# 10**12 points per class cannot be allocated, so numpy refuses the request
# itself; no size that could actually be allocated is tried here.
@pytest.mark.parametrize("task", [
    dict(BASE_CONFIG["task"], dim=10**12),
    dict(PAIR_TASK, dim=10**12),
], ids=["gaussian", "pair"])
def test_task_too_large_for_memory_is_a_task_error(tmp_path, capsys, task):
    cfg = write_config(tmp_path, {"task": task, "seeds": [0]})
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    captured = capsys.readouterr()
    payload = json.loads(captured.out.strip().splitlines()[-1])
    assert payload["error"] == "task" and "memory" in payload["detail"]
    assert "Traceback" not in captured.out + captured.err


# -- check-grads ------------------------------------------------------------------

def test_check_grads_passes_on_default_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seeds": [0]})
    assert cli.main(["check-grads", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "STATUS ok" in out
    assert "FAIL" not in out
    for component in ("base_loss", "total_loss", "hvp", "hvp_dual"):
        assert component in out


def test_check_grads_vanilla_skips_second_order(tmp_path, capsys):
    cfg = write_config(tmp_path, {"method": "vanilla", "seeds": [0]})
    assert cli.main(["check-grads", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "base_loss" in out
    assert "total_loss" not in out and "hvp" not in out


def test_check_grads_names_corrupted_op(tmp_path, capsys, monkeypatch):
    orig = ad._BACKWARD["tanh"]

    def bad(o, inputs, out, g, attrs):
        grads = orig(o, inputs, out, g, attrs)
        return tuple(o.scalar_mul(t, 2.0) if t is not None else None for t in grads)

    monkeypatch.setitem(ad._BACKWARD, "tanh", bad)
    cfg = write_config(tmp_path, {"method": "vanilla", "seeds": [0]})
    assert cli.main(["check-grads", "--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "op:tanh" in out and "FAIL" in out
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["error"] == "tolerance"
    assert any(f["component"] == "op:tanh" for f in payload["failures"])


def test_check_grads_rejects_large_model(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"kind": "mlp", "input_dim": 6, "num_classes": 3,
                  "hidden_dims": [64, 64]}})
    assert cli.main(["check-grads", "--config", str(cfg)]) == 2
    assert last_json_line(capsys)["field"] == "model"


def test_op_battery_covers_every_recorded_op():
    assert set(cli._op_cases()) == set(ad.OP_KINDS)
