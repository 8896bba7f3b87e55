"""CLI contract: artifacts, error payloads, determinism, diagnostics."""

import copy
import ctypes
import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gradguide import autodiff as ad
from gradguide import cli
from gradguide import fields
from gradguide import metrics as mt
from gradguide import tasks as tk
from gradguide import trainer as tr

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


# -- allocator policy -------------------------------------------------------------

def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    return True


@pytest.mark.skipif(not _has_mallopt(), reason="no mallopt (not glibc)")
def test_keep_freed_memory_stops_refaulting_freed_arrays():
    # at glibc's defaults each round maps three fresh 5 MB arrays and faults
    # their ~3.8k pages in again
    script = textwrap.dedent("""
        import resource
        import numpy as np
        from gradguide import cli

        def one_round():
            arrays = [np.ones(655_360) for _ in range(3)]
            del arrays

        cli._keep_freed_memory()
        one_round()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            one_round()
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 200


class _FakeMallopt:
    def __init__(self, accepts: bool):
        self.accepts = accepts
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return int(self.accepts)


def test_keep_freed_memory_sets_both_thresholds(monkeypatch):
    mallopt = _FakeMallopt(accepts=True)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    cli._keep_freed_memory()
    assert mallopt.argtypes == [ctypes.c_int, ctypes.c_int]
    assert mallopt.restype is ctypes.c_int
    assert mallopt.calls == [(cli.M_MMAP_THRESHOLD, 32 * 2 ** 20),
                             (cli.M_TRIM_THRESHOLD, 256 * 2 ** 20)]


def test_keep_freed_memory_sets_no_trim_threshold_alone(monkeypatch):
    # a trim threshold alone would switch off glibc's dynamic mmap threshold
    mallopt = _FakeMallopt(accepts=False)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    cli._keep_freed_memory()
    assert mallopt.calls == [(cli.M_MMAP_THRESHOLD, 32 * 2 ** 20)]


@pytest.mark.parametrize("error", [OSError, TypeError])
def test_keep_freed_memory_without_libc_is_a_no_op(monkeypatch, error):
    def no_libc(name):
        raise error("no C library")

    monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
    cli._keep_freed_memory()


def test_keep_freed_memory_without_mallopt_is_a_no_op(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace())
    cli._keep_freed_memory()


def test_main_keeps_freed_memory_before_parsing_the_config(tmp_path, capsys, monkeypatch):
    calls = []
    parse = cli.parse_config
    monkeypatch.setattr(cli, "_keep_freed_memory", lambda: calls.append("keep"))
    monkeypatch.setattr(cli, "parse_config", lambda path: calls.append("parse") or parse(path))
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    assert calls == ["keep", "parse"]
    assert last_json_line(capsys)["field"] == "config"


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


# -- config.json ------------------------------------------------------------------

def _jsonl_task(tmp_path) -> dict:
    full = tk.make_gaussian_task(dim=6, num_classes=3, n_per_class=30,
                                 separation=2.5, noise_std=0.5, seed=9)
    train, hold = tk.few_shot_split(full, 20, 1.0, 0)
    tk.save_jsonl(tmp_path / "train.jsonl", train)
    tk.save_jsonl(tmp_path / "eval.jsonl", hold)
    return {"kind": "jsonl", "train_path": str(tmp_path / "train.jsonl"),
            "eval_path": str(tmp_path / "eval.jsonl")}


_RECORDED_TASKS = {
    # defaults left out, to be filled in by the recorded config
    "gaussian": ({"kind": "gaussian", "dim": 6, "num_classes": 3, "n_per_class": 40},
                 {"kind": "gaussian", "dim": 6, "num_classes": 3, "n_per_class": 40,
                  "separation": 2.0, "noise_std": 0.5, "seed": 0}),
    "pair": (PAIR_TASK, dict(PAIR_TASK, kind="pair")),
}


def _assert_same_run_dirs(a, b):
    """Same files, byte for byte, reports apart from their wall time."""
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b)) and "config.json" in names
    for name in names:
        if name.startswith("report_seed"):
            ra, rb = (json.loads((d / name).read_text()) for d in (a, b))
            ra["final"].pop("wall_time_s"), rb["final"].pop("wall_time_s")
            assert ra == rb, name
        else:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _recorded(out, cfg_path, split):
    """The config.json in ``out``, checked against the parsed config."""
    text = (out / "config.json").read_text()
    assert text == json.dumps(fields.to_dict(cli.parse_config(cfg_path)), indent=2) + "\n"
    recorded = json.loads(text)
    assert recorded["split"] == (split and dict(split, eval_fraction=1.0))
    assert recorded["train"]["guidance"]["beta"] == 0.9   # a default filled in
    return recorded


@pytest.mark.parametrize("split", [None, {"shots_per_class": 4}], ids=["no-split", "split"])
@pytest.mark.parametrize("kind", ["gaussian", "pair", "jsonl"])
def test_run_records_its_config_and_reruns_from_it(tmp_path, kind, split):
    if kind == "jsonl":
        task = _jsonl_task(tmp_path)
        filled = dict(task, source_path="")
    else:
        task, filled = _RECORDED_TASKS[kind]
    cfg = write_config(tmp_path, {"task": task, "split": split, "seeds": [0, 1],
                                  "out": "configured"})
    first, again = tmp_path / "first", tmp_path / "again"
    assert cli.main(["run", "--config", str(cfg), "--out", str(first)]) == 0
    recorded = _recorded(first, cfg, split)
    assert recorded["task"] == filled
    assert recorded["out"] == "configured"   # the --out override is not recorded
    assert cli.main(["run", "--config", str(first / "config.json"), "--out", str(again)]) == 0
    _assert_same_run_dirs(first, again)


def test_config_json_of_relative_jsonl_paths_reruns_from_another_directory(
        tmp_path, monkeypatch):
    data = tmp_path / "data"
    data.mkdir()
    task = _jsonl_task(data)
    task = {k: os.path.relpath(v, tmp_path) if k.endswith("_path") else v
            for k, v in task.items()}
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"task": task, "seeds": [0]})
    assert cli.main(["run", "--config", str(cfg), "--out", "first"]) == 0
    recorded = json.loads((tmp_path / "first" / "config.json").read_text())["task"]
    assert recorded["train_path"] == str(data / "train.jsonl")
    assert recorded["eval_path"] == str(data / "eval.jsonl")
    assert recorded["source_path"] == ""
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert cli.main(["run", "--config", str(tmp_path / "first" / "config.json"),
                     "--out", "again"]) == 0
    _assert_same_run_dirs(tmp_path / "first", elsewhere / "again")


@pytest.mark.parametrize("split", [None, {"shots_per_class": 4}], ids=["no-split", "split"])
def test_compare_records_its_config_and_reruns_from_it(tmp_path, split):
    cfg = write_config(tmp_path, {"task": PAIR_TASK, "split": split, "seeds": [0],
                                  "method": None})
    first, again = tmp_path / "first", tmp_path / "again"
    assert cli.main(["compare", "--config", str(cfg), "--out", str(first)]) == 0
    assert _recorded(first, cfg, split)["method"] is None
    assert cli.main(["compare", "--config", str(first / "config.json"),
                     "--out", str(again)]) == 0
    _assert_same_run_dirs(first, again)


def test_sweep_records_its_config(tmp_path):
    split = {"shots_per_class": 4}
    cfg = write_config(tmp_path, {"seeds": [0], "split": split})
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--config", str(cfg), "--shots", "4,8", "--out", str(out)]) == 0
    assert _recorded(out, cfg, split)["seeds"] == [0]


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


def _field_cases(*cases):
    """Params from (overrides, payload field[, id field]) tuples.  Where the
    payload names a field inside a section that the case once expected as a
    whole, the id keeps that section, so case ids stay stable."""
    return [pytest.param(c[0], c[1], id=f"overrides{i}-{c[-1]}") for i, c in enumerate(cases)]


@pytest.mark.parametrize("overrides,field", _field_cases(
    ({"bogus": 1}, "bogus"),
    ({"model": {"kind": "perceptron", "input_dim": 6, "num_classes": 3}}, "model.kind",
     "model"),
    ({"task": {"kind": "uniform"}}, "task.kind"),
    ({"train": {"learning_rate": -1.0}}, "train.learning_rate", "train"),
    ({"seeds": []}, "seeds"),
    ({"seeds": [0, 0]}, "seeds"),
    ({"method": "sgd"}, "method"),
    ({"loss_threshold": "low"}, "loss_threshold"),
    ({"model": dict(BASE_CONFIG["model"], init_scale="x")}, "model.init_scale", "model"),
    ({"model": dict(BASE_CONFIG["model"], init_seed=-1)}, "model.init_seed", "model"),
    ({"model": dict(BASE_CONFIG["model"], kind="mlp", hidden_dims="abc")},
     "model.hidden_dims", "model"),
    ({"task": dict(PAIR_TASK, separation="x")}, "task.separation", "task"),
    ({"task": dict(PAIR_TASK, seed="x")}, "task.seed", "task"),
    ({"task": dict(PAIR_TASK, seed=-1)}, "task.seed", "task"),
    ({"task": dict(BASE_CONFIG["task"], separation="x")}, "task.separation"),
    ({"task": dict(BASE_CONFIG["task"], seed="x")}, "task.seed"),
    ({"task": dict(BASE_CONFIG["task"], seed=-1)}, "task.seed"),
    ({"task": dict(BASE_CONFIG["task"], dim="x")}, "task.dim"),
    ({"task": dict(BASE_CONFIG["task"], dim=16.5)}, "task.dim"),
    ({"task": dict(BASE_CONFIG["task"], n_per_class=True)}, "task.n_per_class"),
    ({"task": dict(BASE_CONFIG["task"], noise_std=None)}, "task.noise_std"),
    ({"train": {"seed": "x"}}, "train.seed", "train"),
    ({"train": {"seed": True}}, "train.seed", "train"),
    ({"train": {"seed": -1}}, "train.seed", "train"),
    ({"train": {"seed": 1.5}}, "train.seed", "train"),
    # numbers beyond the float range, as JSON can carry them
    ({"train": {"learning_rate": 10 ** 400}}, "train.learning_rate", "train"),
    ({"train": {"guidance": {"lambda1": 10 ** 400}}}, "train.guidance.lambda1",
     "train"),
    ({"model": dict(BASE_CONFIG["model"], init_scale=10 ** 400)}, "model.init_scale",
     "model"),
    ({"model": dict(BASE_CONFIG["model"], input_dim=float("inf"))}, "model.input_dim",
     "model"),
    ({"task": dict(PAIR_TASK, dim=float("inf"))}, "task.dim", "task"),
    ({"task": dict(PAIR_TASK, separation=10 ** 400)}, "task.separation", "task"),
    ({"task": dict(BASE_CONFIG["task"], separation=10 ** 400)}, "task.separation"),
    ({"task": dict(BASE_CONFIG["task"], noise_std=float("nan"))}, "task.noise_std"),
    ({"loss_threshold": 10 ** 400}, "loss_threshold"),
    ({"loss_threshold": True}, "loss_threshold"),
    ({"split": {"shots_per_class": True}}, "split.shots_per_class"),
    ({"split": {"shots_per_class": 4, "eval_fraction": True}}, "split.eval_fraction"),
    # values that int() or float() would silently turn into another model or task
    ({"model": dict(BASE_CONFIG["model"], input_dim=6.9)}, "model.input_dim", "model"),
    ({"model": dict(BASE_CONFIG["model"], num_classes=3.0)}, "model.num_classes",
     "model"),
    ({"model": dict(BASE_CONFIG["model"], kind="mlp", hidden_dims=[True, 4.5])},
     "model.hidden_dims", "model"),
    ({"model": dict(BASE_CONFIG["model"], kind="mlp", hidden_dims="44")},
     "model.hidden_dims", "model"),
    ({"model": dict(BASE_CONFIG["model"], init_seed=2.7)}, "model.init_seed", "model"),
    ({"model": dict(BASE_CONFIG["model"], init_scale="0.3")}, "model.init_scale",
     "model"),
    ({"model": dict(BASE_CONFIG["model"], init_scale=True)}, "model.init_scale",
     "model"),
    ({"task": dict(PAIR_TASK, seed=5.5)}, "task.seed", "task"),
    ({"task": dict(PAIR_TASK, dim=6.0)}, "task.dim", "task"),
    ({"task": dict(PAIR_TASK, n_per_class=True)}, "task.n_per_class", "task"),
    ({"task": dict(PAIR_TASK, separation="2.0")}, "task.separation", "task"),
    ({"task": dict(PAIR_TASK, conflict_angle_deg=False)}, "task.conflict_angle_deg",
     "task"),
    # misspelt or mistyped fields that used to run another experiment
    ({"model": dict(BASE_CONFIG["model"], kind="mlp", hiden_dims=[8])},
     "model.hiden_dims", "model"),
    ({"task": dict(PAIR_TASK, conflict_angle=90)}, "task.conflict_angle", "task"),
    ({"train": dict(BASE_CONFIG["train"], epochs=True)}, "train.epochs", "train"),
    ({"train": dict(BASE_CONFIG["train"], learning_rate=True)}, "train.learning_rate",
     "train"),
    ({"train": dict(BASE_CONFIG["train"], batch_size=True)}, "train.batch_size",
     "train"),
    ({"train": dict(BASE_CONFIG["train"], gradient_clip=float("inf"))},
     "train.gradient_clip", "train"),
    ({"train": dict(BASE_CONFIG["train"],
                    guidance=dict(BASE_CONFIG["train"]["guidance"], lambda1=True))},
     "train.guidance.lambda1", "train"),
    ({"train": dict(BASE_CONFIG["train"],
                    guidance=dict(BASE_CONFIG["train"]["guidance"], tau=True))},
     "train.guidance.tau", "train"),
    # a path that is not a string used to be opened as a file descriptor
    ({"task": {"kind": "jsonl", "train_path": "t.jsonl", "source_path": True}},
     "task.source_path"),
    # range rules inside a section name their field too
    ({"train": {"guidance": {"lambda1": -0.5}}}, "train.guidance.lambda1"),
    ({"task": dict(PAIR_TASK, conflict_angle_deg=270.0)}, "task.conflict_angle_deg"),
    ({"model": dict(BASE_CONFIG["model"], kind="tiny_attention", hidden_dims=[4])},
     "model.hidden_dims"),
))
def test_config_errors_name_the_field(tmp_path, capsys, overrides, field):
    cfg = write_config(tmp_path, overrides)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    payload = last_json_line(capsys)
    assert payload["error"] == "config" and payload["field"] == field


def _guidance(**kw):
    return dict(BASE_CONFIG["train"], guidance=dict(BASE_CONFIG["train"]["guidance"], **kw))


@pytest.mark.parametrize("overrides,field", [pytest.param(*case, id=case[1]) for case in [
    # a gaussian task's ranges, as a pair task's
    ({"task": dict(BASE_CONFIG["task"], dim=1)}, "task.dim"),
    ({"task": dict(BASE_CONFIG["task"], num_classes=1)}, "task.num_classes"),
    ({"task": dict(BASE_CONFIG["task"], n_per_class=0)}, "task.n_per_class"),
    ({"task": dict(BASE_CONFIG["task"], separation=-1.0)}, "task.separation"),
    ({"task": dict(BASE_CONFIG["task"], noise_std=-1.0)}, "task.noise_std"),
    # a value outside its closed set
    ({"model": dict(BASE_CONFIG["model"], kind="cnn")}, "model.kind"),
    ({"train": dict(BASE_CONFIG["train"], optimizer="rmsprop")}, "train.optimizer"),
    ({"train": dict(BASE_CONFIG["train"], batch_size="half")}, "train.batch_size"),
    ({"train": _guidance(mode="second-order")}, "train.guidance.mode"),
    ({"train": _guidance(tau="x")}, "train.guidance.tau"),
    ({"method": "guided"}, "method"),
]])
@pytest.mark.parametrize("command", ["run", "sweep", "compare"])
def test_out_of_range_and_closed_set_values_exit_2_before_any_output(
        tmp_path, capsys, command, overrides, field):
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / "x"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    payload = last_json_line(capsys)
    assert payload["error"] == "config" and payload["field"] == field
    assert not out.exists()


_TINY = math.nextafter(0.0, 1.0)          # the least float above 0
_BELOW_0 = -_TINY
_BELOW_1 = math.nextafter(1.0, 0.0)
_MLP = {"model": dict(BASE_CONFIG["model"], kind="mlp", hidden_dims=[4])}
_PAIR = {"task": PAIR_TASK}
_SPLIT = {"split": {"shots_per_class": 4}}

# Every ranged field of every section, at each of its ends: the sections its
# config needs, its dotted path, the end's value, and the value one step
# (1, or one float) outside it.
_RANGE_ENDS = [
    ({}, "model.input_dim", 1, 0),
    ({}, "model.num_classes", 2, 1),
    (_MLP, "model.hidden_dims", [4, 1], [4, 0]),
    ({}, "model.init_scale", 0.0, _BELOW_0),
    ({}, "model.init_seed", 0, -1),
    ({}, "task.dim", 2, 1),
    ({}, "task.num_classes", 2, 1),
    ({}, "task.n_per_class", 1, 0),
    ({}, "task.separation", 0.0, _BELOW_0),
    ({}, "task.noise_std", 0.0, _BELOW_0),
    ({}, "task.seed", 0, -1),
    (_PAIR, "task.dim", 2, 1),
    (_PAIR, "task.num_classes", 2, 1),
    (_PAIR, "task.separation", _TINY, 0.0),
    (_PAIR, "task.conflict_angle_deg", 0.0, _BELOW_0),
    (_PAIR, "task.conflict_angle_deg", 180.0, math.nextafter(180.0, 181.0)),
    (_PAIR, "task.noise_std", 0.0, _BELOW_0),
    (_PAIR, "task.seed", 0, -1),
    (_PAIR, "task.n_per_class", 1, 0),
    (_SPLIT, "split.shots_per_class", 1, 0),
    (_SPLIT, "split.eval_fraction", _TINY, 0.0),
    (_SPLIT, "split.eval_fraction", 1.0, math.nextafter(1.0, 2.0)),
    ({}, "train.learning_rate", _TINY, 0.0),
    ({}, "train.adam_betas", [0.0, 0.5], [_BELOW_0, 0.5]),
    ({}, "train.adam_betas", [0.5, _BELOW_1], [0.5, 1.0]),
    ({}, "train.adam_eps", _TINY, 0.0),
    ({}, "train.epochs", 0, -1),
    ({}, "train.batch_size", 1, 0),
    ({}, "train.seed", 0, -1),
    ({}, "train.warmup_steps", 0, -1),
    ({}, "train.gradient_clip", 0.0, _BELOW_0),
    ({}, "train.eval_interval", 1, 0),
    ({}, "train.guidance.lambda1", 0.0, _BELOW_0),
    ({}, "train.guidance.lambda2", 0.0, _BELOW_0),
    ({}, "train.guidance.lambda3", 0.0, _BELOW_0),
    ({}, "train.guidance.tau", _TINY, 0.0),
    ({}, "train.guidance.beta", 0.0, _BELOW_0),
    ({}, "train.guidance.beta", _BELOW_1, 1.0),
    ({}, "train.guidance.epsilon_norm_guard", _TINY, 0.0),
    ({}, "seeds", [0], [-1]),
]


def _with_value(tmp_path, sections, path, value):
    doc = copy.deepcopy({**BASE_CONFIG, **sections})
    *outer, name = path.split(".")
    section = doc
    for key in outer:
        section = section[key]
    section[name] = value
    return write_config(tmp_path, doc)


@pytest.mark.parametrize("sections,path,end,outside",
                         [pytest.param(*case, id=f"{'pair ' * (case[0] is _PAIR)}{case[1]}={case[2]}")
                          for case in _RANGE_ENDS])
def test_each_ranged_field_takes_its_end_and_refuses_one_step_past_it(
        tmp_path, capsys, sections, path, end, outside):
    parsed = cli.parse_config(_with_value(tmp_path, sections, path, end))
    for key in path.split("."):
        parsed = getattr(parsed, key)
    assert parsed == (tuple(end) if isinstance(end, list) else end)
    out = tmp_path / "x"
    cfg = _with_value(tmp_path, sections, path, outside)
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    payload = last_json_line(capsys)
    assert payload["error"] == "config" and payload["field"] == path
    assert not out.exists()


@pytest.mark.parametrize("text,key", [
    ('"method": "vanilla", "seeds": [0], "method": "guided-exact"', "method"),
    ('"method": "vanilla", "seeds": [0], "seeds": [1]', "seeds"),
    ('"method": "vanilla", "seeds": [0], "split": {"shots_per_class": 4, "shots_per_class": 8}',
     "split.shots_per_class"),
    ('"method": "vanilla", "seeds": [0], '
     '"train": {"guidance": {"lambda1": 0.1, "lambda2": 0.1, "lambda1": 0.2}}',
     "train.guidance.lambda1"),
], ids=["method", "seeds", "split", "nested"])
def test_a_key_given_twice_is_a_config_error_naming_it(tmp_path, capsys, text, key):
    model, task = (json.dumps(BASE_CONFIG[k]) for k in ("model", "task"))
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"model": {model}, "task": {task}, {text}}}')
    out = tmp_path / "x"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    payload = last_json_line(capsys)
    assert payload["error"] == "config" and payload["field"] == key
    assert f"duplicate key {key!r}" in payload["detail"] and not out.exists()


def test_unparseable_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert last_json_line(capsys)["field"] == "config"


@pytest.mark.parametrize("content", [
    b"\xff\xfe\x00",                          # not UTF-8
    b'{"seeds": [' + b"1" * 5000 + b"]}",       # more digits than int() converts
    b"[" * 100_000 + b"]" * 100_000,            # nested deeper than the decoder recurses
], ids=["non-utf8", "long-int", "deep"])
def test_config_json_cannot_load_is_a_config_error(tmp_path, capsys, content):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert last_json_line(capsys)["field"] == "config"


# -- config fuzz ------------------------------------------------------------------

_EXTREMES = st.sampled_from([0, -1, 1, 2 ** 31, 2 ** 63, -2 ** 63, 10 ** 400, -10 ** 400,
                             1e308, -1e308, 5e-324, 0.0, -0.0, float("inf"),
                             float("-inf"), float("nan"), "", "full", "auto", True, None])
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    st.text(max_size=6), _EXTREMES)
_ANY = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)

# Valid documents of every model and task kind; the fuzz changes a few
# fields of one, so that most documents get past the early sections.
_MODELS = [{"kind": "logistic", "input_dim": 8, "num_classes": 3, "init_seed": 1},
           {"kind": "mlp", "input_dim": 8, "num_classes": 3, "hidden_dims": [4],
            "init_scale": 0.5},
           {"kind": "tiny_attention", "input_dim": 8, "num_classes": 3,
            "hidden_dims": [2, 4]}]
_TASKS = [dict(BASE_CONFIG["task"]), dict(PAIR_TASK),
          {"kind": "jsonl", "train_path": "t.jsonl", "eval_path": "e.jsonl"}]
_TRAIN = {"optimizer": "adam", "learning_rate": 0.01, "adam_betas": [0.9, 0.99],
          "adam_eps": 1e-8, "epochs": 2, "batch_size": 16, "seed": 0, "warmup_steps": 2,
          "gradient_clip": 1.0, "eval_interval": 3,
          "guidance": {"lambda1": 0.2, "lambda2": 0.1, "lambda3": 0.0, "tau": "auto",
                       "beta": 0.9, "mode": "exact", "epsilon_norm_guard": 1e-8}}
_TOP = {"method": "guided-fd", "seeds": [0, 3], "out": "runs",
        "split": {"shots_per_class": 4, "eval_fraction": 0.5}, "loss_threshold": 0.5}
_PATHS = ([(k,) for k in ("model", "task", "train", "bogus", *_TOP)]
          + [("model", k) for k in sorted({k for m in _MODELS for k in m} | {"init_scale"})]
          + [("task", k) for k in sorted({k for t in _TASKS for k in t} | {"source_path"})]
          + [("train", k) for k in _TRAIN] + [("train", "guidance", k) for k in
                                               _TRAIN["guidance"]]
          + [("split", k) for k in _TOP["split"]])
_DELETE = object()


def _mutated(base, edits):
    doc = copy.deepcopy(base)
    for path, value in edits:
        node = doc
        for key in path[:-1]:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        if value is _DELETE:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = value
    return doc


_CONFIG_DOCS = st.one_of(
    st.builds(lambda m, t, edits: _mutated({"model": m, "task": t, "train": _TRAIN, **_TOP},
                                           edits),
              st.sampled_from(_MODELS), st.sampled_from(_TASKS),
              st.lists(st.tuples(st.sampled_from(_PATHS),
                                 st.one_of(_EXTREMES, _ANY, st.just(_DELETE))),
                       min_size=1, max_size=3)),
    _ANY)


@settings(database=None, derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=_CONFIG_DOCS)
def test_parse_config_fuzz_gives_a_config_or_a_config_error(tmp_path, doc):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    try:
        cfg = cli.parse_config(path)
    except cli.ConfigError as e:
        assert isinstance(e.field, str) and str(e)
    else:
        assert isinstance(cfg, cli.ExperimentConfig)
        # the recorded form reads back as the same config
        path.write_text(json.dumps(fields.to_dict(cfg)))
        assert cli.parse_config(path) == cfg


# Tiny configs of valid shape for every task kind, for whole commands: some
# values sit past a range (too many shots, a model narrower than the data, a
# source of more classes than a 2-class model, an angle past 180, a huge init
# or step), so every exit code comes up.
@st.composite
def _small_configs(draw):
    k = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["pair", "gaussian", "jsonl"]))
    if kind == "jsonl":
        task = {"kind": kind, "train_path": "train.jsonl",
                **draw(st.fixed_dictionaries({}, optional={
                    "eval_path": st.just("eval.jsonl"),
                    "source_path": st.sampled_from(["source.jsonl", "source3.jsonl"])}))}
    else:
        task = {"kind": kind, "dim": 4, "num_classes": k, "n_per_class": draw(st.integers(1, 8)),
                "separation": draw(st.sampled_from([2.0, 2.0, 0.0])), "seed": draw(st.integers(0, 3))}
        if kind == "pair":
            task.update(noise_std=0.5,
                        conflict_angle_deg=draw(st.sampled_from([0.0, 90.0, 180.0, 270.0])))
    model = {"kind": draw(st.sampled_from(["logistic", "mlp", "tiny_attention"])),
             "input_dim": draw(st.sampled_from([4, 4, 4, 2])), "num_classes": k,
             "init_scale": draw(st.sampled_from([0.1, 0.1, 8e307]))}
    if model["kind"] != "logistic":
        model["hidden_dims"] = [2, 2] if model["kind"] == "tiny_attention" else [3]
    train = {"optimizer": draw(st.sampled_from(["sgd", "adam"])),
             "learning_rate": draw(st.sampled_from([0.05, 0.05, 1e300])),
             "epochs": draw(st.integers(0, 2)), "batch_size": draw(st.sampled_from([4, "full"])),
             "warmup_steps": draw(st.integers(0, 2)), "eval_interval": 2,
             "guidance": {"lambda1": draw(st.sampled_from([0.0, 0.2])), "lambda2": 0.1,
                          "lambda3": draw(st.sampled_from([0.0, 0.0, 0.1])),
                          "tau": draw(st.sampled_from(["auto", 1.0]))}}
    doc = {"model": model, "task": task, "train": train,
           "method": draw(st.sampled_from([*cli.METHODS, None])),
           "seeds": draw(st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True))}
    optional = st.fixed_dictionaries({}, optional={
        "split": st.fixed_dictionaries({"shots_per_class": st.integers(1, 6)},
                                       optional={"eval_fraction": st.sampled_from([0.5, 1.0])}),
        "loss_threshold": st.just(0.5)})
    return {**doc, **draw(optional)}


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value", "ignore:divide by zero")
@settings(database=None, derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=_small_configs())
def test_main_fuzz_exits_0_2_or_3_with_one_json_line(tmp_path, monkeypatch, capsys, doc):
    # check-grads may also exit 1 (a tolerance failure), and prints its
    # PASS/FAIL lines before the JSON line
    monkeypatch.chdir(tmp_path)
    if not os.path.exists("train.jsonl"):
        full = tk.make_gaussian_task(4, 2, 10, 2.0, 0.5, seed=1)
        train, hold = tk.few_shot_split(full, 6, 1.0, 0)
        tk.save_jsonl("train.jsonl", train)
        tk.save_jsonl("eval.jsonl", hold)
        tk.save_jsonl("source.jsonl", tk.make_gaussian_task(4, 2, 5, 2.0, 0.5, seed=2))
        tk.save_jsonl("source3.jsonl", tk.make_gaussian_task(4, 3, 4, 2.0, 0.5, seed=3))
    with open("fuzz.json", "w") as f:
        json.dump(doc, f)
    for command in (["run"], ["sweep", "--shots", "2,4"], ["compare"], ["check-grads"]):
        with tempfile.TemporaryDirectory(dir=tmp_path) as out:
            out_args = [] if command == ["check-grads"] else ["--out", out]
            code = cli.main([*command, "--config", "fuzz.json", *out_args])
        captured = capsys.readouterr()
        assert code in ((0, 1, 2, 3) if command == ["check-grads"] else (0, 2, 3)), command
        assert "Traceback" not in captured.out + captured.err
        if code:
            lines = [ln for ln in captured.out.splitlines() if ln.startswith("{")]
            assert lines and captured.out.splitlines()[-1] == lines[-1], command
            assert len(lines) == 1 and json.loads(lines[0])["error"], command


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


def test_sweep_generates_each_seeds_task_once(tmp_path, monkeypatch):
    calls = []

    def counted(**kw):
        calls.append(kw["seed"])
        return make(**kw)

    make = tk.make_gaussian_task
    monkeypatch.setattr(tk, "make_gaussian_task", counted)
    cfg = write_config(tmp_path, {"seeds": [0, 1], "method": "vanilla"})
    assert cli.main(["sweep", "--config", str(cfg), "--shots", "2,4,6,8,10",
                     "--out", str(tmp_path / "sw")]) == 0
    assert sorted(calls) == [5, 6]   # task seed 5 plus each run seed


def test_run_and_compare_hold_no_unsplit_task_while_training(tmp_path, monkeypatch):
    # Only a sweep keeps each seed's whole task, for its other shot counts;
    # a run or compare trains on the split with the full inputs freed.
    made, live = [], []
    make, train = tk.make_task_pair, tr.train

    def tracked(spec):
        source, target = make(spec)
        made.append(weakref.ref(target.inputs))
        return source, target

    def checked(*args, **kwargs):
        gc.collect()
        live.append([r() is not None for r in made])
        return train(*args, **kwargs)

    monkeypatch.setattr(tk, "make_task_pair", tracked)
    monkeypatch.setattr(tr, "train", checked)
    cfg = write_config(tmp_path, {"task": PAIR_TASK, "seeds": [0, 1], "method": "vanilla",
                                  "split": {"shots_per_class": 4}})
    for command in ("run", "compare"):
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
    assert live and not any(any(v) for v in live)


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


@pytest.mark.parametrize("command,doc,field", [
    (["run"], {"method": None}, "method"),
    (["sweep", "--shots", "4,8"], {"method": None}, "method"),
    (["sweep", "--shots", "0"], {}, "shots"),
    (["sweep", "--shots", "4,true"], {}, "shots"),
    (["compare"], {}, "task.kind"),
], ids=["run_no_method", "sweep_no_method", "shots_0", "shots_true", "compare_no_pair"])
def test_a_command_precondition_error_writes_nothing(tmp_path, capsys, command, doc, field):
    # checked before the out directory is made, as every config-file error is
    cfg = write_config(tmp_path, {"seeds": [0], **doc})
    out = tmp_path / "x"
    assert cli.main([command[0], "--config", str(cfg), *command[1:], "--out", str(out)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["field"] == field
    assert not out.exists()


def test_a_shot_count_out_of_range_has_the_codecs_wording(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seeds": [0]})
    assert cli.main(["sweep", "--config", str(cfg), "--shots", "4,0",
                     "--out", str(tmp_path / "x")]) == 2
    assert last_json_line(capsys)["detail"] == "shots must be an integer >= 1, got 0"


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


def test_compare_rows_equal_run_rows_per_method(tmp_path):
    # compare trains each seed's methods on one shared materialization; each
    # method's row must still equal a run of that method alone
    train = dict(BASE_CONFIG["train"],
                 guidance={"lambda1": 0.2, "lambda2": 0.1, "lambda3": 0.1})
    split = {"shots_per_class": 4, "eval_fraction": 0.5}
    cfg = write_config(tmp_path, {"task": PAIR_TASK, "seeds": [0, 1], "split": split,
                                  "train": train}, name="compare.json")
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    compare_rows = [line.split(",")
                    for line in (out / "compare.csv").read_text().splitlines()[1:]]
    for method in cli.METHODS:
        run_cfg = write_config(tmp_path, {"task": PAIR_TASK, "seeds": [0, 1], "split": split,
                                          "train": train, "method": method},
                               name=f"{method}.json")
        run_out = tmp_path / method
        assert cli.main(["run", "--config", str(run_cfg), "--out", str(run_out)]) == 0
        run_rows = [line.split(",")
                    for line in (run_out / "summary.csv").read_text().splitlines()[1:]]
        rows = [r for r in compare_rows if r[0] == method]
        assert [r[1] for r in rows] == [r[0] for r in run_rows] == ["0", "1"]
        assert all(r[2] == "4" for r in rows)
        # avg_accuracy, gradient_stability, directional_alignment, final_loss
        assert [r[3:7] for r in rows] == [r[1:5] for r in run_rows]


def _count_training_work(monkeypatch):
    """Per training, in call order: its lambda3, its step count, and its
    calls of ``evaluate`` and of per-step source gradients."""
    trainings = []
    train, evaluate, sampled = tr.train, tr.evaluate, tr._sampled_gradient

    def counted_train(model_spec, task, config, *args, **kwargs):
        trainings.append({"lambda3": config.guidance.lambda3, "evaluations": 0, "source": 0})
        report = train(model_spec, task, config, *args, **kwargs)
        trainings[-1]["steps"] = len(report.records)
        return report

    def counted_evaluate(*args):
        trainings[-1]["evaluations"] += 1
        return evaluate(*args)

    def counted_sampled(*args):
        trainings[-1]["source"] += args[-1] == "source gradient"
        return sampled(*args)

    monkeypatch.setattr(tr, "train", counted_train)
    monkeypatch.setattr(tr, "evaluate", counted_evaluate)
    monkeypatch.setattr(tr, "_sampled_gradient", counted_sampled)
    return trainings


@pytest.mark.parametrize("lambda3", [0.0, 0.1])
@pytest.mark.parametrize("command,method", [("compare", None), ("sweep", "vanilla"),
                                            ("sweep", "guided-exact")])
def test_compare_and_sweep_train_for_their_summaries(tmp_path, monkeypatch, command,
                                                     method, lambda3):
    # one evaluation per training, of its final parameters, and a source
    # gradient per step only where the contrast term reads it
    trainings = _count_training_work(monkeypatch)
    train = dict(BASE_CONFIG["train"],
                 guidance={"lambda1": 0.2, "lambda2": 0.1, "lambda3": lambda3})
    cfg = write_config(tmp_path, {"task": PAIR_TASK, "seeds": [0], "train": train,
                                  "method": method})
    shots = ["--shots", "4,8"] if command == "sweep" else []
    assert cli.main([command, "--config", str(cfg), *shots, "--out", str(tmp_path / "out")]) == 0
    assert len(trainings) == (3 if command == "compare" else 2)
    for t in trainings:
        assert t["steps"] > 1 and t["evaluations"] == 1
        assert t["source"] == (t["steps"] if t["lambda3"] > 0.0 else 0)


def test_run_keeps_every_step_observable(tmp_path, monkeypatch):
    # vanilla on a pair task: 12 steps at eval_interval 5 evaluate steps 5
    # and 10, then the final parameters, and every step gets its cos_source
    trainings = _count_training_work(monkeypatch)
    cfg = write_config(tmp_path, {"task": PAIR_TASK, "seeds": [0], "method": "vanilla"})
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert trainings == [{"lambda3": 0.0, "evaluations": 3, "source": 12, "steps": 12}]
    header, *rows = [line.split(",") for line in
                     (out / "steps_seed0.csv").read_text().splitlines()]
    assert all(row[header.index("cos_source")] for row in rows)
    assert [row[0] for row in rows if row[header.index("eval_accuracy")]] == ["5", "10"]


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


def test_a_jsonl_line_with_a_key_given_twice_exits_3_naming_it(tmp_path, capsys):
    path = tmp_path / "train.jsonl"
    path.write_text('{"x": [1.0, 2.0], "y": 0}\n{"x": [1.0, 2.0], "y": 0, "y": 1}\n')
    cfg = write_config(tmp_path, {
        "model": {"kind": "logistic", "input_dim": 2, "num_classes": 2},
        "task": {"kind": "jsonl", "train_path": str(path)}, "seeds": [0]})
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 3
    payload = last_json_line(capsys)
    assert payload["error"] == "task" and payload["detail"] == f"{path}: line 2: duplicate key 'y'"


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def _huge_feature_config(tmp_path, train, method="vanilla"):
    """A logistic run on features of ~1e160."""
    rng = np.random.default_rng(4)
    task = tk.TaskDataset("huge", rng.uniform(-1.0, 1.0, (40, 4)) * 1e160,
                          np.arange(40) % 2, 2)
    tk.save_jsonl(tmp_path / "train.jsonl", task)
    return write_config(tmp_path, {
        "model": {"kind": "logistic", "input_dim": 4, "num_classes": 2},
        "task": {"kind": "jsonl", "train_path": str(tmp_path / "train.jsonl")},
        "train": {"batch_size": 20, "epochs": 2, "warmup_steps": 0, **train},
        "method": method, "seeds": [0]})


def test_run_whose_gradient_norms_overflow_ends_with_finite_reports(tmp_path):
    # Features of ~1e160 give gradient entries up to ~5e159, all finite,
    # whose sum of squares overflows: the norms are taken scaled, so the run
    # writes finite norms and stability instead of dying after training.
    # SGD at this rate takes steps of ~3e-3 (Adam's g·g would overflow).
    cfg = _huge_feature_config(tmp_path, {"optimizer": "sgd", "learning_rate": 1e-162})
    out = tmp_path / "runs"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    report = _strict_json((out / "report_seed0.json").read_text())
    _strict_json((out / "config.json").read_text())
    norms = [r["grad_norm"] for r in report["records"]]
    assert len(norms) == 4 and min(norms) > 1e154 and all(np.isfinite(norms))
    updates = [r["update_norm"] for r in report["records"]]
    assert all(1e-3 < u < 1e-2 for u in updates)
    header, row = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()]
    stability = float(row[header.index("gradient_stability")])
    assert stability == mt.gradient_stability([n * 2.0 ** -500 for n in norms])
    assert 0.0 < stability < 1.0


@pytest.mark.filterwarnings("ignore:overflow")
def test_overflowing_adam_second_moment_is_a_divergence(tmp_path, capsys):
    # the same ~1e160 features: g·g overflows, so Adam's v is inf and its
    # step for those weights would be 0; the run diverges at step 1
    cfg = _huge_feature_config(tmp_path, {"optimizer": "adam", "learning_rate": 0.001})
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 3
    captured = capsys.readouterr()
    payload = json.loads(captured.out.strip().splitlines()[-1])
    assert payload["error"] == "divergence" and payload["step"] == 1
    assert "non-finite Adam second moment" in payload["detail"]
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("method", ["guided-exact", "guided-fd"])
def test_overflowing_magnitude_penalty_is_a_divergence(method, tmp_path, capsys):
    # the same ~1e160 features: (|g| - tau)² of a gradient norm of ~1e160
    # overflows, so the step's loss is inf and the run diverges at step 1
    cfg = _huge_feature_config(tmp_path, {
        "optimizer": "sgd", "learning_rate": 0.001,
        "guidance": {"lambda1": 0.0, "lambda2": 0.1, "lambda3": 0.0, "tau": 1.0}}, method)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 3
    captured = capsys.readouterr()
    payload = json.loads(captured.out.strip().splitlines()[-1])
    assert payload["error"] == "divergence" and payload["step"] == 1
    assert "non-finite loss" in payload["detail"]
    assert "Traceback" not in captured.out + captured.err


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


@pytest.mark.parametrize("task,shots,blamed", [
    (dict(BASE_CONFIG["task"], dim=10**12), 4, False),   # the task, before any split
    (BASE_CONFIG["task"], 1000, True),                    # 40 examples per class
], ids=["task", "split"])
def test_only_an_error_of_the_split_names_the_shots(tmp_path, capsys, task, shots, blamed):
    cfg = write_config(tmp_path, {"task": task, "seeds": [0],
                                  "split": {"shots_per_class": shots}})
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    payload = last_json_line(capsys)
    assert payload["error"] == "task"
    assert (payload.get("field"), payload.get("shots")) == (("shots", shots) if blamed
                                                            else (None, None))


# A 10**6 x 10**6 weight matrix (8 TB) cannot be allocated, so numpy refuses
# the request itself; only the 48 MB first layer is drawn before it.
def test_model_too_large_for_memory_is_a_run_error(tmp_path, capsys):
    model = dict(BASE_CONFIG["model"], kind="mlp", hidden_dims=[10**6, 10**6])
    cfg = write_config(tmp_path, {"model": model, "seeds": [4]})
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    captured = capsys.readouterr()
    payload = json.loads(captured.out.strip().splitlines()[-1])
    assert payload["error"] == "run" and payload["seed"] == 4
    assert "memory" in payload["detail"]
    assert "Traceback" not in captured.out + captured.err


def test_schedule_too_large_for_memory_is_a_run_error(tmp_path, capsys, monkeypatch):
    def too_large(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(tr, "_epoch_batches", too_large)
    cfg = write_config(tmp_path, {"train": dict(BASE_CONFIG["train"], epochs=10**9),
                                  "seeds": [2]})
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    captured = capsys.readouterr()
    payload = json.loads(captured.out.strip().splitlines()[-1])
    assert payload == {"error": "run", "seed": 2, "detail": "out of memory"}
    assert "Traceback" not in captured.out + captured.err


_HUGE = 2 ** 70   # past numpy's size limit: it refuses the shape before allocating


def _huge_label_task(tmp_path) -> dict:
    path = tmp_path / "huge_label.jsonl"
    path.write_text(f'{{"x": [0.5, 1.0], "y": 0}}\n{{"x": [1.5, 2.0], "y": {_HUGE}}}\n')
    return {"kind": "jsonl", "train_path": str(path)}


@pytest.mark.parametrize("overrides,error,detail", [
    (lambda tmp: {"task": dict(BASE_CONFIG["task"], dim=_HUGE)}, "task",
     f"3 x 40 points of dim {_HUGE} do not fit in memory"),
    (lambda tmp: {"task": dict(PAIR_TASK, n_per_class=_HUGE)}, "task",
     f"3 x {_HUGE} points of dim 6 do not fit in memory"),
    (lambda tmp: {"model": dict(BASE_CONFIG["model"], kind="mlp", hidden_dims=[_HUGE])}, "run",
     f"out of memory: w0 of shape (6, {_HUGE}) does not fit in memory"),
    (lambda tmp: {"model": dict(BASE_CONFIG["model"], input_dim=2),
                  "task": _huge_label_task(tmp)}, "task",
     f"line 2: label {_HUGE} does not fit in int64"),
], ids=["gaussian_dim", "pair_n_per_class", "mlp_hidden_dim", "jsonl_label"])
def test_a_size_or_label_past_numpys_limits_is_one_json_line(tmp_path, capsys, overrides,
                                                             error, detail):
    cfg = write_config(tmp_path, {**overrides(tmp_path), "method": "vanilla", "seeds": [0]})
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    captured = capsys.readouterr()
    (line,) = captured.out.strip().splitlines()
    payload = json.loads(line)
    assert payload["error"] == error and payload["seed"] == 0
    assert payload["detail"].endswith(detail)
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
    orig = ad._OPS["tanh"]

    def bad(o, inputs, out, g, attrs):
        grads = orig.backward(o, inputs, out, g, attrs)
        return tuple(o.scalar_mul(t, c=2.0) if t is not None else None for t in grads)

    monkeypatch.setitem(ad._OPS, "tanh", dataclasses.replace(orig, backward=bad))
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


def _unfit_files(tmp_path):
    """A 2-class 4-d training set, and sets of 3 classes or of dim 5."""
    tk.save_jsonl(tmp_path / "train.jsonl", tk.make_gaussian_task(4, 2, 6, 2.0, 0.5, seed=1))
    for name, dim, k in (("k3", 4, 3), ("dim5", 5, 2)):
        tk.save_jsonl(tmp_path / f"{name}.jsonl", tk.make_gaussian_task(dim, k, 4, 2.0, 0.5, seed=2))


_LOGISTIC_2 = {"kind": "logistic", "input_dim": 4, "num_classes": 2}
_PAIR_4 = {"kind": "pair", "dim": 4, "num_classes": 2, "separation": 2.0,
           "conflict_angle_deg": 60.0, "noise_std": 0.5, "seed": 0}
_CONTRAST = {"learning_rate": 0.05, "epochs": 1, "batch_size": 4, "warmup_steps": 2,
             "guidance": {"lambda1": 0.2, "lambda2": 0.1, "lambda3": 0.1}}


@pytest.mark.parametrize("command,model,task,detail", [
    ("run", _LOGISTIC_2, {"source_path": "k3.jsonl"}, "source task has 3 classes"),
    ("sweep", _LOGISTIC_2, {"source_path": "k3.jsonl"}, "source task has 3 classes"),
    ("run", _LOGISTIC_2, {"eval_path": "dim5.jsonl"}, "eval task dim 5"),
    ("run", _LOGISTIC_2, {"eval_path": "k3.jsonl"}, "eval task has 3 classes"),
    ("check-grads", _LOGISTIC_2, {"source_path": "k3.jsonl"}, "source task has 3 classes"),
    ("check-grads", _LOGISTIC_2, {"source_path": "dim5.jsonl"}, "source task dim 5"),
    ("check-grads", _LOGISTIC_2, dict(_PAIR_4, dim=5), "task dim 5"),
    ("check-grads", {"kind": "mlp", "input_dim": 4, "num_classes": 2, "hidden_dims": [3],
                     "init_scale": 1e300}, _PAIR_4, "non-finite"),
], ids=["run_source_k3", "sweep_source_k3", "run_eval_dim5", "run_eval_k3",
        "check_grads_source_k3", "check_grads_source_dim5", "check_grads_pair_dim5",
        "check_grads_huge_init"])
def test_a_run_the_model_cannot_take_exits_3_before_any_step(command, model, task, detail,
                                                             tmp_path, capsys, monkeypatch):
    _unfit_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tr, "train_step", lambda *a: pytest.fail("a step ran"))
    task = task if "kind" in task else {"kind": "jsonl", "train_path": "train.jsonl", **task}
    cfg = write_config(tmp_path, {"model": model, "task": task, "train": _CONTRAST,
                                  "seeds": [0]})
    args = ["--config", str(cfg)]
    if command != "check-grads":
        args += ["--out", str(tmp_path / "out")]
    if command == "sweep":
        args += ["--shots", "2"]
    assert cli.main([command, *args]) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    payload = json.loads(captured.out.strip().splitlines()[-1])
    assert payload["error"] == "run" and detail in payload["detail"]


def test_check_grads_on_overflowing_data_warns_nothing(tmp_path, capsys):
    # the overflow of a 1e308 separation ends in a failed run, silently, as
    # a training run's overflows do
    cfg = write_config(tmp_path, {"model": _LOGISTIC_2, "task": dict(_PAIR_4, separation=1e308),
                                  "train": _CONTRAST, "seeds": [0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["check-grads", "--config", str(cfg)]) == 3
    assert "non-finite" in last_json_line(capsys)["detail"]


def test_op_battery_covers_every_recorded_op():
    assert set(cli._op_cases()) == set(ad.OP_KINDS)
