"""Experiment front door: single runs, sample-size sweeps, method comparisons,
and a finite-difference diagnostic, all driven by one JSON config file.

Artifact reproducibility hangs on the seed derivation rules, so they are
spelled out once, here:

  * trainer seed          = the run seed s from ``seeds``
  * synthetic task seed   = task ``seed`` + s (same data for every method)
  * few-shot split seed   = [s, 5]
  * JSONL datasets are fixed files and do not vary with s

Wall-clock fields in the JSON reports are the only non-reproducible values;
every CSV is byte-identical across reruns of the same config.
"""

import argparse
import csv
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import guidance as gd
from . import metrics as mt
from . import model as md
from . import tasks as tk
from . import trainer as tr

METHODS = ("vanilla", "guided-exact", "guided-fd")
TASK_KINDS = ("gaussian", "pair", "jsonl")

# check-grads tolerances: first order is tight, second order allows for the
# extra cancellation in differences of gradients; the two exact HVP routes
# agree to rounding
FIRST_ORDER_TOL = 1e-5
SECOND_ORDER_TOL = 1e-4
DUAL_HVP_TOL = 1e-12
MAX_CHECK_PARAMS = 2048

RUN_SUMMARY_COLUMNS = ("seed", "avg_accuracy", "gradient_stability",
                       "directional_alignment", "final_loss", "steps_to_loss_threshold")
SWEEP_COLUMNS = ("shots", "seed", "avg_accuracy", "stability", "alignment")
SWEEP_SUMMARY_COLUMNS = ("shots", "mean_avg_accuracy", "mean_stability", "mean_alignment")
COMPARE_COLUMNS = ("method", "seed", "shots", "avg_accuracy", "gradient_stability",
                   "directional_alignment", "final_loss")
COMPARE_SUMMARY_COLUMNS = ("method", "mean_avg_accuracy", "mean_stability", "mean_alignment")


class ConfigError(ValueError):
    """Config problem; ``field`` names the offending entry."""

    def __init__(self, field: str, detail: str):
        super().__init__(detail)
        self.field = field


class _Failure(Exception):
    """Internal: abort the command with an error payload and exit code."""

    def __init__(self, code: int, payload: dict):
        super().__init__(payload.get("detail", payload["error"]))
        self.code = code
        self.payload = payload


# -- config parsing --------------------------------------------------------------

@dataclass
class ExperimentConfig:
    model: md.ModelSpec
    task: dict
    train: tr.TrainConfig
    method: str | None
    seeds: tuple[int, ...]
    out: str | None
    split: dict | None
    loss_threshold: float | None


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_task(section) -> dict:
    if not isinstance(section, dict):
        raise ConfigError("task", "task must be an object")
    kind = section.get("kind")
    if kind not in TASK_KINDS:
        raise ConfigError("task.kind", f"task.kind must be one of {TASK_KINDS}, got {kind!r}")
    rest = {k: v for k, v in section.items() if k != "kind"}
    if kind == "gaussian":
        allowed = {"dim", "num_classes", "n_per_class", "separation", "noise_std", "seed"}
        unknown = set(rest) - allowed
        if unknown:
            raise ConfigError(f"task.{sorted(unknown)[0]}", "unknown gaussian task field")
        for req in ("dim", "num_classes"):
            if req not in rest:
                raise ConfigError(f"task.{req}", f"gaussian task requires {req}")
        out = {"kind": kind, "n_per_class": 400, "separation": 2.0,
               "noise_std": 0.5, "seed": 0}
        out.update(rest)
        # Value ranges are checked when the task is generated; types and the
        # seed's sign here, since a wrong type there would be a traceback.
        for name in ("dim", "num_classes", "n_per_class", "seed"):
            if not _is_int(out[name]):
                raise ConfigError(f"task.{name}", f"gaussian task {name} must be an integer")
        if out["seed"] < 0:
            raise ConfigError("task.seed", "gaussian task seed must be >= 0")
        for name in ("separation", "noise_std"):
            if not _is_number(out[name]):
                raise ConfigError(f"task.{name}", f"gaussian task {name} must be a number")
        return out
    if kind == "pair":
        try:
            spec = tk.TaskPairSpec.from_dict(rest)
        except (tk.TaskError, TypeError, ValueError) as e:
            raise ConfigError("task", f"bad pair spec: {e}")
        return {"kind": kind, **spec.to_dict()}
    allowed = {"train_path", "eval_path", "source_path"}
    unknown = set(rest) - allowed
    if unknown:
        raise ConfigError(f"task.{sorted(unknown)[0]}", "unknown jsonl task field")
    if not isinstance(rest.get("train_path"), str):
        raise ConfigError("task.train_path", "jsonl task requires a train_path string")
    return {"kind": kind, **rest}


def _parse_split(section) -> dict | None:
    if section is None:
        return None
    if not isinstance(section, dict):
        raise ConfigError("split", "split must be an object")
    unknown = set(section) - {"shots_per_class", "eval_fraction"}
    if unknown:
        raise ConfigError(f"split.{sorted(unknown)[0]}", "unknown split field")
    shots = section.get("shots_per_class")
    if not (isinstance(shots, int) and shots >= 1):
        raise ConfigError("split.shots_per_class", "shots_per_class must be an integer >= 1")
    frac = section.get("eval_fraction", 1.0)
    if not (isinstance(frac, (int, float)) and 0.0 < frac <= 1.0):
        raise ConfigError("split.eval_fraction", "eval_fraction must be in (0, 1]")
    return {"shots_per_class": shots, "eval_fraction": float(frac)}


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise ConfigError("config", f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError("config", f"config is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be a JSON object")
    known = {"model", "task", "train", "method", "seeds", "out", "split", "loss_threshold"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown top-level field")

    if "model" not in doc:
        raise ConfigError("model", "config requires a model section")
    try:
        model = md.ModelSpec.from_dict(doc["model"])
    except (ValueError, TypeError, KeyError) as e:
        raise ConfigError("model", f"bad model spec: {e}")

    if "task" not in doc:
        raise ConfigError("task", "config requires a task section")
    task = _parse_task(doc["task"])

    try:
        train = tr.TrainConfig.from_dict(doc.get("train", {}))
    except (tr.TrainerError, gd.GuidanceError, TypeError) as e:
        raise ConfigError("train", f"bad train config: {e}")

    method = doc.get("method")
    if method is not None and method not in METHODS:
        raise ConfigError("method", f"method must be one of {METHODS}, got {method!r}")

    seeds = doc.get("seeds")
    if (not isinstance(seeds, list) or not seeds
            or not all(_is_int(s) and s >= 0 for s in seeds)):
        raise ConfigError("seeds", "seeds must be a nonempty list of integers >= 0")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds", "seeds must be distinct")

    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out", "out must be a string path")

    threshold = doc.get("loss_threshold")
    if threshold is not None and not (isinstance(threshold, (int, float))
                                      and np.isfinite(threshold)):
        raise ConfigError("loss_threshold", "loss_threshold must be a finite number")

    return ExperimentConfig(model=model, task=task, train=train, method=method,
                            seeds=tuple(seeds), out=out, split=_parse_split(doc.get("split")),
                            loss_threshold=threshold)


# -- dataset materialization ------------------------------------------------------

@dataclass
class RunData:
    train: tk.TaskDataset
    eval: "tk.TaskDataset | None"
    source: "tk.TaskDataset | None"


def materialize(task_cfg: dict, seed: int, shots: "int | None",
                eval_fraction: float) -> RunData:
    """Datasets for one run seed.  Synthetic tasks shift their generator seed
    by the run seed; a configured eval_path always wins over the split eval."""
    kind = task_cfg["kind"]
    source = None
    eval_ds = None
    if kind == "gaussian":
        train = tk.make_gaussian_task(
            dim=task_cfg["dim"], num_classes=task_cfg["num_classes"],
            n_per_class=task_cfg["n_per_class"], separation=task_cfg["separation"],
            noise_std=task_cfg["noise_std"], seed=task_cfg["seed"] + seed)
    elif kind == "pair":
        fields = {k: v for k, v in task_cfg.items() if k != "kind"}
        fields["seed"] = fields["seed"] + seed
        source, train = tk.make_task_pair(tk.TaskPairSpec.from_dict(fields))
    else:
        train = tk.load_jsonl(task_cfg["train_path"])
        if task_cfg.get("eval_path"):
            eval_ds = tk.load_jsonl(task_cfg["eval_path"])
        if task_cfg.get("source_path"):
            source = tk.load_jsonl(task_cfg["source_path"])
    if shots is not None:
        train, split_eval = tk.few_shot_split(train, shots, eval_fraction, [seed, 5])
        if eval_ds is None:
            eval_ds = split_eval
    return RunData(train=train, eval=eval_ds, source=source)


def method_guidance(method: str, g: gd.GuidanceConfig) -> gd.GuidanceConfig:
    """vanilla zeroes every penalty; the guided methods pick the gradient mode."""
    if method == "vanilla":
        return replace(g, lambda1=0.0, lambda2=0.0, lambda3=0.0)
    if method == "guided-exact":
        return replace(g, mode="exact")
    return replace(g, mode="fd-hvp")


# -- shared run plumbing ----------------------------------------------------------

def _train_one(cfg: ExperimentConfig, method: str, seed: int, data: RunData) -> tr.RunReport:
    tcfg = replace(cfg.train, seed=seed,
                   guidance=method_guidance(method, cfg.train.guidance))
    try:
        return tr.train(cfg.model, data.train, tcfg,
                        source_task=data.source, eval_task=data.eval)
    except tr.DivergenceError as e:
        raise _Failure(3, {"error": "divergence", "seed": seed, "step": e.step,
                           "detail": str(e)})
    except (tr.TrainerError, gd.GuidanceError, tk.TaskError, md.ModelConfigError) as e:
        raise _Failure(3, {"error": "run", "seed": seed, "detail": str(e)})


def _materialize_or_fail(cfg: ExperimentConfig, seed: int, shots: "int | None",
                         eval_fraction: float) -> RunData:
    try:
        return materialize(cfg.task, seed, shots, eval_fraction)
    except tk.TaskError as e:
        payload = {"error": "task", "seed": seed, "detail": str(e)}
        if shots is not None:
            payload["field"] = "shots"
            payload["shots"] = shots
        raise _Failure(3, payload)


def _summary_values(report: tr.RunReport, loss_threshold) -> dict:
    """Aggregate metrics for one run; None where the history cannot support
    the metric (empty run, no prior)."""
    records = report.records
    norms = [r.grad_norm for r in records]
    if len(norms) >= 2:
        stability = mt.gradient_stability(norms)
    else:
        stability = 1.0 if norms else None
    cosines = [r.cos_prior for r in records]
    alignment = None
    if any(c is not None for c in cosines):
        alignment = mt.alignment_from_cosines(cosines)
    steps_to = None
    if loss_threshold is not None:
        for r in records:
            if r.loss_total < loss_threshold:
                steps_to = r.step
                break
    return {"avg_accuracy": report.final_accuracy, "stability": stability,
            "alignment": alignment, "final_loss": report.final_loss,
            "steps_to": steps_to}


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    return tr._csv_cell(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    print(f"wrote {path}")


def _mean(values) -> "float | None":
    vals = [v for v in values if v is not None]
    return sum(vals) / len(vals) if vals else None


# -- commands ---------------------------------------------------------------------

def cmd_run(cfg: ExperimentConfig, out: str) -> int:
    if cfg.method is None:
        raise ConfigError("method", "run requires a method")
    shots = cfg.split["shots_per_class"] if cfg.split else None
    frac = cfg.split["eval_fraction"] if cfg.split else 1.0
    rows = []
    for s in cfg.seeds:
        data = _materialize_or_fail(cfg, s, shots, frac)
        report = _train_one(cfg, cfg.method, s, data)
        tr.write_step_csv(report, os.path.join(out, f"steps_seed{s}.csv"))
        tr.write_report_json(report, os.path.join(out, f"report_seed{s}.json"))
        v = _summary_values(report, cfg.loss_threshold)
        rows.append((s, v["avg_accuracy"], v["stability"], v["alignment"],
                     v["final_loss"], v["steps_to"]))
    _write_csv(os.path.join(out, "summary.csv"), RUN_SUMMARY_COLUMNS, rows)
    return 0


def cmd_sweep(cfg: ExperimentConfig, out: str, shot_list: list) -> int:
    if cfg.method is None:
        raise ConfigError("method", "sweep requires a method")
    frac = cfg.split["eval_fraction"] if cfg.split else 1.0
    rows = []
    for shots in shot_list:
        for s in cfg.seeds:
            data = _materialize_or_fail(cfg, s, shots, frac)
            report = _train_one(cfg, cfg.method, s, data)
            v = _summary_values(report, cfg.loss_threshold)
            rows.append((shots, s, v["avg_accuracy"], v["stability"], v["alignment"]))
    _write_csv(os.path.join(out, "sweep.csv"), SWEEP_COLUMNS, rows)
    summary = [(shots,
                _mean(r[2] for r in rows if r[0] == shots),
                _mean(r[3] for r in rows if r[0] == shots),
                _mean(r[4] for r in rows if r[0] == shots))
               for shots in shot_list]
    _write_csv(os.path.join(out, "sweep_summary.csv"), SWEEP_SUMMARY_COLUMNS, summary)
    return 0


def cmd_compare(cfg: ExperimentConfig, out: str) -> int:
    if cfg.task["kind"] != "pair":
        raise ConfigError("task.kind", "compare requires a pair task")
    shots = cfg.split["shots_per_class"] if cfg.split else None
    frac = cfg.split["eval_fraction"] if cfg.split else 1.0
    rows = []
    for s in cfg.seeds:
        data = _materialize_or_fail(cfg, s, shots, frac)  # shared across methods
        for method in METHODS:
            report = _train_one(cfg, method, s, data)
            v = _summary_values(report, cfg.loss_threshold)
            rows.append((method, s, shots, v["avg_accuracy"], v["stability"],
                         v["alignment"], v["final_loss"]))
    _write_csv(os.path.join(out, "compare.csv"), COMPARE_COLUMNS, rows)
    summary = [(method,
                _mean(r[3] for r in rows if r[0] == method),
                _mean(r[4] for r in rows if r[0] == method),
                _mean(r[5] for r in rows if r[0] == method))
               for method in METHODS]
    _write_csv(os.path.join(out, "compare_summary.csv"), COMPARE_SUMMARY_COLUMNS, summary)
    return 0


# -- gradient diagnostics ---------------------------------------------------------

def _op_cases() -> dict:
    """One tiny differentiable scenario per recorded op kind."""
    rng = np.random.default_rng(1234)
    a = rng.uniform(0.5, 1.5, (3, 4))
    b = rng.uniform(0.5, 1.5, (3, 4))
    m = rng.uniform(0.5, 1.5, (4, 2))
    v6 = rng.uniform(0.5, 1.5, 6)
    u6 = rng.uniform(0.5, 1.5, 6)
    logits = rng.uniform(-1.0, 1.0, (4, 3))
    signs = np.where(rng.uniform(size=(3, 4)) < 0.5, -1.0, 1.0)
    w34 = rng.standard_normal((3, 4))
    w32 = rng.standard_normal((3, 2))
    w43 = rng.standard_normal((4, 3))
    w64 = rng.standard_normal((6, 4))
    w14 = rng.standard_normal((1, 4))
    p3 = rng.uniform(0.5, 1.5, (2, 4, 3))
    r3 = rng.uniform(0.5, 1.5, (2, 5, 4))
    w235 = rng.standard_normal((2, 3, 5))
    labels = np.array([0, 2, 1, 1])

    def con(t, w):
        return ad.sum_(ad.mul(t, ad.constant(w)))

    return {
        "add": ({"a": a, "b": b}, lambda p: con(ad.add(p["a"], p["b"]), w34)),
        "sub": ({"a": a, "b": b}, lambda p: con(ad.sub(p["a"], p["b"]), w34)),
        "mul": ({"a": a, "b": b}, lambda p: con(ad.mul(p["a"], p["b"]), w34)),
        "div": ({"a": a, "b": b}, lambda p: con(ad.div(p["a"], p["b"]), w34)),
        "scalar_mul": ({"a": a}, lambda p: con(ad.scalar_mul(p["a"], 1.7), w34)),
        # a plain product plus a batched one with both operands transposed
        "matmul": ({"a": a, "m": m, "p": p3, "r": r3},
                   lambda p: ad.add(con(ad.matmul(p["a"], p["m"]), w32),
                                    con(ad.matmul(p["p"], p["r"], ta=True, tb=True), w235))),
        "transpose": ({"a": a}, lambda p: con(ad.transpose(p["a"]), w43)),
        "relu": ({"a": a}, lambda p: con(ad.relu(ad.mul(p["a"], ad.constant(signs))), w34)),
        "tanh": ({"a": a}, lambda p: con(ad.tanh(p["a"]), w34)),
        "exp": ({"a": a}, lambda p: con(ad.exp(p["a"]), w34)),
        "log": ({"a": a}, lambda p: con(ad.log(p["a"]), w34)),
        "sum": ({"a": a}, lambda p: con(ad.sum_(p["a"], axis=0, keepdims=True), w14)),
        "mean": ({"a": a, "b": b}, lambda p: ad.mean(ad.mul(p["a"], p["b"]))),
        "l2_norm": ({"v": v6}, lambda p: ad.l2_norm(p["v"])),
        "dot": ({"v": v6, "u": u6}, lambda p: ad.dot(p["v"], p["u"])),
        "concat": ({"a": a, "b": b},
                   lambda p: con(ad.concat([p["a"], p["b"]], axis=0), w64)),
        "slice": ({"a": a}, lambda p: con(ad.slice_(p["a"], axis=1, start=1, stop=3), w32)),
        "reshape": ({"a": a}, lambda p: con(ad.reshape(p["a"], (4, 3)), w43)),
        "softmax_cross_entropy": ({"z": logits},
                                  lambda p: ad.softmax_cross_entropy(p["z"], labels)),
    }


def _scalar_value(build, layout, flat) -> float:
    with ad.new_tape():
        leaves = {k: ad.leaf(v) for k, v in layout.unflatten(flat).items()}
        return float(build(leaves).values.reshape(-1)[0])


def _fd_vs_autodiff(params: dict, build, eps: float = 1e-5) -> float:
    """Max relative error between the analytic gradient of build(params) and
    central finite differences, as a single norm ratio."""
    layout = ad.ParamLayout.of((k, np.asarray(v).shape) for k, v in params.items())
    flat = layout.flatten(params)
    with ad.new_tape():
        leaves = {k: ad.leaf(v) for k, v in params.items()}
        grad = ad.backward(build(leaves), leaves).values
    fd = np.empty_like(flat)
    for i in range(flat.size):
        step = np.zeros_like(flat)
        step[i] = eps
        fd[i] = (_scalar_value(build, layout, flat + step)
                 - _scalar_value(build, layout, flat - step)) / (2.0 * eps)
    return float(np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-300))


def cmd_check_grads(cfg: ExperimentConfig) -> int:
    layout = md.param_layout(cfg.model)
    if layout.total > MAX_CHECK_PARAMS:
        raise ConfigError("model", f"model has {layout.total} parameters; the "
                          f"finite-difference oracle is capped at {MAX_CHECK_PARAMS}")

    failures = []

    def report(component, rel, tol):
        ok = rel < tol
        print(f"{component:<28} max_rel={rel:.3e}  {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append({"component": component, "max_rel": rel, "tol": tol})

    for name, (params, build) in _op_cases().items():
        report(f"op:{name}", _fd_vs_autodiff(params, build), FIRST_ORDER_TOL)

    shots = cfg.split["shots_per_class"] if cfg.split else None
    frac = cfg.split["eval_fraction"] if cfg.split else 1.0
    data = _materialize_or_fail(cfg, cfg.seeds[0], shots, frac)
    batch = (data.train.inputs[:64], data.train.labels[:64])
    params0 = md.init_params(cfg.model)

    def base(leaves):
        return gd.base_loss(leaves, cfg.model, batch)

    report("base_loss", _fd_vs_autodiff(params0, base), FIRST_ORDER_TOL)

    gcfg = cfg.train.guidance
    if cfg.method is not None:
        gcfg = method_guidance(cfg.method, gcfg)
    if gcfg.any_active():
        with ad.new_tape():
            leaves = {k: ad.leaf(v) for k, v in params0.items()}
            g0 = ad.backward(base(leaves), leaves).values
        gn = float(np.linalg.norm(g0))
        if gn <= gcfg.epsilon_norm_guard:
            raise ConfigError("task", "degenerate check batch: zero base gradient")
        prior = gd.update_prior(gd.DirectionPrior(), g0, gcfg)
        if gcfg.tau == "auto":
            gcfg = gcfg.with_tau(gn)
        source_grad = None
        if gcfg.lambda3 > 0.0:
            if data.source is None:
                raise ConfigError("task", "lambda3 > 0 needs a pair task or source_path")
            sx, sy = data.source.inputs[:64], data.source.labels[:64]
            with ad.new_tape():
                leaves = {k: ad.leaf(v) for k, v in params0.items()}
                source_grad = ad.backward(
                    gd.base_loss(leaves, cfg.model, (sx, sy)), leaves).values
        exact = replace(gcfg, mode="exact")

        def total(leaves):
            return gd.build_objective(leaves, cfg.model, batch, exact,
                                      prior, source_grad).total

        report("total_loss", _fd_vs_autodiff(params0, total), SECOND_ORDER_TOL)

        flat0 = layout.flatten(params0)
        v = np.random.default_rng(99).standard_normal(layout.total)
        v /= np.linalg.norm(v)
        hv = ad.hvp(base, params0, v).values
        eps = 1e-5 * (1.0 + float(np.linalg.norm(flat0)))

        def grad_at(flat):
            with ad.new_tape():
                leaves = {k: ad.leaf(val) for k, val in layout.unflatten(flat).items()}
                return ad.backward(base(leaves), leaves).values

        fd_hv = (grad_at(flat0 + eps * v) - grad_at(flat0 - eps * v)) / (2.0 * eps)
        rel = float(np.linalg.norm(fd_hv - hv) / max(np.linalg.norm(hv), 1e-300))
        report("hvp", rel, SECOND_ORDER_TOL)

        # forward over reverse on the recorded tape against double backprop
        with ad.new_tape():
            leaves = {k: ad.leaf(val) for k, val in params0.items()}
            hv_dual = ad.hvp_recorded(base(leaves), leaves, v).values
        rel = float(np.linalg.norm(hv_dual - hv) / max(np.linalg.norm(hv), 1e-300))
        report("hvp_dual", rel, DUAL_HVP_TOL)

    if failures:
        raise _Failure(1, {"error": "tolerance", "failures": failures,
                           "detail": f"{len(failures)} component(s) out of tolerance"})
    print("STATUS ok")
    return 0


# -- entry point ------------------------------------------------------------------

def _parse_shots(text: str) -> list:
    try:
        shots = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError("shots", f"cannot parse shot list {text!r}")
    if not shots:
        raise ConfigError("shots", "shot list is empty")
    if any(s < 1 for s in shots):
        raise ConfigError("shots", "shots must be >= 1")
    if any(a >= b for a, b in zip(shots, shots[1:])):
        raise ConfigError("shots", "shot list must be strictly ascending")
    return shots


def _emit_error(payload: dict, out: "str | None") -> None:
    print(json.dumps(payload))
    if out is not None:
        try:
            os.makedirs(out, exist_ok=True)
            with open(os.path.join(out, "error.json"), "w") as f:
                json.dump(payload, f, indent=2)
                f.write("\n")
        except OSError:
            pass  # the stdout copy already carries the payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradguide",
        description="gradient-guidance training experiments on toy tasks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="train per seed; write step CSVs, reports, summary")
    p.add_argument("--config", required=True, help="path to the JSON config")
    p.add_argument("--out", help="output directory (overrides config 'out')")

    p = sub.add_parser("sweep", help="repeat runs across few-shot sample sizes")
    p.add_argument("--config", required=True, help="path to the JSON config")
    p.add_argument("--shots", default="16,32,64,128,256",
                   help="comma-separated ascending shot counts")
    p.add_argument("--out", help="output directory (overrides config 'out')")

    p = sub.add_parser("compare", help="run all three methods on a task pair")
    p.add_argument("--config", required=True, help="path to the JSON config")
    p.add_argument("--out", help="output directory (overrides config 'out')")

    p = sub.add_parser("check-grads", help="finite-difference and HVP diagnostics")
    p.add_argument("--config", required=True, help="path to the JSON config")
    return parser


def _resolve_out(cfg: ExperimentConfig, args) -> str:
    out = getattr(args, "out", None) or cfg.out
    if not out:
        raise ConfigError("out", "no output directory: pass --out or set 'out'")
    os.makedirs(out, exist_ok=True)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = None
    try:
        cfg = parse_config(args.config)
        if args.command == "check-grads":
            return cmd_check_grads(cfg)
        out = _resolve_out(cfg, args)
        if args.command == "run":
            return cmd_run(cfg, out)
        if args.command == "sweep":
            return cmd_sweep(cfg, out, _parse_shots(args.shots))
        return cmd_compare(cfg, out)
    except ConfigError as e:
        _emit_error({"error": "config", "field": e.field, "detail": str(e)}, out)
        return 2
    except _Failure as e:
        _emit_error(e.payload, out)
        return e.code


if __name__ == "__main__":
    raise SystemExit(main())
