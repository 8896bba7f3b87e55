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
import ctypes
import functools
import json
import os
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import Literal

import numpy as np

from . import autodiff as ad
from . import fields
from . import guidance as gd
from . import metrics as mt
from . import model as md
from . import tasks as tk
from . import trainer as tr

METHODS = ("vanilla", "guided-exact", "guided-fd")

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

# glibc mallopt parameters (malloc.h) and the values main() sets
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024   # glibc's maximum on 64-bit; larger is rejected
TRIM_THRESHOLD_BYTES = 256 * 1024 * 1024


class ConfigError(fields.FieldError):
    """Config problem; ``field`` names the offending entry, "config" the
    whole file."""

    def __init__(self, detail: str, field: "str | None" = None):
        super().__init__(detail, field or "config")


class _Failure(Exception):
    """Internal: abort the command with an error payload and exit code."""

    def __init__(self, code: int, payload: dict):
        super().__init__(payload.get("detail", payload["error"]))
        self.code = code
        self.payload = payload


# -- config parsing --------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """The whole config file; see README "Config file"."""

    model: md.ModelSpec
    task: tk.GaussianTaskSpec | tk.TaskPairSpec | tk.JsonlTaskSpec
    train: tr.TrainConfig = field(default_factory=tr.TrainConfig)
    method: Literal[METHODS] | None = None
    seeds: tuple[int, ...]
    split: tk.SplitSpec | None = None       # None trains on every example
    loss_threshold: float | None = None
    out: str | None = None

    def __post_init__(self):
        fields.check(self, ConfigError)
        if not self.seeds or min(self.seeds) < 0 or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be a nonempty list of distinct integers >= 0", "seeds")


class _KeyGivenTwice(dict):
    """A JSON object in which the key ``repeated`` was given more than once."""

    def __init__(self, pairs, repeated: str):
        super().__init__(pairs)
        self.repeated = repeated


def _mark_repeated_keys(pairs) -> dict:
    """A JSON object as a dict, marked with its first key given twice.  The
    hook sees each object apart from the document, so the key's place is
    found afterwards (``_repeated_key_path``)."""
    d = dict(pairs)
    if len(d) == len(pairs):
        return d
    seen = set()
    return _KeyGivenTwice(d, next(k for k, _ in pairs if k in seen or seen.add(k)))


def _repeated_key_path(doc) -> "str | None":
    """The dotted path of the first key given twice in ``doc`` (outer
    objects first, then in document order), None when there is none.
    Iterative, since the decoder accepts nesting deeper than Python
    recurses."""
    stack = [((), doc)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, _KeyGivenTwice):
            return ".".join((*path, value.repeated))
        items = (value.items() if isinstance(value, dict)
                 else enumerate(value) if isinstance(value, list) else ())
        stack.extend(reversed([((*path, str(k)), v) for k, v in items]))
    return None


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path) as f:
            doc = json.load(f, object_pairs_hook=_mark_repeated_keys)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except (ValueError, RecursionError) as e:
        # ValueError covers bad syntax, non-UTF-8 bytes and integers of more
        # digits than Python converts; RecursionError, nesting too deep
        raise ConfigError(f"config is not valid JSON: {e}")
    repeated = _repeated_key_path(doc)
    if repeated is not None:
        raise ConfigError(f"duplicate key {repeated!r}", repeated)
    return fields.from_dict(ExperimentConfig, doc, ConfigError)


# -- dataset materialization ------------------------------------------------------

@dataclass
class RunData:
    train: tk.TaskDataset
    eval: "tk.TaskDataset | None"
    source: "tk.TaskDataset | None"


def materialize(task, seed: int) -> RunData:
    """Datasets for one run seed, before any few-shot split (``_split``).
    Synthetic tasks shift their generator seed by the run seed."""
    source = eval_ds = None
    if isinstance(task, tk.GaussianTaskSpec):
        train = tk.make_gaussian_task(
            dim=task.dim, num_classes=task.num_classes, n_per_class=task.n_per_class,
            separation=task.separation, noise_std=task.noise_std, seed=task.seed + seed)
    elif isinstance(task, tk.TaskPairSpec):
        source, train = tk.make_task_pair(replace(task, seed=task.seed + seed))
    else:
        train = tk.load_jsonl(task.train_path)
        if task.eval_path:
            eval_ds = tk.load_jsonl(task.eval_path)
        if task.source_path:
            source = tk.load_jsonl(task.source_path)
    return RunData(train=train, eval=eval_ds, source=source)


def _split(data: RunData, split: "tk.SplitSpec | None", seed: int) -> RunData:
    """``data`` with its training set cut to the few-shot split of ``split``;
    a configured eval_path always wins over the split's eval set."""
    if split is None:
        return data
    train, split_eval = tk.few_shot_split(data.train, split.shots_per_class,
                                          split.eval_fraction, [seed, 5])
    return RunData(train=train, eval=split_eval if data.eval is None else data.eval,
                   source=data.source)


def method_guidance(method: str, g: gd.GuidanceConfig) -> gd.GuidanceConfig:
    """vanilla zeroes every penalty; the guided methods pick the gradient mode."""
    if method == "vanilla":
        return replace(g, lambda1=0.0, lambda2=0.0, lambda3=0.0)
    if method == "guided-exact":
        return replace(g, mode="exact")
    return replace(g, mode="fd-hvp")


# -- shared run plumbing ----------------------------------------------------------

def _train_one(cfg: ExperimentConfig, method: str, seed: int, data: RunData,
               summary_only: bool) -> tr.RunReport:
    tcfg = replace(cfg.train, seed=seed,
                   guidance=method_guidance(method, cfg.train.guidance))
    try:
        return tr.train(cfg.model, data.train, tcfg, source_task=data.source,
                        eval_task=data.eval, summary_only=summary_only)
    except tr.DivergenceError as e:
        raise _Failure(3, {"error": "divergence", "seed": seed, "step": e.step,
                           "detail": str(e)})
    except (tr.TrainerError, gd.GuidanceError, tk.TaskError, md.ModelConfigError) as e:
        raise _Failure(3, {"error": "run", "seed": seed, "detail": str(e)})
    except MemoryError as e:
        detail = f"out of memory: {e}" if str(e) else "out of memory"
        raise _Failure(3, {"error": "run", "seed": seed, "detail": detail})


def _materialize_or_fail(seed: int, split: "tk.SplitSpec | None",
                         unsplit: Callable[[int], RunData]) -> RunData:
    """``unsplit(seed)``, a seed's datasets before the split, cut to
    ``split``, with a task error as an exit-3 failure; an error of the
    split itself names the ``shots`` field."""
    payload = {"error": "task", "seed": seed}
    try:
        data = unsplit(seed)
    except tk.TaskError as e:
        raise _Failure(3, {**payload, "detail": str(e)})
    try:
        return _split(data, split, seed)
    except tk.TaskError as e:
        raise _Failure(3, {**payload, "detail": str(e), "field": "shots",
                           "shots": split.shots_per_class})


def _runs(cfg: ExperimentConfig, methods, split: "tk.SplitSpec | None",
          unsplit: Callable[[int], RunData], *, summary_only: bool):
    """Train each method on each seed; yields (method, seed, report, summary).
    With ``summary_only`` the reports carry only what the summary reads
    (``trainer.train``'s ``summary_only``).

    Seeds are the outer loop: a seed's datasets are materialized once and
    shared by all of its methods, so methods are compared on the same data
    and each one's rows equal those of ``run`` with that method.
    ``unsplit(seed)`` gives a seed's datasets before the split: a call of
    ``materialize``, or in a sweep a cache of those calls."""
    for s in cfg.seeds:
        data = _materialize_or_fail(s, split, unsplit)
        for method in methods:
            report = _train_one(cfg, method, s, data, summary_only)
            yield method, s, report, mt.summarize(report, cfg.loss_threshold)


def _write_config(cfg: ExperimentConfig, out: str) -> None:
    """The parsed config with defaults filled in; ``--out`` is not part of it.
    Dataset paths are written absolute, resolved where this run started, so
    the file reruns the same experiment from any directory."""
    if isinstance(cfg.task, tk.JsonlTaskSpec):
        paths = {name: os.path.abspath(path) for name, path in fields.to_dict(cfg.task).items()
                 if name.endswith("_path") and path}
        cfg = replace(cfg, task=replace(cfg.task, **paths))
    with open(os.path.join(out, "config.json"), "w") as f:
        json.dump(fields.to_dict(cfg), f, indent=2)
        f.write("\n")


def _write_table(out: str, name: str, header, rows) -> None:
    path = os.path.join(out, name)
    tr.write_csv(path, header, rows)
    print(f"wrote {path}")


def _means_per_key(keyed_rows) -> list:
    """Per key of ``(key, values)`` pairs, in first-seen order: the key and
    the mean of each value column, None where a column holds only None."""
    groups: dict = {}
    for key, values in keyed_rows:
        groups.setdefault(key, []).append(values)
    table = []
    for key, group in groups.items():
        columns = ([v for v in column if v is not None] for column in zip(*group))
        table.append((key, *(sum(c) / len(c) if c else None for c in columns)))
    return table


# -- commands ---------------------------------------------------------------------

def cmd_run(cfg: ExperimentConfig, out: str) -> int:
    if cfg.method is None:
        raise ConfigError("run requires a method", "method")
    _write_config(cfg, out)
    rows = []
    for _, s, report, v in _runs(cfg, (cfg.method,), cfg.split,
                                 lambda s: materialize(cfg.task, s), summary_only=False):
        tr.write_step_csv(report, os.path.join(out, f"steps_seed{s}.csv"))
        tr.write_report_json(report, os.path.join(out, f"report_seed{s}.json"))
        rows.append((s, v.avg_accuracy, v.gradient_stability, v.directional_alignment,
                     v.final_loss, v.steps_to_loss_threshold))
    _write_table(out, "summary.csv", RUN_SUMMARY_COLUMNS, rows)
    return 0


def cmd_sweep(cfg: ExperimentConfig, out: str, shot_list: list) -> int:
    if cfg.method is None:
        raise ConfigError("sweep requires a method", "method")
    _write_config(cfg, out)
    fraction = cfg.split.eval_fraction if cfg.split else 1.0
    # each seed's task is built once and split per shot count; a run or
    # compare builds it anew for its one split, so it holds no unsplit copy
    unsplit = functools.cache(lambda s: materialize(cfg.task, s))
    rows = [(shots, s, v.avg_accuracy, v.gradient_stability, v.directional_alignment)
            for shots in shot_list
            for _, s, _, v in _runs(cfg, (cfg.method,), tk.SplitSpec(shots, fraction),
                                    unsplit, summary_only=True)]
    _write_table(out, "sweep.csv", SWEEP_COLUMNS, rows)
    _write_table(out, "sweep_summary.csv", SWEEP_SUMMARY_COLUMNS,
                 _means_per_key((r[0], r[2:]) for r in rows))
    return 0


def cmd_compare(cfg: ExperimentConfig, out: str) -> int:
    if not isinstance(cfg.task, tk.TaskPairSpec):
        raise ConfigError("compare requires a pair task", "task.kind")
    _write_config(cfg, out)
    shots = cfg.split.shots_per_class if cfg.split else None
    rows = [(method, s, shots, v.avg_accuracy, v.gradient_stability,
             v.directional_alignment, v.final_loss)
            for method, s, _, v in _runs(cfg, METHODS, cfg.split,
                                         lambda s: materialize(cfg.task, s), summary_only=True)]
    _write_table(out, "compare.csv", COMPARE_COLUMNS, rows)
    _write_table(out, "compare_summary.csv", COMPARE_SUMMARY_COLUMNS,
                 _means_per_key((r[0], r[3:6]) for r in rows))
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
    rng.uniform(size=(3, 4))   # a retired case's draw, kept so later draws keep their values
    w34 = rng.standard_normal((3, 4))
    w32 = rng.standard_normal((3, 2))
    w43 = rng.standard_normal((4, 3))
    w64 = rng.standard_normal((6, 4))
    w14 = rng.standard_normal((1, 4))
    p3 = rng.uniform(0.5, 1.5, (2, 4, 3))
    r3 = rng.uniform(0.5, 1.5, (2, 5, 4))
    w235 = rng.standard_normal((2, 3, 5))
    labels = np.array([0, 2, 1, 1])
    w42 = rng.standard_normal((4, 2)) * 0.5
    c2 = rng.standard_normal(2)
    v32 = rng.standard_normal((3, 2))
    s3 = rng.standard_normal((2, 3, 4))
    w3 = rng.standard_normal((2, 3, 4))
    x36 = rng.uniform(-1.0, 1.0, (3, 6))
    wqkv = rng.standard_normal((3, 3, 4))

    def con(t, w):
        return ad.sum_(ad.mul(t, ad.constant(w)))

    return {
        "add": ({"a": a, "b": b}, lambda p: con(ad.add(p["a"], p["b"]), w34)),
        "sub": ({"a": a, "b": b}, lambda p: con(ad.sub(p["a"], p["b"]), w34)),
        "mul": ({"a": a, "b": b}, lambda p: con(ad.mul(p["a"], p["b"]), w34)),
        "div": ({"a": a, "b": b}, lambda p: con(ad.div(p["a"], p["b"]), w34)),
        "scalar_mul": ({"a": a}, lambda p: con(ad.scalar_mul(p["a"], 1.7), w34)),
        # a plain product and a batched one with both operands transposed
        "matmul": ({"a": a, "m": m, "p": p3, "r": r3},
                   lambda p: ad.add(con(ad.matmul(p["a"], p["m"]), w32),
                                    con(ad.matmul(p["p"], p["r"], ta=True, tb=True), w235))),
        # one layer with its tanh and one without
        "dense": ({"a": a, "w": w42, "c": c2},
                  lambda p: ad.add(con(ad.dense(p["a"], p["w"], p["c"], tanh=True), w32),
                                   con(ad.dense(p["a"], p["w"], p["c"]), v32))),
        "tanh": ({"a": a}, lambda p: con(ad.tanh(p["a"]), w34)),
        "exp": ({"a": a}, lambda p: con(ad.exp(p["a"]), w34)),
        "sum": ({"a": a}, lambda p: con(ad.sum_(p["a"], axis=0, keepdims=True), w14)),
        "l2_norm": ({"v": v6}, lambda p: ad.l2_norm(p["v"])),
        "dot": ({"v": v6, "u": u6}, lambda p: ad.dot(p["v"], p["u"])),
        "concat": ({"a": a, "b": b},
                   lambda p: con(ad.concat([p["a"], p["b"]], axis=0), w64)),
        "slice": ({"a": a}, lambda p: con(ad.slice_(p["a"], axis=1, start=1, stop=3), w32)),
        "reshape": ({"a": a}, lambda p: con(ad.reshape(p["a"], (4, 3)), w43)),
        "softmax": ({"s": s3}, lambda p: con(ad.softmax(p["s"], c=0.7), w3)),
        # two positions of three features, the input differentiated too
        "attention": ({"x": x36, "q": wqkv[0], "k": wqkv[1], "v": wqkv[2]},
                      lambda p: con(ad.attention(p["x"], p["q"], p["k"], p["v"], seq_len=2),
                                    w34)),
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
        raise ConfigError(f"model has {layout.total} parameters; the finite-difference "
                          f"oracle is capped at {MAX_CHECK_PARAMS}", "model")

    failures = []

    def report(component, rel, tol):
        ok = rel < tol
        print(f"{component:<28} max_rel={rel:.3e}  {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append({"component": component, "max_rel": rel, "tol": tol})

    for name, (params, build) in _op_cases().items():
        report(f"op:{name}", _fd_vs_autodiff(params, build), FIRST_ORDER_TOL)

    data = _materialize_or_fail(cfg.seeds[0], cfg.split, lambda s: materialize(cfg.task, s))
    batch = (data.train.inputs[:64], data.train.labels[:64])
    params0 = md.init_params(cfg.model)

    def base(leaves):
        return gd.base_loss(leaves, cfg.model, batch)

    report("base_loss", _fd_vs_autodiff(params0, base), FIRST_ORDER_TOL)

    gcfg = cfg.train.guidance
    if cfg.method is not None:
        gcfg = method_guidance(cfg.method, gcfg)
    if gcfg.any_active():
        g0 = tr.base_gradient(cfg.model, params0, batch)
        gn = float(np.linalg.norm(g0))
        if gn <= gcfg.epsilon_norm_guard:
            raise ConfigError("degenerate check batch: zero base gradient", "task")
        prior = gd.update_prior(gd.DirectionPrior(), g0, gcfg)
        if gcfg.tau == "auto":
            gcfg = gcfg.with_tau(gn)
        source_grad = None
        if gcfg.lambda3 > 0.0:
            if data.source is None:
                raise ConfigError("lambda3 > 0 needs a pair task or source_path", "task")
            source_grad = tr.base_gradient(
                cfg.model, params0, (data.source.inputs[:64], data.source.labels[:64]))
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
            return tr.base_gradient(cfg.model, layout.unflatten(flat), batch)

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
        raise ConfigError(f"cannot parse shot list {text!r}", "shots")
    if not shots:
        raise ConfigError("shot list is empty", "shots")
    if any(s < 1 for s in shots):
        raise ConfigError("shots must be >= 1", "shots")
    if any(a >= b for a, b in zip(shots, shots[1:])):
        raise ConfigError("shot list must be strictly ascending", "shots")
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
        raise ConfigError("no output directory: pass --out or set 'out'", "out")
    os.makedirs(out, exist_ok=True)
    return out


def _keep_freed_memory() -> None:
    """Keep freed heap memory in this process for reuse (glibc only).

    By default glibc serves each array of 128 KiB or more from its own
    ``mmap`` and unmaps it on free, and it trims the heap top once a few MB
    are free.  A training step frees and reallocates the same multi-MB
    arrays every step, so each step faulted their pages back in: on a 256-d
    full-batch mlp, ~2k minor faults and 6 of the step's 45 ms in system
    CPU.  Setting either threshold switches off glibc's dynamic one, and a
    trim threshold alone leaves those arrays on ``mmap``, so it is never
    set alone.  The policy is process-wide, hence set by the CLI
    entry point, never on import.  Without ``mallopt`` this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES):
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    _keep_freed_memory()
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
