"""Training loop: warmup estimation phase, guided steps, optimizer updates.

A run has two phases.  Warmup draws batches from the source task (or the
target task when no source exists) and only estimates: each batch's base
gradient feeds the direction prior's EMA and a norm sample for resolving
tau="auto" to the median warmup norm.  Parameters do not move.  The main
phase then iterates a seeded batch schedule; every step builds the guided
objective, obtains the full parameter gradient g + H·w (w = dR/dg in closed
form; H·w by forward mode over the step's reverse sweep in exact mode, by
one finite-difference HVP in fd-hvp mode) and applies the optimizer.

Three independent seed streams (warmup batches, main-phase schedule, source
batches) keep the target trajectory unchanged when unrelated knobs toggle,
which the paired-seed mechanism comparisons rely on.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Iterator, Literal, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from . import fields
from . import guidance as gd
from . import model as md
from .guidance import DirectionPrior, GuidanceConfig, LossBreakdown
from .tasks import TaskDataset

logger = logging.getLogger(__name__)

OPTIMIZERS = ("sgd", "adam")

# Independent substreams derived from the run seed.
_WARMUP_STREAM = 17
_SCHEDULE_STREAM = 23
_SOURCE_STREAM = 29


class TrainerError(fields.FieldError):
    """Invalid training configuration or run preconditions."""


class DivergenceError(RuntimeError):
    """Non-finite loss/gradient/parameters; carries the failing step (0 for
    a warmup gradient)."""

    def __init__(self, step: int, breakdown: LossBreakdown | None, detail: str):
        super().__init__(f"diverged at step {step}: {detail}")
        self.step = step
        self.breakdown = breakdown


@dataclass(frozen=True)
class TrainConfig:
    optimizer: Literal[OPTIMIZERS] = "sgd"
    learning_rate: fields.PositiveFloat = 0.05
    adam_betas: tuple[fields.Decay, fields.Decay] = (0.9, 0.999)
    adam_eps: fields.PositiveFloat = 1e-8
    epochs: fields.NonNegativeInt = 1    # 0 is an explicit no-op run (empty history)
    batch_size: fields.PositiveInt | Literal["full"] = "full"
    seed: fields.NonNegativeInt = 0
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)
    warmup_steps: fields.NonNegativeInt = 10
    gradient_clip: fields.NonNegativeFloat = 0.0
    eval_interval: fields.PositiveInt = 10

    def __post_init__(self):
        fields.check(self, TrainerError)

    @classmethod
    def from_dict(cls, d) -> "TrainConfig":
        return fields.from_dict(cls, d, TrainerError)


@dataclass(frozen=True)
class StepRecord:
    """One applied update; field order mirrors the per-step CSV columns."""

    step: int
    loss_total: float
    loss_base: float
    r_dir: float
    r_mag: float
    r_grad: float
    grad_norm: float
    cos_prior: float | None
    cos_source: float | None
    update_norm: float
    eval_accuracy: float | None = None
    wall_time: float = 0.0  # excluded from CSV/JSON records


CSV_COLUMNS = ("step", "loss_total", "loss_base", "r_dir", "r_mag", "r_grad",
               "grad_norm", "cos_prior", "cos_source", "update_norm", "eval_accuracy")


@dataclass
class OptState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


@dataclass
class TrainState:
    model_spec: md.ModelSpec
    params: dict[str, np.ndarray]
    prior: DirectionPrior
    source_grad: np.ndarray | None
    step: int
    opt: OptState


@dataclass
class RunReport:
    model_spec: md.ModelSpec
    config: TrainConfig
    records: list[StepRecord]
    final_accuracy: float
    final_loss: float | None
    final_params: dict[str, np.ndarray]
    tau: float | None
    prior_count: int
    wall_time_s: float


def _batch_len(batch_size, n: int) -> int:
    return n if batch_size == "full" else min(int(batch_size), n)


def _epoch_batches(n: int, batch_size, epochs: int, seed) -> Iterator[np.ndarray]:
    """Seeded epoch-shuffled index batches, each epoch drawn when the one
    before it is used up, so a run allocates no schedule up front."""
    if n < 1:
        raise TrainerError("batch_schedule: empty dataset")
    bs = _batch_len(batch_size, n)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(n)
        yield from (order[i:i + bs] for i in range(0, n, bs))


def batch_schedule(n: int, batch_size, epochs: int, seed) -> list[np.ndarray]:
    """The trainer's index batches as a list; public so reference loops can
    reproduce its data order exactly."""
    return list(_epoch_batches(n, batch_size, epochs, seed))


def base_gradient(spec: md.ModelSpec, params: Mapping[str, np.ndarray], batch) -> np.ndarray:
    """Flat base-loss gradient at ``params`` on ``batch``, on its own tape."""
    with ad.new_tape():
        leaves = {k: ad.leaf(v) for k, v in params.items()}
        loss = gd.base_loss(leaves, spec, batch)
        return ad.backward(loss, leaves).values


def _fd_hvp(spec: md.ModelSpec, layout: ad.ParamLayout, flat: np.ndarray, batch,
            w: np.ndarray, wn: float, g0: np.ndarray) -> np.ndarray:
    # forward difference of base gradients along w (of norm wn); eps scales
    # with the parameter magnitude so the probe stays in the linear regime
    eps = 1e-6 * (1.0 + gd.norm(flat)) / wn
    g1 = base_gradient(spec, layout.views(flat + eps * w), batch)   # views of a fresh sum
    return (g1 - g0) / eps


def _apply_optimizer(config: TrainConfig, opt: OptState, flat: np.ndarray,
                     grad: np.ndarray) -> tuple[np.ndarray, OptState]:
    if config.optimizer == "sgd":
        return flat - config.learning_rate * grad, opt
    b1, b2 = config.adam_betas
    t = opt.t + 1
    m = b1 * opt.m + (1.0 - b1) * grad
    v = b2 * opt.v + (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    new = flat - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
    return new, OptState(m, v, t)


def train_step(state: TrainState, batch, config: TrainConfig) -> tuple[TrainState, StepRecord]:
    """One optimizer update; returns the new state and the record for this
    step."""
    t0 = time.perf_counter()
    gcfg = config.guidance
    layout = md.param_layout(state.model_spec)
    step_index = state.step + 1

    try:
        with ad.new_tape():
            leaves = {k: ad.leaf(v) for k, v in state.params.items()}
            obj = gd.build_objective(leaves, state.model_spec, batch, gcfg, state.prior,
                                     state.source_grad, penalty_graph=False)
            bd, w = obj.breakdown, obj.reg_grad_wrt_g
            upd = obj.grad.values   # checked by its sweep
            if not math.isfinite(bd.total):
                raise DivergenceError(step_index, bd, "non-finite loss")
            wn = 0.0 if w is None else gd.norm(w)
            second_order = wn > 0.0
            # The guided update is g + H·w; exact mode takes H·w from the
            # sweep of g on the tape this block recorded, fd-hvp from a
            # difference of gradients.
            if second_order and gcfg.mode == "exact":
                upd = upd + obj.hv(w).values
            del obj   # its hv holds the tape's records: they go with the block
        # Flattened once the tape block has freed the step's activations;
        # flattened before it, large vanilla steps ran ~4 % slower.
        flat0 = layout.flatten(state.params)
        if second_order and gcfg.mode == "fd-hvp":
            upd = upd + _fd_hvp(state.model_spec, layout, flat0, batch, w, wn, upd)
    except ad.NonFiniteError as e:
        raise DivergenceError(step_index, None, str(e)) from e

    if second_order and not ad.all_finite(upd):   # g + H·w of finite parts may overflow
        raise DivergenceError(step_index, bd, "non-finite update gradient")
    if config.gradient_clip > 0.0:
        un = gd.norm(upd)   # taken scaled: an overflowing norm would clip the step to 0
        if un > config.gradient_clip:
            upd = upd * (config.gradient_clip / un)

    flat1, opt1 = _apply_optimizer(config, state.opt, flat0, upd)
    if config.optimizer == "adam" and not ad.all_finite(opt1.v):
        # an overflowing g·g makes v inf, and that weight's step silently 0
        raise DivergenceError(step_index, bd, "non-finite Adam second moment")
    if not ad.all_finite(flat1):
        raise DivergenceError(step_index, bd, "non-finite parameters after update")
    step_delta = flat1 - flat0
    update_norm = gd.norm(step_delta)   # a finite step of ~1e304 has a finite norm

    record = StepRecord(
        step=step_index,
        loss_total=bd.total,
        loss_base=bd.base,
        r_dir=bd.dir,
        r_mag=bd.mag,
        r_grad=bd.contrast,
        grad_norm=bd.grad_norm,
        cos_prior=bd.cos_prior,
        cos_source=bd.cos_source,
        update_norm=update_norm,
        eval_accuracy=None,
        wall_time=time.perf_counter() - t0,
    )
    # The params handed out are views of flat1; frozen, neither it nor its
    # views can be written between the steps.
    flat1.setflags(write=False)
    new_state = TrainState(
        model_spec=state.model_spec,
        params=layout.views(flat1),
        prior=state.prior,
        source_grad=state.source_grad,
        step=step_index,
        opt=opt1,
    )
    return new_state, record


def evaluate(params: Mapping[str, np.ndarray], spec: md.ModelSpec,
             dataset: TaskDataset) -> float:
    """Fraction of argmax predictions matching labels; ties go to the lowest
    class index."""
    if len(dataset) == 0:
        raise TrainerError("evaluate: empty dataset")
    return md.accuracy(spec, params, dataset.inputs, dataset.labels)


def _evaluate_after(step: int, params: Mapping[str, np.ndarray], spec: md.ModelSpec,
                    dataset: TaskDataset) -> float:
    """``evaluate``, with finite parameters whose logits overflow reported as
    a divergence at ``step``."""
    try:
        return evaluate(params, spec, dataset)
    except ad.NonFiniteError as e:
        raise DivergenceError(step, None, f"evaluation: {e}") from e


def _resolve_batch(task: TaskDataset, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return task.inputs[idx], task.labels[idx]


def _sampled_gradient(spec: md.ModelSpec, params, task: TaskDataset, rng, batch_size,
                      step: int, what: str) -> np.ndarray:
    """Base gradient on a batch of ``rng.permutation(n)[:bs]`` of ``task``; a
    non-finite gradient is a divergence at ``step``."""
    idx = rng.permutation(len(task))[:_batch_len(batch_size, len(task))]
    try:
        return base_gradient(spec, params, _resolve_batch(task, idx))
    except ad.NonFiniteError as e:
        raise DivergenceError(step, None, f"{what}: {e}") from e


def _warmup(spec: md.ModelSpec, params, task: TaskDataset, config: TrainConfig
            ) -> tuple[DirectionPrior, list[float]]:
    rng = np.random.default_rng([config.seed, _WARMUP_STREAM])
    prior = DirectionPrior()
    norms = []
    for _ in range(config.warmup_steps):
        g = _sampled_gradient(spec, params, task, rng, config.batch_size, 0, "warmup gradient")
        prior = gd.update_prior(prior, g, config.guidance)
        norms.append(gd.norm(g))
    return prior, norms


def _median(values: list[float]) -> float:
    """``np.median``'s bits for nonempty finite values, without the import of
    ``numpy.ma`` that the first ``np.median`` of a process makes (~15 ms)."""
    s = sorted(values)
    h = len(s) // 2
    return s[h] if len(s) % 2 else (s[h - 1] + s[h]) / 2


def check_datasets(model_spec: md.ModelSpec, task: TaskDataset,
                   source_task: TaskDataset | None = None,
                   eval_task: TaskDataset | None = None) -> None:
    """Raise ``TrainerError`` unless each dataset given fits the model: its
    dim is the model's ``input_dim``, and the model has a class for each of
    its labels."""
    for name, ds in (("task", task), ("source task", source_task), ("eval task", eval_task)):
        if ds is None:
            continue
        if ds.input_dim != model_spec.input_dim:
            raise TrainerError(f"{name} dim {ds.input_dim} != model input_dim "
                               f"{model_spec.input_dim}")
        if ds.num_classes > model_spec.num_classes:
            raise TrainerError(f"{name} has {ds.num_classes} classes, model only "
                               f"{model_spec.num_classes}")


# Every overflow in training ends in a finiteness check or in the rescale of
# guidance.norm, so numpy's overflow warnings say nothing there.  One
# errstate per run, not one per call: each costs ~1.3 µs.
@np.errstate(over="ignore")
def train(model_spec: md.ModelSpec, task: TaskDataset, config: TrainConfig,
          source_task: TaskDataset | None = None,
          eval_task: TaskDataset | None = None, *, summary_only: bool = False) -> RunReport:
    """Full run: warmup estimation, guided main loop, final evaluation.

    ``task`` is the training split; evaluation (periodic and final) uses
    ``eval_task`` when given, otherwise the training split itself.

    ``summary_only`` skips the per-step work that only the step records
    read: every record's ``eval_accuracy`` is None (the final parameters are
    evaluated once), and without a contrast term (lambda3 = 0) no source
    gradient is drawn, so ``cos_source`` is None.  ``metrics.summarize``
    gives the same bits either way.
    """
    t0 = time.perf_counter()
    gcfg = config.guidance
    if len(task) == 0:
        raise TrainerError("train: empty training task")
    check_datasets(model_spec, task, source_task, eval_task)
    if gcfg.lambda3 > 0.0 and source_task is None:
        raise TrainerError("lambda3 > 0 requires a source task")

    params = md.init_params(model_spec)
    warmup_task = source_task if source_task is not None else task
    prior, warmup_norms = _warmup(model_spec, params, warmup_task, config)

    tau: float | None = None
    if gcfg.tau == "auto":
        if warmup_norms:
            tau = _median(warmup_norms)
            if tau <= 0.0:
                if gcfg.lambda2 > 0.0:
                    raise TrainerError("warmup produced zero gradient norms; "
                                       "tau=auto cannot be resolved")
                tau = None
            else:
                gcfg = gcfg.with_tau(tau)
        elif gcfg.lambda2 > 0.0:
            raise TrainerError('tau="auto" with lambda2 > 0 needs warmup_steps >= 1')
    else:
        tau = float(gcfg.tau)
    if gcfg.lambda1 > 0.0 and not prior.initialized:
        raise TrainerError("lambda1 > 0 needs a direction prior; set warmup_steps >= 1")

    config = replace(config, guidance=gcfg)
    layout = md.param_layout(model_spec)
    state = TrainState(
        model_spec=model_spec,
        params=params,
        prior=prior,
        source_grad=None,
        step=0,
        opt=OptState(np.zeros(layout.total), np.zeros(layout.total)),
    )

    src_rng = np.random.default_rng([config.seed, _SOURCE_STREAM])
    schedule = _epoch_batches(len(task), config.batch_size, config.epochs,
                              [config.seed, _SCHEDULE_STREAM])
    eval_ds = eval_task if eval_task is not None else task

    records: list[StepRecord] = []
    for idx in schedule:
        if source_task is not None and (gcfg.lambda3 > 0.0 or not summary_only):
            state.source_grad = _sampled_gradient(model_spec, state.params, source_task,
                                                  src_rng, config.batch_size, state.step + 1,
                                                  "source gradient")
        state, record = train_step(state, _resolve_batch(task, idx), config)
        if not summary_only and state.step % config.eval_interval == 0:
            acc = _evaluate_after(state.step, state.params, model_spec, eval_ds)
            record = replace(record, eval_accuracy=acc)
        records.append(record)

    # the last periodic evaluation, when it ran on the final parameters
    final_accuracy = records[-1].eval_accuracy if records else None
    if final_accuracy is None:
        final_accuracy = _evaluate_after(state.step, state.params, model_spec, eval_ds)
    return RunReport(
        model_spec=model_spec,
        config=config,
        records=records,
        final_accuracy=final_accuracy,
        final_loss=records[-1].loss_total if records else None,
        final_params=state.params,
        tau=tau,
        prior_count=prior.count,
        wall_time_s=time.perf_counter() - t0,
    )


# -- report serialization --------------------------------------------------------

def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def write_csv(path, header: Sequence[str], rows) -> None:
    """Header, then one line per row; floats use repr and None is an empty
    cell, so reruns are byte-identical.  Every CSV artifact goes through here."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([_csv_cell(v) for v in row] for row in rows)


def write_step_csv(report: RunReport, path) -> None:
    """Per-step CSV with the documented column order."""
    write_csv(path, CSV_COLUMNS,
              ([getattr(r, col) for col in CSV_COLUMNS] for r in report.records))


def report_to_dict(report: RunReport) -> dict:
    """JSON form: config, CSV-aligned records, final metrics.  Wall time
    appears only under "final" and is excluded from determinism guarantees."""
    return {
        "config": {
            "model": fields.to_dict(report.model_spec),
            "train": fields.to_dict(report.config),
        },
        "records": [{col: getattr(r, col) for col in CSV_COLUMNS} for r in report.records],
        "final": {
            "final_accuracy": report.final_accuracy,
            "final_loss": report.final_loss,
            "steps": len(report.records),
            "tau": report.tau,
            "prior_count": report.prior_count,
            "wall_time_s": report.wall_time_s,
        },
    }


def write_report_json(report: RunReport, path) -> None:
    with open(path, "w") as f:
        json.dump(report_to_dict(report), f, indent=2)
        f.write("\n")
