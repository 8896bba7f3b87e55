"""Run-level summary metrics.

The two headline columns are local stand-ins with exact definitions:
stability is 1/(1 + coefficient of variation) of the gradient-norm history,
alignment is the mean cosine between each step's gradient and the direction
prior in force at that step.  Absolute values are not comparable with any
published numbers; only orderings between methods on the same task are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class MetricsError(ValueError):
    """History too short or otherwise unusable for a metric."""


def gradient_stability(norms: Sequence[float]) -> float:
    """1/(1 + population-std/mean) of the norm history; 1.0 for an all-zero
    history (degenerate but defined)."""
    arr = np.asarray(norms, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise MetricsError(f"gradient_stability needs >= 2 norms, got {arr.size}")
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise MetricsError("gradient norms must be finite and nonnegative")
    mean = float(arr.mean())
    if mean == 0.0:
        return 1.0
    cv = float(arr.std()) / mean
    if not np.isfinite(cv):
        # norms near 1e160 overflow; cv is scale-invariant, exactly so by 2^k
        arr = np.ldexp(arr, -np.frexp(arr.max())[1])
        cv = float(arr.std()) / float(arr.mean())
    return 1.0 / (1.0 + cv)


def alignment_from_cosines(cosines: Sequence[float]) -> float:
    """Mean of already-logged cos<g, prior> values (the trainer records one
    per step, so reports do not need to retain full gradient vectors)."""
    vals = [c for c in cosines if c is not None]
    if not vals:
        raise MetricsError("no prior cosines recorded; was the warmup phase skipped?")
    return float(np.mean(vals))


@dataclass(frozen=True)
class RunSummary:
    avg_accuracy: float
    gradient_stability: float | None
    directional_alignment: float | None
    final_loss: float | None
    steps_to_loss_threshold: int | None = None


def summarize(report, loss_threshold: float | None = None) -> RunSummary:
    """Aggregate a finished run: final accuracy, stability over the norm
    history, mean prior-cosine, final loss, and the first step (if any)
    where loss_total dropped below the threshold.

    A metric the history cannot support is None: stability and final loss
    of an empty run, alignment of a run without prior cosines.  A single
    step has stability 1.0 by convention."""
    records = report.records
    norms = [r.grad_norm for r in records]
    if len(norms) >= 2:
        stability = gradient_stability(norms)
    else:
        stability = 1.0 if norms else None
    cosines = [r.cos_prior for r in records]
    alignment = None
    if any(c is not None for c in cosines):
        alignment = alignment_from_cosines(cosines)
    steps_to = None
    if loss_threshold is not None:
        for r in records:
            if r.loss_total < loss_threshold:
                steps_to = r.step
                break
    return RunSummary(
        avg_accuracy=report.final_accuracy,
        gradient_stability=stability,
        directional_alignment=alignment,
        final_loss=records[-1].loss_total if records else None,
        steps_to_loss_threshold=steps_to,
    )
