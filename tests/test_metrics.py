"""Metric hand values, scale/permutation invariances, and summary assembly."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradguide import metrics as mt
from gradguide.trainer import StepRecord


def test_stability_hand_values():
    assert mt.gradient_stability([5.0, 5.0, 5.0, 5.0]) == 1.0
    assert abs(mt.gradient_stability([1.0, 3.0]) - 2.0 / 3.0) < 1e-9
    assert mt.gradient_stability([0.0, 0.0]) == 1.0


def test_stability_of_norms_whose_squares_overflow_is_scale_invariant():
    # std over norms near 1e160 overflows; the value is that of the same
    # norms scaled down by a power of two, bit for bit
    norms = [1e160, 3e160, 2e160, 5e159]
    got = mt.gradient_stability(norms)
    assert got == mt.gradient_stability([n * 2.0 ** -500 for n in norms])
    assert 0.0 < got < 1.0


def test_stability_validation():
    with pytest.raises(mt.MetricsError):
        mt.gradient_stability([1.0])
    with pytest.raises(mt.MetricsError):
        mt.gradient_stability([1.0, -2.0])
    with pytest.raises(mt.MetricsError):
        mt.gradient_stability([1.0, np.inf])


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=10), st.floats(0.01, 50.0))
def test_stability_scale_invariant(norms, c):
    a = mt.gradient_stability(norms)
    b = mt.gradient_stability([c * v for v in norms])
    assert abs(a - b) < 1e-9
    assert 0.0 < a <= 1.0


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=8), st.integers(0, 99))
def test_stability_permutation_invariant(norms, seed):
    rng = np.random.default_rng(seed)
    shuffled = list(rng.permutation(norms))
    assert abs(mt.gradient_stability(norms) - mt.gradient_stability(shuffled)) < 1e-12


def test_alignment_from_cosines_skips_missing():
    assert mt.alignment_from_cosines([0.5, None, 1.0]) == 0.75
    with pytest.raises(mt.MetricsError):
        mt.alignment_from_cosines([None, None])


def _rec(step, loss, norm, cos, acc=None):
    return StepRecord(step=step, loss_total=loss, loss_base=loss, r_dir=0.0, r_mag=0.0,
                      r_grad=0.0, grad_norm=norm, cos_prior=cos, cos_source=None,
                      update_norm=0.1, eval_accuracy=acc)


def test_summarize_hand_built_history():
    records = [_rec(1, 2.0, 1.0, 0.2), _rec(2, 1.0, 3.0, 0.4), _rec(3, 0.4, 2.0, 0.6)]
    report = SimpleNamespace(records=records, final_accuracy=0.9)
    s = mt.summarize(report, loss_threshold=0.5)
    assert s.avg_accuracy == 0.9
    assert abs(s.directional_alignment - 0.4) < 1e-12
    assert s.final_loss == 0.4
    assert s.steps_to_loss_threshold == 3
    assert abs(s.gradient_stability - mt.gradient_stability([1.0, 3.0, 2.0])) < 1e-15


def test_summarize_threshold_never_reached():
    report = SimpleNamespace(records=[_rec(1, 2.0, 1.0, 0.5)], final_accuracy=0.5)
    s = mt.summarize(report, loss_threshold=0.1)
    assert s.steps_to_loss_threshold is None
    assert s.gradient_stability == 1.0  # single step: convention


def test_summarize_requires_history():
    # without the history a metric needs, its cell is None, not an error
    s = mt.summarize(SimpleNamespace(records=[], final_accuracy=1.0), loss_threshold=0.5)
    assert s == mt.RunSummary(avg_accuracy=1.0, gradient_stability=None,
                              directional_alignment=None, final_loss=None,
                              steps_to_loss_threshold=None)
    no_prior = [_rec(1, 2.0, 1.0, None), _rec(2, 1.0, 3.0, None)]
    s = mt.summarize(SimpleNamespace(records=no_prior, final_accuracy=0.5))
    assert s.directional_alignment is None
    assert s.gradient_stability == mt.gradient_stability([1.0, 3.0])
    assert s.final_loss == 1.0
