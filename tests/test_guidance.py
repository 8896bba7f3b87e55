"""Penalty closed forms against hand arithmetic, the dR/dg closed form
against autodiff on a gradient leaf, and full-objective gradients against
finite differences of the assembled total."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradguide import autodiff as ad
from gradguide import fields
from gradguide import guidance as gd
from gradguide import model as md

from conftest import central_diff_grad, rel_err


def prior_of(v) -> gd.DirectionPrior:
    v = np.asarray(v, dtype=np.float64)
    return gd.DirectionPrior(v / np.linalg.norm(v), 1)


CFG = gd.GuidanceConfig(tau=1.0)


# -- hand-evaluable values -----------------------------------------------------

def test_direction_regularizer_hand_values():
    assert abs(gd.direction_regularizer([3, 4], prior_of([0.6, 0.8]), 7.0)) < 1e-10
    assert abs(gd.direction_regularizer([3, 4], prior_of([-0.6, -0.8]), 1.0) - 4.0) < 1e-10
    assert abs(gd.direction_regularizer([3, 4], prior_of([1, 0]), 1.0) - 0.8) < 1e-10


def test_magnitude_regularizer_hand_values():
    assert abs(gd.magnitude_regularizer([3, 4], 5.0, 2.0)) < 1e-10
    assert abs(gd.magnitude_regularizer([0, 0], 1.0, 3.0) - 3.0) < 1e-10
    assert abs(gd.magnitude_regularizer([3, 4], 1.0, 0.5) - 8.0) < 1e-10


@pytest.mark.filterwarnings("ignore:overflow")
def test_magnitude_regularizer_whose_square_overflows_is_inf():
    # |g| = 1e200 is finite (taken scaled); its square is not
    assert gd.magnitude_regularizer(np.array([1e200]), 0.0, 1.0) == math.inf


@pytest.mark.parametrize("size", [0, 1, 1732])
def test_norm_is_bitwise_numpys_norm(size):
    # contiguous vectors take the dot without np.linalg.norm's wrapper
    rng = np.random.default_rng(size)
    for _ in range(200):
        v = rng.standard_normal(size) * 10.0 ** rng.uniform(-150.0, 150.0)
        assert gd.norm(v) == float(np.linalg.norm(v))


def test_norm_of_a_strided_view_is_numpys_norm():
    # a strided dot can round differently from np.linalg.norm's dot of the
    # contiguous copy, so such views must take the np.linalg.norm route
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.standard_normal(2 * int(rng.integers(2, 2000)))[::2]
        assert gd.norm(v) == float(np.linalg.norm(v))
    assert gd.norm(np.arange(6.0).reshape(2, 3)) == float(np.linalg.norm(np.arange(6.0)))


def test_contrast_loss_hand_values():
    assert abs(gd.contrast_loss([1, 2, 3], [1, 2, 3], 5.0)) < 1e-10
    assert abs(gd.contrast_loss([1, 0], [-1, 0], 1.0) - 2.0) < 1e-10
    assert abs(gd.contrast_loss([1, 0], [0, 1], 4.0) - 4.0) < 1e-10


def test_contrast_loss_rejections():
    with pytest.raises(gd.GuidanceError):
        gd.contrast_loss([0.0, 0.0], [1.0, 0.0], 1.0)
    with pytest.raises(gd.GuidanceError):
        gd.contrast_loss([1.0, 0.0], [0.0, 0.0], 1.0)
    with pytest.raises(gd.GuidanceError):
        gd.contrast_loss([1.0, 0.0], [1.0, 0.0, 0.0], 1.0)


def test_direction_regularizer_zero_norm_guard(caplog):
    p = prior_of([1.0, 0.0])
    with caplog.at_level("WARNING"):
        v = gd.direction_regularizer([0.0, 0.0], p, 2.5)
    assert abs(v - 2.5) < 1e-12  # lambda1 * ||d||^2 with unit prior
    assert "zero-norm" in caplog.text


# -- prior bookkeeping ---------------------------------------------------------

def test_prior_first_observation():
    p = gd.update_prior(gd.DirectionPrior(), np.array([0.0, 5.0]), CFG)
    assert np.allclose(p.direction, [0.0, 1.0], atol=1e-15)
    assert p.count == 1


def test_prior_ema_mix():
    cfg = gd.GuidanceConfig(beta=0.5, tau=1.0)
    p = gd.DirectionPrior(np.array([1.0, 0.0]), 1)
    p = gd.update_prior(p, np.array([0.0, 2.0]), cfg)
    r = np.sqrt(0.5)
    assert np.allclose(p.direction, [r, r], atol=1e-12)
    assert p.count == 2


def test_prior_fixed_point():
    p = gd.DirectionPrior()
    g = np.array([3.0, 4.0])
    for _ in range(60):
        p = gd.update_prior(p, g, CFG)
    assert np.allclose(p.direction, [0.6, 0.8], atol=1e-12)


def test_prior_ignores_zero_gradient(caplog):
    p0 = prior_of([1.0, 0.0])
    with caplog.at_level("WARNING"):
        p1 = gd.update_prior(p0, np.zeros(2), CFG)
    assert p1 is p0
    assert "zero-norm" in caplog.text


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=6),
       st.lists(st.floats(-10, 10), min_size=2, max_size=6),
       st.floats(0.0, 0.99))
def test_prior_stays_unit(a, b, beta):
    n = min(len(a), len(b))
    ga, gb = np.array(a[:n]), np.array(b[:n])
    cfg = gd.GuidanceConfig(beta=beta, tau=1.0)
    p = gd.update_prior(gd.DirectionPrior(), ga, cfg)
    p = gd.update_prior(p, gb, cfg)
    if p.initialized:
        assert abs(np.linalg.norm(p.direction) - 1.0) < 1e-12


# -- term properties -----------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=8), st.floats(0.01, 9.0))
def test_direction_term_scale_invariant_and_bounded(vals, c):
    g = np.array(vals)
    if np.linalg.norm(g) < 1e-6:
        return
    p = prior_of(np.arange(1.0, 1.0 + len(g)))
    r1 = gd.direction_regularizer(g, p, 1.5)
    r2 = gd.direction_regularizer(c * g, p, 1.5)
    assert abs(r1 - r2) < 1e-9
    assert 0.0 <= r1 <= 4.0 * 1.5 + 1e-12


def test_magnitude_term_grows_away_from_tau():
    vals = [gd.magnitude_regularizer([r, 0.0], 2.0, 1.0) for r in (2.0, 2.5, 3.0, 1.5, 1.0)]
    assert vals[0] == 0.0
    assert vals[0] < vals[1] < vals[2]
    assert vals[0] < vals[3] < vals[4]


@settings(deadline=None, max_examples=60)
@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_contrast_monotone_in_cosine(c1, c2):
    def with_cos(c):
        return gd.contrast_loss([1.0, 0.0], [c, np.sqrt(max(0.0, 1 - c * c))], 2.0)
    lo, hi = sorted((c1, c2))
    assert with_cos(lo) >= with_cos(hi) - 1e-12
    assert 0.0 <= with_cos(c1) <= 4.0 + 1e-12


# -- closed-form dR/dg against autodiff on a gradient leaf ---------------------

@pytest.mark.parametrize("lambdas", [(2.0, 0.0, 0.0), (0.0, 1.5, 0.0),
                                     (0.0, 0.0, 3.0), (0.7, 1.1, 0.4)])
def test_reg_gradient_closed_form_matches_autodiff(lambdas, rng):
    l1, l2, l3 = lambdas
    cfg = gd.GuidanceConfig(lambda1=l1, lambda2=l2, lambda3=l3, tau=0.8)
    n = 9
    gvec = rng.standard_normal(n)
    prior = prior_of(rng.standard_normal(n))
    gsrc = rng.standard_normal(n)

    with ad.new_tape():
        gl = ad.leaf(gvec)
        terms = []
        if l1 > 0:
            terms.append(gd._dir_term(gl, prior.direction, l1))
        if l2 > 0:
            terms.append(gd._mag_term(gl, 0.8, l2))
        if l3 > 0:
            terms.append(gd._contrast_term(gl, gsrc, l3))
        total = terms[0]
        for t in terms[1:]:
            total = ad.add(total, t)
        got = ad.backward(total, {"g": gl}).values

    want = gd.regularizer_gradient_wrt_g(gvec, cfg, prior if l1 > 0 else None,
                                         gsrc if l3 > 0 else None)
    assert np.max(np.abs(got - want)) < 1e-10


# -- objective assembly ---------------------------------------------------------

SPEC = md.ModelSpec("mlp", input_dim=3, num_classes=2, hidden_dims=(4,), init_seed=11)


def _batch(rng, n=6):
    return rng.standard_normal((n, 3)), rng.integers(0, 2, size=n)


def test_inactive_objective_is_the_base_tensor(rng):
    cfg = gd.GuidanceConfig(lambda1=0.0, lambda2=0.0, lambda3=0.0, tau=1.0)
    batch = _batch(rng)
    arrays = md.init_params(SPEC)
    with ad.new_tape():
        leaves = {k: ad.leaf(v) for k, v in arrays.items()}
        obj = gd.build_objective(leaves, SPEC, batch, cfg, gd.DirectionPrior())
        assert obj.reg_grad_wrt_g is None
        assert obj.breakdown.total == obj.breakdown.base
        base = gd.base_loss(leaves, SPEC, batch)
        grad = ad.backward(base, leaves)
    assert obj.total.values.tobytes() == base.values.tobytes()
    assert obj.grad.node is None
    assert obj.grad.values.tobytes() == grad.values.tobytes()


def test_objective_requires_prior_when_dir_active(rng):
    cfg = gd.GuidanceConfig(lambda1=0.5, lambda2=0.0, lambda3=0.0, tau=1.0)
    arrays = md.init_params(SPEC)
    with ad.new_tape():
        leaves = {k: ad.leaf(v) for k, v in arrays.items()}
        with pytest.raises(gd.GuidanceError):
            gd.build_objective(leaves, SPEC, _batch(rng), cfg, gd.DirectionPrior())


def test_objective_rejects_unresolved_tau(rng):
    cfg = gd.GuidanceConfig(lambda1=0.0, lambda2=0.5, lambda3=0.0)  # tau="auto"
    arrays = md.init_params(SPEC)
    with ad.new_tape():
        leaves = {k: ad.leaf(v) for k, v in arrays.items()}
        with pytest.raises(gd.GuidanceError):
            gd.build_objective(leaves, SPEC, _batch(rng), cfg, gd.DirectionPrior())


def test_breakdown_components_sum_to_total(rng):
    layout = md.param_layout(SPEC)
    cfg = gd.GuidanceConfig(lambda1=0.3, lambda2=0.2, lambda3=0.4, tau=0.9)
    arrays = md.init_params(SPEC)
    prior = prior_of(rng.standard_normal(layout.total))
    gsrc = rng.standard_normal(layout.total)
    batch = _batch(rng)
    with ad.new_tape():
        leaves = {k: ad.leaf(v) for k, v in arrays.items()}
        obj = gd.build_objective(leaves, SPEC, batch, cfg, prior, gsrc)
    bd = obj.breakdown
    assert abs(bd.total - (bd.base + bd.dir + bd.mag + bd.contrast)) < 1e-12
    assert abs(obj.total.item() - bd.total) < 1e-12
    assert bd.cos_source is not None and -1.0 <= bd.cos_source <= 1.0
    assert bd.cos_prior is not None and -1.0 <= bd.cos_prior <= 1.0
    # independent re-evaluation of each term from the logged flat gradient
    gv = obj.grad.values
    assert abs(bd.dir - gd.direction_regularizer(gv, prior, cfg.lambda1)) < 1e-10
    assert abs(bd.mag - gd.magnitude_regularizer(gv, 0.9, cfg.lambda2)) < 1e-10
    assert abs(bd.contrast - gd.contrast_loss(gv, gsrc, cfg.lambda3)) < 1e-10


@pytest.mark.parametrize("penalty_graph", [False, True])
def test_breakdown_and_w_are_bitwise_the_closed_forms(penalty_graph, rng):
    # build_objective computes |g| and g/|g| once for every term; each value
    # must keep the bits of the public closed form evaluated on its own
    layout = md.param_layout(SPEC)
    cfg = gd.GuidanceConfig(lambda1=0.3, lambda2=0.2, lambda3=0.4, tau=0.9)
    prior = prior_of(rng.standard_normal(layout.total))
    gsrc = rng.standard_normal(layout.total)
    with ad.new_tape():
        leaves = {k: ad.leaf(v) for k, v in md.init_params(SPEC).items()}
        obj = gd.build_objective(leaves, SPEC, _batch(rng), cfg, prior, gsrc,
                                 penalty_graph=penalty_graph)
    bd, gv = obj.breakdown, obj.grad.values
    gn = float(np.linalg.norm(gv))
    assert bd.grad_norm == gn
    assert bd.dir == gd.direction_regularizer(gv, prior, cfg.lambda1, cfg.epsilon_norm_guard)
    assert bd.mag == gd.magnitude_regularizer(gv, cfg.tau, cfg.lambda2)
    assert bd.contrast == gd.contrast_loss(gv, gsrc, cfg.lambda3, cfg.epsilon_norm_guard)
    assert bd.cos_prior == gd.clip_cosine(float(gv @ prior.direction) / gn)
    assert bd.cos_source == gd.clip_cosine(float(gv @ gsrc) / (gn * np.linalg.norm(gsrc)))
    w = gd.regularizer_gradient_wrt_g(gv, cfg, prior, gsrc)
    assert obj.reg_grad_wrt_g.tobytes() == w.tobytes()


def test_cos_source_logged_even_when_lambda3_zero(rng):
    layout = md.param_layout(SPEC)
    cfg = gd.GuidanceConfig(lambda1=0.0, lambda2=0.1, lambda3=0.0, tau=1.0)
    arrays = md.init_params(SPEC)
    gsrc = rng.standard_normal(layout.total)
    with ad.new_tape():
        leaves = {k: ad.leaf(v) for k, v in arrays.items()}
        obj = gd.build_objective(leaves, SPEC, _batch(rng), cfg, gd.DirectionPrior(), gsrc)
    assert obj.breakdown.contrast == 0.0
    assert obj.breakdown.cos_source is not None


def _total_value_fn(spec, batch, cfg, prior, gsrc, layout):
    def value(flat):
        parts = layout.unflatten(flat)
        with ad.new_tape():
            leaves = {k: ad.leaf(v) for k, v in parts.items()}
            obj = gd.build_objective(leaves, spec, batch, cfg, prior, gsrc)
        return obj.breakdown.total
    return value


@pytest.mark.parametrize("lambdas,with_source", [
    ((0.5, 0.0, 0.0), False),
    ((0.0, 0.7, 0.0), False),
    ((0.0, 0.0, 0.6), True),
    ((0.4, 0.3, 0.2), True),
])
def test_exact_total_gradient_matches_fd(lambdas, with_source, rng):
    l1, l2, l3 = lambdas
    layout = md.param_layout(SPEC)
    cfg = gd.GuidanceConfig(lambda1=l1, lambda2=l2, lambda3=l3, tau=0.6, mode="exact")
    arrays = md.init_params(SPEC)
    prior = prior_of(rng.standard_normal(layout.total))
    gsrc = rng.standard_normal(layout.total) if with_source else None
    batch = _batch(rng)

    with ad.new_tape():
        leaves = {k: ad.leaf(v) for k, v in arrays.items()}
        obj = gd.build_objective(leaves, SPEC, batch, cfg, prior, gsrc)
        upd = ad.backward(obj.total, leaves).values

    fd = central_diff_grad(_total_value_fn(SPEC, batch, cfg, prior, gsrc, layout),
                           layout.flatten(arrays))
    assert rel_err(upd, fd) < 1e-4


def test_exact_attention_step_tape_replays(rng):
    # The exact route's create_graph backward leaves flagged matmuls on the
    # tape; replay re-runs each with its flags.
    spec = md.ModelSpec("tiny_attention", input_dim=8, num_classes=3, hidden_dims=(2, 4),
                        init_seed=5)
    layout = md.param_layout(spec)
    cfg = gd.GuidanceConfig(lambda1=0.2, lambda2=0.1, lambda3=0.1, tau=0.5, mode="exact")
    prior = prior_of(rng.standard_normal(layout.total))
    gsrc = rng.standard_normal(layout.total)
    batch = (rng.standard_normal((5, 8)), rng.integers(0, 3, size=5))
    with ad.new_tape() as tape:
        leaves = {k: ad.leaf(v) for k, v in md.init_params(spec).items()}
        gd.build_objective(leaves, spec, batch, cfg, prior, gsrc)
        assert any(r.kind == "matmul" and (r.attrs["ta"] or r.attrs["tb"])
                   for r in tape.records)
        assert tape.replay_check()


def test_zero_gradient_guard_in_objective(rng):
    # zero inputs + balanced labels make the logistic base gradient exactly zero
    spec = md.ModelSpec("logistic", input_dim=2, num_classes=2)
    arrays = {"w": np.zeros((2, 2)), "b": np.zeros(2)}
    batch = (np.zeros((2, 2)), np.array([0, 1]))
    prior = prior_of(np.ones(6))
    cfg = gd.GuidanceConfig(lambda1=2.0, lambda2=0.0, lambda3=0.0, tau=1.0)
    with ad.new_tape():
        leaves = {k: ad.leaf(v) for k, v in arrays.items()}
        obj = gd.build_objective(leaves, spec, batch, cfg, prior)
        upd = ad.backward(obj.total, leaves).values
    assert "dir_zero_grad_guard" in obj.breakdown.flags
    assert abs(obj.breakdown.dir - 2.0) < 1e-12
    assert np.all(upd == 0.0)  # guarded term is constant, base gradient is zero


def test_config_validation():
    with pytest.raises(gd.GuidanceError):
        gd.GuidanceConfig(lambda1=-0.1)
    with pytest.raises(gd.GuidanceError):
        gd.GuidanceConfig(lambda1=True)
    with pytest.raises(gd.GuidanceError):
        gd.GuidanceConfig(tau=0.0)
    with pytest.raises(gd.GuidanceError):
        gd.GuidanceConfig(tau="later")
    with pytest.raises(gd.GuidanceError):
        gd.GuidanceConfig(beta=1.0)
    with pytest.raises(gd.GuidanceError):
        gd.GuidanceConfig(mode="fast")
    with pytest.raises(gd.GuidanceError):
        gd.GuidanceConfig(epsilon_norm_guard=0.0)


def test_config_dict_roundtrip():
    cfg = gd.GuidanceConfig(lambda1=0.2, tau=1.5, mode="fd-hvp")
    assert gd.GuidanceConfig.from_dict(fields.to_dict(cfg)) == cfg
    with pytest.raises(gd.GuidanceError):
        gd.GuidanceConfig.from_dict({"lambda_one": 1.0})
