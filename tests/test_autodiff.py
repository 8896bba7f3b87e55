"""Gradient correctness against central finite differences, second-order
checks against closed forms, and tape bookkeeping."""

import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradguide import autodiff as ad
from gradguide import guidance as gd
from gradguide import model as md

from conftest import (central_diff_grad, composed_softmax, dual_sweep, eval_scalar,
                      install_dual_sweeps, rel_err)


def _away_from_zero(v, margin=0.25):
    return v + margin * np.sign(v)


# Each case: parameter arrays plus a builder producing an arbitrary-shape
# output; the harness contracts it to a scalar with a fixed random weighting
# so index mix-ups in a backward rule cannot cancel out.
def _case_add(rng):
    return {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((3, 4))}, \
        lambda t: ad.add(t["a"], t["b"])


def _case_add_row(rng):
    return {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((1, 4))}, \
        lambda t: ad.add(t["a"], t["b"])


def _case_add_vec(rng):
    return {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)}, \
        lambda t: ad.add(t["a"], t["b"])


def _case_add_scalar(rng):
    return {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(1)}, \
        lambda t: ad.add(t["a"], t["b"])


def _case_sub_col(rng):
    return {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((3, 1))}, \
        lambda t: ad.sub(t["a"], t["b"])


def _case_mul(rng):
    return {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((3, 4))}, \
        lambda t: ad.mul(t["a"], t["b"])


def _case_mul_col(rng):
    return {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((3, 1))}, \
        lambda t: ad.mul(t["a"], t["b"])


def _case_div(rng):
    return {"a": rng.standard_normal((3, 4)),
            "b": _away_from_zero(rng.standard_normal((3, 4)), 0.5)}, \
        lambda t: ad.div(t["a"], t["b"])


def _case_div_scalar(rng):
    return {"a": rng.standard_normal((3, 4)),
            "b": np.array([1.7])}, \
        lambda t: ad.div(t["a"], t["b"])


def _case_scalar_mul(rng):
    return {"a": rng.standard_normal((3, 4))}, lambda t: ad.scalar_mul(t["a"], -2.5)


def _case_matmul(rng):
    return {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((4, 2))}, \
        lambda t: ad.matmul(t["a"], t["b"])


def _case_matmul_ta(rng):
    return {"a": rng.standard_normal((4, 3)), "b": rng.standard_normal((4, 2))}, \
        lambda t: ad.matmul(t["a"], t["b"], ta=True)


def _case_matmul_tb(rng):
    return {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((2, 4))}, \
        lambda t: ad.matmul(t["a"], t["b"], tb=True)


def _case_matmul_tatb(rng):
    return {"a": rng.standard_normal((4, 3)), "b": rng.standard_normal((2, 4))}, \
        lambda t: ad.matmul(t["a"], t["b"], ta=True, tb=True)


def _batched_matmul_case(ta, tb):
    def case(rng):
        a = rng.standard_normal((2, 4, 3) if ta else (2, 3, 4))
        b = rng.standard_normal((2, 5, 4) if tb else (2, 4, 5))
        return {"a": a, "b": b}, lambda t: ad.matmul(t["a"], t["b"], ta=ta, tb=tb)
    case.__name__ = "_case_bmm" + "_ta" * ta + "_tb" * tb
    return case


# products viewed in another shape by a reshape record, as attention's were
def _case_matmul_viewed_3d(rng):
    return {"a": rng.standard_normal((6, 4)), "b": rng.standard_normal((4, 3))}, \
        lambda t: ad.reshape(ad.matmul(t["a"], t["b"]), (2, 3, 3))


def _case_bmm_ta_tb_viewed_2d(rng):
    return {"a": rng.standard_normal((2, 4, 3)), "b": rng.standard_normal((2, 5, 4))}, \
        lambda t: ad.reshape(ad.matmul(t["a"], t["b"], ta=True, tb=True), (6, 5))


def _attention_case(seq_len, const_x=False):
    def case(rng):
        x = rng.standard_normal((3, seq_len * 2))
        params = {name: rng.standard_normal((2, 4)) for name in ("q", "k", "v")}

        def build(t):
            xt = ad.constant(x) if const_x else t["x"]
            return ad.attention(xt, t["q"], t["k"], t["v"], seq_len)
        return (params if const_x else {"x": x, **params}), build
    case.__name__ = f"_case_attention_{seq_len}" + "_const_x" * const_x
    return case


def _dense_case(tanh, const_x=False):
    def case(rng):
        x = rng.standard_normal((5, 4))
        params = {"w": rng.standard_normal((4, 3)) * 0.5, "b": rng.standard_normal(3) * 0.5}
        if const_x:   # as in a model's first layer
            return params, lambda t: ad.dense(ad.constant(x), t["w"], t["b"], tanh=tanh)
        return {"x": x, **params}, lambda t: ad.dense(t["x"], t["w"], t["b"], tanh=tanh)
    case.__name__ = "_case_dense" + "_tanh" * tanh + "_const_x" * const_x
    return case


def _case_tanh(rng):
    return {"a": rng.standard_normal((3, 4))}, lambda t: ad.tanh(t["a"])


def _case_exp(rng):
    return {"a": rng.standard_normal((3, 4))}, lambda t: ad.exp(t["a"])


def _case_sum_all(rng):
    return {"a": rng.standard_normal((3, 4))}, lambda t: ad.sum_(t["a"])


def _case_sum_axis0(rng):
    return {"a": rng.standard_normal((3, 4))}, lambda t: ad.sum_(t["a"], axis=0)


def _case_sum_axis1_keep(rng):
    return {"a": rng.standard_normal((3, 4))}, \
        lambda t: ad.sum_(t["a"], axis=1, keepdims=True)


def _case_l2_norm(rng):
    return {"a": rng.standard_normal(7)}, lambda t: ad.l2_norm(t["a"])


def _case_dot(rng):
    return {"a": rng.standard_normal(6), "b": rng.standard_normal(6)}, \
        lambda t: ad.dot(t["a"], t["b"])


def _case_concat(rng):
    return {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal((2, 2))}, \
        lambda t: ad.concat([t["a"], t["b"]], axis=1)


def _case_slice(rng):
    return {"a": rng.standard_normal((4, 5))}, lambda t: ad.slice_(t["a"], 1, 1, 4)


def _case_reshape(rng):
    return {"a": rng.standard_normal((3, 4))}, lambda t: ad.reshape(t["a"], (2, 6))


def _case_softmax_ce(rng):
    labels = np.array([0, 2, 1, 2])
    return {"z": rng.standard_normal((4, 3))}, \
        lambda t: ad.softmax_cross_entropy(t["z"], labels)


def _softmax_case(shape, c=1.0):
    # the composed softmax chain the attention rules recompose for
    # create_graph=True and dual_sweep
    def case(rng):
        return {"a": rng.standard_normal(shape) * 2.0}, lambda t: composed_softmax(t["a"], c)
    case.__name__ = f"_case_softmax_{len(shape)}d" + "_scaled" * (c != 1.0)
    return case


def _case_mlp_composite(rng):
    labels = np.array([0, 1, 1, 0, 2])
    x = rng.standard_normal((5, 4))

    def build(t):
        h = ad.tanh(ad.add(ad.matmul(ad.constant(x), t["w1"]), t["b1"]))
        z = ad.add(ad.matmul(h, t["w2"]), t["b2"])
        return ad.softmax_cross_entropy(z, labels)

    return {"w1": rng.standard_normal((4, 6)) * 0.5, "b1": rng.standard_normal(6) * 0.1,
            "w2": rng.standard_normal((6, 3)) * 0.5, "b2": rng.standard_normal(3) * 0.1}, build


GRAD_CASES = [
    _case_add, _case_add_row, _case_add_vec, _case_add_scalar, _case_sub_col,
    _case_mul, _case_mul_col, _case_div, _case_div_scalar, _case_scalar_mul,
    _case_matmul, _case_matmul_ta, _case_matmul_tb, _case_matmul_tatb,
    *(_batched_matmul_case(ta, tb) for ta in (False, True) for tb in (False, True)),
    _case_matmul_viewed_3d, _case_bmm_ta_tb_viewed_2d,
    _dense_case(False), _dense_case(True), _dense_case(True, const_x=True),
    _case_tanh, _case_exp,
    _case_sum_all, _case_sum_axis0, _case_sum_axis1_keep,
    _case_l2_norm, _case_dot, _case_concat, _case_slice, _case_reshape,
    _case_softmax_ce, _case_mlp_composite,
    _softmax_case((4, 5)), _softmax_case((2, 3, 4)), _softmax_case((3, 5), c=-1.7),
    _softmax_case((2, 3, 4), c=0.35),
    _attention_case(3), _attention_case(3, const_x=True), _attention_case(1),
]


@pytest.mark.parametrize("case", GRAD_CASES, ids=lambda c: c.__name__[6:])
def test_gradient_matches_finite_differences(case, rng):
    params, build = case(rng)
    shapes = [(k, v.shape) for k, v in params.items()]
    layout = ad.ParamLayout.of(shapes)
    flat0 = layout.flatten(params)

    out_probe = build({k: ad.constant(v) for k, v in params.items()})
    w = rng.standard_normal(out_probe.shape)

    def scalar_of(t):
        return ad.sum_(ad.mul(build(t), ad.constant(w)))

    with ad.new_tape():
        leaves = {k: ad.leaf(v) for k, v in params.items()}
        g = ad.backward(scalar_of(leaves), leaves)

    fd = central_diff_grad(lambda x: eval_scalar(scalar_of, x, shapes), flat0)
    assert rel_err(g.values, fd) < 1e-5


@pytest.mark.parametrize("case", GRAD_CASES, ids=lambda c: c.__name__[6:])
def test_first_order_backward_is_bitwise_the_recorded_sweep(case, rng):
    # create_graph=False runs each rule on plain arrays; create_graph=True
    # runs it through the recorded ops.  Both must give the same bits.
    params, build = case(rng)
    out_probe = build({k: ad.constant(v) for k, v in params.items()})
    w = ad.constant(rng.standard_normal(out_probe.shape))
    grads = {}
    for create_graph in (False, True):
        with ad.new_tape() as tape:
            leaves = {k: ad.leaf(v) for k, v in params.items()}
            loss = ad.sum_(ad.mul(build(leaves), w))
            n_ops = len(tape)
            g = ad.backward(loss, leaves, create_graph=create_graph)
            if not create_graph:
                assert len(tape) == n_ops and g.node is None
        grads[create_graph] = g.values
    assert grads[False].tobytes() == grads[True].tobytes()


@pytest.mark.parametrize("create_graph", [False, True])
def test_adjoint_overflow_from_finite_values_raises_nonfinite(create_graph):
    # Every forward value is finite (1e-300 -> 1e-100 -> 1e100), but the
    # adjoint of x is 1e200 * 1e200.
    with ad.new_tape():
        x = ad.leaf([1e-300])
        y = ad.scalar_mul(ad.scalar_mul(x, 1e200), 1e200)
        assert np.isfinite(y.values).all()
        with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError):
            ad.backward(y, {"x": x}, create_graph=create_graph)


def test_finite_adjoints_whose_sum_overflows_pass_the_check():
    # The adjoint of x is [1e308, 1e308]: finite, though its sum is not.
    with ad.new_tape():
        x = ad.leaf([1e-300, 1e-300])
        f = ad.sum_(ad.scalar_mul(x, 1e308))
        with np.errstate(over="ignore"):
            g = ad.backward(f, {"x": x})
    assert g.values.tolist() == [1e308, 1e308]


def test_gradient_of_unused_parameter_is_zero(rng):
    with ad.new_tape():
        a = ad.leaf(rng.standard_normal(3))
        unused = ad.leaf(rng.standard_normal((2, 2)))
        g = ad.backward(ad.l2_norm(a), {"a": a, "unused": unused})
    assert g.values.shape == (7,)
    assert np.all(g.values[3:] == 0.0)
    assert np.any(g.values[:3] != 0.0)


def test_gradient_accumulates_over_reused_input(rng):
    x0 = rng.standard_normal(5)
    with ad.new_tape():
        x = ad.leaf(x0)
        g = ad.backward(ad.dot(x, x), {"x": x})
    assert np.allclose(g.values, 2.0 * x0, atol=1e-12)


# -- second order -----------------------------------------------------------

def test_hvp_quadratic_is_exact(rng):
    n = 7
    a = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    b = rng.standard_normal(n)

    def loss(t):
        th = t["theta"]
        col = ad.matmul(ad.constant(a), ad.reshape(th, (n, 1)))
        quad = ad.scalar_mul(ad.dot(th, ad.reshape(col, (n,))), 0.5)
        return ad.add(quad, ad.dot(ad.constant(b), th))

    theta = rng.standard_normal(n)
    v = rng.standard_normal(n)
    hv = ad.hvp(loss, {"theta": theta}, v)
    assert np.max(np.abs(hv.values - a @ v)) < 1e-10


def test_hvp_tanh_sum_closed_form(rng):
    x0 = rng.standard_normal(6)
    v = rng.standard_normal(6)
    hv = ad.hvp(lambda t: ad.sum_(ad.tanh(t["x"])), {"x": x0}, v)
    tt = np.tanh(x0)
    exact = -2.0 * tt * (1.0 - tt * tt) * v
    assert np.max(np.abs(hv.values - exact)) < 1e-12


def test_hvp_l2_norm_closed_form(rng):
    x0 = rng.standard_normal(5)
    v = rng.standard_normal(5)
    hv = ad.hvp(lambda t: ad.l2_norm(t["x"]), {"x": x0}, v)
    n = np.linalg.norm(x0)
    u = x0 / n
    exact = (v - u * (u @ v)) / n
    assert np.max(np.abs(hv.values - exact)) < 1e-10


def test_hvp_matches_finite_difference_of_gradients(rng):
    labels = np.array([0, 1, 2, 1])
    x = rng.standard_normal((4, 3))
    shapes = [("w1", (3, 5)), ("b1", (5,)), ("w2", (5, 3)), ("b2", (3,))]
    layout = ad.ParamLayout.of(shapes)
    flat0 = rng.standard_normal(layout.total) * 0.4

    def loss(t):
        h = ad.tanh(ad.add(ad.matmul(ad.constant(x), t["w1"]), t["b1"]))
        z = ad.add(ad.matmul(h, t["w2"]), t["b2"])
        return ad.softmax_cross_entropy(z, labels)

    def grad_at(flat):
        parts = layout.unflatten(flat)
        with ad.new_tape():
            leaves = {k: ad.leaf(v) for k, v in parts.items()}
            return ad.backward(loss(leaves), leaves).values

    v = rng.standard_normal(layout.total)
    hv = ad.hvp(loss, layout.unflatten(flat0), v)
    eps = 1e-5
    fd = (grad_at(flat0 + eps * v) - grad_at(flat0 - eps * v)) / (2.0 * eps)
    assert rel_err(hv.values, fd) < 1e-6


MATMUL_FLAGS = list(itertools.product((False, True), repeat=2))


@pytest.mark.parametrize("batch,ta,tb", [
    pytest.param(batch, ta, tb, id=("batched-" if batch else "") + f"{ta}-{tb}")
    for batch in ((), (2,)) for ta, tb in MATMUL_FLAGS
])
def test_flagged_matmul_hvp_matches_finite_difference_of_gradients(batch, ta, tb, rng):
    # tanh keeps the loss from being bilinear, so the Hessian has both the
    # a-b cross blocks of the matmul rule and curvature within each operand.
    shapes = [("a", batch + ((4, 3) if ta else (3, 4))),
              ("b", batch + ((2, 4) if tb else (4, 2)))]
    layout = ad.ParamLayout.of(shapes)
    w = rng.standard_normal(batch + (3, 2))

    def loss(t):
        z = ad.tanh(ad.matmul(t["a"], t["b"], ta=ta, tb=tb))
        return ad.sum_(ad.mul(z, ad.constant(w)))

    def grad_at(flat):
        with ad.new_tape():
            leaves = {k: ad.leaf(v) for k, v in layout.unflatten(flat).items()}
            return ad.backward(loss(leaves), leaves).values

    flat0 = rng.standard_normal(layout.total) * 0.5
    v = rng.standard_normal(layout.total)
    hv = ad.hvp(loss, layout.unflatten(flat0), v)
    eps = 1e-5
    fd = (grad_at(flat0 + eps * v) - grad_at(flat0 - eps * v)) / (2.0 * eps)
    assert rel_err(hv.values, fd) < 1e-6


def _hvp_both_ways(build, params, v):
    """(hvp_recorded on a tape holding build's scalar, ad.hvp of the same)."""
    with ad.new_tape():
        leaves = {k: ad.leaf(a) for k, a in params.items()}
        dual = ad.hvp_recorded(build(leaves), leaves, v).values
    return dual, ad.hvp(build, params, v).values


@pytest.mark.parametrize("case", GRAD_CASES, ids=lambda c: c.__name__[6:])
def test_hvp_recorded_matches_double_backprop(case, rng, dual_sweeps):
    # Squaring the case's output before the weighted sum gives every case a
    # nonzero Hessian, so each op's tangent rule and the dual form of its
    # backward rule both shape the result.
    params, build = case(rng)
    out_probe = build({k: ad.constant(v) for k, v in params.items()})
    w = ad.constant(rng.standard_normal(out_probe.shape))

    def scalar_of(t):
        y = build(t)
        return ad.sum_(ad.mul(ad.mul(y, y), w))

    v = rng.standard_normal(sum(a.size for a in params.values()))
    dual, ref = _hvp_both_ways(scalar_of, params, v)
    assert np.linalg.norm(ref) > 0.0
    assert np.linalg.norm(dual - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("kind,hidden", [("logistic", ()), ("mlp", (8, 8)),
                                         ("tiny_attention", (2, 4))])
def test_hvp_recorded_matches_double_backprop_on_models(kind, hidden, rng):
    spec = md.ModelSpec(kind=kind, input_dim=8, num_classes=3, hidden_dims=hidden,
                        init_seed=4)
    x, y = rng.standard_normal((10, 8)), rng.integers(0, 3, size=10)
    v = rng.standard_normal(md.param_layout(spec).total)
    dual, ref = _hvp_both_ways(
        lambda p: md.loss(spec, p, ad.constant(x), y), md.init_params(spec), v)
    assert np.linalg.norm(dual - ref) <= 1e-12 * np.linalg.norm(ref)


def test_hvp_recorded_records_nothing_and_checks_v(rng, dual_sweeps):
    with ad.new_tape() as tape:
        x = ad.leaf(rng.standard_normal(4))
        f = ad.sum_(ad.exp(x))
        n_ops = len(tape)
        hv = ad.hvp_recorded(f, {"x": x}, np.ones(4))
        assert len(tape) == n_ops and hv.node is None
        assert np.allclose(hv.values, np.exp(x.values), rtol=1e-15)
        with pytest.raises(ad.ShapeMismatchError):
            ad.hvp_recorded(f, {"x": x}, np.ones(3))
    with pytest.raises(ad.TapeError):
        ad.hvp_recorded(f, {"x": x}, np.ones(4))


def test_hvp_recorded_overflow_raises_nonfinite(dual_sweeps):
    # f = x², H·v = 2v: finite values and gradient, overflowing tangent
    with ad.new_tape():
        x = ad.leaf([1.0])
        f = ad.mul(x, x)
        with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError):
            ad.hvp_recorded(f, {"x": x}, [1e308])


# -- grad_and_hvp: one first-order sweep, then H·v from its adjoints -----------

def _hvp_one_sweep(build, params, vs):
    """H·v of build's scalar for each v of ``vs``, as bytes: by ``hv`` calls
    in turn on one ``grad_and_hvp`` sweep, and by a fresh sweep per v
    (``hvp_recorded`` on a tape of its own).  The sweep's ``grad`` must have
    the bytes of ``backward``."""
    with ad.new_tape():
        leaves = {k: ad.leaf(a) for k, a in params.items()}
        f = build(leaves)
        grad, hv = ad.grad_and_hvp(f, leaves)
        assert grad.node is None
        assert grad.values.tobytes() == ad.backward(f, leaves).values.tobytes()
        kept = [hv(v).values.tobytes() for v in vs]
    fresh = []
    for v in vs:
        with ad.new_tape():
            leaves = {k: ad.leaf(a) for k, a in params.items()}
            fresh.append(ad.hvp_recorded(build(leaves), leaves, v).values.tobytes())
    return kept, fresh


@pytest.mark.parametrize("case", GRAD_CASES, ids=lambda c: c.__name__[6:])
def test_hvp_recorded_is_the_same_with_and_without_kept_adjoints(case, rng, dual_sweeps):
    # two directions on one sweep's kept adjoints, each against a fresh sweep
    params, build = case(rng)
    out_probe = build({k: ad.constant(v) for k, v in params.items()})
    w = ad.constant(rng.standard_normal(out_probe.shape))

    def scalar_of(t):
        y = build(t)
        return ad.sum_(ad.mul(ad.mul(y, y), w))

    vs = [rng.standard_normal(sum(a.size for a in params.values())) for _ in range(2)]
    kept, fresh = _hvp_one_sweep(scalar_of, params, vs)
    assert kept == fresh
    ref = ad.hvp(scalar_of, params, vs[0]).values
    assert np.linalg.norm(np.frombuffer(kept[0]) - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("kind,hidden", [("logistic", ()), ("mlp", (8, 8)),
                                         ("tiny_attention", (2, 4))])
def test_hvp_recorded_reuses_the_adjoints_build_objective_kept(kind, hidden, rng):
    spec = md.ModelSpec(kind=kind, input_dim=8, num_classes=3, hidden_dims=hidden,
                        init_seed=4)
    params = md.init_params(spec)
    batch = rng.standard_normal((10, 8)), rng.integers(0, 3, size=10)
    g0 = rng.standard_normal(md.param_layout(spec).total)
    prior = gd.update_prior(gd.DirectionPrior(), g0, gd.GuidanceConfig())
    cfg = gd.GuidanceConfig(lambda1=0.2, lambda2=0.1, lambda3=0.1, tau=0.5)
    with ad.new_tape():
        leaves = {k: ad.leaf(a) for k, a in params.items()}
        obj = gd.build_objective(leaves, spec, batch, cfg, prior, g0[::-1].copy(),
                                 penalty_graph=False)
        w = obj.reg_grad_wrt_g
        grad, kept = obj.grad.values, obj.hv(w).values

    def base(p):
        return gd.base_loss(p, spec, batch)

    (again,), (fresh,) = _hvp_one_sweep(base, params, [w])
    assert kept.tobytes() == again == fresh
    with ad.new_tape():
        leaves = {k: ad.leaf(a) for k, a in params.items()}
        assert grad.tobytes() == ad.backward(base(leaves), leaves).values.tobytes()
    ref = ad.hvp(base, params, w).values
    assert np.linalg.norm(kept - ref) <= 1e-12 * np.linalg.norm(ref)
    # no other objective builds an H·v: without a penalty, under the
    # penalty graph, or in fd-hvp mode
    off = dataclasses.replace(cfg, lambda1=0.0, lambda2=0.0, lambda3=0.0)
    for cfg_, graph in ((off, False), (cfg, True),
                        (dataclasses.replace(cfg, mode="fd-hvp"), False)):
        with ad.new_tape():
            leaves = {k: ad.leaf(a) for k, a in params.items()}
            assert gd.build_objective(leaves, spec, batch, cfg_, prior, g0[::-1].copy(),
                                      penalty_graph=graph).hv is None


def test_array_tanh_rule_is_the_composed_rule_and_writes_no_input(rng):
    o = ad._ARRAYS
    with ad.new_tape():
        x = ad.leaf(rng.standard_normal((37, 19)))
        out = ad.tanh(x)
    y = out.values
    g = rng.standard_normal(y.shape)
    g.setflags(write=False)      # as a kept adjoint: a write into it raises
    g0, y0 = g.tobytes(), y.tobytes()
    (got,) = ad._bw_tanh(o, (x,), out, g, {})
    composed = o.mul(g, o.sub(o.filled(1.0, (1,)), o.mul(y, y)))
    assert got.tobytes() == composed.tobytes()
    assert g.tobytes() == g0 and y.tobytes() == y0
    assert not np.shares_memory(got, g) and not np.shares_memory(got, y)


@pytest.mark.parametrize("hidden", [(8,), (16, 8)])
def test_hvp_recorded_on_a_tanh_mlp_is_the_same_with_and_without_kept_adjoints(
        hidden, rng):
    spec = md.ModelSpec(kind="mlp", input_dim=8, num_classes=3, hidden_dims=hidden,
                        init_seed=5)
    params = md.init_params(spec)
    batch = rng.standard_normal((10, 8)), rng.integers(0, 3, size=10)
    vs = [rng.standard_normal(md.param_layout(spec).total) for _ in range(2)]
    kept, fresh = _hvp_one_sweep(lambda p: gd.base_loss(p, spec, batch), params, vs)
    assert kept == fresh


# -- the parts grad_and_hvp's sweep shares with the tangent pass and sweep -------

def _spy_keep(mp, zeros=False):
    """Record each part the first-order array rules keep, as (the sweep's
    parts dict, record node); with ``zeros`` keep zeros in its place."""
    calls, keep = [], ad._Arrays.keep

    def spy(self, out, **arrays):
        calls.append((self.parts, out.node))
        if zeros:
            arrays = {name: np.zeros_like(a) for name, a in arrays.items()}
        keep(self, out, **arrays)

    mp.setattr(ad._Arrays, "keep", spy)
    return calls


def _dual_sweeps_only(mp):
    """Sweep every kind by the reference, ``dual_sweep``."""
    for name, op in ad._OPS.items():
        mp.setitem(ad._OPS, name, dataclasses.replace(op, sweep=dual_sweep))


@pytest.mark.parametrize("kind,hidden", [("mlp", (32, 32)), ("tiny_attention", (4, 8))],
                         ids=["mlp", "tiny_attention"])
def test_hvp_recorded_with_kept_parts_is_bitwise_the_recomputed_sweep(kind, hidden, rng,
                                                                      monkeypatch, dual_sweeps):
    # Two directions on one sweep, so the tangent parts of the first must
    # not reach the second; against the reference sweep of every kind.
    spec = md.ModelSpec(kind=kind, input_dim=16, num_classes=4, hidden_dims=hidden,
                        init_seed=2)
    params = md.init_params(spec)
    batch = rng.standard_normal((32, 16)), rng.integers(0, 4, size=32)
    vs = [rng.standard_normal(md.param_layout(spec).total) for _ in range(2)]
    with monkeypatch.context() as mp:
        calls = _spy_keep(mp)
        with ad.new_tape() as tape:
            leaves = {k: ad.leaf(a) for k, a in params.items()}
            _, hv = ad.grad_and_hvp(gd.base_loss(leaves, spec, batch), leaves)
            kept = [hv(v).values.tobytes() for v in vs]
    reference = []
    with monkeypatch.context() as mp:
        _dual_sweeps_only(mp)
        for v in vs:
            with ad.new_tape():
                leaves = {k: ad.leaf(a) for k, a in params.items()}
                reference.append(ad.hvp_recorded(gd.base_loss(leaves, spec, batch), leaves,
                                                 v).values.tobytes())
    assert kept == reference
    # the first-order parts alone stay in the sweep's parts, frozen: each
    # hv call adds its tangents to a copy of its own
    parts = calls[0][0]
    assert all(p is parts for p, _ in calls)
    assert all(not a.flags.writeable for p in parts.values() for a in p.values())
    kinds = {rec.output.node: rec.kind for rec in tape.records}
    names = {kinds[node]: sorted(p) for node, p in parts.items()}
    ce = {"softmax_cross_entropy": ["d"]}
    attention = sorted(["gm", "pT", "gv", "vT", "gp", "ga", "q", "ge", "gz", "gq", "gzT", "gk",
                        "rowsT"])
    assert names == ({"dense": ["d", "gd"], **ce} if kind == "mlp"
                     else {"attention": attention, **ce})


@pytest.mark.parametrize("kind,hidden", [("mlp", (8,)), ("tiny_attention", (2, 4))],
                         ids=["mlp", "tiny_attention"])
def test_the_tangent_sweep_reads_the_kept_parts(kind, hidden, rng, monkeypatch):
    # wrong parts give a wrong H·v: the sweep reads them, it does not form
    # them again
    spec = md.ModelSpec(kind=kind, input_dim=8, num_classes=3, hidden_dims=hidden,
                        init_seed=2)
    params = md.init_params(spec)
    batch = rng.standard_normal((10, 8)), rng.integers(0, 3, size=10)
    v = rng.standard_normal(md.param_layout(spec).total)
    out = []
    for corrupt in (False, True):
        with monkeypatch.context() as mp:
            _spy_keep(mp, zeros=corrupt)
            with ad.new_tape():
                leaves = {k: ad.leaf(a) for k, a in params.items()}
                grad, hv = ad.grad_and_hvp(gd.base_loss(leaves, spec, batch), leaves)
                out.append((grad.values.tobytes(), hv(v).values.tobytes()))
    assert out[0][0] == out[1][0] and out[0][1] != out[1][1]


def _dense_tanh_case(rng):
    return ({"x": rng.standard_normal((5, 4)), "w": rng.standard_normal((4, 3)) * 0.5,
             "b": rng.standard_normal(3) * 0.5, "u": rng.standard_normal((5, 3))},
            lambda t: _contracted(ad.dense(t["x"], t["w"], t["b"], tanh=True), t["u"]))


def _cross_entropy_case(rng):
    labels = np.array([0, 2, 1, 2])
    return ({"x": rng.standard_normal((4, 3)) * 2.0, "u": rng.standard_normal(1)},
            lambda t: ad.mul(ad.softmax_cross_entropy(ad.tanh(t["x"]), labels), t["u"]))


@pytest.mark.parametrize("wrt", [("x", "u"), ("x",), ("u",)], ids="".join)
@pytest.mark.parametrize("kind,case", [("dense", _dense_tanh_case),
                                       ("softmax_cross_entropy", _cross_entropy_case)],
                         ids=["dense", "cross_entropy"])
def test_sweep_rules_on_kept_parts_have_the_bits_of_the_dual_sweep(kind, case, wrt, rng,
                                                                   monkeypatch, dual_sweeps):
    # Each array rule on its kept parts against every kind swept by the
    # reference, which reads no parts; without x in wrt, x has a zero tangent
    # (and the tangent pass adds no parts), without u the adjoint has one.
    params, build = case(rng)
    v = rng.standard_normal(sum(params[k].size for k in wrt))
    with monkeypatch.context() as mp:
        calls = _spy_keep(mp)
        with ad.new_tape() as tape:
            leaves = {k: ad.leaf(a) for k, a in params.items()}
            _, hv = ad.grad_and_hvp(build(leaves), {k: leaves[k] for k in wrt})
            kept = hv(v).values.tobytes()
    assert kind in {rec.kind for rec in tape.records if rec.output.node in {n for _, n in calls}}
    _dual_sweeps_only(monkeypatch)
    with ad.new_tape():
        leaves = {k: ad.leaf(a) for k, a in params.items()}
        reference = ad.hvp_recorded(build(leaves), {k: leaves[k] for k in wrt}, v)
    assert kept == reference.values.tobytes()


@pytest.mark.parametrize("k", [4, 10])
def test_one_hot_free_cross_entropy_rule_is_bitwise_the_composed_rule(k, rng):
    # batches that hold every label; the first row's softmax underflows to
    # exact zeros and ones, where p - 0.0 and p - 1.0 must keep their bits
    n = 3 * k
    labels = rng.permutation(np.arange(n) % k)
    z = rng.standard_normal((n, k)) * 3.0
    z[0] = np.where(np.arange(k) == labels[0], 800.0, -800.0)
    g = np.array([rng.standard_normal()])
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    with ad.new_tape() as tape:
        out = ad.softmax_cross_entropy(ad.leaf(z), labels)
    rec = tape.records[-1]
    p = rec.attrs["kept"][2]
    assert 0.0 in p[0] and 1.0 in p[0]
    composed = np.multiply(np.subtract(p, onehot), g * (1.0 / n))
    (fast,) = ad._bw_softmax_cross_entropy(ad._ARRAYS, rec.inputs, out, g, rec.attrs)
    (generic,) = ad._bw_softmax_cross_entropy(ad._ARRAYS, rec.inputs, out, g,
                                              {"labels": labels})
    assert fast.tobytes() == composed.tobytes() == generic.tobytes()


@pytest.mark.parametrize("kind,hidden,name", [("mlp", (8, 8), "w1"), ("mlp", (8, 8), "w2"),
                                              ("tiny_attention", (2, 4), "wo")],
                         ids=["mlp_w1", "mlp_w2", "tiny_attention_wo"])
def test_a_nan_leaf_raises_in_backward_and_then_in_hvp_recorded(kind, hidden, name, rng):
    # A NaN written into a leaf after the forward pass, which checked every
    # value: each first-order sweep reads the leaf and carries the NaN into
    # an adjoint it checks, grad_and_hvp's own sweep too.
    spec = md.ModelSpec(kind=kind, input_dim=8, num_classes=3, hidden_dims=hidden,
                        init_seed=4)
    batch = rng.standard_normal((10, 8)), rng.integers(0, 3, size=10)
    with ad.new_tape() as tape:
        leaves = {k: ad.leaf(a) for k, a in md.init_params(spec).items()}
        f = gd.base_loss(leaves, spec, batch)
        value = leaves[name].values
        value.setflags(write=True)
        value.flat[0] = np.nan
        v = rng.standard_normal(md.param_layout(spec).total)
        for sweep in (lambda: ad.backward(f, leaves), lambda: ad.grad_and_hvp(f, leaves),
                      lambda: ad.hvp_recorded(f, leaves, v)):
            with pytest.raises(ad.NonFiniteError, match="^backward: non-finite adjoint at "):
                sweep()


@pytest.mark.parametrize("tanh", [False, True], ids=["affine", "tanh"])
def test_a_nonfinite_dense_value_names_dense(tanh):
    # an affine output is checked by its record, a tanh one before the tanh
    with ad.new_tape():
        x, w, b = ad.leaf([[1e200, 1e200]]), ad.leaf([[1e200], [1e200]]), ad.leaf([0.0])
        with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError, match="^dense "):
            ad.dense(x, w, b, tanh=tanh)
        nan = ad.leaf([[float("nan")], [0.0]])
        with pytest.raises(ad.NonFiniteError, match="^dense "):
            ad.dense(ad.constant([[1.0, 1.0]]), nan, b, tanh=tanh)


@pytest.mark.parametrize("last", ["l2_norm", "exp", "tanh", "div"])
def test_hvp_recorded_when_the_scalars_rule_reads_its_output(last, rng, dual_sweeps):
    # The tangent pass leaves the scalar's own tangent to the sweep, which
    # computes it only for a rule that reads the scalar's value.
    builds = {"l2_norm": lambda p: ad.l2_norm(p["x"]),
              "exp": lambda p: ad.exp(ad.scalar_mul(ad.dot(p["x"], p["x"]), 0.1)),
              "tanh": lambda p: ad.tanh(ad.sum_(ad.mul(p["x"], p["x"]))),
              "div": lambda p: ad.div(ad.sum_(p["x"]), ad.l2_norm(p["x"]))}
    params = {"x": rng.uniform(0.2, 1.0, 5)}
    v = rng.standard_normal(5)
    dual, ref = _hvp_both_ways(builds[last], params, v)
    assert np.linalg.norm(dual - ref) <= 1e-12 * np.linalg.norm(ref)


def test_hvp_recorded_runs_one_first_order_sweep(monkeypatch, rng, dual_sweeps):
    sweeps = []
    reverse = ad._reverse

    def counted(o, *args, **kwargs):
        sweeps.append(o)
        return reverse(o, *args, **kwargs)

    monkeypatch.setattr(ad, "_reverse", counted)
    with ad.new_tape():
        x = ad.leaf(rng.standard_normal(4))
        f = ad.sum_(ad.exp(x))
        _, hv = ad.grad_and_hvp(f, {"x": x})
        hv(np.ones(4))
        hv(np.arange(4.0))
        assert len(sweeps) == 1 and sweeps[0].parts == {}   # its own, keeping instance
        ad.hvp_recorded(ad.sum_(ad.tanh(x)), {"x": x}, np.ones(4))
        assert len(sweeps) == 2


def test_plain_backward_keeps_no_adjoints(rng, monkeypatch):
    # Only grad_and_hvp keeps adjoints and parts, in the hv it returns: a
    # plain or recorded backward leaves nothing but records on the tape, and
    # the plain one's array rules keep no parts.
    calls = _spy_keep(monkeypatch)
    spec = md.ModelSpec(kind="mlp", input_dim=8, num_classes=3, hidden_dims=(4,), init_seed=1)
    batch = rng.standard_normal((5, 8)), rng.integers(0, 3, size=5)
    for create_graph in (False, True):
        with ad.new_tape() as tape:
            leaves = {k: ad.leaf(a) for k, a in md.init_params(spec).items()}
            ad.backward(gd.base_loss(leaves, spec, batch), leaves, create_graph=create_graph)
            assert set(vars(tape)) == {"generation", "records", "_next_node"}
    assert calls and all(parts is None for parts, _ in calls)
    assert not hasattr(ad, "keep_adjoints")


def test_grad_and_hvp_checks_its_scalar_and_v(rng, dual_sweeps):
    with ad.new_tape() as tape:
        x = ad.leaf(rng.standard_normal(4))
        e = ad.exp(x)
        f = ad.sum_(e)
        n_ops = len(tape)
        grad, hv = ad.grad_and_hvp(f, {"x": x})
        with pytest.raises(ad.ShapeMismatchError, match="^grad_and_hvp: v has length 3"):
            hv(np.ones(3))
        with pytest.raises(ad.ShapeMismatchError):
            ad.grad_and_hvp(e, {"x": x})
        assert len(tape) == n_ops
    # hv needs no active tape: it holds the records it sweeps
    assert grad.values.tobytes() == hv(np.ones(4)).values.tobytes() == e.values.tobytes()
    with pytest.raises(ad.TapeError):
        ad.grad_and_hvp(f, {"x": x})


def test_hvp_recorded_overflow_raises_nonfinite_with_kept_adjoints(dual_sweeps):
    # as above, from the (finite) adjoints of one grad_and_hvp sweep
    with ad.new_tape():
        x = ad.leaf([1.0])
        f = ad.mul(x, x)
        _, hv = ad.grad_and_hvp(f, {"x": x})
        with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError):
            hv([1e308])
        assert hv([1.0]).values.tobytes() == np.array([2.0]).tobytes()


def test_hvp_recorded_raises_nonfinite_after_a_backward_that_raised():
    # Every first-order sweep that overflows raises, hvp_recorded's own too,
    # where the adjoints stored before the overflow would give a finite,
    # wrong H·v.
    with ad.new_tape():
        x = ad.leaf([1e-300])
        y = ad.scalar_mul(ad.scalar_mul(x, 1e200), 1e200)
        with np.errstate(over="ignore"):
            with pytest.raises(ad.NonFiniteError):
                ad.backward(y, {"x": x})
            with pytest.raises(ad.NonFiniteError):
                ad.hvp_recorded(y, {"x": x}, [1.0])


def test_nonfinite_adjoint_error_names_the_first_one():
    # Values 1e-300 -> 1e-100 -> 1e100; the adjoint of the first product is
    # 1e200 * 1e200, and the leaf's adjoint after it is non-finite too.
    with ad.new_tape():
        x = ad.leaf([1.0, 1.0])
        f = ad.sum_(ad.scalar_mul(ad.scalar_mul(ad.scalar_mul(x, 1e-300), 1e200), 1e200))
        for sweep in (lambda: ad.backward(f, {"x": x}),
                      lambda: ad.hvp_recorded(f, {"x": x}, [1.0, 1.0])):
            with np.errstate(over="ignore"), \
                    pytest.raises(ad.NonFiniteError, match="at scalar_mul$"):
                sweep()


def test_second_backward_requires_create_graph(rng):
    with ad.new_tape():
        x = ad.leaf(rng.standard_normal(4))
        g = ad.backward(ad.dot(x, x), {"x": x}, create_graph=False)
        assert g.node is None
        with pytest.raises(ad.TapeError):
            ad.backward(ad.dot(g, ad.constant(np.ones(4))), {"x": x})


# -- validation and tape bookkeeping ----------------------------------------

def test_shape_errors():
    a = ad.constant(np.ones((2, 3)))
    b = ad.constant(np.ones((3, 2)))
    with pytest.raises(ad.ShapeMismatchError):
        ad.add(a, b)
    with pytest.raises(ad.ShapeMismatchError):
        ad.matmul(a, a)
    c3 = ad.constant(np.ones((2, 3, 2)))
    for x, y in [(b, c3),                               # 2-d @ 3-d
                 (c3, b),                               # 3-d @ 2-d
                 (c3, ad.constant(np.ones((3, 2, 3)))),  # unequal batch
                 (ad.constant(np.ones(3)), ad.constant(np.ones(3))),
                 (ad.constant(np.ones((1, 2, 3, 2))), ad.constant(np.ones((1, 2, 2, 3))))]:
        with pytest.raises(ad.ShapeMismatchError):
            ad.matmul(x, y)
    assert ad.dense(a, b, ad.constant(np.ones(2))).shape == (2, 2)
    for x, w, bias in [(a, a, np.ones(3)),          # inner dimensions differ
                       (a, b, np.ones((1, 2))),     # a bias is 1-d
                       (a, b, np.ones(3)),          # bias width is not the output's
                       (c3, c3, np.ones(2))]:       # operands are 2-d
        with pytest.raises(ad.ShapeMismatchError):
            ad.dense(x, w, ad.constant(bias))
    with pytest.raises(ad.ShapeMismatchError):
        ad.dot(ad.constant(np.ones(3)), ad.constant(np.ones(4)))
    with pytest.raises(ad.ShapeMismatchError):
        ad.concat([a, ad.constant(np.ones(3))], axis=0)
    with pytest.raises(ad.ShapeMismatchError):
        ad.slice_(a, 1, 2, 5)
    with pytest.raises(ad.ShapeMismatchError):
        ad.reshape(a, (4, 2))
    with pytest.raises(ad.ShapeMismatchError):
        ad.sum_(a, axis=2)
    with pytest.raises(ad.ShapeMismatchError):
        ad.sum_(a, axis=None, keepdims=True)


def test_domain_errors():
    with pytest.raises(ad.DomainError):
        ad.div(ad.constant([1.0]), ad.constant([0.0]))
    with pytest.raises(ad.DomainError):
        ad.softmax_cross_entropy(ad.constant(np.zeros((2, 3))), np.array([0, 3]))


def test_softmax_ce_label_shape():
    with pytest.raises(ad.ShapeMismatchError):
        ad.softmax_cross_entropy(ad.constant(np.zeros((2, 3))), np.array([0, 1, 2]))
    with pytest.raises(ad.ShapeMismatchError):
        ad.softmax_cross_entropy(ad.constant(np.zeros(3)), np.array([0]))


def test_overflow_raises_nonfinite():
    with np.errstate(over="ignore"):
        with pytest.raises(ad.NonFiniteError):
            ad.exp(ad.constant([1000.0]))


_c = ad.constant

# Every op that can overflow from finite inputs, each fed finite inputs that do.
OVERFLOWS = {
    "add": lambda: ad.add(_c([1e308]), _c([1e308])),
    "sub": lambda: ad.sub(_c([1e308]), _c([-1e308])),
    "mul": lambda: ad.mul(_c([1e200]), _c([1e200])),
    "scalar_mul": lambda: ad.scalar_mul(_c([1e308]), 10.0),
    "div": lambda: ad.div(_c([1e308]), _c([1e-10])),
    "matmul": lambda: ad.matmul(_c([[1e200, 1.0]]), _c([[1e200], [1.0]])),
    # the tanh of the overflowed affine part would be a finite 1
    "dense": lambda: ad.dense(_c([[1e200, 1.0]]), _c([[1e200], [1.0]]), _c([0.0]), tanh=True),
    "sum": lambda: ad.sum_(_c([1e308, 1e308])),
    "dot": lambda: ad.dot(_c([1e200]), _c([1e200])),
    "l2_norm": lambda: ad.l2_norm(_c([1e200])),
    "exp": lambda: ad.exp(_c([1000.0])),
}


@pytest.mark.parametrize("kind", OVERFLOWS)
def test_overflow_from_finite_inputs_raises_nonfinite(kind):
    with np.errstate(over="ignore"):
        with pytest.raises(ad.NonFiniteError, match=kind):
            OVERFLOWS[kind]()


def test_backward_scalar_shape(rng):
    with ad.new_tape():
        x = ad.leaf(rng.standard_normal(3))
        y = ad.scalar_mul(x, 2.0)
        with pytest.raises(ad.ShapeMismatchError):
            ad.backward(y, {"x": x})


def test_backward_outside_tape(rng):
    with ad.new_tape():
        x = ad.leaf(rng.standard_normal(3))
        s = ad.dot(x, x)
    with pytest.raises(ad.TapeError):
        ad.backward(s, {"x": x})


def test_cross_tape_use_raises(rng):
    with ad.new_tape():
        x = ad.leaf(rng.standard_normal(3))
        with ad.new_tape():
            with pytest.raises(ad.TapeError):
                ad.scalar_mul(x, 2.0)


@pytest.mark.parametrize("position", [0, 1])
def test_foreign_input_raises_in_either_position(position, rng):
    with ad.new_tape():
        foreign = ad.leaf(rng.standard_normal(3))
        with ad.new_tape():
            local = ad.leaf(rng.standard_normal(3))
            args = (foreign, local) if position == 0 else (local, foreign)
            with pytest.raises(ad.TapeError):
                ad.add(*args)


def test_tape_is_freed_without_the_cycle_collector(rng):
    gc.disable()
    try:
        with ad.new_tape() as tape:
            ref = weakref.ref(tape)
            x = ad.leaf(rng.standard_normal(3))
            g = ad.backward(ad.dot(x, x), {"x": x}, create_graph=True)
            assert len(tape) > 0
            assert tape.replay_check()
        del tape, x, g
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("build", [
    lambda a: ad.slice_(a, 1, 1, 3),
    lambda a: ad.reshape(a, (6, 2)),
    lambda a: ad.matmul(a, a, ta=True),
    lambda a: ad.matmul(ad.reshape(a, (2, 3, 2)), ad.reshape(a, (2, 2, 3)), ta=True, tb=True),
    lambda a: ad.sum_(a, axis=0),
    lambda a: ad.sum_(ad.reshape(a, (12,)), axis=0),
    lambda a: ad.l2_norm(ad.reshape(a, (12,))),
    lambda a: ad.dot(ad.reshape(a, (12,)), ad.reshape(a, (12,))),
    lambda a: ad.concat([a, a], axis=1),
    lambda a: ad.add(a, ad.slice_(a, 0, 0, 1)),
    lambda a: ad.softmax_cross_entropy(a, np.array([0, 1, 3])),
    lambda a: ad.dense(a, ad.reshape(a, (4, 3)), ad.sum_(a, axis=1), tanh=True),
], ids=["slice_axis1", "reshape", "matmul_ta", "matmul_batched_tatb",
        "sum_axis0", "sum_1d", "l2_norm", "dot", "concat_axis1", "add_row",
        "softmax_cross_entropy", "dense_tanh"])
def test_op_outputs_are_c_contiguous_and_read_only(build, rng):
    # kernels return values in stored form; _record does not convert them
    with ad.new_tape():
        out = build(ad.leaf(rng.standard_normal((3, 4))))
    assert out.values.ndim >= 1
    assert out.values.flags.c_contiguous
    assert not out.values.flags.writeable


def test_leaf_requires_tape():
    with pytest.raises(ad.TapeError):
        ad.leaf(np.ones(2))


# Inputs that are not already float64, C-contiguous and at least 1-d: leaf
# converts them as Tensor() does.
_UNSTORED_INPUTS = {
    "list": lambda: [[1.0, 2.5], [3.0, -4.0]],
    "int_array": lambda: np.arange(6).reshape(2, 3),
    "float32_array": lambda: np.linspace(-1.0, 1.0, 5, dtype=np.float32),
    "zero_d_array": lambda: np.array(2.5),
    "numpy_scalar": lambda: np.float64(2.5),
    "python_float": lambda: 2.5,
    "fortran_order": lambda: np.asfortranarray(np.arange(12.0).reshape(3, 4)),
    "strided_view": lambda: np.arange(20.0)[::3],
    "transposed_view": lambda: np.arange(6.0).reshape(2, 3).T,
}


@pytest.mark.parametrize("make", _UNSTORED_INPUTS.values(), ids=_UNSTORED_INPUTS)
def test_leaf_stores_outside_input_as_tensor_does(make):
    expected = ad.Tensor(make()).values
    with ad.new_tape():
        got = ad.leaf(make()).values
    assert got.dtype == np.float64 and got.ndim >= 1
    assert got.flags.c_contiguous and not got.flags.writeable
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_leaf_wraps_a_stored_array_without_a_copy(rng):
    a = rng.standard_normal((3, 4))
    with ad.new_tape():
        t = ad.leaf(a)
    assert t.values is a and not a.flags.writeable
    row = np.arange(8.0).reshape(2, 4)[1]   # a C-contiguous view
    with ad.new_tape():
        assert ad.leaf(row).values is row


def test_sweep_results_are_frozen_and_share_no_memory(rng, monkeypatch, dual_sweeps):
    # x's adjoint is a view of the kept adjoint of its reshape, the only leaf
    # of the sweep: the flat results must still be their own buffers
    adjoints, reverse = [], ad._reverse

    def spy(o, tape, scalar, kept=None):
        out = reverse(o, tape, scalar, kept)
        adjoints.append(kept)
        return out

    monkeypatch.setattr(ad, "_reverse", spy)
    x = rng.standard_normal(4)
    with ad.new_tape():
        lx = ad.leaf(x)
        y = ad.reshape(lx, (2, 2))
        f = ad.sum_(ad.mul(y, y))
        grad, hv_of = ad.grad_and_hvp(f, {"x": lx})
        g, hv = grad.values, hv_of(rng.standard_normal(4)).values
        (kept,) = adjoints
        kept = list(kept.values())
    assert np.array_equal(g, 2.0 * x)
    for out in (g, hv):
        assert not out.flags.writeable
        for other in kept + [lx.values, y.values]:
            assert not np.shares_memory(out, other)
    assert not np.shares_memory(g, hv)


def test_new_tape_nests_and_pops_on_exception():
    assert ad.active_tape() is None
    with ad.new_tape() as outer:
        assert ad.active_tape() is outer
        with ad.new_tape() as inner:
            assert ad.active_tape() is inner and inner is not outer
            assert inner.generation > outer.generation
        assert ad.active_tape() is outer
        with pytest.raises(ZeroDivisionError):
            with ad.new_tape():
                1 / 0
        assert ad.active_tape() is outer
    assert ad.active_tape() is None
    with pytest.raises(ad.TapeError):
        with ad.new_tape():
            ad.backward(ad.constant([1.0]), {})
    assert ad.active_tape() is None


def test_constants_are_untracked():
    with ad.new_tape() as tape:
        out = ad.add(ad.constant([1.0]), ad.constant([2.0]))
        assert out.node is None
        assert len(tape) == 0


def test_replay_check_passes(rng):
    with ad.new_tape() as tape:
        x = ad.leaf(rng.standard_normal((3, 4)))
        w = ad.leaf(rng.standard_normal((4, 2)))
        z = ad.matmul(ad.tanh(x), w)
        ad.backward(ad.sum_(z), {"x": x, "w": w}, create_graph=True)
        assert tape.replay_check()


# (flagged operand shape, other operand shape, flag, view?).  A product takes
# the view when, per batch entry, M > 1, N > 1 and M·N·K > 10**6; every
# other flagged product copies.  With "both" the other operand is flagged too.
FLAGGED_PRODUCTS = [
    ((7, 5), (7, 3), "ta", False),
    ((4, 6), (9, 6), "tb", False),
    ((2, 5, 4), (2, 5, 3), "ta", False),
    ((3, 6, 5), (3, 2, 5), "tb", False),
    ((255, 256), (255, 3), "ta", False),
    ((2000, 40), (2000, 3), "ta", False),
    ((1000, 70), (1000, 3), "ta", False),
    ((1025, 64), (4, 64), "tb", False),
    ((2, 300, 120), (2, 300, 5), "ta", False),
    ((3, 190, 130), (3, 4, 130), "tb", False),
    ((100, 100), (100, 100), "ta", False),      # M·N·K = 10**6
    ((100, 100), (100, 101), "ta", True),       # just above
    ((101, 100), (100, 100), "tb", True),
    ((1000, 1001), (1000, 1), "ta", False),     # N = 1: gemv
    ((1001, 1000), (1, 1000), "tb", False),     # M = 1: gemv
    ((4, 100, 100), (4, 100, 100), "ta", False),  # 10**6 per batch entry
    ((2, 100, 120), (2, 100, 101), "ta", True),
    ((3, 101, 100), (3, 110, 100), "tb", True),
    ((5, 4), (3, 5), "both", False),
    ((100, 120), (101, 100), "both", True),
    ((2560, 256), (2560, 256), "ta", True),     # wide-vanilla: 256·2560·256
    ((2560, 256), (2560, 10), "ta", True),      # 256·2560·10
    ((256, 10), (2560, 10), "tb", True),        # 2560·10·256
]


def _spy_transposed(monkeypatch) -> list[bool]:
    """Record the view flag of every flagged operand the matmul kernel takes."""
    views, transposed = [], ad._transposed

    def spy(a, view):
        views.append(view)
        return transposed(a, view)

    monkeypatch.setattr(ad, "_transposed", spy)
    return views


@pytest.mark.parametrize("op_shape,other_shape,flag,view", FLAGGED_PRODUCTS,
                         ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_flagged_matmul_is_bitwise_the_product_of_a_contiguous_copy(
        op_shape, other_shape, flag, view, rng, monkeypatch):
    op = rng.standard_normal(op_shape)
    other = rng.standard_normal(other_shape)
    views = _spy_transposed(monkeypatch)
    plain = np.ascontiguousarray(op.swapaxes(-1, -2))
    if flag == "ta":
        got = ad.matmul(ad.constant(op), ad.constant(other), ta=True)
        expected = plain @ other
    elif flag == "tb":
        got = ad.matmul(ad.constant(other), ad.constant(op), tb=True)
        expected = other @ plain
    else:
        got = ad.matmul(ad.constant(op), ad.constant(other), ta=True, tb=True)
        expected = plain @ np.ascontiguousarray(other.swapaxes(-1, -2))
    assert views == [view] * (2 if flag == "both" else 1)
    assert got.values.flags.c_contiguous
    assert got.values.tobytes() == np.ascontiguousarray(expected).tobytes()


@pytest.mark.parametrize("flag", ["ta", "tb"])
def test_flagged_matmul_of_one_buffer_with_itself_copies(flag, rng, monkeypatch):
    # numpy hands x.T @ x (and x @ x.T) to syrk when both operands are views
    # of one buffer, and syrk's bits differ from the product of a copy at
    # this size, so the kernel copies even above the view bound.
    x = rng.standard_normal((100, 101))
    views = _spy_transposed(monkeypatch)
    plain = np.ascontiguousarray(x.T)
    got = ad.matmul(ad.constant(x), ad.constant(x), **{flag: True})
    expected = plain @ x if flag == "ta" else x @ plain
    assert views == [False]
    assert got.values.tobytes() == expected.tobytes()


REDUCTION_SHAPES = [(1,), (7,), (9,), (33, 5), (1000,), (4, 257), (2, 3, 70)]


@pytest.mark.parametrize("shape", REDUCTION_SHAPES, ids=str)
def test_mean_and_l2_norm_are_bitwise_the_numpy_forms(shape, rng):
    v = rng.standard_normal(shape) * 1e3
    assert ad._mean_kernel(v).tobytes() == np.asarray([np.mean(v)]).tobytes()
    assert (ad.l2_norm(ad.constant(v)).values.tobytes()
            == np.asarray([np.sqrt(np.sum(v * v))]).tobytes())


@pytest.mark.parametrize("n,k", [(1, 2), (5, 3), (32, 4), (300, 10)])
def test_softmax_cross_entropy_is_bitwise_the_numpy_form(n, k, rng):
    z = rng.standard_normal((n, k)) * 5.0
    labels = rng.integers(0, k, n)
    m = np.max(z, axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(z - m), axis=1)) + m[:, 0]
    expected = np.mean(lse - z[np.arange(n), labels])
    got = ad.softmax_cross_entropy(ad.constant(z), labels)
    assert got.values.tobytes() == np.asarray([expected]).tobytes()


# -- row maxima and row sums without a loop per row ---------------------------------

ROW_COUNTS = [1, 2, 31, 63, 64, 65, 128, 6400]
COLUMN_COUNTS = [*range(1, 11), 16]


def _row_reduction_input(n, k, rng, strided):
    """An [n, k] array of signed zeros, infinities, NaN (one payload) and
    values from 1e-300 to 1e300 in magnitude; every third row holds zeros of
    either sign only.  ``strided`` gives a view of every other row and
    column of a larger array."""
    pool = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan],
                           rng.standard_normal(40) * 10.0 ** rng.integers(-300, 301, 40)])
    z = rng.choice(pool, (2 * n, 2 * k))
    z[::3] = rng.choice([0.0, -0.0], z[::3].shape)
    return z[::2, ::2] if strided else np.ascontiguousarray(z[:n, :k])


@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
@pytest.mark.parametrize("k", COLUMN_COUNTS)
@pytest.mark.parametrize("n", ROW_COUNTS)
def test_row_max_and_row_sum_are_bitwise_numpys_reductions(n, k, strided, rng):
    z = _row_reduction_input(n, k, rng, strided)
    assert ad._row_max(z).tobytes() == ad._max(z, axis=1, keepdims=True).tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        for keepdims in (True, False):
            got, want = ad._row_sum(z, keepdims), ad._sum(z, axis=1, keepdims=keepdims)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", COLUMN_COUNTS)
@pytest.mark.parametrize("n", ROW_COUNTS)
def test_row_reductions_loop_over_columns_from_64_rows_of_fewer_than_8(n, k, monkeypatch):
    calls = []
    for name in ("_max", "_sum"):
        reduce = getattr(ad, name)
        monkeypatch.setattr(ad, name, lambda *a, reduce=reduce, **kw: calls.append(1) or
                            reduce(*a, **kw))
    z = np.ones((n, k))
    ad._row_max(z)
    ad._row_sum(z)
    assert len(calls) == (0 if n >= 64 and k < 8 else 2)


# -- the softmax the cross-entropy record keeps ---------------------------------

def _drop_kept(tape):
    """Take the kept arrays off every record of ``tape`` (cross-entropy and
    softmax), so that each sweep runs the composed rule on it.  Their H·v
    is then swept by ``dual_sweep`` alone: the array rules read the parts
    a first-order sweep keeps only from the kept arrays."""
    for rec in tape.records:
        rec.attrs = {name: a for name, a in rec.attrs.items() if name != "kept"}


def _kept_and_composed(build, params, v, monkeypatch):
    """{route: (kept, composed)} bytes of the first-order gradient (by
    backward and by grad_and_hvp) and of H·v (by the hv of grad_and_hvp, by
    hvp_recorded and by ad.hvp) of build's scalar: each route once on a tape
    whose cross-entropy records keep their softmax, and once with it
    dropped from the same records, whose H·v only the reference sweeps."""
    out = {}
    for keep in (True, False):
        with monkeypatch.context() as mp, ad.new_tape() as tape:
            leaves = {k: ad.leaf(a) for k, a in params.items()}
            f = build(leaves)
            if not keep:
                _drop_kept(tape)
                _dual_sweeps_only(mp)
            grad, hv = ad.grad_and_hvp(f, leaves)
            got = {"backward": ad.backward(f, leaves).values, "grad": grad.values,
                   "hvp_kept": hv(v).values, "hvp_swept": ad.hvp_recorded(f, leaves, v).values}
        with ad.new_tape() as tape:   # ad.hvp's own steps
            leaves = {k: ad.leaf(a) for k, a in params.items()}
            f = build(leaves)
            if not keep:
                _drop_kept(tape)
            g = ad.backward(f, leaves, create_graph=True)
            got["hvp"] = ad.backward(ad.dot(g, ad.constant(v)), leaves).values
        for route, a in got.items():
            out.setdefault(route, []).append(a.tobytes())
    assert ad.hvp(build, params, v).values.tobytes() == out["hvp"][0]
    return out


def _model_loss_case(kind, hidden, dim, k, n, rng):
    spec = md.ModelSpec(kind=kind, input_dim=dim, num_classes=k, hidden_dims=hidden,
                        init_seed=3)
    x, y = rng.standard_normal((n, dim)), rng.integers(0, k, size=n)
    return md.init_params(spec), lambda p: md.loss(spec, p, ad.constant(x), y)


def _case_softmax_ce_product(rng):
    # two losses inside a larger scalar, so their tangent rule runs too
    params, build = _case_softmax_ce(rng)
    return params, lambda t: ad.mul(build(t),
                                    ad.softmax_cross_entropy(t["z"], np.array([1, 1, 0, 2])))


KEPT_SOFTMAX_CASES = {
    "op": _case_softmax_ce,
    "op_product": _case_softmax_ce_product,
    "logistic": lambda rng: _model_loss_case("logistic", (), 16, 4, 32, rng),
    "mlp": lambda rng: _model_loss_case("mlp", (32, 32), 16, 4, 32, rng),
    "tiny_attention": lambda rng: _model_loss_case("tiny_attention", (4, 8), 16, 4, 32, rng),
    "wide_mlp": lambda rng: _model_loss_case("mlp", (256,), 256, 10, 256, rng),
}


@pytest.mark.parametrize("case", KEPT_SOFTMAX_CASES)
def test_kept_softmax_is_bitwise_the_composed_rule(case, rng, monkeypatch, dual_sweeps):
    params, build = KEPT_SOFTMAX_CASES[case](rng)
    v = rng.standard_normal(sum(a.size for a in params.values()))
    for route, (kept, composed) in _kept_and_composed(build, params, v, monkeypatch).items():
        assert kept == composed, route


def test_cross_entropy_record_keeps_its_softmax_read_only(rng):
    z0 = rng.standard_normal((5, 3)) * 4.0
    with ad.new_tape() as tape:
        z = ad.leaf(z0)
        ad.softmax_cross_entropy(z, np.array([0, 2, 1, 1, 0]))
    (rec,) = tape.records
    e, s, p = rec.attrs["kept"]
    m = np.max(z0, axis=1, keepdims=True)
    assert e.tobytes() == np.exp(z0 - m).tobytes()
    assert s.tobytes() == np.sum(np.exp(z0 - m), axis=1, keepdims=True).tobytes()
    assert p.tobytes() == (e / s).tobytes()
    for a in (e, s, p):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_replay_check_recomputes_the_cross_entropy_from_its_logits(rng):
    with ad.new_tape() as tape:
        x = ad.leaf(rng.standard_normal((4, 3)))
        w = ad.leaf(rng.standard_normal((3, 5)))
        loss = ad.softmax_cross_entropy(ad.matmul(ad.tanh(x), w), np.array([0, 4, 1, 2]))
        ad.backward(loss, {"x": x, "w": w}, create_graph=True)
        assert tape.replay_check()
        # kept arrays never reach the kernel: wrong ones change nothing
        (rec,) = [r for r in tape.records if r.kind == "softmax_cross_entropy"]
        rec.attrs["kept"] = tuple(np.zeros_like(a) for a in rec.attrs["kept"])
        assert tape.replay_check()
        rec.output.values = rec.output.values + 1.0
        assert not tape.replay_check()


# -- the finiteness checks ---------------------------------------------------------

def _overflowing_leaf_sweep(sweep: str, at: str):
    """(sweep callable, expected) on a tape where every stored adjoint (or
    adjoint tangent) is finite but the one accumulated at one leaf, a
    ``wrt`` leaf or a reached leaf outside ``wrt`` (which may list another
    leaf twice, so that it names as many leaves as the sweep reached)."""
    if sweep == "backward":
        # x's two adjoints are 1e308 each; y's is 1
        x, y = ad.leaf([1e-300]), ad.leaf([1.0])
        f = ad.add(ad.sum_(ad.add(ad.scalar_mul(x, 1e308), ad.scalar_mul(x, 1e308))),
                   ad.sum_(y))
        wrt = {"wrt": {"x": x, "y": y}, "outside_wrt": {"y": y},
               "outside_wrt_listing_a_leaf_twice": {"y": y, "y_again": y}}[at]
        return lambda: ad.backward(f, wrt)
    # f = 2xy: the tangent of y's adjoint is ẋ + ẋ, with ẋ = 1e308
    x, y = ad.leaf([1.0]), ad.leaf([1.0])
    f = ad.sum_(ad.add(ad.mul(x, y), ad.mul(x, y)))
    if at == "wrt":
        return lambda: ad.hvp_recorded(f, {"x": x, "y": y}, [1e308, 0.0])
    if at == "outside_wrt":
        return lambda: ad.hvp_recorded(f, {"x": x}, [1e308])
    # f + x²: x's adjoint tangent is finite, y's overflows
    f = ad.add(f, ad.sum_(ad.mul(x, x)))
    return lambda: ad.hvp_recorded(f, {"x": x, "x_again": x}, [1e308, 1e308])


@pytest.mark.parametrize("at", ["wrt", "outside_wrt", "outside_wrt_listing_a_leaf_twice"])
@pytest.mark.parametrize("sweep", ["backward", "hvp_recorded"])
def test_nonfinite_leaf_adjoint_raises_at_leaf(sweep, at, dual_sweeps):
    with ad.new_tape():
        run = _overflowing_leaf_sweep(sweep, at)
        with np.errstate(over="ignore"), \
                pytest.raises(ad.NonFiniteError, match="at leaf$"):
            run()


def test_a_leaf_listed_twice_gets_its_adjoint_twice(rng, dual_sweeps):
    a, v = rng.standard_normal(3), rng.standard_normal(6)
    with ad.new_tape():
        x, y = ad.leaf(a), ad.leaf(a[::-1].copy())
        f = ad.sum_(ad.mul(ad.mul(x, x), y))   # x²y
        wrt = {"x": x, "x_again": x, "unused": ad.leaf(np.ones(2))}
        g = ad.backward(f, wrt).values
        hv = ad.hvp_recorded(f, {"x": x, "x_again": x}, v).values
    assert np.array_equal(g, np.concatenate([2.0 * a * y.values] * 2 + [np.zeros(2)]))
    # x's tangent is the last one listed: H·v = 2y·v[3:] at both places
    assert np.array_equal(hv, np.concatenate([2.0 * y.values * v[3:]] * 2))


def test_hvp_recorded_checks_the_leaf_adjoints_of_its_own_first_order_sweep():
    # Nothing kept: hvp_recorded sweeps first-order itself, and x's adjoint
    # overflows at the leaf while H·v, of a linear function, is 0.
    with ad.new_tape():
        x = ad.leaf([1e-300])
        f = ad.sum_(ad.add(ad.scalar_mul(x, 1e308), ad.scalar_mul(x, 1e308)))
        with np.errstate(over="ignore"), \
                pytest.raises(ad.NonFiniteError, match="at leaf$"):
            ad.hvp_recorded(f, {"x": x}, [1.0])


def _all_finite_or_raise(v):
    if not ad.all_finite(np.asarray(v)):
        raise ad.NonFiniteError("all_finite")


# Each finiteness check, run on two entries; it raises NonFiniteError when
# it finds a non-finite one.
FINITENESS_CHECKS = {
    "all_finite": _all_finite_or_raise,
    "record": lambda v: ad.add(_c(v), _c([0.0, 0.0])),
    "array_check": lambda v: ad._array_check(np.asarray(v), "test"),
    # z = v: tanh maps an Inf to a finite 1, so only the pre-tanh check sees it
    "dense_pre_tanh": lambda v: ad.dense(_c([[0.0, 0.0]]), _c([[1.0, 0.0], [0.0, 1.0]]),
                                         _c(v), tanh=True),
}


@pytest.mark.parametrize("check", FINITENESS_CHECKS)
def test_finiteness_checks_pass_overflowing_sums_and_catch_one_nonfinite_entry(check):
    inf, nan = float("inf"), float("nan")
    with np.errstate(over="ignore", invalid="ignore"):
        FINITENESS_CHECKS[check]([1e308, 1e308])
        for bad in ([inf, 1.0], [1.0, -inf], [nan, 1.0], [1e308, nan]):
            with pytest.raises(ad.NonFiniteError):
                FINITENESS_CHECKS[check](bad)


def test_layout_roundtrip(rng):
    layout = ad.ParamLayout.of([("w", (2, 3)), ("b", (3,))])
    flat = rng.standard_normal(layout.total)
    kept = flat.copy()
    arrays = layout.unflatten(flat)
    assert layout.flatten(arrays).tobytes() == flat.tobytes()
    # views of one fresh copy: writing the input afterwards changes nothing
    for a in arrays.values():
        assert not np.shares_memory(a, flat)
    flat[:] = 0.0
    assert layout.flatten(arrays).tobytes() == kept.tobytes()
    with pytest.raises(ad.ShapeMismatchError):
        layout.unflatten(np.zeros(5))


def test_layout_is_built_once_per_names_and_shapes():
    layout = ad.ParamLayout.of([("w", (2, 3)), ("b", (3,))])
    again = ad.ParamLayout.of((name, shape) for name, shape in [("w", [2, 3]), ("b", (3,))])
    # equal names and shapes give equal layouts; model.param_layout is what
    # keeps one layout per model spec
    assert again == layout
    assert ad.ParamLayout.of([("w", (np.int64(2), 3)), ("b", (3,))]) == layout
    assert layout.entries == (("w", (2, 3), 0), ("b", (3,), 6)) and layout.total == 9
    for other in ([("w", (3, 2)), ("b", (3,))], [("v", (2, 3)), ("b", (3,))],
                  [("b", (3,)), ("w", (2, 3))], [("w", (2, 3))]):
        assert ad.ParamLayout.of(other) != layout


def test_gradients_are_deterministic():
    def one_run():
        r = np.random.default_rng(7)
        labels = np.array([0, 1, 0])
        x = r.standard_normal((3, 4))
        with ad.new_tape():
            w = ad.leaf(r.standard_normal((4, 2)))
            b = ad.leaf(r.standard_normal(2))
            z = ad.add(ad.matmul(ad.constant(x), w), b)
            g = ad.backward(ad.softmax_cross_entropy(z, labels), {"w": w, "b": b})
        return g.values.tobytes()

    assert one_run() == one_run()


# -- properties --------------------------------------------------------------

@settings(deadline=None, max_examples=50)
@given(n=st.integers(1, 5), k=st.integers(2, 5))
def test_uniform_logits_give_log_k(n, k):
    loss = ad.softmax_cross_entropy(ad.constant(np.zeros((n, k))), np.zeros(n, dtype=int))
    assert abs(loss.item() - np.log(k)) < 1e-12


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=12), st.integers(0, 2**32 - 1))
def test_sum_gradient_is_ones(vals, seed):
    with ad.new_tape():
        x = ad.leaf(np.asarray(vals))
        g = ad.backward(ad.sum_(x), {"x": x})
    assert np.array_equal(g.values, np.ones(len(vals)))


@settings(deadline=None, max_examples=50)
@given(rows=st.integers(1, 4), c1=st.integers(1, 4), c2=st.integers(1, 4),
       seed=st.integers(0, 2**16))
def test_concat_slice_roundtrip(rows, c1, c2, seed):
    r = np.random.default_rng(seed)
    av, bv = r.standard_normal((rows, c1)), r.standard_normal((rows, c2))
    joined = ad.concat([ad.constant(av), ad.constant(bv)], axis=1)
    assert np.array_equal(ad.slice_(joined, 1, 0, c1).values, av)
    assert np.array_equal(ad.slice_(joined, 1, c1, c1 + c2).values, bv)


# -- the tangent-sweep rules on plain arrays ---------------------------------------

def _sweep_both_ways(kind, build, params, wrt, rng, monkeypatch, drop_kept=False):
    """H·v by hvp_recorded w.r.t. the leaves named in ``wrt``, once with the
    kind's array rule (checked to run) and once by the reference,
    ``dual_sweep``, on a tape whose records lose their kept arrays when
    ``drop_kept``; the bytes of both."""
    op, calls = ad._OPS[kind], []

    def counted(*args):
        calls.append(args[1].kind)
        return op.sweep(*args)

    v = rng.standard_normal(sum(params[k].size for k in wrt))
    out = []
    for sweep in (counted, dual_sweep):
        with monkeypatch.context() as mp:
            mp.setitem(ad._OPS, kind, dataclasses.replace(op, sweep=sweep))
            with ad.new_tape() as tape:
                leaves = {k: ad.leaf(a) for k, a in params.items()}
                f = build(leaves)
                if sweep is dual_sweep and drop_kept:
                    _drop_kept(tape)
                out.append(ad.hvp_recorded(f, {k: leaves[k] for k in wrt}, v).values.tobytes())
    assert calls
    return out


def test_exactly_three_kinds_have_a_sweep_rule():
    # the kinds a model records; matmul's products live in the dense and
    # attention rules
    swept = {"dense", "attention", "softmax_cross_entropy"}
    assert {kind for kind, op in ad._OPS.items() if op.sweep is not None} == swept
    assert {kind for kind, op in ad._OPS.items() if op.tangent is not None} == swept
    assert all(callable(ad._OPS[kind].sweep) for kind in swept)
    assert len(ad.OP_KINDS) == 17


def _dense_loss_case(rng, inner=lambda z: z):
    """(params, build): the cross-entropy of a dense layer of w and b on
    constant inputs, through ``inner`` on its logits."""
    x, labels = rng.standard_normal((5, 4)), np.array([0, 2, 1, 2, 0])
    params = {"w": rng.standard_normal((4, 3)) * 0.5, "b": rng.standard_normal(3) * 0.5}
    return params, lambda t: ad.softmax_cross_entropy(
        inner(ad.dense(ad.constant(x), t["w"], t["b"])), labels)


def _matmul_loss_case(rng):
    """(params, build): the cross-entropy of a matmul of constant inputs by
    w, the unfused x·w a model records as a dense layer."""
    x, labels = rng.standard_normal((5, 4)), np.array([0, 2, 1, 2, 0])
    params = {"w": rng.standard_normal((4, 3)) * 0.5}
    return params, lambda t: ad.softmax_cross_entropy(ad.matmul(ad.constant(x), t["w"]), labels)


def test_grad_and_hvp_refuses_a_kind_without_a_sweep_rule(rng, monkeypatch):
    # an exp record between the dense layer and the loss, and a matmul
    # record in place of the dense layer: ad.hvp takes each program,
    # grad_and_hvp and hvp_recorded name the kind
    for kind, (params, build) in (("exp", _dense_loss_case(rng, ad.exp)),
                                  ("matmul", _matmul_loss_case(rng))):
        v = rng.standard_normal(sum(a.size for a in params.values()))
        with ad.new_tape():
            leaves = {k: ad.leaf(a) for k, a in params.items()}
            f = build(leaves)
            for sweep in (lambda: ad.grad_and_hvp(f, leaves),
                          lambda: ad.hvp_recorded(f, leaves, v)):
                with pytest.raises(ad.TapeError,
                                   match=f"^grad_and_hvp: .* kind '{kind}'.*autodiff.hvp"):
                    sweep()
        ref = ad.hvp(build, params, v).values
        with monkeypatch.context() as mp:
            install_dual_sweeps(mp)
            dual, _ = _hvp_both_ways(build, params, v)
        assert np.linalg.norm(ref) > 0.0
        assert np.linalg.norm(dual - ref) <= 1e-10 * np.linalg.norm(ref)


def test_a_loss_fed_as_the_bias_of_a_one_output_dense_layer_is_swept(rng, monkeypatch):
    # dense's bias is (1,) when the layer has one output, so a cross-entropy
    # can feed it: its tangent rule then runs (its (1,) output is not the
    # scalar), and its sweep rule gets an adjoint with a tangent, all by the
    # package's own rules
    x, labels = rng.standard_normal((5, 3)), np.array([0, 1, 1, 0, 1])
    z_labels = np.array([2, 0, 1, 2])
    params = {"z": rng.standard_normal((4, 3)), "w": rng.standard_normal((3, 1)) * 0.5,
              "w2": rng.standard_normal((1, 2)), "b2": rng.standard_normal(2) * 0.5}

    def build(t):
        bias = ad.softmax_cross_entropy(t["z"], z_labels)
        h = ad.dense(ad.constant(x), t["w"], bias, tanh=True)
        return ad.softmax_cross_entropy(ad.dense(h, t["w2"], t["b2"]), labels)

    op, ran = ad._OPS["softmax_cross_entropy"], []

    def counted(*args):
        ran.append(args[2].shape)
        return op.tangent(*args)

    monkeypatch.setitem(ad._OPS, "softmax_cross_entropy",
                        dataclasses.replace(op, tangent=counted))
    v = rng.standard_normal(sum(a.size for a in params.values()))
    dual, ref = _hvp_both_ways(build, params, v)
    assert ran == [(1,)]
    assert np.linalg.norm(ref) > 0.0
    assert np.linalg.norm(dual - ref) <= 1e-10 * np.linalg.norm(ref)


def test_grad_and_hvp_takes_a_tape_whose_unreached_record_has_no_sweep_rule(rng):
    params, build = _dense_loss_case(rng)
    v = rng.standard_normal(15)
    out = []
    for unreached in (False, True):
        with ad.new_tape() as tape:
            leaves = {k: ad.leaf(a) for k, a in params.items()}
            if unreached:
                ad.exp(leaves["w"])
            f = build(leaves)
            assert ("exp" in {rec.kind for rec in tape.records}) == unreached
            grad, hv = ad.grad_and_hvp(f, leaves)
            out.append((grad.values.tobytes(), hv(v).values.tobytes()))
    assert out[0] == out[1]


@pytest.mark.parametrize("case", GRAD_CASES, ids=lambda c: c.__name__[6:])
def test_every_sweep_rule_has_the_bits_of_the_dual_sweep(case, rng, monkeypatch, dual_sweeps):
    # the squared contraction of test_hvp_recorded_matches_double_backprop,
    # by each kind's own rule and with every kind swept by the reference
    params, build = case(rng)
    out_probe = build({k: ad.constant(v) for k, v in params.items()})
    w = ad.constant(rng.standard_normal(out_probe.shape))

    def scalar_of(t):
        y = build(t)
        return ad.sum_(ad.mul(ad.mul(y, y), w))

    v = rng.standard_normal(sum(a.size for a in params.values()))
    out = []
    for reference in (False, True):
        with monkeypatch.context() as mp:
            if reference:
                for kind, op in ad._OPS.items():
                    mp.setitem(ad._OPS, kind, dataclasses.replace(op, sweep=dual_sweep))
            with ad.new_tape():
                leaves = {k: ad.leaf(a) for k, a in params.items()}
                out.append(ad.hvp_recorded(scalar_of(leaves), leaves, v).values.tobytes())
    assert out[0] == out[1]


def _contracted(y, u):
    return ad.sum_(ad.mul(y, u))


@pytest.mark.parametrize("wrt", ["xwbu", "x", "w", "b", "u", "wb"])
@pytest.mark.parametrize("const_x", [False, True], ids=["x", "const_x"])
@pytest.mark.parametrize("tanh", [False, True], ids=["affine", "tanh"])
def test_dense_sweep_rule_is_bitwise_the_generic_rule(tanh, const_x, wrt, rng, monkeypatch,
                                                       dual_sweeps):
    params = {"x": rng.standard_normal((5, 4)), "w": rng.standard_normal((4, 3)) * 0.5,
              "b": rng.standard_normal(3) * 0.5, "u": rng.standard_normal((5, 3))}
    x0 = params["x"]
    if const_x:
        del params["x"]
        wrt = wrt.replace("x", "") or "u"

    def build(t):
        x = ad.constant(x0) if const_x else t["x"]
        return _contracted(ad.dense(x, t["w"], t["b"], tanh=tanh), t["u"])

    fast, generic = _sweep_both_ways("dense", build, params, wrt, rng, monkeypatch)
    assert fast == generic


@pytest.mark.parametrize("wrt", ["zu", "z", "u"])
def test_cross_entropy_sweep_rule_is_bitwise_the_composed_rule(wrt, rng, monkeypatch, dual_sweeps):
    # against the generic rule on a record without kept softmax; the loss is
    # scaled by the leaf u, so its adjoint has a tangent exactly when u has
    params = {"z": rng.standard_normal((4, 3)) * 2.0, "u": rng.standard_normal(1)}
    labels = np.array([0, 2, 1, 2])
    fast, generic = _sweep_both_ways(
        "softmax_cross_entropy",
        lambda t: ad.mul(ad.softmax_cross_entropy(ad.tanh(t["z"]), labels), t["u"]),
        params, wrt, rng, monkeypatch, drop_kept=True)
    assert fast == generic


# -- the attention op ---------------------------------------------------------------

def test_attention_record_keeps_its_parts_read_only(rng):
    x0 = rng.standard_normal((4, 6))
    with ad.new_tape() as tape:
        x = ad.leaf(x0)
        ws = [ad.leaf(rng.standard_normal((3, 2))) for _ in range(3)]
        y = ad.attention(x, *ws, seq_len=2)
        (rec,) = tape.records
        kept = rec.attrs["kept"]
        assert rec.attrs["seq_len"] == 2 and sorted(kept) == ["e", "k", "kT", "p", "q", "s", "v"]
        k = (x0.reshape(8, 3) @ ws[1].values).reshape(4, 2, 2)
        assert kept["k"].tobytes() == k.tobytes()
        assert kept["kT"].flags.c_contiguous
        assert kept["kT"].tobytes() == np.ascontiguousarray(k.swapaxes(1, 2)).tobytes()
        assert y.shape == (4, 2) and y.values.flags.c_contiguous
        for a in (y.values, *kept.values()):
            assert not a.flags.writeable
        # the kernel recomputes every part: wrong kept arrays change nothing
        rec.attrs["kept"] = {name: np.zeros_like(a) for name, a in kept.items()}
        assert tape.replay_check()


@pytest.mark.parametrize("shapes,seq_len", [
    (((6,), (3, 2), (3, 2), (3, 2)), 2),         # x not 2-d
    (((4, 6), (3, 2), (3, 2), (3, 2)), 3),       # 3 chunks of 3 are not 6 features
    (((4, 6), (3, 2), (3, 3), (3, 2)), 2),       # wk unlike wq
    (((4, 6), (3, 2), (3, 2), (2, 2)), 2),       # wv unlike wq
    (((4, 6), (3, 2), (3, 2), (3, 2)), 0),
    (((0, 6), (3, 2), (3, 2), (3, 2)), 2),       # an empty batch
    (((4, 6), (3, 0), (3, 0), (3, 0)), 2),       # no attention width
], ids=["x_1d", "chunks", "wk", "wv", "seq_len_0", "empty_batch", "zero_width"])
def test_attention_shape_errors(shapes, seq_len):
    with pytest.raises(ad.ShapeMismatchError, match="^attention: "):
        ad.attention(*(_c(np.ones(s)) for s in shapes), seq_len)


def test_a_nonfinite_attention_value_names_attention():
    # an overflowing projection, and overflowing scores of finite projections
    big, one = _c([[1e200]]), _c([[1.0]])
    with np.errstate(over="ignore"):
        for x, wq in ((_c([[1e200, 1.0]]), big), (_c([[1e160, 1e160]]), _c([[1e160]]))):
            with pytest.raises(ad.NonFiniteError, match="^attention produced a non-finite"):
                ad.attention(x, wq, wq, one, seq_len=2)


def _attention_loss(t, seq_len=2):
    """A scalar of an attention block whose adjoint has a tangent."""
    y = ad.attention(t["x"], t["q"], t["k"], t["v"], seq_len)
    return ad.sum_(ad.mul(ad.mul(y, y), ad.constant(np.linspace(-1.0, 1.0, y.size).reshape(
        y.shape))))


def test_a_nan_in_wq_raises_naming_attention_in_backward_and_then_in_hv(rng, dual_sweeps):
    # A NaN in the direction's entries of wq reaches the H·v sweep alone; a
    # NaN written into wq after the forward pass, which checked every value,
    # reaches the input's adjoint in every first-order sweep.
    params = {"x": rng.standard_normal((4, 6)),
              **{name: rng.standard_normal((3, 2)) for name in ("q", "k", "v")}}
    named = "^backward: non-finite adjoint at attention$"
    with ad.new_tape():
        leaves = {k: ad.leaf(a) for k, a in params.items()}
        f = _attention_loss(leaves)
        grad, hv = ad.grad_and_hvp(f, leaves)
        v = np.ones(grad.size)
        v[params["x"].size] = np.nan
        assert ad.all_finite(grad.values) and ad.all_finite(hv(np.ones(grad.size)).values)
        with pytest.raises(ad.NonFiniteError, match=named):
            hv(v)
        value = leaves["q"].values
        value.setflags(write=True)
        value.flat[0] = np.nan
        for sweep in (lambda: ad.backward(f, leaves), lambda: ad.grad_and_hvp(f, leaves),
                      lambda: ad.hvp_recorded(f, leaves, np.ones(grad.size))):
            with pytest.raises(ad.NonFiniteError, match=named):
                sweep()


# wrt: the leaves with a tangent; const: the inputs recorded as constants
@pytest.mark.parametrize("wrt", ["xqkvu", "x", "q", "k", "v", "u", "kv"])
@pytest.mark.parametrize("const", ["", "x", "xq", "xk", "xv"],
                         ids=lambda c: "const_" + (c or "none"))
def test_attention_sweep_rule_is_bitwise_the_dual_sweep(const, wrt, rng, monkeypatch, dual_sweeps):
    arrays = {"x": rng.standard_normal((3, 6)),
              **{name: rng.standard_normal((3, 4)) * 0.7 for name in "qkv"},
              "u": rng.standard_normal((3, 4))}
    params = {name: a for name, a in arrays.items() if name not in const}
    wrt = [name for name in wrt if name in params] or ["u"]

    def build(t):
        y = ad.attention(*(t[n] if n in t else _c(arrays[n]) for n in "xqkv"), seq_len=2)
        return _contracted(ad.mul(y, y), t["u"])

    for drop_kept in (False, True):
        fast, generic = _sweep_both_ways("attention", build, params, wrt, rng, monkeypatch,
                                         drop_kept)
        assert fast == generic
