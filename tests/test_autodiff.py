"""Gradient correctness against central finite differences, second-order
checks against closed forms, and tape bookkeeping."""

import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradguide import autodiff as ad
from gradguide import model as md

from conftest import central_diff_grad, eval_scalar, rel_err


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


def _case_transpose(rng):
    return {"a": rng.standard_normal((3, 4))}, \
        lambda t: ad.matmul(ad.transpose(t["a"]), t["a"])


def _case_relu(rng):
    return {"a": _away_from_zero(rng.standard_normal((3, 4)))}, \
        lambda t: ad.relu(t["a"])


def _case_tanh(rng):
    return {"a": rng.standard_normal((3, 4))}, lambda t: ad.tanh(t["a"])


def _case_exp(rng):
    return {"a": rng.standard_normal((3, 4))}, lambda t: ad.exp(t["a"])


def _case_log(rng):
    return {"a": 0.5 + rng.random((3, 4))}, lambda t: ad.log(t["a"])


def _case_sum_all(rng):
    return {"a": rng.standard_normal((3, 4))}, lambda t: ad.sum_(t["a"])


def _case_sum_axis0(rng):
    return {"a": rng.standard_normal((3, 4))}, lambda t: ad.sum_(t["a"], axis=0)


def _case_sum_axis1_keep(rng):
    return {"a": rng.standard_normal((3, 4))}, \
        lambda t: ad.sum_(t["a"], axis=1, keepdims=True)


def _case_mean(rng):
    return {"a": rng.standard_normal((3, 4))}, lambda t: ad.mean(t["a"])


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
    _case_transpose, _case_relu, _case_tanh, _case_exp, _case_log,
    _case_sum_all, _case_sum_axis0, _case_sum_axis1_keep, _case_mean,
    _case_l2_norm, _case_dot, _case_concat, _case_slice, _case_reshape,
    _case_softmax_ce, _case_mlp_composite,
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
                assert len(tape) == n_ops and g.tensor.node is None
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
def test_hvp_recorded_matches_double_backprop(case, rng):
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


def test_hvp_recorded_records_nothing_and_checks_v(rng):
    with ad.new_tape() as tape:
        x = ad.leaf(rng.standard_normal(4))
        f = ad.sum_(ad.exp(x))
        n_ops = len(tape)
        hv = ad.hvp_recorded(f, {"x": x}, np.ones(4))
        assert len(tape) == n_ops and hv.tensor.node is None
        assert np.allclose(hv.values, np.exp(x.values), rtol=1e-15)
        with pytest.raises(ad.ShapeMismatchError):
            ad.hvp_recorded(f, {"x": x}, np.ones(3))
    with pytest.raises(ad.TapeError):
        ad.hvp_recorded(f, {"x": x}, np.ones(4))


def test_hvp_recorded_overflow_raises_nonfinite():
    # f = x², H·v = 2v: finite values and gradient, overflowing tangent
    with ad.new_tape():
        x = ad.leaf([1.0])
        f = ad.mul(x, x)
        with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError):
            ad.hvp_recorded(f, {"x": x}, [1e308])


def test_second_backward_requires_create_graph(rng):
    with ad.new_tape():
        x = ad.leaf(rng.standard_normal(4))
        g = ad.backward(ad.dot(x, x), {"x": x}, create_graph=False)
        assert g.tensor.node is None
        with pytest.raises(ad.TapeError):
            ad.backward(ad.dot(g.tensor, ad.constant(np.ones(4))), {"x": x})


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
    with pytest.raises(ad.ShapeMismatchError):
        ad.transpose(ad.constant(np.ones(3)))


def test_domain_errors():
    with pytest.raises(ad.DomainError):
        ad.log(ad.constant([1.0, 0.0]))
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
    "sum": lambda: ad.sum_(_c([1e308, 1e308])),
    "mean": lambda: ad.mean(_c([1e308, 1e308])),
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
    lambda a: ad.transpose(a),
    lambda a: ad.slice_(a, 1, 1, 3),
    lambda a: ad.reshape(a, (6, 2)),
    lambda a: ad.matmul(a, a, ta=True),
    lambda a: ad.matmul(ad.reshape(a, (2, 3, 2)), ad.reshape(a, (2, 2, 3)), ta=True, tb=True),
    lambda a: ad.sum_(a, axis=0),
    lambda a: ad.mean(a),
], ids=["transpose", "slice_axis1", "reshape", "matmul_ta", "matmul_batched_tatb",
        "sum_axis0", "mean"])
def test_op_outputs_are_c_contiguous_and_read_only(build, rng):
    with ad.new_tape():
        out = build(ad.leaf(rng.standard_normal((3, 4))))
    assert out.values.flags.c_contiguous
    assert not out.values.flags.writeable


def test_leaf_requires_tape():
    with pytest.raises(ad.TapeError):
        ad.leaf(np.ones(2))


def test_constants_are_untracked():
    with ad.new_tape() as tape:
        out = ad.add(ad.constant([1.0]), ad.constant([2.0]))
        assert out.node is None
        assert len(tape) == 0


def test_stop_recording(rng):
    with ad.new_tape() as tape:
        x = ad.leaf(rng.standard_normal(3))
        with ad.stop_recording():
            y = ad.scalar_mul(x, 3.0)
            assert y.node is None
        assert len(tape) == 0
        with pytest.raises(ad.TapeError):
            with ad.stop_recording():
                ad.backward(ad.dot(x, x), {"x": x}, create_graph=True)


def test_replay_check_passes(rng):
    with ad.new_tape() as tape:
        x = ad.leaf(rng.standard_normal((3, 4)))
        w = ad.leaf(rng.standard_normal((4, 2)))
        z = ad.matmul(ad.tanh(x), w)
        ad.backward(ad.mean(z), {"x": x, "w": w}, create_graph=True)
        assert tape.replay_check()


def test_record_forward_dispatch(rng):
    a = ad.constant(rng.standard_normal((2, 3)))
    b = ad.constant(rng.standard_normal((2, 3)))
    assert np.array_equal(ad.record_forward("add", [a, b]).values, a.values + b.values)
    assert np.array_equal(
        ad.record_forward("sum", [a], axis=1, keepdims=True).values,
        np.sum(a.values, axis=1, keepdims=True))
    assert np.array_equal(
        ad.record_forward("concat", [a, b], axis=0).values,
        np.concatenate([a.values, b.values], axis=0))
    with pytest.raises(ad.AutodiffError):
        ad.record_forward("madd", [a, b])
    s = ad.constant(rng.standard_normal((3, 3)))
    u = ad.constant(rng.standard_normal((3, 3)))
    for ta, tb in MATMUL_FLAGS:
        out = ad.record_forward("matmul", [s, u], ta=ta, tb=tb)
        expected = (s.values.T if ta else s.values) @ (u.values.T if tb else u.values)
        assert np.allclose(out.values, expected, rtol=1e-14, atol=0.0)
    s3 = ad.constant(rng.standard_normal((2, 4, 3)))
    u3 = ad.constant(rng.standard_normal((2, 5, 4)))
    out = ad.record_forward("matmul", [s3, u3], ta=True, tb=True)
    expected = np.einsum("bki,bjk->bij", s3.values, u3.values)
    assert out.shape == (2, 3, 5)
    assert np.allclose(out.values, expected, rtol=1e-14, atol=0.0)


# (flagged operand shape, other operand shape, flag, tiled copy?).  The tiled
# cases have row counts that are not a multiple of the tile height.
FLAGGED_PRODUCTS = [
    ((7, 5), (7, 3), "ta", False),
    ((4, 6), (9, 6), "tb", False),
    ((2, 5, 4), (2, 5, 3), "ta", False),
    ((3, 6, 5), (3, 2, 5), "tb", False),
    ((255, 256), (255, 3), "ta", False),      # one row below the size threshold
    ((2000, 40), (2000, 3), "ta", False),     # large but narrower than the width threshold
    ((1000, 70), (1000, 3), "ta", True),
    ((1025, 64), (4, 64), "tb", True),
    ((2, 300, 120), (2, 300, 5), "ta", True),
    ((3, 190, 130), (3, 4, 130), "tb", True),
]


@pytest.mark.parametrize("op_shape,other_shape,flag,tiled", FLAGGED_PRODUCTS,
                         ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_flagged_matmul_is_bitwise_the_product_of_a_contiguous_copy(
        op_shape, other_shape, flag, tiled, rng):
    op = rng.standard_normal(op_shape)
    other = rng.standard_normal(other_shape)
    assert (op.size >= ad._TILE_MIN_SIZE and op_shape[-1] >= ad._TILE_MIN_WIDTH) == tiled
    copy = ad._transposed_copy(op)
    assert copy.flags.c_contiguous and np.array_equal(copy, op.swapaxes(-1, -2))
    plain = np.ascontiguousarray(op.swapaxes(-1, -2))
    if flag == "ta":
        got = ad.matmul(ad.constant(op), ad.constant(other), ta=True)
        expected = plain @ other
    else:
        got = ad.matmul(ad.constant(other), ad.constant(op), tb=True)
        expected = other @ plain
    assert got.values.tobytes() == np.ascontiguousarray(expected).tobytes()


REDUCTION_SHAPES = [(1,), (7,), (9,), (33, 5), (1000,), (4, 257), (2, 3, 70)]


@pytest.mark.parametrize("shape", REDUCTION_SHAPES, ids=str)
def test_mean_and_l2_norm_are_bitwise_the_numpy_forms(shape, rng):
    v = rng.standard_normal(shape) * 1e3
    assert ad.mean(ad.constant(v)).values.tobytes() == np.asarray([np.mean(v)]).tobytes()
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


def test_operator_sugar(rng):
    av = rng.standard_normal(4)
    bv = rng.standard_normal(4)
    a, b = ad.constant(av), ad.constant(bv)
    assert np.allclose(((a + b) * 2.0 - a / 2.0).values, (av + bv) * 2 - av / 2)
    assert np.allclose((-a).values, -av)
    assert np.allclose((1.0 - a).values, 1 - av)


def test_layout_roundtrip(rng):
    layout = ad.ParamLayout.of([("w", (2, 3)), ("b", (3,))])
    flat = rng.standard_normal(layout.total)
    assert np.array_equal(layout.flatten(layout.unflatten(flat)), flat)
    with pytest.raises(ad.ShapeMismatchError):
        layout.unflatten(np.zeros(5))


def test_layout_is_built_once_per_names_and_shapes():
    layout = ad.ParamLayout.of([("w", (2, 3)), ("b", (3,))])
    again = ad.ParamLayout.of((name, shape) for name, shape in [("w", [2, 3]), ("b", (3,))])
    assert again is layout
    assert ad.ParamLayout.of([("w", (np.int64(2), 3)), ("b", (3,))]) is layout
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
