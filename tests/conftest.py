import dataclasses
import operator

import numpy as np
import pytest

from gradguide import autodiff as ad


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def central_diff_grad(fn, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Finite-difference gradient of a scalar fn over a flat float64 vector."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (fn(xp) - fn(xm)) / (2.0 * eps)
    return g


def rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    approx = np.asarray(approx).reshape(-1)
    exact = np.asarray(exact).reshape(-1)
    denom = max(np.linalg.norm(exact), 1e-12)
    return float(np.linalg.norm(approx - exact) / denom)


def eval_scalar(build, flat: np.ndarray, shapes) -> float:
    """Run `build` on untracked tensors reconstructed from a flat vector."""
    layout = ad.ParamLayout.of(shapes)
    parts = layout.unflatten(flat)
    tensors = {name: ad.constant(arr) for name, arr in parts.items()}
    with ad.new_tape():
        out = build(tensors)
    return out.item()


def composed_softmax(a, c: float = 1.0):
    """The recorded chain the softmax inside ``ad.attention`` stands for:
    scalar_mul by c, a reshape to rows, exp(z - m) over the detached row max
    m, the row sums, their div and a reshape back."""
    shape = a.shape
    z = ad.reshape(ad.scalar_mul(a, c), (int(np.prod(shape[:-1])), shape[-1]))
    m = ad.constant(np.maximum.reduce(z.values, axis=1, keepdims=True))
    e = ad.exp(ad.sub(z, m))
    return ad.reshape(ad.div(e, ad.sum_(e, axis=1, keepdims=True)), shape)


def attention_chain(x, wq, wk, wv, seq_len: int):
    """The recorded chain ``ad.attention`` stands for: the rows of x cut into
    their chunks, the q, k and v products (each reshaped to [B, seq_len, A]),
    the scores q·kᵀ, their softmax at 1/√A, the mixing by v and the product
    with the 1/seq_len row that averages over positions."""
    b, (chunk, a) = x.shape[0], wq.shape
    rows = ad.reshape(x, (b * seq_len, chunk))
    q, k, v = (ad.reshape(ad.matmul(rows, w), (b, seq_len, a)) for w in (wq, wk, wv))
    p = composed_softmax(ad.matmul(q, k, tb=True), 1.0 / np.sqrt(a))
    pool = ad.constant(np.full((b, 1, seq_len), 1.0 / seq_len))
    return ad.reshape(ad.matmul(pool, ad.matmul(p, v)), (b, a))


# -- the reference tangent sweep ------------------------------------------------
#
# ``ad.grad_and_hvp`` sweeps only the three kinds a model records (dense,
# attention and softmax_cross_entropy), each by an array rule.  The
# reference those rules are pinned against bit for bit runs a kind's
# backward rule on (value, tangent) pairs: ``dual_sweep``.  With the
# ``dual_sweeps`` fixture it also sweeps the other 14 kinds, matmul among
# them, so that ``grad_and_hvp`` and ``hvp_recorded`` take any program.

@dataclasses.dataclass(slots=True)
class Dual:
    """A value and its tangent (None for a zero tangent)."""

    v: np.ndarray
    t: np.ndarray | None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.v.shape


class Duals:
    """Interpreter of the backward rules on (value, tangent) pairs: each
    op's value is what ``ad._Arrays`` computes, and its tangent comes from
    its kind's tangent rule.  ``tangents`` maps tape nodes to their
    tangents; every other tensor has a zero tangent, but for the output of
    ``rec``, the record being swept, whose tangent is computed when first
    read: the tangent pass never computes the scalar's own.  The ops are
    set from ``ad._OPS`` below."""

    def __init__(self, tangents, rec, parts):
        self.tangents, self.rec, self.parts = tangents, rec, parts

    def val(self, t) -> Dual:
        dt = self.tangents.get(t.node)
        if dt is None and t is self.rec.output:
            dt = ad._forward_tangent(self.rec, self.tangents, self.parts)
        return Dual(t.values, dt)

    plain = staticmethod(operator.attrgetter("v"))

    @staticmethod
    def constant(v) -> Dual:
        return Dual(v, None)

    @staticmethod
    def filled(fill: float, shape: tuple[int, ...]) -> Dual:
        return Dual(ad._filled(fill, shape).values, None)


def dual_sweep(o, rec, g, gt) -> list:
    """The reference tangent-sweep rule: ``rec``'s backward rule on
    (value, tangent) pairs, with the adjoint g and its tangent gt as the
    output's adjoint, on the tangents and parts of ``o``."""
    grads = ad._OPS[rec.kind].backward(Duals(o.tangents, rec, o.parts), rec.inputs, rec.output,
                                       Dual(g, gt), rec.attrs)
    return [d if d is None else d.t for d in grads]


# Tangent rules of the kinds without an array rule, in ``ad._tangent_add``'s
# form.  Linear kinds run their kernel on the tangent; bilinear kinds add
# kernel(ȧ, b) and kernel(a, ḃ).

def _linear(kind: str):
    kernel = ad._OPS[kind].kernel

    def tangent(vs, ts, out, attrs, kept=None):
        return ad._stored(kernel(ts[0], **attrs))
    return tangent


def _bilinear(kind: str):
    kernel = ad._OPS[kind].kernel

    def tangent(vs, ts, out, attrs, kept=None):
        return ad._product_tangent(kernel, vs[0], ts[0], vs[1], ts[1], **attrs)
    return tangent


def _tangent_sub(vs, ts, out, attrs, kept=None):
    at, bt = ts
    if at is None:
        return ad._spread(-bt, out)
    return ad._spread(at, out) if bt is None else at - bt


def _tangent_div(vs, ts, out, attrs, kept=None):
    # d(a/b) = (ȧ - (a/b) ḃ) / b
    (_, b), (at, bt) = vs, ts
    if bt is None:
        return at / b
    dq = out * bt
    return (-dq if at is None else at - dq) / b


def _tangent_concat(vs, ts, out, attrs, kept=None):
    parts = [np.zeros(v.shape) if t is None else t for v, t in zip(vs, ts)]
    return ad._OPS["concat"].kernel(*parts, **attrs)


TANGENT_RULES = {
    "add": ad._tangent_add,
    "sub": _tangent_sub,
    "mul": _bilinear("mul"),
    "matmul": _bilinear("matmul"),
    "div": _tangent_div,
    "scalar_mul": _linear("scalar_mul"),
    "tanh": lambda vs, ts, out, attrs, kept=None: ts[0] * (1.0 - out * out),
    "exp": lambda vs, ts, out, attrs, kept=None: ts[0] * out,
    "sum": _linear("sum"),
    "l2_norm": lambda vs, ts, out, attrs, kept=None: ad._sum(vs[0] * ts[0], axis=None) / out,
    "dot": _bilinear("dot"),
    "concat": _tangent_concat,
    "slice": _linear("slice"),
    "reshape": _linear("reshape"),
}


def _dual_op(op, tangent):
    def run(*ins: Dual, **attrs) -> Dual:
        vs, ts = [d.v for d in ins], [d.t for d in ins]
        out = op.kernel(*vs, **attrs)
        return Dual(out, None if all(t is None for t in ts) else tangent(vs, ts, out, attrs))
    return ad._call_form(op, run)


for _kind, _op in ad._OPS.items():
    setattr(Duals, _op.public.__name__, _dual_op(_op, TANGENT_RULES.get(_kind, _op.tangent)))
del _kind, _op


def install_dual_sweeps(mp) -> None:
    """Give each kind without an array rule, through the MonkeyPatch ``mp``,
    its reference tangent rule and ``dual_sweep``, so that ``grad_and_hvp``
    takes any program."""
    for kind, tangent in TANGENT_RULES.items():
        mp.setitem(ad._OPS, kind, dataclasses.replace(ad._OPS[kind], tangent=tangent,
                                                      sweep=dual_sweep))


@pytest.fixture
def dual_sweeps(monkeypatch):
    install_dual_sweeps(monkeypatch)
