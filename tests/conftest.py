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
    """The recorded chain ``ad.softmax`` stands for: scalar_mul by c, a
    reshape to rows, exp(z - m) over the detached row max m, the row sums,
    their div and a reshape back."""
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
    p = ad.softmax(ad.matmul(q, k, tb=True), 1.0 / np.sqrt(a))
    pool = ad.constant(np.full((b, 1, seq_len), 1.0 / seq_len))
    return ad.reshape(ad.matmul(pool, ad.matmul(p, v)), (b, a))
