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
