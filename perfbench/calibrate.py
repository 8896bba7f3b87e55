"""Fixed calibration kernels that measure the machine's current speed.

On a shared virtual machine the speed of one vCPU changes by up to ~1.7x
in phases of a few seconds to many minutes (other tenants on the same
core and caches), and process CPU time slows down with it.  A child
process therefore runs a fixed kernel now and then between training
steps; run.py divides each time it reports by the kernel's time at that
moment over ``REFERENCE_MS``, so timings read as at the reference speed.

The kernels do the kind of work the workloads do, and none of
gradguide's code, so a change to gradguide moves the timings but not the
kernels:

  small  a minimal reverse-mode autodiff (closures, tape walk, tiny numpy
         arrays): per-op overhead, as on attn-exact and pair-compare
  large  matmul, relu, transposed copy and finiteness scan on MB-sized
         arrays, as on wide-vanilla
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel CPU time on the reference machine (2-vCPU Intel Xeon at
# 2.0 GHz, one BLAS thread) in its slower, more common phase.
REFERENCE_MS = {"small": 1.0, "large": 2.3}


class _Var:
    __slots__ = ("value", "grad", "parents")

    def __init__(self, value, parents=()):
        self.value = value
        self.grad = None
        self.parents = parents


def _matmul(a, b):
    return _Var(a.value @ b.value, ((a, lambda g: g @ b.value.T),
                                    (b, lambda g: a.value.T @ g)))


def _tanh(a):
    t = np.tanh(a.value)
    return _Var(t, ((a, lambda g: g * (1.0 - t * t)),))


def _mul(a, b):
    return _Var(a.value * b.value, ((a, lambda g: g * b.value), (b, lambda g: g * a.value)))


def _sum(a):
    return _Var(float(a.value.sum()), ((a, lambda g: np.full_like(a.value, g)),))


def _backward(out):
    order, seen, stack = [], set(), [(out, False)]
    while stack:
        v, done = stack.pop()
        if done:
            order.append(v)
        elif id(v) not in seen:
            seen.add(id(v))
            stack.append((v, True))
            stack.extend((p, False) for p, _ in v.parents)
    out.grad = 1.0
    for v in reversed(order):
        for p, vjp in v.parents:
            g = vjp(v.grad)
            p.grad = g if p.grad is None else p.grad + g


_rng = np.random.default_rng(0)
_X = _rng.standard_normal((32, 16))
_W1 = _rng.standard_normal((16, 8))
_W2 = _rng.standard_normal((8, 4))
_BIG = _rng.standard_normal((512, 256))
_BIG_W = _rng.standard_normal((256, 64))
# preallocated outputs, so the allocator's state does not enter the time
_H = np.empty((512, 64))
_G = np.empty((512, 256))
_GT = np.empty((256, 512))
_OK = np.empty((256, 512), dtype=bool)


def _small():
    for _ in range(16):
        x, w1, w2 = _Var(_X), _Var(_W1), _Var(_W2)
        h = _tanh(_matmul(x, w1))
        o = _matmul(h, w2)
        _backward(_sum(_mul(_tanh(o), o)))


def _large():
    for _ in range(2):
        np.matmul(_BIG, _BIG_W, out=_H)
        np.maximum(_H, 0.0, out=_H)
        np.multiply(_BIG, 1.5, out=_G)
        _GT[...] = _G.T
        if not np.isfinite(_GT, out=_OK).all():
            raise FloatingPointError("calibration kernel overflowed")


KERNELS = {"small": _small, "large": _large}


def sample(kernel: str) -> float:
    """CPU ms of one run of ``kernel``."""
    fn = KERNELS[kernel]
    t0 = time.process_time()
    fn()
    return 1e3 * (time.process_time() - t0)


if __name__ == "__main__":
    for name in KERNELS:
        times = sorted(sample(name) for _ in range(200))
        print(f"{name}: median {times[100]:.4f} ms  min {times[0]:.4f} ms")
