"""Tape-based reverse-mode automatic differentiation.

Every operation records onto an explicit tape.  Each op kind has one entry
in ``_OPS``: its public op, its array kernel, its tangent rule, its
backward rule and its tangent-sweep rule.  Each backward rule runs in one
of two ways.  With ``create_graph=True`` it runs through the recorded
operations, which leaves the gradient entries on the tape as ordinary
nodes, so a second ``backward`` through any scalar function of them yields
exact second-order derivatives (the double-backprop needed for
gradient-of-gradient penalties and Hessian-vector products).  Otherwise it
runs the same kernels on plain arrays, with the same bits.
``grad_and_hvp`` runs that sweep once and keeps its adjoints; the H·v it
returns carries plain-array tangents forward over the records the sweep
reached, then runs each kind's tangent-sweep rule to pass the tangents of
those adjoints back: forward mode over the reverse sweep, which gives an
exact Hessian-vector product without recording anything.

All values are float64.  Scalars are rank-1 tensors of shape ``(1,)``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np


class AutodiffError(Exception):
    """Base class for tape/op failures."""


class ShapeMismatchError(AutodiffError):
    """Operands have shapes the operation cannot accept."""


class DomainError(AutodiffError):
    """Argument outside the operation's domain (division by zero, a label out of range)."""


class NonFiniteError(AutodiffError):
    """An operation produced NaN/Inf from finite inputs (overflow)."""


class TapeError(AutodiffError):
    """Tensor used with the wrong/inactive tape, or backward misuse."""


_TAPE_IDS = itertools.count(1)


class Tensor:
    """n-dimensional float64 value, optionally tracked on a tape.

    ``node`` is the tape node id and ``generation`` the generation of its
    tape (both None for constants).  A tensor holds no reference to its tape,
    so a tape is freed as soon as its block and its caller let go of it.
    Stored values are C-contiguous and frozen.
    """

    __slots__ = ("values", "node", "generation")

    def __init__(self, values, node: int | None = None, generation: int | None = None):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self.values = arr
        self.node = node
        self.generation = generation

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeMismatchError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = "const" if self.node is None else f"node {self.node}"
        return f"Tensor({tag}, shape={self.shape})"


@dataclass(slots=True)
class OpRecord:
    """One recorded operation: saved inputs/output tensors plus static attrs."""

    kind: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    attrs: dict


class Tape:
    """Ordered operation log.  Topological by construction (SSA append-only)."""

    def __init__(self):
        self.generation = next(_TAPE_IDS)
        self.records: list[OpRecord] = []
        self._next_node = 0

    def new_node(self) -> int:
        nid = self._next_node
        self._next_node += 1
        return nid

    def __len__(self) -> int:
        return len(self.records)

    def replay_check(self) -> bool:
        """Re-run every recorded forward kernel and compare bit-exactly.  The
        kernel gets the record's inputs and attrs, but never the arrays a
        record keeps for its rules (attr ``kept``), so every value is
        recomputed from the inputs alone."""
        for rec in self.records:
            attrs = {name: a for name, a in rec.attrs.items() if name != "kept"}
            value = _OPS[rec.kind].kernel(*(t.values for t in rec.inputs), **attrs)
            if not np.array_equal(value, rec.output.values):
                return False
        return True


_ACTIVE: list[Tape] = []


def active_tape() -> Tape | None:
    return _ACTIVE[-1] if _ACTIVE else None


class new_tape:
    """Activate a fresh tape for the duration of the block:
    ``with new_tape() as tape:``.  A class rather than a generator-based
    context manager, since every gradient opens one."""

    __slots__ = ()

    def __enter__(self) -> Tape:
        tape = Tape()
        _ACTIVE.append(tape)
        return tape

    def __exit__(self, *exc) -> None:
        _ACTIVE.pop()


def constant(values) -> Tensor:
    """Untracked tensor; gradients never flow into it."""
    return Tensor(values)


def leaf(values) -> Tensor:
    """Tracked input tensor on the active tape (a differentiation root)."""
    tape = active_tape()
    if tape is None:
        raise TapeError("leaf() requires an active tape; use `with new_tape():`")
    return Tensor(values, tape.new_node(), tape.generation)


# The ufunc reductions behind ndarray.all/any/max/sum, called without numpy's
# Python-level wrappers (``np.max(x)`` is ``np.maximum.reduce(x, axis=None)``).
_all = np.logical_and.reduce
_any = np.logical_or.reduce
_max = np.maximum.reduce
_sum = np.add.reduce
_new_tensor = object.__new__


def _row_max(z: np.ndarray) -> np.ndarray:
    """``_max(z, axis=1, keepdims=True)`` of a 2-d z.  numpy reduces a last
    axis of few entries with a loop per row; for at least 64 rows of fewer
    than 8 columns one ``np.maximum`` per column is faster, with the same
    bits (a max has no rounding).  With numpy's reductions in its place (and
    ``_row_sum``'s), attn-exact's training took +5.1 % CPU (28 of 40
    in-process rounds slower), most of it in evaluating 1,600 rows."""
    n, k = z.shape
    if n < 64 or k >= 8:
        return _max(z, axis=1, keepdims=True)
    m = z[:, 0].copy()
    for j in range(1, k):
        np.maximum(m, z[:, j], out=m)
    return m[:, None]


def _row_sum(z: np.ndarray, keepdims: bool = True) -> np.ndarray:
    """``_sum(z, axis=1, keepdims=keepdims)`` of a 2-d z, as ``_row_max``
    takes its maxima.  numpy adds fewer than 8 entries of a row left to
    right, starting from +0.0 (so a row of -0.0 sums to +0.0); one add per
    column, in the same order, gives the same bits."""
    n, k = z.shape
    if n < 64 or k >= 8:
        return _sum(z, axis=1, keepdims=keepdims)
    s = z[:, 0] + 0.0
    for j in range(1, k):
        s += z[:, j]
    return s[:, None] if keepdims else s


def all_finite(v: np.ndarray) -> bool:
    """Whether every entry of ``v`` is finite.  A NaN or Inf makes the sum
    non-finite; so can an overflow of finite entries, hence the elementwise
    test, run only when the sum is not finite.  One sum reads ``v`` once
    and allocates nothing, where the elementwise test builds a mask."""
    return math.isfinite(_sum(v, axis=None)) or bool(_all(np.isfinite(v), axis=None))


def _stored(v: np.ndarray) -> np.ndarray:
    """A float64 kernel result in the form every value is stored in: at least
    1-d and C-contiguous (copied only when it is not)."""
    if v.ndim == 0:
        return v.reshape(1)
    if not v.flags.c_contiguous:
        return np.ascontiguousarray(v)
    return v


def _wrap(value: np.ndarray) -> Tensor:
    """A constant of ``value``, which is already in stored form (float64, at
    least 1-d, C-contiguous), frozen in place instead of converted."""
    value.setflags(write=False)
    out = _new_tensor(Tensor)
    out.values = value
    out.node = out.generation = None
    return out


def _record(kind: str, inputs: tuple[Tensor, ...], value: np.ndarray,
            attrs: dict, finite: bool = False) -> Tensor:
    """Wrap an op's kernel result as its output tensor, and append the op to
    the active tape when any input is tracked.

    The hot path of every op: ``value`` is already in stored form (kernels
    of stored values return stored values), and is checked for finiteness
    unless ``finite`` says the kernel's own check already covers it.
    """
    if not finite and not all_finite(value):
        raise NonFiniteError(f"{kind} produced a non-finite value")
    value.setflags(write=False)
    out = _new_tensor(Tensor)
    out.values = value
    out.node = out.generation = None
    tape = _ACTIVE[-1] if _ACTIVE else None
    tracked = False
    for t in inputs:
        if t.node is not None:
            if tape is not None and t.generation != tape.generation:
                raise TapeError(
                    f"{kind}: input from tape generation {t.generation} used "
                    f"under tape generation {tape.generation}"
                )
            tracked = True
    if tracked and tape is not None:
        out.node = tape.new_node()
        out.generation = tape.generation
        tape.records.append(OpRecord(kind, inputs, out, attrs))
    return out


@functools.lru_cache(maxsize=64)
def _filled(fill: float, shape: tuple[int, ...]) -> Tensor:
    """Shared frozen constant of ``shape`` filled with ``fill``, for backward
    rules that broadcast or pad with ones and zeros."""
    return constant(np.full(shape, fill))


# ---------------------------------------------------------------------------
# Broadcasting (deliberately narrow: exactly what the toy models need)
# ---------------------------------------------------------------------------

def _broadcast_allowed(sa: tuple, sb: tuple) -> bool:
    if sa == sb or sa == (1,) or sb == (1,):
        return True
    if len(sa) == 2 and len(sb) == 2:
        rows = sa[0] == sb[0] and (sa[1] == 1 or sb[1] == 1)
        cols = sa[1] == sb[1] and (sa[0] == 1 or sb[0] == 1)
        return rows or cols
    if len(sa) == 2 and sb == (sa[1],):
        return True
    if len(sb) == 2 and sa == (sb[1],):
        return True
    return False


def _check_elementwise(kind: str, a: Tensor, b: Tensor) -> None:
    sa, sb = a.values.shape, b.values.shape
    if sa != sb and not _broadcast_allowed(sa, sb):
        raise ShapeMismatchError(f"{kind}: incompatible shapes {sa} and {sb}")


# ---------------------------------------------------------------------------
# Operations.  Each public op validates its operands, runs its kind's kernel
# from ``_OPS`` on their values and records the result.
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("add", a, b)
    return _record("add", (a, b), _OPS["add"].kernel(a.values, b.values), {})


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("sub", a, b)
    return _record("sub", (a, b), _OPS["sub"].kernel(a.values, b.values), {})


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("mul", a, b)
    return _record("mul", (a, b), _OPS["mul"].kernel(a.values, b.values), {})


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("div", a, b)
    return _record("div", (a, b), _OPS["div"].kernel(a.values, b.values), {})


def _div_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if _any(b == 0.0, axis=None):
        raise DomainError("div: zero in denominator")
    return a / b


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _record("scalar_mul", (a,), _OPS["scalar_mul"].kernel(a.values, c), {"c": c})


def matmul(a: Tensor, b: Tensor, ta: bool = False, tb: bool = False) -> Tensor:
    """``op(a) @ op(b)``, where ``op`` swaps the last two axes of the operand
    whose flag is set.  Operands are both 2-d, or both 3-d with equal batch
    dimensions (one product per batch entry)."""
    av, bv = a.values, b.values
    nd = av.ndim
    if (nd != bv.ndim or nd not in (2, 3) or (nd == 3 and av.shape[0] != bv.shape[0])
            or av.shape[-2 if ta else -1] != bv.shape[-1 if tb else -2]):
        raise ShapeMismatchError(
            f"matmul: incompatible shapes {av.shape} and {bv.shape} (ta={ta}, tb={tb})")
    return _record("matmul", (a, b), _OPS["matmul"].kernel(av, bv, ta, tb), {"ta": ta, "tb": tb})


# A flagged M x K by K x N product (per batch entry when 3-d) hands BLAS the
# swapped view of its flagged operand when M > 1, N > 1 and M·N·K exceeds
# this; any other flagged operand is copied to C order.  See _matmul_kernel.
# Copying every flagged operand made wide-vanilla's step p50 +35 % (20 of 20
# in-process rounds slower).
_VIEW_MIN_WORK = 10 ** 6


def _transposed(a: np.ndarray, view: bool) -> np.ndarray:
    """``a`` with its last two axes swapped: a view, or a C-order copy."""
    t = a.swapaxes(-1, -2)
    return t if view else np.ascontiguousarray(t)


def _matmul_kernel(a: np.ndarray, b: np.ndarray, ta: bool = False,
                   tb: bool = False) -> np.ndarray:
    # A flagged product has the bits of the unflagged product of the
    # transposed operand.  A C-order copy gives them by construction.  The
    # view gives them on OpenBLAS's packed driver, which packs either layout
    # into the same panels before its microkernel runs; OpenBLAS sends
    # M·N·K <= 10**6 to small-matrix kernels and M or N = 1 to gemv instead,
    # whose summation order depends on the layout.  Operands that share
    # memory are copied too: numpy hands x.T @ x to syrk, which differs.
    # The size test comes first and reads each shape once: most flagged
    # products are small, and this check runs on every one of them.
    if ta or tb:
        sa, sb = a.shape, b.shape
        n = sb[-2] if tb else sb[-1]
        view = (sa[-2] * sa[-1] * n > _VIEW_MIN_WORK    # M·K·N
                and n > 1 and sa[-1 if ta else -2] > 1   # N > 1, M > 1
                and not np.may_share_memory(a, b))
        if ta:
            a = _transposed(a, view)
        if tb:
            b = _transposed(b, view)
    return a @ b


def dense(x: Tensor, w: Tensor, b: Tensor, tanh: bool = False) -> Tensor:
    """``x @ w + b``, through an elementwise tanh when ``tanh`` is set: one
    affine layer as one record.  ``x`` is [n, d], ``w`` [d, k] and ``b`` [k].
    Value, gradient and every derivative have the bits of the unfused
    ``tanh(add(matmul(x, w), b))`` chain."""
    xv, wv, bv = x.values, w.values, b.values
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0] or bv.shape != wv.shape[1:]:
        raise ShapeMismatchError(
            f"dense: incompatible shapes {xv.shape}, {wv.shape} and {bv.shape}")
    # tanh maps the checked affine part into [-1, 1]
    return _record("dense", (x, w, b), _OPS["dense"].kernel(xv, wv, bv, tanh), {"tanh": tanh},
                   finite=tanh)


def _dense_kernel(x: np.ndarray, w: np.ndarray, b: np.ndarray, tanh: bool = False) -> np.ndarray:
    # One buffer: the sum and the tanh run in place on the fresh product,
    # which gives the bits of the unfused ops.  tanh would map an overflowed
    # affine part to ±1, so it is checked first, as _array_check checks.
    z = x @ w
    np.add(z, b, out=z)
    if tanh:
        if not all_finite(z):
            raise NonFiniteError("dense produced a non-finite value before its tanh")
        np.tanh(z, out=z)
    return z


def tanh(a: Tensor) -> Tensor:
    return _record("tanh", (a,), _OPS["tanh"].kernel(a.values), {})


def exp(a: Tensor) -> Tensor:
    return _record("exp", (a,), _OPS["exp"].kernel(a.values), {})


def sum_(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    if axis is not None and not (-len(a.shape) <= axis < len(a.shape)):
        raise ShapeMismatchError(f"sum: axis {axis} invalid for shape {a.shape}")
    if axis is None and keepdims and len(a.shape) != 1:
        raise ShapeMismatchError("sum: keepdims over all axes needs a 1-d input")
    return _record("sum", (a,), _OPS["sum"].kernel(a.values, axis, keepdims),
                   {"axis": axis, "keepdims": keepdims})


def _mean_kernel(a: np.ndarray) -> np.ndarray:
    # What np.mean computes for a float64 array: the sum over all axes, then
    # one division by the element count.
    return _stored(_sum(a, axis=None) / a.size)


def l2_norm(a: Tensor) -> Tensor:
    return _record("l2_norm", (a,), _OPS["l2_norm"].kernel(a.values), {})


def dot(a: Tensor, b: Tensor) -> Tensor:
    if len(a.shape) != 1 or a.shape != b.shape:
        raise ShapeMismatchError(f"dot: expected equal 1-d shapes, got {a.shape} and {b.shape}")
    return _record("dot", (a, b), _OPS["dot"].kernel(a.values, b.values), {})


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeMismatchError("concat: empty input list")
    nd = len(tensors[0].shape)
    for t in tensors:
        if len(t.shape) != nd:
            raise ShapeMismatchError(
                f"concat: rank mismatch {[u.shape for u in tensors]}")
    if not (-nd <= axis < nd):
        raise ShapeMismatchError(f"concat: axis {axis} invalid for rank {nd}")
    value = _OPS["concat"].kernel(*(t.values for t in tensors), axis=axis)
    return _record("concat", tuple(tensors), value, {"axis": axis})


def slice_(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    nd = len(a.shape)
    if not (-nd <= axis < nd):
        raise ShapeMismatchError(f"slice: axis {axis} invalid for shape {a.shape}")
    axis = axis % nd
    if not (0 <= start < stop <= a.shape[axis]):
        raise ShapeMismatchError(
            f"slice: bounds [{start}, {stop}) invalid for axis {axis} of {a.shape}")
    return _record("slice", (a,), _OPS["slice"].kernel(a.values, axis, start, stop),
                   {"axis": axis, "start": start, "stop": stop})


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.size:
        raise ShapeMismatchError(f"reshape: cannot view {a.shape} as {shape}")
    return _record("reshape", (a,), _OPS["reshape"].kernel(a.values, shape), {"shape": shape})


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of row-wise softmax against integer labels.

    The record keeps, read-only, the softmax parts its value is computed
    from: ``e = exp(z - m)`` with m the row max, the row sums ``s`` of e
    (keepdims) and ``p = e / s``, so the array and tangent sweeps read them
    instead of computing them again (attr ``kept``)."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(logits.shape) != 2:
        raise ShapeMismatchError(f"softmax_cross_entropy: logits must be 2-d, got {logits.shape}")
    n, k = logits.shape
    if n == 0:
        raise ShapeMismatchError("softmax_cross_entropy: empty batch")
    if labels.shape != (n,):
        raise ShapeMismatchError(
            f"softmax_cross_entropy: labels shape {labels.shape} does not match batch {n}")
    if _any(labels < 0) or _any(labels >= k):
        raise DomainError(f"softmax_cross_entropy: label outside [0, {k})")
    z = logits.values
    m, e, s, p = _softmax_parts(z)
    for a in (e, s, p):
        a.setflags(write=False)
    return _record("softmax_cross_entropy", (logits,), _cross_entropy(z, labels, m, s),
                   {"labels": labels, "kept": (e, s, p)})


def _softmax_parts(z: np.ndarray) -> tuple:
    """The row max m of the 2-d logits z (keepdims), e = exp(z - m), the row
    sums s of e (keepdims) and p = e / s: the arrays of the composed rule."""
    m = _row_max(z)
    e = np.exp(z - m)
    s = _row_sum(e)
    return m, e, s, e / s


def _cross_entropy(z: np.ndarray, labels: np.ndarray, m: np.ndarray,
                   s: np.ndarray) -> np.ndarray:
    # log-sum-exp per row is log(s) + m; s is read as the contiguous 1-d
    # view of its one column, as the row sums without keepdims would be.
    lse = np.log(s.reshape(-1)) + m[:, 0]
    picked = z[np.arange(z.shape[0]), labels]
    return _mean_kernel(lse - picked)


def _softmax_cross_entropy_kernel(z: np.ndarray, labels: np.ndarray) -> np.ndarray:
    m, _, s, _ = _softmax_parts(z)
    return _cross_entropy(z, labels, m, s)


def attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, seq_len: int) -> Tensor:
    """Single-head self-attention over the ``seq_len`` equal chunks of each
    row of ``x``, averaged over positions: one record for the whole block.
    ``x`` is [B, seq_len·C], ``wq``, ``wk`` and ``wv`` are [C, A], and the
    output is [B, A].  The rows of x are cut into their chunks ([B·seq_len,
    C]) and projected to q, k and v ([B, seq_len, A]); the scores q·kᵀ go
    through a softmax at c = 1/√A, mix v, and are averaged over positions.

    Value, gradient and ``grad_and_hvp``'s H·v have the bits of that chain
    of ``reshape`` and ``matmul`` records, with the softmax composed as
    scalar_mul by c, reshape to rows, e = exp(z - m) (m the detached row
    max), its row sums s (keepdims), div and reshape back; double backprop
    differs from it only in rounding.  The record keeps, read-only, the
    parts its rules read again (attr ``kept``): q, k, v, the C-order copy
    kᵀ, the softmax's e and s, and its output p."""
    xv, qv, kv, vv = x.values, wq.values, wk.values, wv.values
    if (xv.ndim != 2 or qv.ndim != 2 or not xv.size or not qv.size or seq_len < 1
            or xv.shape[1] != seq_len * qv.shape[0] or kv.shape != qv.shape
            or vv.shape != qv.shape):
        raise ShapeMismatchError(
            f"attention: incompatible shapes {xv.shape}, {qv.shape}, {kv.shape} and "
            f"{vv.shape} for seq_len {seq_len}")
    pooled, kept = _attention_parts(xv, qv, kv, vv, seq_len)
    # the kernel checked every product, as the chain's records did
    return _record("attention", (x, wq, wk, wv), pooled, {"seq_len": seq_len, "kept": kept},
                   finite=True)


def _attention_parts(x: np.ndarray, wq: np.ndarray, wk: np.ndarray, wv: np.ndarray,
                     seq_len: int) -> tuple:
    """(pooled, kept): the block's output and its parts (see ``attention``),
    from the chain's arithmetic in the chain's order, each value checked
    where its record checked it."""
    b, (c, a) = x.shape[0], wq.shape
    rows = x.reshape(b * seq_len, c)
    q, k, v = (_attention_checked(rows @ w).reshape(b, seq_len, a) for w in (wq, wk, wv))
    kt = _transposed(k, False)
    # 1/√A <= 1 keeps the checked scores finite, so exp(z - m) gets no inf
    z = _attention_checked(q @ kt) * (1.0 / math.sqrt(a))
    _, e, s, p = _softmax_parts(z.reshape(-1, seq_len))
    p = p.reshape(z.shape)
    mixed = _attention_checked(p @ v)
    pooled = _attention_checked(_pool_row(b, seq_len) @ mixed).reshape(b, a)
    kept = {"q": q, "k": k, "v": v, "kT": kt, "e": e, "s": s, "p": p}
    for part in kept.values():
        part.setflags(write=False)
    return pooled, kept


def _attention_checked(v: np.ndarray) -> np.ndarray:
    if not all_finite(v):
        raise NonFiniteError("attention produced a non-finite value")
    return v


def _pool_row(batch: int, seq_len: int) -> np.ndarray:
    """The shared frozen [batch, 1, seq_len] row of 1/seq_len that averages
    over positions."""
    return _filled(1.0 / seq_len, (batch, 1, seq_len)).values


def _pool_column(batch: int, seq_len: int) -> np.ndarray:
    """The pooling row's C-order transpose, [batch, seq_len, 1]: every entry
    is 1/seq_len, so it is the filled constant of that shape."""
    return _filled(1.0 / seq_len, (batch, seq_len, 1)).values


# Tangent rules (forward mode): ``rule(vs, ts, out, attrs, kept=None)`` gets
# the input values, the input tangents (None for a zero tangent, never all
# None), the output value, the op's attrs and the parts ``grad_and_hvp``'s
# sweep formed in the record (``kept``, see ``_keep``; None when it formed
# none), and returns the output's tangent, shaped like the output.  Linear
# kinds run their kernel on the tangents; bilinear kinds add kernel(ȧ, b)
# and kernel(a, ḃ).  Only dense and attention read ``kept``.

def _spread(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``t``, the tangent of one operand of an elementwise op whose other
    operand has a zero tangent, broadcast to the output's shape."""
    return t if t.shape == out.shape else np.broadcast_to(t, out.shape)


def _tangent_add(vs, ts, out, attrs, kept=None):
    at, bt = ts
    if at is None:
        return _spread(bt, out)
    return _spread(at, out) if bt is None else at + bt


def _tangent_sub(vs, ts, out, attrs, kept=None):
    at, bt = ts
    if at is None:
        return _spread(-bt, out)
    return _spread(at, out) if bt is None else at - bt


def _tangent_div(vs, ts, out, attrs, kept=None):
    # d(a/b) = (ȧ - (a/b) ḃ) / b
    (_, b), (at, bt) = vs, ts
    if bt is None:
        return at / b
    dq = out * bt
    return (-dq if at is None else at - dq) / b


_NO_FLAGS = {"ta": False, "tb": False}


def _tangent_dense(vs, ts, out, attrs, kept=None):
    # The matmul, add and tanh rules in the unfused chain's order.  The sum
    # x·w + b is shaped like the output, which is all the add rule reads of
    # it, so x·w is never computed; the tanh rule's 1 - y² is the part the
    # first-order sweep kept.
    (x, w, b), (xt, wt, bt) = vs, ts
    zt = _OPS["matmul"].tangent((x, w), (xt, wt), None, _NO_FLAGS)   # None for zero
    t = _tangent_add((out, b), (zt, bt), out, {})
    return t * kept["d"] if attrs["tanh"] else t


def _tangent_concat(vs, ts, out, attrs, kept=None):
    parts = [np.zeros(v.shape) if t is None else t for v, t in zip(vs, ts)]
    return _OPS["concat"].kernel(*parts, **attrs)


def _softmax_tangents(at: np.ndarray, c: float, e, s, p) -> tuple:
    """The tangents of e, s and p (rows) from the input's: the scalar_mul,
    exp, sum and div tangent rules of the composed chain."""
    et = _stored(at * c).reshape(e.shape) * e
    st = _row_sum(et)
    return et, st, (et - p * st) / s


def _tangent_softmax_cross_entropy(vs, ts, out, attrs, kept=None):
    # d mean_i(lse_i - z_i,label) = mean_i(p_i · ż_i - ż_i,label); the kept
    # part, p - onehot, serves the sweep rule alone
    (z,), (tz,) = vs, ts
    p = attrs["kept"][2] if "kept" in attrs else _softmax_parts(z)[3]
    picked = tz[np.arange(z.shape[0]), attrs["labels"]]
    return _mean_kernel(_row_sum(p * tz, keepdims=False) - picked)


def _tangent_attention(vs, ts, out, attrs, kept=None):
    # The chain's tangent rules in its order: the projections, the scores,
    # the softmax, the mixing and the pooling.  The tangents the sweep rule
    # reads again go to ``kept``.
    (x, wq, wk, wv), (xt, wqt, wkt, wvt) = vs, ts
    seq_len = attrs["seq_len"]
    fw = attrs["kept"] if "kept" in attrs else _attention_parts(x, wq, wk, wv, seq_len)[1]
    q, k, v, p, e, s = (fw[n] for n in ("q", "k", "v", "p", "e", "s"))
    b, _, a = q.shape
    rows = x.reshape(b * seq_len, -1)
    rt = None if xt is None else _stored(xt.reshape(rows.shape))
    qt, kt, vt = (_reshaped(_product_tangent(np.matmul, rows, rt, w, wt), q.shape)
                  for w, wt in ((wq, wqt), (wk, wkt), (wv, wvt)))
    zt = _product_tangent(np.matmul, q, qt, fw["kT"], _transposed_or_none(kt))
    tangents = {"rt": rt, "qt": qt, "kt": kt, "vt": vt, "zt": zt}
    pt = None
    if zt is not None:
        et, st, pr = _softmax_tangents(zt, 1.0 / math.sqrt(a), e, s, p.reshape(e.shape))
        tangents.update(et=et, st=st, pt=pr)
        pt = pr.reshape(p.shape)
    mt = _product_tangent(np.matmul, p, pt, v, vt)
    if kept is not None:
        _keep(kept, **{name: t for name, t in tangents.items() if t is not None})
    return (_pool_row(b, seq_len) @ mt).reshape(out.shape)


def _reshaped(t: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray | None:
    return None if t is None else t.reshape(shape)


def _transposed_or_none(t: np.ndarray | None) -> np.ndarray | None:
    """The C-order copy of a tangent's transpose, None for a zero one."""
    return None if t is None else _transposed(t, False)


# ---------------------------------------------------------------------------
# Backward rules.  Each rule is written once, against an interpreter ``o``
# that supplies the ops it composes, called as the public ops are, with
# every attr passed by keyword:
#
# * ``_RECORDED`` (create_graph=True) runs the public recorded ops, so the
#   adjoints are tensors that leave a differentiable graph on the tape;
# * ``_ARRAYS`` (create_graph=False) runs each op's kernel on plain float64
#   arrays, with no validation, recording or Tensor per op;
# * ``_Duals`` (``_dual_sweep`` in the H·v sweep) runs kernel and tangent
#   rule on (value, tangent) pairs.
#
# A rule gets the record's input and output tensors (``o.val`` gives the
# interpreter's view of one) and the output adjoint ``g`` in the
# interpreter's form.  It returns one adjoint per input, None for an
# untracked input, whose adjoint nothing reads.
# ---------------------------------------------------------------------------

class _Recorded:
    """Interpreter whose ops are the module's recorded ops, looked up when
    called, so wrappers installed on the module see every call."""

    def __getattr__(self, name):
        return getattr(sys.modules[__name__], name)

    @staticmethod
    def val(t: Tensor) -> Tensor:
        return t

    plain = staticmethod(operator.attrgetter("values"))

    @staticmethod
    def filled(fill: float, shape: tuple[int, ...]) -> Tensor:
        return _filled(fill, shape)

    @staticmethod
    def check(g: Tensor, kind: str) -> None:
        """Every recorded op has already checked its output."""


def _array_check(g: np.ndarray, kind: str) -> None:
    if not all_finite(g):
        raise NonFiniteError(f"backward: non-finite adjoint at {kind}")


def _keep(kept: dict, **arrays: np.ndarray) -> None:
    """Add ``arrays``, frozen, to ``kept``, the parts of one record: those
    ``grad_and_hvp``'s first-order sweep formed in its rule, and those the
    tangent pass of one H·v adds for the sweep rule."""
    for a in arrays.values():
        a.setflags(write=False)
    kept.update(arrays)


class _Arrays:
    """Interpreter on float64 arrays: each op is its kind's kernel, which
    stores results as ``_record`` stores them, so every adjoint matches the
    recorded sweep bit for bit.  Finiteness is checked per adjoint
    (``check``), not per op: a NaN or Inf carries through every later
    adjoint op, since the rules only multiply, add, reduce, slice and
    reshape adjoints and divide them by finite forward values.  The ops are
    set from ``_OPS`` below.

    ``grad_and_hvp``'s sweep runs on its own instance, whose ``parts``
    (record output node -> name -> array) receives what a rule forms that
    the H·v passes read again (``keep``); ``_ARRAYS`` keeps none."""

    val = staticmethod(operator.attrgetter("values"))
    plain = constant = staticmethod(lambda v: v)
    filled = staticmethod(lambda fill, shape: _filled(fill, shape).values)
    check = staticmethod(_array_check)

    def __init__(self, parts: dict[int, dict[str, np.ndarray]] | None = None):
        self.parts = parts

    def keep(self, out: Tensor, **arrays: np.ndarray) -> None:
        if self.parts is not None:
            _keep(self.parts.setdefault(out.node, {}), **arrays)


@dataclass(slots=True)
class _Dual:
    """A value and its tangent (None for a zero tangent)."""

    v: np.ndarray
    t: np.ndarray | None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.v.shape


class _Duals:
    """Interpreter on (value, tangent) pairs, for forward mode over the
    reverse sweep: each op's value is what ``_Arrays`` computes, and its
    tangent comes from its kind's tangent rule.  ``tangents`` maps tape
    nodes to their tangents; every other tensor has a zero tangent, but for
    the output of ``last``, whose tangent is computed when first read.
    ``parts`` holds the kept parts of records (see ``_Arrays``), for the
    array sweep rules.  The ops are set from ``_OPS`` below."""

    def __init__(self, tangents: dict[int, np.ndarray], last: OpRecord | None,
                 parts: dict[int, dict[str, np.ndarray]]):
        self.tangents, self.last, self.parts = tangents, last, parts

    def val(self, t: Tensor) -> _Dual:
        dt = self.tangents.get(t.node)
        if dt is None and self.last is not None and t is self.last.output:
            dt, self.last = _forward_tangent(self.last, self.tangents, self.parts), None
        return _Dual(t.values, dt)

    def tangent(self, t: Tensor) -> np.ndarray | None:
        """The tangent of ``t``, None for a zero tangent.  Never that of
        ``last``'s output: only the cross-entropy's array rule can run on
        the scalar's own record, and it reads its input's tangent alone."""
        return self.tangents.get(t.node)

    plain = staticmethod(operator.attrgetter("v"))

    @staticmethod
    def constant(v: np.ndarray) -> _Dual:
        return _Dual(v, None)

    @staticmethod
    def filled(fill: float, shape: tuple[int, ...]) -> _Dual:
        return _Dual(_filled(fill, shape).values, None)


_RECORDED = _Recorded()
_ARRAYS = _Arrays()


def _unbroadcast(o, g, shape: tuple[int, ...]):
    """Reduce a broadcast gradient back to the operand's shape."""
    gs = g.shape
    if gs == shape:
        return g
    if shape == (1,):
        return o.sum_(g)
    if len(shape) == 2 and len(gs) == 2 and shape[0] == gs[0] and shape[1] == 1:
        return o.sum_(g, axis=1, keepdims=True)
    if len(shape) == 2 and len(gs) == 2 and shape[1] == gs[1] and shape[0] == 1:
        return o.sum_(g, axis=0, keepdims=True)
    if len(shape) == 1 and len(gs) == 2 and shape[0] == gs[1]:
        return o.sum_(g, axis=0)
    raise ShapeMismatchError(f"cannot reduce gradient {gs} to {shape}")


def _bw_add(o, inputs, out, g, attrs):
    a, b = inputs
    return (_unbroadcast(o, g, a.shape) if a.node is not None else None,
            _unbroadcast(o, g, b.shape) if b.node is not None else None)


def _bw_sub(o, inputs, out, g, attrs):
    a, b = inputs
    return (_unbroadcast(o, g, a.shape) if a.node is not None else None,
            _unbroadcast(o, o.scalar_mul(g, c=-1.0), b.shape) if b.node is not None else None)


def _bw_mul(o, inputs, out, g, attrs):
    a, b = inputs
    return (_unbroadcast(o, o.mul(g, o.val(b)), a.shape) if a.node is not None else None,
            _unbroadcast(o, o.mul(g, o.val(a)), b.shape) if b.node is not None else None)


def _bw_div(o, inputs, out, g, attrs):
    a, b = inputs
    bv = o.val(b)
    ga = gb = None
    if a.node is not None:
        ga = _unbroadcast(o, o.div(g, bv), a.shape)
    if b.node is not None:
        gb = _unbroadcast(o, o.scalar_mul(o.mul(g, o.div(o.val(out), bv)), c=-1.0), b.shape)
    return ga, gb


def _bw_scalar_mul(o, inputs, out, g, attrs):
    return (o.scalar_mul(g, c=attrs["c"]),)


def _bw_matmul(o, inputs, out, g, attrs):
    # out = A'B' with A' = op(a), B' = op(b): dA' = g B'ᵀ and dB' = A'ᵀ g, and
    # a transposed operand takes the transpose of its adjoint (ᵀ swaps the last
    # two axes, so 3-d operands follow the same rule).  Each case is one
    # flagged matmul, so the rule needs no separate transpose at any order.
    a, b = inputs
    ta, tb = attrs["ta"], attrs["tb"]
    ga = gb = None
    if a.node is not None:
        bv = o.val(b)
        ga = o.matmul(bv, g, ta=tb, tb=True) if ta else o.matmul(g, bv, tb=not tb)
    if b.node is not None:
        av = o.val(a)
        gb = o.matmul(g, av, ta=True, tb=ta) if tb else o.matmul(av, g, ta=not ta)
    return ga, gb


def _bw_dense(o, inputs, out, g, attrs):
    # The tanh, add and matmul rules in the unfused chain's order.
    x, w, b = inputs
    if attrs["tanh"]:
        if type(o) is _Arrays and o.parts is not None:
            # _bw_tanh's bits, with 1 - y² and g·(1 - y²) kept apart
            d = _tanh_slope(out.values)
            g = np.multiply(g, d)
            o.keep(out, d=d, gd=g)
        else:
            (g,) = _bw_tanh(o, inputs, out, g, attrs)
    gb = _unbroadcast(o, g, b.shape) if b.node is not None else None
    return (*_bw_matmul(o, (x, w), out, g, _NO_FLAGS), gb)


def _tanh_slope(y: np.ndarray) -> np.ndarray:
    """1 - y², with the composed rule's bits, in one fresh buffer."""
    d = np.multiply(y, y)
    np.subtract(1.0, d, out=d)
    return d


def _bw_tanh(o, inputs, out, g, attrs):
    y = o.val(out)
    if type(o) is _Arrays:
        # The composed rule's bits in one fresh buffer.  g may be a kept
        # adjoint and y is a stored value, so neither is written.
        s = _tanh_slope(y)
        return (np.multiply(g, s, out=s),)
    return (o.mul(g, o.sub(o.filled(1.0, (1,)), o.mul(y, y))),)


def _bw_exp(o, inputs, out, g, attrs):
    return (o.mul(g, o.val(out)),)


def _bw_sum(o, inputs, out, g, attrs):
    (a,) = inputs
    axis, keepdims = attrs["axis"], attrs["keepdims"]
    if axis is not None and not keepdims:
        kshape = list(a.shape)
        kshape[axis % len(a.shape)] = 1
        g = o.reshape(g, shape=tuple(kshape))
    return (o.mul(g, o.filled(1.0, a.shape)),)


def _bw_l2_norm(o, inputs, out, g, attrs):
    (a,) = inputs
    return (o.mul(o.val(a), o.div(g, o.val(out))),)


def _bw_dot(o, inputs, out, g, attrs):
    a, b = inputs
    return (o.mul(o.val(b), g) if a.node is not None else None,
            o.mul(o.val(a), g) if b.node is not None else None)


def _bw_concat(o, inputs, out, g, attrs):
    axis = attrs["axis"]
    grads, offset = [], 0
    for t in inputs:
        width = t.shape[axis]
        grads.append(o.slice_(g, axis=axis, start=offset, stop=offset + width)
                     if t.node is not None else None)
        offset += width
    return tuple(grads)


def _bw_slice(o, inputs, out, g, attrs):
    (a,) = inputs
    axis, start, stop = attrs["axis"], attrs["start"], attrs["stop"]
    parts = []
    if start > 0:
        before = list(a.shape)
        before[axis] = start
        parts.append(o.filled(0.0, tuple(before)))
    parts.append(g)
    if stop < a.shape[axis]:
        after = list(a.shape)
        after[axis] = a.shape[axis] - stop
        parts.append(o.filled(0.0, tuple(after)))
    return (o.concat(parts, axis=axis) if len(parts) > 1 else g,)


def _bw_reshape(o, inputs, out, g, attrs):
    return (o.reshape(g, shape=inputs[0].shape),)


def _bw_softmax_cross_entropy(o, inputs, out, g, attrs):
    (logits,) = inputs
    labels = attrs["labels"]
    n, k = logits.shape
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    if type(o) is _Arrays and "kept" in attrs:
        d = attrs["kept"][2] - onehot
        o.keep(out, d=d)
        return (d * (g * (1.0 / n)),)
    # Composed, so that a recorded sweep leaves p on the tape as a function
    # of the logits for double backprop.  Row max is detached: softmax is
    # shift-invariant, so the composite value and all its derivatives are
    # exact with m held constant.
    m = o.constant(_max(logits.values, axis=1, keepdims=True))
    e = o.exp(o.sub(o.val(logits), m))
    p = o.div(e, o.sum_(e, axis=1, keepdims=True))
    return (o.mul(o.sub(p, o.constant(onehot)), o.scalar_mul(g, c=1.0 / n)),)


def _softmax_adjoint(p: np.ndarray, g: np.ndarray, e: np.ndarray, s: np.ndarray,
                     c: float) -> tuple:
    """(g/s, p/s, ge, the input's adjoint) of a softmax of output p and kept
    e and s, on arrays: the composed chain's rules, last op first (reshape,
    div, sum, exp, sub and scalar_mul), with the same arithmetic; the sum
    rule's product with ones is exact."""
    rows = e.shape
    g = g.reshape(rows)
    ga, q = g / s, p.reshape(rows) / s
    ge = ga + _row_sum(g * q * -1.0)
    return ga, q, ge, (ge * e).reshape(p.shape) * c


def _composed_softmax(o, a, c: float) -> tuple:
    """(e, s, p) of the softmax of c·a over the last axis of ``a``, in rows
    and in the interpreter's form: the chain scalar_mul by c, reshape to
    rows, e = exp(z - m), its row sums s (keepdims) and p = e / s, so that
    a recorded sweep leaves them on the tape as functions of a for double
    backprop.  The row max m is detached: softmax is shift-invariant."""
    shape = a.shape
    z = o.reshape(o.scalar_mul(a, c=c), shape=(math.prod(shape[:-1]), shape[-1]))
    e = o.exp(o.sub(z, o.constant(_max(o.plain(z), axis=1, keepdims=True))))
    s = o.sum_(e, axis=1, keepdims=True)
    return e, s, o.div(e, s)


def _composed_softmax_adjoint(o, e, s, p, g, shape: tuple[int, ...], c: float):
    """The adjoint of the input, of ``shape``, of ``_composed_softmax``'s
    chain from the adjoint g of its output p reshaped back: the chain's
    rules, last op first (reshape, div, sum, exp, sub and scalar_mul)."""
    rows = e.shape
    g = o.reshape(g, shape=rows)
    gs = o.sum_(o.scalar_mul(o.mul(g, o.div(p, s)), c=-1.0), axis=1, keepdims=True)
    ge = o.add(o.div(g, s), o.mul(gs, o.filled(1.0, rows)))
    return o.scalar_mul(o.reshape(o.mul(ge, e), shape=shape), c=c)


def _bw_attention(o, inputs, out, g, attrs):
    x, wq, wk, wv = inputs
    if type(o) is _Arrays and "kept" in attrs:
        return _bw_attention_arrays(o, inputs, out, g, attrs)
    # The chain recomposed from its ops, then its rules last record first,
    # so that a recorded sweep leaves q, k, v and p on the tape as
    # functions of the inputs for double backprop.
    seq_len, b, (c, a) = attrs["seq_len"], x.shape[0], wq.shape
    rows = o.reshape(o.val(x), shape=(b * seq_len, c))
    q, k, v = (o.reshape(o.matmul(rows, o.val(w)), shape=(b, seq_len, a))
               for w in (wq, wk, wv))
    z = o.matmul(q, k, tb=True)
    e, s, p = _composed_softmax(o, z, 1.0 / math.sqrt(a))
    gm = o.matmul(o.filled(1.0 / seq_len, (b, 1, seq_len)), o.reshape(g, shape=(b, 1, a)),
                  ta=True)
    gp = o.matmul(gm, v, tb=True)
    gv = o.matmul(o.reshape(p, shape=z.shape), gm, ta=True)
    gz = _composed_softmax_adjoint(o, e, s, p, gp, z.shape, 1.0 / math.sqrt(a))
    gq, gk = o.matmul(gz, k), o.matmul(gz, q, ta=True)
    ws = (wq, wk, wv)
    gs = [o.reshape(gw, shape=(b * seq_len, a)) for gw in (gq, gk, gv)]
    gx = None
    if x.node is not None:   # the rows' adjoint sums the projections', v's first
        for w, gw in zip(ws[::-1], gs[::-1]):
            gr = o.matmul(gw, o.val(w), tb=True)
            gx = gr if gx is None else o.add(gx, gr)
        gx = o.reshape(gx, shape=x.shape)
    return gx, *(o.matmul(rows, gw, ta=True) if w.node is not None else None
                 for w, gw in zip(ws, gs))


def _bw_attention_arrays(o, inputs, out, g, attrs):
    # The chain's rules on the kept parts, last record first: the pooling,
    # the mixing, the softmax, the scores and the three projections.  Each
    # adjoint a record of the chain took is checked as _reverse checked it,
    # and each flagged operand is copied to C order once.  grad_and_hvp's
    # sweep keeps the copies and the inner adjoints for the H·v passes.
    x, wq, wk, wv = inputs
    seq_len, kept = attrs["seq_len"], attrs["kept"]
    q, k, v, p = kept["q"], kept["k"], kept["v"], kept["p"]
    b, _, a = q.shape
    tq, tk, tv = (x.node is not None or w.node is not None for w in (wq, wk, wv))
    gm = _pool_column(b, seq_len) @ g.reshape(b, 1, a)
    _array_check(gm, "attention")
    parts = {"gm": gm}
    if tv:
        parts["pT"] = _transposed(p, False)
        parts["gv"] = parts["pT"] @ gm
    if tq or tk:   # p is tracked
        parts["vT"] = _transposed(v, False)
        parts["gp"] = gp = gm @ parts["vT"]
        _array_check(gp, "attention")
        ga, pq, ge, gz = _softmax_adjoint(p, gp, kept["e"], kept["s"], 1.0 / math.sqrt(a))
        _array_check(gz, "attention")
        parts.update(ga=ga, q=pq, ge=ge, gz=gz)
        if tq:
            parts["gq"] = gz @ k
        if tk:
            parts["gzT"] = _transposed(gz, False)
            parts["gk"] = parts["gzT"] @ q
    # the projections' adjoints as rows [B·seq_len, A], checked v's first
    ws = {"q": wq, "k": wk, "v": wv}
    rows_adj = {n: parts["g" + n].reshape(-1, a) for n in "vkq" if "g" + n in parts}
    for gw in rows_adj.values():
        _array_check(gw, "attention")
    grads = [None] * 3
    if wq.node is not None or wk.node is not None or wv.node is not None:
        parts["rowsT"] = rt = _transposed(x.values.reshape(b * seq_len, -1), False)
        grads = [rt @ rows_adj[n] if ws[n].node is not None else None for n in "qkv"]
    gx = None
    if x.node is not None:   # the rows' adjoint sums the projections', v's first
        for n in "vkq":
            gr = rows_adj[n] @ _transposed(ws[n].values, False)
            gx = gr if gx is None else np.add(gx, gr)
        _array_check(gx, "attention")
        gx = gx.reshape(x.shape)
    o.keep(out, **parts)
    return gx, *grads


# Tangent-sweep rules, one per kind: ``sweep(o, rec, g, gt)`` gets the
# _Duals interpreter, a record, its output's adjoint g and g's tangent gt
# (None for zero), and returns the tangents of its inputs' adjoints (None
# for zero).  ``_dual_sweep``, the _Duals interpretation of the backward
# rule, is the reference and serves most kinds; the array rules below, for
# the kinds the models sweep, have its bits on plain arrays and read the
# parts ``grad_and_hvp``'s passes kept in the record (``o.parts``).  An
# attention or cross-entropy record without its ``kept`` attrs gets none;
# only ``_dual_sweep`` sweeps it.

def _dual_sweep(o, rec, g, gt) -> list:
    grads = _OPS[rec.kind].backward(o, rec.inputs, rec.output, _Dual(g, gt), rec.attrs)
    return [d if d is None else d.t for d in grads]


def _product_tangent(kernel: Callable, a, at, b, bt, **attrs):
    """The tangent of the bilinear ``kernel(a, b)`` (None for zero ones)."""
    if at is None:
        return None if bt is None else _stored(kernel(a, bt, **attrs))
    if bt is None:
        return _stored(kernel(at, b, **attrs))
    return _stored(kernel(at, b, **attrs) + kernel(a, bt, **attrs))


def _sweep_matmul(o, rec, g, gt) -> tuple:
    # also the x·w of a dense record: its first two inputs, unflagged
    a, b = rec.inputs[:2]
    ta, tb = rec.attrs.get("ta", False), rec.attrs.get("tb", False)
    k, ga, gb = _matmul_kernel, None, None
    if a.node is not None:
        bv, bt = b.values, o.tangent(b)
        ga = (_product_tangent(k, bv, bt, g, gt, ta=tb, tb=True) if ta
              else _product_tangent(k, g, gt, bv, bt, tb=not tb))
    if b.node is not None:
        av, at = a.values, o.tangent(a)
        gb = (_product_tangent(k, g, gt, av, at, ta=True, tb=ta) if tb
              else _product_tangent(k, av, at, g, gt, ta=not ta))
    return ga, gb


def _sweep_dense(o, rec, g, gt):
    x, w, b = rec.inputs
    if rec.attrs["tanh"]:
        # g·(1 - y²), with the tangent of y² by the product rule
        y, yt = rec.output.values, o.tangent(rec.output)
        kept = o.parts[rec.output.node]
        t = None if yt is None else yt * y   # ẏ·y and y·ẏ are the same float
        dt = None if t is None else -(t + t)
        g, gt = kept["gd"], _product_tangent(np.multiply, g, gt, kept["d"], dt)
    gb = None if b.node is None or gt is None else _unbroadcast(_ARRAYS, gt, b.shape)
    return (*_sweep_matmul(o, rec, g, gt), gb)


def _softmax_sweep(p, g, gt, moved: bool, c: float, e, s, kept: dict):
    """The tangent of the input's adjoint of a softmax of output p, from its
    output's adjoint g and g's tangent gt (None for zero), on the parts
    kept in ``kept``; ``moved`` tells whether the input has a tangent."""
    shape = p.shape
    p, g = p.reshape(e.shape), g.reshape(e.shape)
    gt = None if gt is None else gt.reshape(e.shape)
    et, qt = None, None
    # the first-order sweep's g/s, p/s and ge; the tangent pass's ė, ṡ and
    # ṗ, which it kept exactly when the input moved
    ga, q = kept["ga"], kept["q"]
    gat = None if gt is None else gt / s
    if moved:   # the tangents of e, s and p, then the div rules'
        et, st, pt = kept["et"], kept["st"], kept["pt"]
        dq = ga * st
        gat = (-dq if gt is None else gt - dq) / s
        qt = (pt - q * st) / s
    rt = _product_tangent(np.multiply, g, gt, q, qt)
    if rt is not None:   # the sum rule; its product with ones is exact
        gst = _row_sum(rt * -1.0)
        gat = np.broadcast_to(gst, p.shape) if gat is None else gat + gst
    ge = None if et is None else kept["ge"]
    gzt = _product_tangent(np.multiply, ge, gat, e, et)
    return None if gzt is None else _stored(gzt.reshape(shape) * c)


def _sweep_attention(o, rec, g, gt):
    # The chain's sweep rules, last record first, on the parts the
    # first-order sweep and the tangent pass kept.  Each adjoint tangent a
    # record of the chain took is checked as _tangent_sweep checked it.
    x, wq, wk, wv = rec.inputs
    kept, parts = rec.attrs["kept"], o.parts[rec.output.node]
    q, k, p = kept["q"], kept["k"], kept["p"]
    b, seq_len, a = q.shape
    ws = {"q": wq, "k": wk, "v": wv}
    gm = parts["gm"]
    gmt = (None if gt is None
           else _checked_tangent(_pool_column(b, seq_len) @ gt.reshape(b, 1, a)))
    dots = {}   # the tangents of the projections' adjoints
    if "gv" in parts:
        dots["v"] = _product_tangent(np.matmul, parts["pT"],
                                     _transposed_or_none(_reshaped(parts.get("pt"), p.shape)),
                                     gm, gmt)
    if "gp" in parts:
        gpt = _product_tangent(np.matmul, gm, gmt, parts["vT"],
                               _transposed_or_none(parts.get("vt")))
        gzt = _checked_tangent(_softmax_sweep(
            p, parts["gp"], _checked_tangent(gpt), "zt" in parts, 1.0 / math.sqrt(a),
            kept["e"], kept["s"], parts))
        if "gq" in parts:
            dots["q"] = _product_tangent(np.matmul, parts["gz"], gzt, k, parts.get("kt"))
        if "gk" in parts:
            dots["k"] = _product_tangent(np.matmul, parts["gzT"], _transposed_or_none(gzt),
                                         q, parts.get("qt"))
    rows_adj, rows_dot = {}, {}
    for n in "vkq":
        if "g" + n in parts:
            rows_adj[n] = parts["g" + n].reshape(-1, a)
            rows_dot[n] = _reshaped(_checked_tangent(dots[n]), (-1, a))
    rtt = _transposed_or_none(parts.get("rt"))
    grads = [None if ws[n].node is None else
             _product_tangent(np.matmul, parts["rowsT"], rtt, rows_adj[n], rows_dot[n])
             for n in "qkv"]
    gxt = None
    if x.node is not None:   # the rows' adjoint tangent sums the projections', v's first
        for n in "vkq":
            w = ws[n]
            d = _product_tangent(np.matmul, rows_adj[n], rows_dot[n],
                                 _transposed(w.values, False), _transposed_or_none(o.tangent(w)))
            if d is not None:
                gxt = d if gxt is None else gxt + d
        gxt = _reshaped(_checked_tangent(gxt), x.shape)
    return gxt, *grads


def _checked_tangent(t: np.ndarray | None) -> np.ndarray | None:
    if t is not None:
        _array_check(t, "attention")
    return t


def _sweep_softmax_cross_entropy(o, rec, g, gt):
    (z,) = rec.inputs
    e, s, p = rec.attrs["kept"]
    zt, c = o.tangent(z), 1.0 / z.shape[0]
    pt = None if zt is None else _softmax_tangents(zt, 1.0, e, s, p)[2]   # ż·1 is exact
    d = o.parts[rec.output.node]["d"]
    return (_product_tangent(np.multiply, d, pt, g * c, None if gt is None else gt * c),)


# ---------------------------------------------------------------------------
# The op registry: one entry per op kind, read by every op, interpreter,
# sweep and replay.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class _Op:
    """One op kind: its public recorded op, its kernel, its tangent rule,
    its backward rule and its tangent-sweep rule.  ``kernel(*values,
    **attrs)`` computes the value from the input values, in the form values
    are stored in (at least 1-d and C-contiguous) when the inputs are in
    that form.  ``sweep`` is how ``grad_and_hvp``'s H·v passes an adjoint's
    tangent back through a record: ``_dual_sweep`` (the reference) or,
    for the kinds the models sweep, the kind's own array rule."""

    public: Callable
    kernel: Callable
    tangent: Callable
    backward: Callable
    sweep: Callable


def _linear(public: Callable, kernel: Callable, backward: Callable) -> _Op:
    """An op linear in its one input: the tangent is the kernel of the
    tangent."""
    def tangent(vs, ts, out, attrs, kept=None):
        return _stored(kernel(ts[0], **attrs))
    return _Op(public, kernel, tangent, backward, _dual_sweep)


def _bilinear(public: Callable, kernel: Callable, backward: Callable,
              sweep: Callable = _dual_sweep) -> _Op:
    """An op linear in each of its two inputs (product rule)."""
    def tangent(vs, ts, out, attrs, kept=None):
        return _product_tangent(kernel, vs[0], ts[0], vs[1], ts[1], **attrs)
    return _Op(public, kernel, tangent, backward, sweep)


_OPS: dict[str, _Op] = {
    "add": _Op(add, np.add, _tangent_add, _bw_add, _dual_sweep),
    "sub": _Op(sub, np.subtract, _tangent_sub, _bw_sub, _dual_sweep),
    "mul": _bilinear(mul, np.multiply, _bw_mul),
    "div": _Op(div, _div_kernel, _tangent_div, _bw_div, _dual_sweep),
    "scalar_mul": _linear(scalar_mul, lambda a, c: a * c, _bw_scalar_mul),
    "matmul": _bilinear(matmul, _matmul_kernel, _bw_matmul, _sweep_matmul),
    "dense": _Op(dense, _dense_kernel, _tangent_dense, _bw_dense, _sweep_dense),
    "tanh": _Op(tanh, np.tanh, lambda vs, ts, out, attrs, kept=None: ts[0] * (1.0 - out * out),
                _bw_tanh, _dual_sweep),
    "exp": _Op(exp, np.exp, lambda vs, ts, out, attrs, kept=None: ts[0] * out, _bw_exp,
               _dual_sweep),
    "sum": _linear(sum_, lambda a, axis=None, keepdims=False: _stored(
        _sum(a, axis=axis, keepdims=keepdims)), _bw_sum),
    "l2_norm": _Op(l2_norm, lambda a: _stored(np.sqrt(_sum(a * a, axis=None))),
                   lambda vs, ts, out, attrs, kept=None: _sum(vs[0] * ts[0], axis=None) / out,
                   _bw_l2_norm, _dual_sweep),
    "dot": _bilinear(dot, lambda a, b: _stored(np.dot(a, b)), _bw_dot),
    "concat": _Op(concat, lambda *parts, axis: _stored(np.concatenate(parts, axis=axis)),
                  _tangent_concat, _bw_concat, _dual_sweep),
    "slice": _linear(slice_, lambda a, axis, start, stop: _stored(a[tuple(
        slice(start, stop) if i == axis else slice(None) for i in range(a.ndim))]), _bw_slice),
    "reshape": _linear(reshape, lambda a, shape: a.reshape(shape), _bw_reshape),
    "attention": _Op(attention, lambda x, wq, wk, wv, seq_len: _attention_parts(
        x, wq, wk, wv, seq_len)[0], _tangent_attention, _bw_attention, _sweep_attention),
    "softmax_cross_entropy": _Op(softmax_cross_entropy, _softmax_cross_entropy_kernel,
                                 _tangent_softmax_cross_entropy, _bw_softmax_cross_entropy,
                                 _sweep_softmax_cross_entropy),
}

OP_KINDS = tuple(_OPS)


def _call_form(op: _Op, run: Callable) -> staticmethod:
    """``run(*inputs, **attrs)`` as an interpreter op, called as ``op.public``
    is: the inputs, then the attrs by keyword; concat takes one list."""
    if op.public is concat:
        return staticmethod(lambda parts, axis=0: run(*parts, axis=axis))
    return staticmethod(run)


def _dual_op(op: _Op) -> staticmethod:
    kernel, tangent = op.kernel, op.tangent

    def run(*ins: _Dual, **attrs) -> _Dual:
        vs, ts = [d.v for d in ins], [d.t for d in ins]
        out = kernel(*vs, **attrs)
        return _Dual(out, None if all(t is None for t in ts) else tangent(vs, ts, out, attrs))
    return _call_form(op, run)


for _op in _OPS.values():
    setattr(_Arrays, _op.public.__name__, _call_form(_op, _op.kernel))
    setattr(_Duals, _op.public.__name__, _dual_op(_op))
del _op


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamLayout:
    """Ordered (name, shape, offset) triples describing a flat parameter vector."""

    entries: tuple[tuple[str, tuple[int, ...], int], ...]
    total: int

    @classmethod
    def of(cls, named_shapes: Iterable[tuple[str, tuple[int, ...]]]) -> "ParamLayout":
        """The layout of ``named_shapes``, in their order.  Built on each call;
        ``model.param_layout`` keeps one per model spec."""
        entries, offset = [], 0
        for name, shape in named_shapes:
            shape = tuple(int(s) for s in shape)
            entries.append((name, shape, offset))
            offset += math.prod(shape)
        return cls(tuple(entries), offset)

    def unflatten(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """The arrays of ``vec`` by name.  They are views of one fresh copy of
        ``vec``, so writing ``vec`` afterwards changes none of them."""
        return self.views(np.array(vec, dtype=np.float64).reshape(-1))

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """The arrays of the 1-d float64 vector ``vec`` by name, as views of
        ``vec`` itself: no copy, and as writable as ``vec`` is."""
        if vec.shape != (self.total,):
            raise ShapeMismatchError(f"vector of shape {vec.shape} != layout total {self.total}")
        return {name: vec[offset:offset + math.prod(shape)].reshape(shape)
                for name, shape, offset in self.entries}

    def flatten(self, arrays: Mapping[str, np.ndarray]) -> np.ndarray:
        parts = []
        for name, shape, _ in self.entries:
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != shape:
                raise ShapeMismatchError(f"{name}: expected shape {shape}, got {arr.shape}")
            parts.append(arr.reshape(-1))
        return np.concatenate(parts) if parts else np.zeros(0)


def backward(scalar: Tensor, wrt: Mapping[str, Tensor], create_graph: bool = False) -> Tensor:
    """Reverse sweep: d(scalar)/d(wrt) as one flat tensor, in ``wrt``'s order.

    With ``create_graph=True`` the adjoint computations are themselves
    recorded, so the returned flat gradient is a tape node and supports a
    further backward pass (second order).  Otherwise the sweep runs on plain
    arrays, records nothing, and returns a constant with the same bits;
    ``NonFiniteError`` is raised when any adjoint it stores holds NaN or Inf.
    """
    tape, items = _sweep_inputs("backward", scalar, wrt)
    if create_graph:
        return _flat(_reverse(_RECORDED, tape, scalar), items)
    return _wrap(_flat_array(_reverse(_ARRAYS, tape, scalar), items))


def grad_and_hvp(scalar: Tensor, wrt: Mapping[str, Tensor]
                 ) -> tuple[Tensor, Callable[[np.ndarray], Tensor]]:
    """``(grad, hv)`` of a scalar already recorded on the active tape:
    ``grad`` is its first-order ``backward`` w.r.t. ``wrt``, with the same
    bits, and ``hv(v)`` the exact Hessian-vector product H·v (flattened in
    ``wrt``'s order, as ``backward`` flattens) for any v.  Neither records
    anything.

    Forward mode over the reverse sweep (Pearlmutter's R{·} operator), run
    as the second-order adjoint mode of Griewank & Walther (*Evaluating
    Derivatives*, 2nd ed., ch. 5).  One first-order sweep on plain arrays
    keeps the adjoint of every record it reaches, and the parts its dense,
    attention and cross-entropy rules form that the H·v passes read again.
    Each ``hv`` call then carries v from the ``wrt`` leaves through the
    records the sweep reached (the only tangents any sweep rule reads), and
    sweeps back only the tangents of the kept adjoints; the tangent of the
    gradient is H·v.  Each record passes its adjoint's tangent back by its
    kind's one rule, ``_Op.sweep``, which has the bits of ``_dual_sweep``:
    the backward rule run on (value, tangent) pairs with the kept adjoint as
    the value.  The tangent pass hands its tangents of an attention
    block's parts to the sweep in a copy of the parts per call, so no call
    reads another's.  Sweeping every kind by ``_dual_sweep`` instead made
    the step p50 +67 % on attn-exact and +12 % on pair-compare (38 and 34
    of 40 in-process rounds slower).

    ``hv`` holds one adjoint per record reached, as large as the
    activations, and the records themselves: let go of it with the tape.
    ``NonFiniteError`` is raised when any first-order adjoint, or the
    tangent of any adjoint an ``hv`` sweep stores, holds NaN or Inf, and so
    whenever a result would.
    """
    tape, items = _sweep_inputs("grad_and_hvp", scalar, wrt)
    adjoints, o = {}, _Arrays({})
    grad = _wrap(_flat_array(_reverse(o, tape, scalar, adjoints), items))
    records = [rec for rec in tape.records if rec.output.node in adjoints]
    # The scalar's own record comes last.  The tangent pass stops before it:
    # only a backward rule that reads its output needs its tangent, and
    # ``_Duals.val`` computes it then.
    before, last = records[:-1], (records[-1] if records else None)
    total = grad.size

    def hv(v: np.ndarray) -> Tensor:
        v = np.asarray(v, dtype=np.float64).reshape(-1)
        if v.size != total:
            raise ShapeMismatchError(f"grad_and_hvp: v has length {v.size}, expected {total}")
        tangents, offset = {}, 0
        for _, t in items:
            tangents[t.node] = v[offset:offset + t.size].reshape(t.shape)
            offset += t.size
        parts = {node: dict(p) for node, p in o.parts.items()}
        for rec in before:
            _forward_tangent(rec, tangents, parts)
        return _wrap(_flat_array(_tangent_sweep(records, adjoints, tangents, last, parts), items))

    return grad, hv


def hvp_recorded(scalar: Tensor, wrt: Mapping[str, Tensor], v: np.ndarray) -> Tensor:
    """Exact Hessian-vector product H·v of a scalar already recorded on the
    active tape, w.r.t. ``wrt``, recording nothing: ``grad_and_hvp``'s
    ``hv(v)``, from a first-order sweep of its own."""
    return grad_and_hvp(scalar, wrt)[1](v)


def _sweep_inputs(caller: str, scalar: Tensor,
                  wrt: Mapping[str, Tensor]) -> tuple[Tape, list[tuple[str, Tensor]]]:
    """The active tape and the (name, leaf) pairs of a sweep from ``scalar``,
    after checking that both are on that tape."""
    if scalar.node is None:
        raise TapeError(f"{caller}: scalar is not on a tape")
    if scalar.shape != (1,):
        raise ShapeMismatchError(f"{caller}: expected scalar of shape (1,), got {scalar.shape}")
    tape = active_tape()
    if tape is None or scalar.generation != tape.generation:
        raise TapeError(f"{caller}: scalar does not belong to the active tape")
    items = list(wrt.items())
    for name, t in items:
        if t.node is None or t.generation != tape.generation:
            raise TapeError(f"{caller}: parameter {name!r} is not on the active tape")
    return tape, items


def _reverse(o, tape: Tape, scalar: Tensor, kept: dict | None = None) -> dict:
    """Run the backward rules through interpreter ``o`` from ``scalar``;
    returns the adjoints left at the leaves, by node, after checking every
    adjoint of a record output but the seed of ones (the caller checks the
    leaves').  ``kept``, if given, receives the adjoint of every record
    output the sweep reaches."""
    seed = o.filled(1.0, (1,))
    adjoint = {scalar.node: seed}
    pop, get, check = adjoint.pop, adjoint.get, o.check
    # A create_graph sweep appends to the tape it walks; walk the snapshot.
    for rec in reversed(tape.records[:]):
        g = pop(rec.output.node, None)
        if g is None:
            continue
        if g is not seed:
            check(g, rec.kind)
        if kept is not None:
            kept[rec.output.node] = g
        grads = _OPS[rec.kind].backward(o, rec.inputs, rec.output, g, rec.attrs)
        for t, gt in zip(rec.inputs, grads):
            if gt is None or t.node is None:
                continue
            cur = get(t.node)
            adjoint[t.node] = gt if cur is None else o.add(cur, gt)
    return adjoint


def _forward_tangent(rec: OpRecord, tangents: dict[int, np.ndarray],
                     parts: dict[int, dict[str, np.ndarray]]) -> np.ndarray | None:
    """The tangent of ``rec``'s output, added to ``tangents``; None when it
    is zero.  The tangent rule gets the record's ``parts`` (None for none)."""
    ts = [tangents.get(t.node) for t in rec.inputs]
    if all(t is None for t in ts):
        return None
    dt = tangents[rec.output.node] = _OPS[rec.kind].tangent(
        [t.values for t in rec.inputs], ts, rec.output.values, rec.attrs,
        parts.get(rec.output.node))
    return dt


def _tangent_sweep(records: list[OpRecord], adjoints: Mapping[int, np.ndarray],
                   tangents: dict[int, np.ndarray], last: OpRecord | None,
                   parts: dict[int, dict[str, np.ndarray]]) -> dict[int, np.ndarray]:
    """The reverse sweep of tangents only: each of ``records``, all of which
    the first-order sweep reached, passes the tangent of its output's
    adjoint in ``adjoints`` back to its inputs by its kind's ``sweep`` rule,
    which may read the record's ``parts``.  Returns the tangents left at the
    leaves, by node, unchecked."""
    o = _Duals(tangents, last, parts)
    dots: dict[int, np.ndarray] = {}
    pop, get = dots.pop, dots.get
    for rec in reversed(records):
        gt = pop(rec.output.node, None)
        if gt is not None:
            _array_check(gt, rec.kind)
        for t, dt in zip(rec.inputs, _OPS[rec.kind].sweep(o, rec, adjoints[rec.output.node], gt)):
            if dt is None or t.node is None:
                continue
            cur = get(t.node)
            dots[t.node] = dt if cur is None else cur + dt
    return dots


def _flat(adjoint: dict[int, Tensor], items: list[tuple[str, Tensor]]) -> Tensor:
    """The flat adjoint of the leaves of ``items`` as a recorded tensor, from
    the leaf adjoints a recorded sweep left (each already checked by the op
    that made it)."""
    parts = []
    for _, t in items:
        gt = adjoint.get(t.node)
        if gt is None:
            gt = constant(np.zeros(t.size))
        elif gt.shape != (t.size,):
            gt = _RECORDED.reshape(gt, shape=(t.size,))
        parts.append(gt)
    return parts[0] if len(parts) == 1 else _RECORDED.concat(parts, axis=0)


def _flat_array(adjoint: dict[int, np.ndarray], items: list[tuple[str, Tensor]]) -> np.ndarray:
    """The flat adjoint of the leaves of ``items``, written into one fresh
    buffer from the leaf adjoints a sweep on arrays left, and checked once.
    Those adjoints are taken out of ``adjoint`` (the sweep's own dict), so
    what is left there is the adjoint of any other leaf the sweep reached,
    each checked on its own."""
    parts = []
    for _, t in items:
        gt = adjoint.pop(t.node, None)
        if gt is not None:
            parts.append(gt.reshape(-1))
        else:   # not reached, or a leaf listed before under another name
            parts.append(next((p for (_, u), p in zip(items, parts) if u.node == t.node),
                              np.zeros(t.size)))
    flat = np.concatenate(parts)
    _array_check(flat, "leaf")
    for gt in adjoint.values():
        _array_check(gt, "leaf")
    return flat


def hvp(loss_eval: Callable[[dict[str, Tensor]], Tensor],
        params: Mapping[str, np.ndarray],
        v: np.ndarray) -> Tensor:
    """Hessian-vector product H·v of a scalar loss at ``params``.

    Computed without materializing H: one create_graph backward gives the
    gradient g as tape nodes, then backward of gᵀv gives H·v exactly.
    """
    layout = ParamLayout.of((name, np.asarray(a).shape) for name, a in params.items())
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.size != layout.total:
        raise ShapeMismatchError(f"hvp: v has length {v.size}, expected {layout.total}")
    with new_tape():
        leaves = {name: leaf(a) for name, a in params.items()}
        loss = loss_eval(leaves)
        g = backward(loss, leaves, create_graph=True)
        return backward(dot(g, constant(v)), leaves, create_graph=False)
