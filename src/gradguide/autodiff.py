"""Tape-based reverse-mode automatic differentiation.

Every operation records onto an explicit tape.  Each backward rule is
written once and runs in one of two ways.  With ``create_graph=True`` it runs
through the recorded operations, which leaves the gradient entries on the
tape as ordinary nodes, so a second ``backward`` through any scalar function
of them yields exact second-order derivatives (the double-backprop needed for
gradient-of-gradient penalties and Hessian-vector products).  Otherwise it
runs the same numpy expressions on plain arrays, with the same bits.

All values are float64.  Scalars are rank-1 tensors of shape ``(1,)``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np


class AutodiffError(Exception):
    """Base class for tape/op failures."""


class ShapeMismatchError(AutodiffError):
    """Operands have shapes the operation cannot accept."""


class DomainError(AutodiffError):
    """Argument outside the operation's domain (log of nonpositive, division by zero)."""


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

    # Operator sugar; all dispatch to the recorded ops below.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scalar_mul(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return scalar_mul(self, float(other))
        return mul(other, self)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return scalar_mul(self, 1.0 / float(other))
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scalar_mul(self, -1.0)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


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
        """Re-run every recorded forward kernel and compare bit-exactly."""
        for rec in self.records:
            value = _KERNELS[rec.kind](*(t.values for t in rec.inputs), **rec.attrs)
            value = np.asarray(value, dtype=np.float64)
            if value.ndim == 0:
                value = value.reshape(1)
            if not np.array_equal(value, rec.output.values):
                return False
        return True


_ACTIVE: list[Tape] = []
_RECORD: list[bool] = [True]


def active_tape() -> Tape | None:
    return _ACTIVE[-1] if _ACTIVE else None


@contextlib.contextmanager
def new_tape():
    """Activate a fresh tape for the duration of the block."""
    tape = Tape()
    _ACTIVE.append(tape)
    try:
        yield tape
    finally:
        _ACTIVE.pop()


@contextlib.contextmanager
def stop_recording():
    """Compute values without appending to the active tape."""
    _RECORD.append(False)
    try:
        yield
    finally:
        _RECORD.pop()


def constant(values) -> Tensor:
    """Untracked tensor; gradients never flow into it."""
    return Tensor(values)


def leaf(values) -> Tensor:
    """Tracked input tensor on the active tape (a differentiation root)."""
    tape = active_tape()
    if tape is None:
        raise TapeError("leaf() requires an active tape; use `with new_tape():`")
    return Tensor(values, tape.new_node(), tape.generation)


_F64 = np.dtype(np.float64)
# The ufunc reductions behind ndarray.all/any/max/sum, called without numpy's
# Python-level wrappers (``np.max(x)`` is ``np.maximum.reduce(x, axis=None)``).
_all = np.logical_and.reduce
_any = np.logical_or.reduce
_max = np.maximum.reduce
_sum = np.add.reduce
_new_tensor = object.__new__


def _stored(v: np.ndarray) -> np.ndarray:
    """A float64 kernel result in the form every value is stored in: at least
    1-d and C-contiguous (copied only when it is not)."""
    if v.ndim == 0:
        return v.reshape(1)
    if not v.flags.c_contiguous:
        return np.ascontiguousarray(v)
    return v


def _record(kind: str, inputs: tuple[Tensor, ...], value, attrs: dict) -> Tensor:
    """Wrap an op's raw result as its output tensor, and append the op to the
    active tape when any input is tracked.

    The hot path of every op: ``value`` is converted at most once, copied only
    when it is not C-contiguous, and always checked for finiteness.
    """
    if type(value) is not np.ndarray or value.dtype is not _F64:
        value = np.asarray(value, dtype=np.float64)
    value = _stored(value)
    if not _all(np.isfinite(value), axis=None):
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
    if tracked and tape is not None and _RECORD[-1]:
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
# Operations
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("add", a, b)
    return _record("add", (a, b), a.values + b.values, {})


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("sub", a, b)
    return _record("sub", (a, b), a.values - b.values, {})


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("mul", a, b)
    return _record("mul", (a, b), a.values * b.values, {})


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("div", a, b)
    return _record("div", (a, b), _div_kernel(a.values, b.values), {})


def _div_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if _any(b == 0.0, axis=None):
        raise DomainError("div: zero in denominator")
    return a / b


def scalar_mul(a: Tensor, c: float) -> Tensor:
    return _record("scalar_mul", (a,), a.values * c, {"c": float(c)})


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
    return _record("matmul", (a, b), _matmul_kernel(av, bv, ta, tb), {"ta": ta, "tb": tb})


_TILE_MIN_SIZE = 1 << 16
_TILE_MIN_WIDTH = 64
_TILE_ROWS = 32


def _transposed_copy(a: np.ndarray) -> np.ndarray:
    """C-order copy of ``a`` with its last two axes swapped.

    One strided copy of a large operand reads a new cache line, and often a
    new page, for every element it writes.  A tile of _TILE_ROWS operand rows
    stays in cache while it is written out as columns.  On small or narrow
    operands the per-tile cost outweighs that, so they keep the one-call copy.
    Either way the bytes are those of the transposed operand, so BLAS runs
    the same product.
    """
    t = a.swapaxes(-1, -2)
    if a.size < _TILE_MIN_SIZE or a.shape[-1] < _TILE_MIN_WIDTH:
        return np.ascontiguousarray(t)
    out = np.empty(t.shape)
    for r in range(0, t.shape[-1], _TILE_ROWS):
        out[..., r:r + _TILE_ROWS] = t[..., r:r + _TILE_ROWS]
    return out


def _matmul_kernel(a: np.ndarray, b: np.ndarray, ta: bool = False,
                   tb: bool = False) -> np.ndarray:
    # A flagged operand is copied to C order, as the transpose op copies, so
    # BLAS runs the very product it ran on a transpose node's output.  Handing
    # BLAS the transposed view instead selects other kernels, which change the
    # last bits of some small products and with them the vanilla results.
    if ta:
        a = _transposed_copy(a)
    if tb:
        b = _transposed_copy(b)
    return a @ b


def transpose(a: Tensor) -> Tensor:
    if len(a.shape) != 2:
        raise ShapeMismatchError(f"transpose: expected 2-d, got {a.shape}")
    return _record("transpose", (a,), a.values.T, {})


def relu(a: Tensor) -> Tensor:
    return _record("relu", (a,), np.maximum(a.values, 0.0), {})


def tanh(a: Tensor) -> Tensor:
    return _record("tanh", (a,), np.tanh(a.values), {})


def exp(a: Tensor) -> Tensor:
    return _record("exp", (a,), np.exp(a.values), {})


def log(a: Tensor) -> Tensor:
    if _any(a.values <= 0.0, axis=None):
        raise DomainError("log: nonpositive argument")
    return _record("log", (a,), np.log(a.values), {})


def sum_(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    if axis is not None and not (-len(a.shape) <= axis < len(a.shape)):
        raise ShapeMismatchError(f"sum: axis {axis} invalid for shape {a.shape}")
    if axis is None and keepdims and len(a.shape) != 1:
        raise ShapeMismatchError("sum: keepdims over all axes needs a 1-d input")
    return _record("sum", (a,), _sum(a.values, axis=axis, keepdims=keepdims),
                   {"axis": axis, "keepdims": keepdims})


def _mean_kernel(a: np.ndarray):
    # What np.mean computes for a float64 array: the sum over all axes, then
    # one division by the element count.
    return _sum(a, axis=None) / a.size


def _l2_norm_kernel(a: np.ndarray):
    return np.sqrt(_sum(a * a, axis=None))


def mean(a: Tensor) -> Tensor:
    return _record("mean", (a,), _mean_kernel(a.values), {})


def l2_norm(a: Tensor) -> Tensor:
    return _record("l2_norm", (a,), _l2_norm_kernel(a.values), {})


def dot(a: Tensor, b: Tensor) -> Tensor:
    if len(a.shape) != 1 or a.shape != b.shape:
        raise ShapeMismatchError(f"dot: expected equal 1-d shapes, got {a.shape} and {b.shape}")
    return _record("dot", (a, b), np.dot(a.values, b.values), {})


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
    value = np.concatenate([t.values for t in tensors], axis=axis)
    return _record("concat", tuple(tensors), value, {"axis": axis})


def slice_(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    nd = len(a.shape)
    if not (-nd <= axis < nd):
        raise ShapeMismatchError(f"slice: axis {axis} invalid for shape {a.shape}")
    axis = axis % nd
    if not (0 <= start < stop <= a.shape[axis]):
        raise ShapeMismatchError(
            f"slice: bounds [{start}, {stop}) invalid for axis {axis} of {a.shape}")
    sl = tuple(slice(start, stop) if i == axis else slice(None) for i in range(nd))
    return _record("slice", (a,), a.values[sl], {"axis": axis, "start": start, "stop": stop})


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.size:
        raise ShapeMismatchError(f"reshape: cannot view {a.shape} as {shape}")
    return _record("reshape", (a,), a.values.reshape(shape), {"shape": shape})


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of row-wise softmax against integer labels."""
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
    value = _softmax_cross_entropy_kernel(logits.values, labels=labels)
    return _record("softmax_cross_entropy", (logits,), value, {"labels": labels})


def _softmax_cross_entropy_kernel(z: np.ndarray, labels: np.ndarray) -> np.ndarray:
    m = _max(z, axis=1, keepdims=True)
    lse = np.log(_sum(np.exp(z - m), axis=1)) + m[:, 0]
    picked = z[np.arange(z.shape[0]), labels]
    return _mean_kernel(lse - picked)


# Forward kernels keyed by op kind, used for record_forward dispatch and replay.
_KERNELS: dict[str, Callable] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": _div_kernel,
    "scalar_mul": lambda a, c: a * c,
    "matmul": _matmul_kernel,
    "transpose": lambda a: a.T,
    "relu": lambda a: np.maximum(a, 0.0),
    "tanh": np.tanh,
    "exp": np.exp,
    "log": np.log,
    "sum": _sum,
    "mean": _mean_kernel,
    "l2_norm": _l2_norm_kernel,
    "dot": np.dot,
    "concat": lambda *ts, axis: np.concatenate(ts, axis=axis),
    "slice": lambda a, axis, start, stop: a[tuple(
        slice(start, stop) if i == axis else slice(None) for i in range(a.ndim))],
    "reshape": lambda a, shape: a.reshape(shape),
    "softmax_cross_entropy": _softmax_cross_entropy_kernel,
}


# ---------------------------------------------------------------------------
# Backward rules.  Each rule is written once, against an interpreter ``o``
# that supplies the ops it composes:
#
# * ``_RECORDED`` (create_graph=True) runs the public recorded ops, so the
#   adjoints are tensors that leave a differentiable graph on the tape;
# * ``_ARRAYS`` (create_graph=False) runs the same numpy expressions on plain
#   float64 arrays, with no validation, recording or Tensor per op.
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

    @staticmethod
    def filled(fill: float, shape: tuple[int, ...]) -> Tensor:
        return _filled(fill, shape)

    @staticmethod
    def check(g: Tensor, kind: str) -> None:
        """Every recorded op has already checked its output."""


def _array_check(g: np.ndarray, kind: str) -> None:
    if not _all(np.isfinite(g), axis=None):
        raise NonFiniteError(f"backward: non-finite adjoint at {kind}")


class _Arrays:
    """Interpreter on float64 arrays: each op evaluates the numpy expression
    of the recorded op with the same name, and results are stored as
    ``_record`` stores them, so every adjoint matches the recorded sweep bit
    for bit.  Elementwise results of C-contiguous operands are C-contiguous
    already.  Finiteness is checked per adjoint (``check``), not per op: a
    NaN or Inf carries through every later adjoint op, since the rules only
    multiply, add, reduce, slice and reshape adjoints and divide them by
    finite forward values."""

    val = staticmethod(operator.attrgetter("values"))
    constant = staticmethod(lambda v: v)
    filled = staticmethod(lambda fill, shape: _filled(fill, shape).values)
    check = staticmethod(_array_check)
    add = staticmethod(np.add)
    sub = staticmethod(np.subtract)
    mul = staticmethod(np.multiply)
    scalar_mul = staticmethod(np.multiply)
    div = staticmethod(_div_kernel)
    exp = staticmethod(np.exp)
    matmul = staticmethod(_matmul_kernel)
    transpose = staticmethod(lambda a: _stored(a.T))
    sum_ = staticmethod(lambda a, axis=None, keepdims=False: _stored(
        _sum(a, axis=axis, keepdims=keepdims)))
    reshape = staticmethod(lambda a, shape: a.reshape(shape))
    concat = staticmethod(lambda parts, axis=0: _stored(np.concatenate(parts, axis=axis)))
    slice_ = staticmethod(lambda a, axis, start, stop: _stored(
        _KERNELS["slice"](a, axis, start, stop)))


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
            _unbroadcast(o, o.scalar_mul(g, -1.0), b.shape) if b.node is not None else None)


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
        gb = _unbroadcast(o, o.scalar_mul(o.mul(g, o.div(o.val(out), bv)), -1.0), b.shape)
    return ga, gb


def _bw_scalar_mul(o, inputs, out, g, attrs):
    return (o.scalar_mul(g, attrs["c"]),)


def _bw_matmul(o, inputs, out, g, attrs):
    # out = A'B' with A' = op(a), B' = op(b): dA' = g B'ᵀ and dB' = A'ᵀ g, and
    # a transposed operand takes the transpose of its adjoint (ᵀ swaps the last
    # two axes, so 3-d operands follow the same rule).  Each case is one
    # flagged matmul, so the rule records no transpose node at any order.
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


def _bw_transpose(o, inputs, out, g, attrs):
    return (o.transpose(g),)


def _bw_relu(o, inputs, out, g, attrs):
    (a,) = inputs
    return (o.mul(g, o.constant((a.values > 0.0).astype(np.float64))),)


def _bw_tanh(o, inputs, out, g, attrs):
    y = o.val(out)
    return (o.mul(g, o.sub(o.filled(1.0, (1,)), o.mul(y, y))),)


def _bw_exp(o, inputs, out, g, attrs):
    return (o.mul(g, o.val(out)),)


def _bw_log(o, inputs, out, g, attrs):
    return (o.div(g, o.val(inputs[0])),)


def _bw_sum(o, inputs, out, g, attrs):
    (a,) = inputs
    axis, keepdims = attrs["axis"], attrs["keepdims"]
    if axis is not None and not keepdims:
        kshape = list(a.shape)
        kshape[axis % len(a.shape)] = 1
        g = o.reshape(g, tuple(kshape))
    return (o.mul(g, o.filled(1.0, a.shape)),)


def _bw_mean(o, inputs, out, g, attrs):
    (a,) = inputs
    return (o.mul(o.scalar_mul(g, 1.0 / a.size), o.filled(1.0, a.shape)),)


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
        grads.append(o.slice_(g, axis, offset, offset + width) if t.node is not None else None)
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
    return (o.reshape(g, inputs[0].shape),)


def _bw_softmax_cross_entropy(o, inputs, out, g, attrs):
    (logits,) = inputs
    labels = attrs["labels"]
    n, k = logits.shape
    # Row max is detached: softmax is shift-invariant, so the composite value
    # and all its derivatives are exact with m held constant.
    m = o.constant(_max(logits.values, axis=1, keepdims=True))
    e = o.exp(o.sub(o.val(logits), m))
    p = o.div(e, o.sum_(e, axis=1, keepdims=True))
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    return (o.mul(o.sub(p, o.constant(onehot)), o.scalar_mul(g, 1.0 / n)),)


_BACKWARD: dict[str, Callable] = {
    "add": _bw_add,
    "sub": _bw_sub,
    "mul": _bw_mul,
    "div": _bw_div,
    "scalar_mul": _bw_scalar_mul,
    "matmul": _bw_matmul,
    "transpose": _bw_transpose,
    "relu": _bw_relu,
    "tanh": _bw_tanh,
    "exp": _bw_exp,
    "log": _bw_log,
    "sum": _bw_sum,
    "mean": _bw_mean,
    "l2_norm": _bw_l2_norm,
    "dot": _bw_dot,
    "concat": _bw_concat,
    "slice": _bw_slice,
    "reshape": _bw_reshape,
    "softmax_cross_entropy": _bw_softmax_cross_entropy,
}

_PUBLIC_OPS: dict[str, Callable] = {
    "add": add,
    "sub": sub,
    "mul": mul,
    "div": div,
    "scalar_mul": scalar_mul,
    "matmul": matmul,
    "transpose": transpose,
    "relu": relu,
    "tanh": tanh,
    "exp": exp,
    "log": log,
    "sum": sum_,
    "mean": mean,
    "l2_norm": l2_norm,
    "dot": dot,
    "concat": concat,
    "slice": slice_,
    "reshape": reshape,
    "softmax_cross_entropy": softmax_cross_entropy,
}

OP_KINDS = tuple(_PUBLIC_OPS)


def record_forward(kind: str, inputs: Sequence[Tensor], **attrs) -> Tensor:
    """Uniform dispatch entry: validate, compute, and record one operation."""
    if kind not in _PUBLIC_OPS:
        raise AutodiffError(f"unknown op kind {kind!r}")
    fn = _PUBLIC_OPS[kind]
    if kind == "concat":
        return fn(list(inputs), **attrs)
    return fn(*inputs, **attrs)


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
        """The layout of ``named_shapes``; equal sequences share one layout,
        built on first use (``backward`` and every training step ask again)."""
        return cls._build(tuple((name, tuple(shape)) for name, shape in named_shapes))

    @classmethod
    @functools.lru_cache(maxsize=256)
    def _build(cls, named_shapes: tuple) -> "ParamLayout":
        entries, offset = [], 0
        for name, shape in named_shapes:
            shape = tuple(int(s) for s in shape)
            entries.append((name, shape, offset))
            offset += math.prod(shape)
        return cls(tuple(entries), offset)

    def unflatten(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        vec = np.asarray(vec, dtype=np.float64).reshape(-1)
        if vec.size != self.total:
            raise ShapeMismatchError(f"vector length {vec.size} != layout total {self.total}")
        out = {}
        for name, shape, offset in self.entries:
            out[name] = vec[offset:offset + math.prod(shape)].reshape(shape).copy()
        return out

    def flatten(self, arrays: Mapping[str, np.ndarray]) -> np.ndarray:
        parts = []
        for name, shape, _ in self.entries:
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != shape:
                raise ShapeMismatchError(f"{name}: expected shape {shape}, got {arr.shape}")
            parts.append(arr.reshape(-1))
        return np.concatenate(parts) if parts else np.zeros(0)


@dataclass
class GradientVector:
    """Flat gradient over a named parameter layout.

    ``tensor`` is shape ``(total,)``; it is a tape node whenever the gradient
    was produced with ``create_graph=True``.
    """

    tensor: Tensor
    layout: ParamLayout

    @property
    def values(self) -> np.ndarray:
        return self.tensor.values

    def norm(self) -> float:
        return float(np.linalg.norm(self.tensor.values))

    def unflatten(self) -> dict[str, np.ndarray]:
        return self.layout.unflatten(self.tensor.values)


def _wrt_items(wrt) -> list[tuple[str, Tensor]]:
    if isinstance(wrt, Mapping):
        return list(wrt.items())
    return [(f"p{i}", t) for i, t in enumerate(wrt)]


def backward(scalar: Tensor, wrt, create_graph: bool = False) -> GradientVector:
    """Reverse sweep: d(scalar)/d(wrt), flattened per the wrt ordering.

    With ``create_graph=True`` the adjoint computations are themselves
    recorded, so the returned flat gradient is a tape node and supports a
    further backward pass (second order).  Otherwise the sweep runs on plain
    arrays, records nothing, and returns a constant with the same bits;
    ``NonFiniteError`` is raised when any adjoint it stores holds NaN or Inf.
    """
    if scalar.node is None:
        raise TapeError("backward: scalar is not on a tape")
    if scalar.shape != (1,):
        raise ShapeMismatchError(f"backward: expected scalar of shape (1,), got {scalar.shape}")
    tape = active_tape()
    if tape is None or scalar.generation != tape.generation:
        raise TapeError("backward: scalar does not belong to the active tape")
    if create_graph and not _RECORD[-1]:
        raise TapeError("backward: create_graph=True inside stop_recording()")
    items = _wrt_items(wrt)
    for name, t in items:
        if t.node is None or t.generation != tape.generation:
            raise TapeError(f"backward: parameter {name!r} is not on the active tape")

    o = _RECORDED if create_graph else _ARRAYS
    adjoint = {scalar.node: o.filled(1.0, (1,))}
    # A create_graph sweep appends to the tape it walks; walk the snapshot.
    for rec in reversed(tape.records[:]):
        g = adjoint.pop(rec.output.node, None)
        if g is None:
            continue
        o.check(g, rec.kind)
        grads = _BACKWARD[rec.kind](o, rec.inputs, rec.output, g, rec.attrs)
        for t, gt in zip(rec.inputs, grads):
            if gt is None or t.node is None:
                continue
            cur = adjoint.get(t.node)
            adjoint[t.node] = gt if cur is None else o.add(cur, gt)
    # What is left are the adjoints of leaves; the result is built from them.
    for g in adjoint.values():
        o.check(g, "leaf")

    parts = []
    for _, t in items:
        gt = adjoint.get(t.node)
        if gt is None:
            gt = o.constant(np.zeros(t.size))
        elif gt.shape != (t.size,):
            gt = o.reshape(gt, (t.size,))
        parts.append(gt)
    flat = parts[0] if len(parts) == 1 else o.concat(parts, axis=0)
    if not create_graph:
        flat = Tensor(flat)

    layout = ParamLayout.of((name, t.shape) for name, t in items)
    return GradientVector(flat, layout)


def hvp(loss_eval: Callable[[dict[str, Tensor]], Tensor],
        params: Mapping[str, np.ndarray],
        v: np.ndarray) -> GradientVector:
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
        s = dot(g.tensor, constant(v))
        hv = backward(s, leaves, create_graph=False)
    return hv
