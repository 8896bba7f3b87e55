"""Small differentiable classifiers built on the op tape.

Three families, all mapping a float feature batch ``[B, D]`` to logits
``[B, K]``: a linear softmax classifier, a tanh MLP, and a single-head
attention block that treats the feature vector as a short sequence of
equal-width chunks.  Parameters live in plain name->array dicts so the
trainer can flatten them through one :class:`~gradguide.autodiff.ParamLayout`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from . import fields
from .autodiff import ParamLayout, Tensor


class ModelConfigError(fields.FieldError):
    """Model spec fields are inconsistent or out of range."""


MODEL_KINDS = ("logistic", "mlp", "tiny_attention")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture + init description; fully determines the parameter set.

    For ``mlp``, ``hidden_dims`` lists hidden layer widths.  For
    ``tiny_attention`` it must be ``(seq_len, attn_dim)``: the input is split
    into ``seq_len`` chunks of width ``input_dim // seq_len``.
    """

    kind: str
    input_dim: int
    num_classes: int
    hidden_dims: tuple[int, ...] = ()
    init_scale: float = 0.1
    init_seed: int = 0

    def __post_init__(self):
        fields.check(self, ModelConfigError, floats=True)
        if self.kind not in MODEL_KINDS:
            raise ModelConfigError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        if self.input_dim < 1:
            raise ModelConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.num_classes < 2:
            raise ModelConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if any(h < 1 for h in self.hidden_dims):
            raise ModelConfigError(f"hidden_dims must be positive, got {self.hidden_dims}")
        if self.init_scale < 0.0:
            raise ModelConfigError(f"init_scale must be >= 0, got {self.init_scale}")
        if self.init_seed < 0:
            raise ModelConfigError(f"init_seed must be >= 0, got {self.init_seed}")
        if self.kind == "tiny_attention":
            if len(self.hidden_dims) != 2:
                raise ModelConfigError(
                    "tiny_attention needs hidden_dims=(seq_len, attn_dim), "
                    f"got {self.hidden_dims}")
            seq_len, _ = self.hidden_dims
            if self.input_dim % seq_len != 0:
                raise ModelConfigError(
                    f"input_dim {self.input_dim} not divisible by seq_len {seq_len}")

    @classmethod
    def from_dict(cls, d) -> "ModelSpec":
        return fields.from_dict(cls, d, ModelConfigError)


def param_shapes(spec: ModelSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) pairs; this order defines the flat layout."""
    d, k = spec.input_dim, spec.num_classes
    if spec.kind == "logistic":
        return [("w", (d, k)), ("b", (k,))]
    if spec.kind == "mlp":
        shapes = []
        prev = d
        for i, h in enumerate(spec.hidden_dims):
            shapes += [(f"w{i}", (prev, h)), (f"b{i}", (h,))]
            prev = h
        n = len(spec.hidden_dims)
        shapes += [(f"w{n}", (prev, k)), (f"b{n}", (k,))]
        return shapes
    seq_len, attn_dim = spec.hidden_dims
    chunk = d // seq_len
    return [
        ("wq", (chunk, attn_dim)),
        ("wk", (chunk, attn_dim)),
        ("wv", (chunk, attn_dim)),
        ("wo", (attn_dim, k)),
        ("bo", (k,)),
    ]


def param_layout(spec: ModelSpec) -> ParamLayout:
    return ParamLayout.of(param_shapes(spec))


def init_params(spec: ModelSpec) -> dict[str, np.ndarray]:
    """Weights uniform in [-init_scale, init_scale); biases zero.

    Draw order follows param_shapes, so the same seed always produces the
    same bits regardless of caller.
    """
    rng = np.random.default_rng(spec.init_seed)
    params = {}
    for name, shape in param_shapes(spec):
        if name.startswith("b"):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.uniform(-spec.init_scale, spec.init_scale, size=shape)
    return params


def _check_batch(spec: ModelSpec, x: Tensor) -> None:
    if len(x.shape) != 2 or x.shape[1] != spec.input_dim:
        raise ModelConfigError(
            f"input batch must be [B, {spec.input_dim}], got {x.shape}")


def _softmax_rows(z: Tensor) -> Tensor:
    # Row max is detached: the softmax value is shift-invariant, so holding
    # it constant is exact for every derivative order.
    m = ad.constant(np.maximum.reduce(z.values, axis=1, keepdims=True))
    e = ad.exp(ad.sub(z, m))
    return ad.div(e, ad.sum_(e, axis=1, keepdims=True))


def forward(spec: ModelSpec, params: Mapping[str, Tensor], x: Tensor) -> Tensor:
    """Logits ``[B, num_classes]`` for a feature batch ``[B, input_dim]``."""
    _check_batch(spec, x)
    if spec.kind == "logistic":
        return ad.add(ad.matmul(x, params["w"]), params["b"])
    if spec.kind == "mlp":
        h = x
        for i in range(len(spec.hidden_dims)):
            h = ad.tanh(ad.add(ad.matmul(h, params[f"w{i}"]), params[f"b{i}"]))
        n = len(spec.hidden_dims)
        return ad.add(ad.matmul(h, params[f"w{n}"]), params[f"b{n}"])
    return _attention_forward(spec, params, x)


def _attention_forward(spec: ModelSpec, params: Mapping[str, Tensor], x: Tensor) -> Tensor:
    # One batched graph whose size does not depend on seq_len: every chunk is
    # projected by one matmul on a [B*L, chunk] view, scores and mixing are
    # 3-d matmuls, and the mean over positions is a product with a 1/L row.
    seq_len, attn_dim = spec.hidden_dims
    chunk = spec.input_dim // seq_len
    b = x.shape[0]
    rows = ad.reshape(x, (b * seq_len, chunk))
    q, k, v = (ad.reshape(ad.matmul(rows, params[name]), (b, seq_len, attn_dim))
               for name in ("wq", "wk", "wv"))

    scores = ad.scalar_mul(ad.matmul(q, k, tb=True), 1.0 / math.sqrt(attn_dim))
    attn = _softmax_rows(ad.reshape(scores, (b * seq_len, seq_len)))
    mixed = ad.matmul(ad.reshape(attn, (b, seq_len, seq_len)), v)
    pool = ad.constant(np.full((b, 1, seq_len), 1.0 / seq_len))
    pooled = ad.reshape(ad.matmul(pool, mixed), (b, attn_dim))
    return ad.add(ad.matmul(pooled, params["wo"]), params["bo"])


def loss(spec: ModelSpec, params: Mapping[str, Tensor], x: Tensor, labels: np.ndarray) -> Tensor:
    return ad.softmax_cross_entropy(forward(spec, params, x), labels)


def logits_array(spec: ModelSpec, arrays: Mapping[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Forward pass on plain arrays, no recording."""
    tensors = {name: ad.constant(a) for name, a in arrays.items()}
    return forward(spec, tensors, ad.constant(x)).values


def predict(spec: ModelSpec, arrays: Mapping[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    # argmax ties break to the lowest class index, which keeps eval deterministic
    return np.argmax(logits_array(spec, arrays, x), axis=1)


def accuracy(spec: ModelSpec, arrays: Mapping[str, np.ndarray],
             x: np.ndarray, labels: np.ndarray) -> float:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.shape[0] != np.asarray(x).shape[0]:
        raise ModelConfigError(f"labels shape {labels.shape} does not match batch")
    return float(np.mean(predict(spec, arrays, x) == labels))


# -- checkpoints --------------------------------------------------------------

def save_checkpoint(path, spec: ModelSpec, arrays: Mapping[str, np.ndarray]) -> None:
    """JSON checkpoint: spec dict, layout entries, flat float64 values."""
    layout = param_layout(spec)
    flat = layout.flatten(arrays)
    doc = {
        "spec": fields.to_dict(spec),
        "layout": [[name, list(shape), offset] for name, shape, offset in layout.entries],
        "values": flat.tolist(),
    }
    with open(path, "w") as f:
        json.dump(doc, f)
        f.write("\n")


def load_checkpoint(path) -> tuple[ModelSpec, dict[str, np.ndarray]]:
    with open(path) as f:
        doc = json.load(f)
    try:
        spec = ModelSpec.from_dict(doc["spec"])
        stored = [(name, tuple(shape), int(offset)) for name, shape, offset in doc["layout"]]
        values = np.asarray(doc["values"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as e:
        raise ModelConfigError(f"malformed checkpoint {path}: {e}") from None
    layout = param_layout(spec)
    if tuple(stored) != layout.entries:
        raise ModelConfigError(f"checkpoint layout does not match spec in {path}")
    if values.shape != (layout.total,):
        raise ModelConfigError(
            f"checkpoint has {values.size} values, spec needs {layout.total}")
    return spec, layout.unflatten(values)
