"""Synthetic classification tasks and dataset files.

Gaussian cluster tasks stand in for text benchmarks at desk scale: class
means sit at equal angles on a circle inside a seeded random 2-plane of the
feature space, with isotropic noise.  A task pair shares generator seed and
geometry; the target's mean constellation is rotated inside that plane by a
conflict angle, giving one scalar knob for how much source and target
gradients disagree.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import fields


class TaskError(fields.FieldError):
    """Invalid task parameters or malformed dataset input."""


@dataclass
class TaskDataset:
    name: str
    inputs: np.ndarray          # [n, dim] float64
    labels: np.ndarray          # [n] int64 in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2:
            raise TaskError(f"{self.name}: inputs must be 2-d, got {self.inputs.shape}")
        if self.labels.shape != (self.inputs.shape[0],):
            raise TaskError(f"{self.name}: {self.labels.shape[0]} labels for "
                            f"{self.inputs.shape[0]} inputs")
        if not np.all(np.isfinite(self.inputs)):
            raise TaskError(f"{self.name}: non-finite inputs")
        if self.num_classes < 2:
            raise TaskError(f"{self.name}: num_classes must be >= 2")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise TaskError(f"{self.name}: label outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    def batch(self) -> tuple[np.ndarray, np.ndarray]:
        return self.inputs, self.labels

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)


@dataclass(frozen=True)
class GaussianTaskSpec:
    """One gaussian cluster task (see :func:`make_gaussian_task`)."""

    kind: Literal["gaussian"] = field(default="gaussian", kw_only=True)
    dim: int
    num_classes: int
    n_per_class: int = 400
    separation: float = 2.0
    noise_std: float = 0.5
    seed: int = 0

    def __post_init__(self):
        fields.check(self, TaskError)
        if self.dim < 2:
            raise TaskError(f"dim must be >= 2, got {self.dim}", "dim")
        if self.num_classes < 2:
            raise TaskError(f"num_classes must be >= 2, got {self.num_classes}", "num_classes")
        if self.n_per_class < 1:
            raise TaskError(f"n_per_class must be >= 1, got {self.n_per_class}", "n_per_class")
        if self.separation < 0.0:
            raise TaskError(f"separation must be >= 0, got {self.separation}", "separation")
        if self.noise_std < 0.0:
            raise TaskError(f"noise_std must be >= 0, got {self.noise_std}", "noise_std")
        if self.seed < 0:
            raise TaskError(f"seed must be >= 0, got {self.seed}", "seed")

    @classmethod
    def from_dict(cls, d) -> "GaussianTaskSpec":
        return fields.from_dict(cls, d, TaskError)


@dataclass(frozen=True)
class TaskPairSpec:
    """Source/target generator description; conflict_angle_deg rotates the
    target's class means inside the shared 2-plane."""

    kind: Literal["pair"] = field(default="pair", kw_only=True)
    dim: int
    num_classes: int
    separation: float
    conflict_angle_deg: float
    noise_std: float
    seed: int
    n_per_class: int = 400

    def __post_init__(self):
        fields.check(self, TaskError)
        if self.dim < 2:
            raise TaskError(f"dim must be >= 2, got {self.dim}", "dim")
        if self.num_classes < 2:
            raise TaskError(f"num_classes must be >= 2, got {self.num_classes}", "num_classes")
        if not self.separation > 0.0:
            raise TaskError(f"separation must be > 0, got {self.separation}", "separation")
        if not (0.0 <= self.conflict_angle_deg <= 180.0):
            raise TaskError(f"conflict angle must be in [0, 180], got {self.conflict_angle_deg}",
                            "conflict_angle_deg")
        if self.noise_std < 0.0:
            raise TaskError(f"noise_std must be >= 0, got {self.noise_std}", "noise_std")
        if self.n_per_class < 1:
            raise TaskError(f"n_per_class must be >= 1, got {self.n_per_class}", "n_per_class")
        if self.seed < 0:
            raise TaskError(f"seed must be >= 0, got {self.seed}", "seed")

    @classmethod
    def from_dict(cls, d) -> "TaskPairSpec":
        # positional in the constructor, optional in a config
        return fields.from_dict(cls, d, TaskError, conflict_angle_deg=0.0)


@dataclass(frozen=True)
class JsonlTaskSpec:
    """Dataset files read by :func:`load_jsonl`; an empty path is no file."""

    kind: Literal["jsonl"] = field(default="jsonl", kw_only=True)
    train_path: str
    eval_path: str = ""
    source_path: str = ""

    def __post_init__(self):
        fields.check(self, TaskError)

    @classmethod
    def from_dict(cls, d) -> "JsonlTaskSpec":
        return fields.from_dict(cls, d, TaskError)


def _generate(dim: int, k: int, n_per_class: int, separation: float, noise_std: float,
              seed, angle_offset: float, name: str) -> TaskDataset:
    # One rng drives plane, then per-class noise, in a fixed draw order:
    # the same seed with a different angle_offset reuses identical noise.
    rng = np.random.default_rng(seed)
    try:
        basis, _ = np.linalg.qr(rng.standard_normal((dim, 2)))  # orthonormal 2-plane
        e1, e2 = basis[:, 0], basis[:, 1]
        xs, ys = [], []
        for c in range(k):
            angle = 2.0 * math.pi * c / k + angle_offset
            mean = separation * (math.cos(angle) * e1 + math.sin(angle) * e2)
            noise = rng.standard_normal((n_per_class, dim))
            xs.append(mean + noise_std * noise)
            ys.append(np.full(n_per_class, c, dtype=np.int64))
        inputs, labels = np.concatenate(xs, axis=0), np.concatenate(ys, axis=0)
    except MemoryError:
        raise TaskError(f"{name}: {k} x {n_per_class} points of dim {dim} "
                        f"do not fit in memory") from None
    return TaskDataset(
        name=name,
        inputs=inputs,
        labels=labels,
        num_classes=k,
    )


def make_gaussian_task(dim: int, num_classes: int, n_per_class: int, separation: float,
                       noise_std: float, seed, name: str = "gaussian") -> TaskDataset:
    """The task of ``GaussianTaskSpec(dim, ..., seed)``, which checks the values."""
    spec = GaussianTaskSpec(dim, num_classes, n_per_class, separation, noise_std, seed)
    return _generate(spec.dim, spec.num_classes, spec.n_per_class, spec.separation,
                     spec.noise_std, spec.seed, angle_offset=0.0, name=name)


def make_task_pair(spec: TaskPairSpec) -> tuple[TaskDataset, TaskDataset]:
    """Source task plus a target whose means are rotated by the conflict angle."""
    source = _generate(spec.dim, spec.num_classes, spec.n_per_class, spec.separation,
                       spec.noise_std, spec.seed, angle_offset=0.0, name="source")
    target = _generate(spec.dim, spec.num_classes, spec.n_per_class, spec.separation,
                       spec.noise_std, spec.seed,
                       angle_offset=math.radians(spec.conflict_angle_deg), name="target")
    return source, target


@dataclass(frozen=True)
class SplitSpec:
    """A few-shot split of a task (see :func:`few_shot_split`)."""

    shots_per_class: int
    eval_fraction: float = 1.0

    def __post_init__(self):
        fields.check(self, TaskError)
        if self.shots_per_class < 1:
            raise TaskError(f"shots_per_class must be >= 1, got {self.shots_per_class}",
                            "shots_per_class")
        if not 0.0 < self.eval_fraction <= 1.0:
            raise TaskError(f"eval_fraction must be in (0, 1], got {self.eval_fraction}",
                            "eval_fraction")

    @classmethod
    def from_dict(cls, d) -> "SplitSpec":
        return fields.from_dict(cls, d, TaskError)


def few_shot_split(dataset: TaskDataset, shots_per_class: int, eval_fraction: float,
                   seed) -> tuple[TaskDataset, TaskDataset]:
    """Stratified split: exactly shots_per_class training examples per class,
    eval drawn from the disjoint remainder.  ``SplitSpec`` checks the values."""
    SplitSpec(shots_per_class, eval_fraction)
    rng = np.random.default_rng(seed)
    train_idx, eval_idx = [], []
    for c in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == c)
        if members.size < shots_per_class + 1:
            raise TaskError(
                f"{dataset.name}: class {c} has {members.size} examples, "
                f"needs >= {shots_per_class + 1} for {shots_per_class} shots")
        order = rng.permutation(members)
        train_idx.append(order[:shots_per_class])
        rest = order[shots_per_class:]
        n_eval = min(rest.size, max(1, round(eval_fraction * rest.size)))
        eval_idx.append(rest[:n_eval])
    train_idx = np.concatenate(train_idx)
    eval_idx = np.concatenate(eval_idx)

    def _sub(idx, tag):
        return TaskDataset(
            name=f"{dataset.name}/{tag}",
            inputs=dataset.inputs[idx],
            labels=dataset.labels[idx],
            num_classes=dataset.num_classes,
        )

    return _sub(train_idx, "train"), _sub(eval_idx, "eval")


# -- JSONL ingestion -----------------------------------------------------------

def load_jsonl(path) -> TaskDataset:
    """One {"x": [floats], "y": int} object per line; dim fixed by line 1."""
    xs, ys = [], []
    dim = None
    try:
        f = open(path, encoding="utf-8")
    except OSError as e:
        raise TaskError(f"{path}: cannot open ({e.strerror})") from None
    with f:
        try:
            lines = f.readlines()
        except UnicodeDecodeError as e:
            raise TaskError(f"{path}: not UTF-8 text ({e.reason})") from None
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                raise TaskError(f"{path}: line {lineno}: empty line")
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise TaskError(f"{path}: line {lineno}: invalid JSON ({e.msg})") from None
            if not isinstance(obj, dict) or "x" not in obj or "y" not in obj:
                raise TaskError(f'{path}: line {lineno}: expected object with "x" and "y"')
            x, y = obj["x"], obj["y"]
            if not isinstance(x, list) or not all(fields.is_number(v) for v in x):
                raise TaskError(f'{path}: line {lineno}: "x" must be a list of finite numbers')
            if not fields.is_int(y):
                raise TaskError(f'{path}: line {lineno}: "y" must be an integer')
            if y < 0:
                raise TaskError(f"{path}: line {lineno}: negative label {y}")
            if dim is None:
                dim = len(x)
                if dim == 0:
                    raise TaskError(f'{path}: line {lineno}: empty "x"')
            elif len(x) != dim:
                raise TaskError(
                    f"{path}: line {lineno}: dim {len(x)} != {dim} from line 1")
            xs.append(x)
            ys.append(y)
    if not xs:
        raise TaskError(f"{path}: empty dataset")
    labels = np.asarray(ys, dtype=np.int64)
    return TaskDataset(
        name=str(path),
        inputs=np.asarray(xs, dtype=np.float64),
        labels=labels,
        num_classes=int(labels.max()) + 1,
    )


def save_jsonl(path, dataset: TaskDataset) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for x, y in zip(dataset.inputs, dataset.labels):
            f.write(json.dumps({"x": x.tolist(), "y": int(y)}))
            f.write("\n")
