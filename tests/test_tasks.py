"""Generator determinism/geometry, split contracts, a Monte-Carlo Bayes-rate
oracle for the separable default task, and JSONL round-trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradguide import autodiff as ad
from gradguide import model as md
from gradguide import tasks as tk


def test_generator_is_deterministic():
    a = tk.make_gaussian_task(4, 3, 10, 2.0, 0.5, seed=9)
    b = tk.make_gaussian_task(4, 3, 10, 2.0, 0.5, seed=9)
    assert a.inputs.tobytes() == b.inputs.tobytes()
    assert np.array_equal(a.labels, b.labels)
    c = tk.make_gaussian_task(4, 3, 10, 2.0, 0.5, seed=10)
    assert a.inputs.tobytes() != c.inputs.tobytes()


def test_zero_noise_collapses_to_means():
    d = tk.make_gaussian_task(5, 3, 4, 2.0, 0.0, seed=1)
    for c in range(3):
        rows = d.inputs[d.labels == c]
        assert np.all(rows == rows[0])
    # distinct classes sit at distinct means
    assert not np.allclose(d.inputs[0], d.inputs[-1])


def test_zero_separation_means_coincide():
    d = tk.make_gaussian_task(4, 3, 2, 0.0, 0.0, seed=3)
    assert np.allclose(d.inputs, 0.0, atol=1e-12)


def test_class_means_live_on_separation_circle():
    d = tk.make_gaussian_task(6, 4, 1, 3.5, 0.0, seed=7)
    norms = np.linalg.norm(d.inputs, axis=1)
    assert np.allclose(norms, 3.5, atol=1e-10)


def test_bayes_rate_of_default_separable_task():
    # separation 10, noise 1: Bayes rule is nearest mean; MC estimate > 0.999
    d = tk.make_gaussian_task(2, 2, 1, 10.0, 0.0, seed=42)
    means = d.inputs  # noise-free singletons are the means themselves
    rng = np.random.default_rng(123)
    n = 100_000
    labels = rng.integers(0, 2, size=n)
    pts = means[labels] + rng.standard_normal((n, 2))
    d0 = np.linalg.norm(pts - means[0], axis=1)
    d1 = np.linalg.norm(pts - means[1], axis=1)
    pred = (d1 < d0).astype(int)
    assert np.mean(pred == labels) > 0.999


def test_pair_angle_zero_is_identical():
    spec = tk.TaskPairSpec(4, 2, 3.0, 0.0, 0.7, seed=5, n_per_class=20)
    src, tgt = tk.make_task_pair(spec)
    assert src.inputs.tobytes() == tgt.inputs.tobytes()
    assert np.array_equal(src.labels, tgt.labels)


def test_pair_angle_180_swaps_binary_means():
    spec = tk.TaskPairSpec(4, 2, 3.0, 180.0, 0.0, seed=5, n_per_class=1)
    src, tgt = tk.make_task_pair(spec)
    assert np.allclose(tgt.inputs[tgt.labels == 0][0], src.inputs[src.labels == 1][0],
                       atol=1e-10)
    assert np.allclose(tgt.inputs[tgt.labels == 1][0], src.inputs[src.labels == 0][0],
                       atol=1e-10)


@pytest.mark.parametrize("angle", [30.0, 90.0, 145.0])
def test_rotation_preserves_mean_geometry(angle):
    spec = tk.TaskPairSpec(5, 3, 2.5, angle, 0.0, seed=11, n_per_class=1)
    src, tgt = tk.make_task_pair(spec)

    def pairwise(d):
        m = np.stack([d.inputs[d.labels == c][0] for c in range(3)])
        return np.linalg.norm(m[:, None, :] - m[None, :, :], axis=2)

    assert np.max(np.abs(pairwise(src) - pairwise(tgt))) < 1e-10


def test_conflict_angle_lowers_initial_gradient_cosine():
    # cos<g_target, g_source> at a shared random init, averaged over seeds:
    # rotated targets must disagree more than identical ones
    def mean_cos(angle):
        cs = []
        for seed in range(6):
            spec = tk.TaskPairSpec(4, 2, 3.0, angle, 0.5, seed=seed, n_per_class=30)
            src, tgt = tk.make_task_pair(spec)
            mspec = md.ModelSpec("logistic", 4, 2, init_seed=seed)
            arrays = md.init_params(mspec)

            def grad(ds):
                with ad.new_tape():
                    leaves = {k: ad.leaf(v) for k, v in arrays.items()}
                    loss = md.loss(mspec, leaves, ad.constant(ds.inputs), ds.labels)
                    return ad.backward(loss, leaves).values

            gs, gt = grad(src), grad(tgt)
            cs.append(gs @ gt / (np.linalg.norm(gs) * np.linalg.norm(gt)))
        return np.mean(cs)

    assert mean_cos(90.0) < mean_cos(0.0)


def test_pair_spec_validation():
    with pytest.raises(tk.TaskError):
        tk.TaskPairSpec(1, 2, 1.0, 0.0, 0.1, seed=0)
    with pytest.raises(tk.TaskError):
        tk.TaskPairSpec(4, 1, 1.0, 0.0, 0.1, seed=0)
    with pytest.raises(tk.TaskError):
        tk.TaskPairSpec(4, 2, 0.0, 0.0, 0.1, seed=0)
    with pytest.raises(tk.TaskError):
        tk.TaskPairSpec(4, 2, 1.0, 181.0, 0.1, seed=0)
    with pytest.raises(tk.TaskError):
        tk.TaskPairSpec(4, 2, 1.0, 0.0, -0.1, seed=0)
    spec = tk.TaskPairSpec(4, 2, 1.0, 30.0, 0.1, seed=3)
    assert tk.TaskPairSpec.from_dict(spec.to_dict()) == spec
    d = {k: v for k, v in spec.to_dict().items() if k != "conflict_angle_deg"}
    assert repr(tk.TaskPairSpec.from_dict(d).conflict_angle_deg) == "0.0"
    with pytest.raises(tk.TaskError, match="unknown"):
        tk.TaskPairSpec.from_dict(dict(d, conflict_angle=90))


# -- splits ----------------------------------------------------------------------

def test_split_counts_and_disjointness():
    d = tk.make_gaussian_task(3, 2, 100, 2.0, 1.0, seed=0)
    train, ev = tk.few_shot_split(d, 8, 0.5, seed=4)
    assert len(train) == 16
    assert np.all(train.class_counts() == 8)
    # disjoint by construction: compare actual rows
    tr = {tuple(row) for row in train.inputs}
    assert not any(tuple(row) in tr for row in ev.inputs)
    counts = ev.class_counts()
    assert abs(int(counts[0]) - int(counts[1])) <= 1


def test_split_single_shot():
    d = tk.make_gaussian_task(3, 2, 5, 2.0, 1.0, seed=0)
    train, _ = tk.few_shot_split(d, 1, 0.5, seed=1)
    assert len(train) == 2


def test_split_determinism():
    d = tk.make_gaussian_task(3, 2, 50, 2.0, 1.0, seed=0)
    t1, e1 = tk.few_shot_split(d, 4, 0.5, seed=9)
    t2, e2 = tk.few_shot_split(d, 4, 0.5, seed=9)
    assert t1.inputs.tobytes() == t2.inputs.tobytes()
    assert e1.inputs.tobytes() == e2.inputs.tobytes()
    t3, _ = tk.few_shot_split(d, 4, 0.5, seed=10)
    assert t1.inputs.tobytes() != t3.inputs.tobytes()


def test_split_insufficient_examples():
    d = tk.make_gaussian_task(3, 2, 5, 2.0, 1.0, seed=0)
    with pytest.raises(tk.TaskError):
        tk.few_shot_split(d, 5, 0.5, seed=0)  # needs shots+1 per class
    with pytest.raises(tk.TaskError):
        tk.few_shot_split(d, 2, 0.0, seed=0)


@settings(deadline=None, max_examples=25)
@given(shots=st.integers(1, 6), frac=st.floats(0.1, 1.0), seed=st.integers(0, 999))
def test_split_always_stratified(shots, frac, seed):
    d = tk.make_gaussian_task(3, 3, 12, 2.0, 1.0, seed=1)
    train, ev = tk.few_shot_split(d, shots, frac, seed)
    assert np.all(train.class_counts() == shots)
    assert np.all(ev.class_counts() >= 1)
    assert len(ev) <= 3 * (12 - shots)


# -- dataset files ----------------------------------------------------------------

def test_jsonl_roundtrip(tmp_path):
    d = tk.make_gaussian_task(4, 3, 6, 2.0, 0.8, seed=2)
    path = tmp_path / "task.jsonl"
    tk.save_jsonl(path, d)
    loaded = tk.load_jsonl(path)
    assert loaded.inputs.tobytes() == d.inputs.tobytes()
    assert np.array_equal(loaded.labels, d.labels)
    assert loaded.num_classes == d.num_classes


def test_jsonl_well_formed(tmp_path):
    path = tmp_path / "two.jsonl"
    path.write_text('{"x": [1.0, 2.0], "y": 0}\n{"x": [0.5, -1.0], "y": 1}\n')
    d = tk.load_jsonl(path)
    assert len(d) == 2
    assert d.input_dim == 2
    assert d.num_classes == 2


@pytest.mark.parametrize("lines,needle", [
    (['{"x": [1.0], "y": 0}', '{"x": [1.0, 2.0], "y": 1}'], "line 2"),
    (['{"x": [1.0], "y": 0}', "not json"], "line 2"),
    (['{"x": [1.0], "y": -1}'], "line 1"),
    (['{"x": [1.0], "y": 1.5}'], "line 1"),
    (['{"x": [1.0], "y": true}'], "line 1"),
    (['{"x": "nope", "y": 0}'], "line 1"),
    (['{"y": 0}'], "line 1"),
    (['{"x": [], "y": 0}'], "line 1"),
])
def test_jsonl_errors_name_the_line(tmp_path, lines, needle):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(tk.TaskError, match=needle):
        tk.load_jsonl(path)


def test_jsonl_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(tk.TaskError, match="empty"):
        tk.load_jsonl(path)


def test_dataset_validation():
    with pytest.raises(tk.TaskError):
        tk.TaskDataset("t", np.ones((2, 2)), np.array([0, 1]), 1)
    with pytest.raises(tk.TaskError):
        tk.TaskDataset("t", np.ones((2, 2)), np.array([0, 2]), 2)
    with pytest.raises(tk.TaskError):
        tk.TaskDataset("t", np.array([[1.0], [np.inf]]), np.array([0, 1]), 2)
    with pytest.raises(tk.TaskError):
        tk.TaskDataset("t", np.ones((2, 2)), np.array([0]), 2)
