"""Model forward passes against independent numpy re-implementations,
init/layout contracts, and checkpoint roundtrips."""

import re

import numpy as np
import pytest

from gradguide import autodiff as ad
from gradguide import fields
from gradguide import model as md

from conftest import central_diff_grad, eval_scalar, rel_err


LOGISTIC = md.ModelSpec("logistic", input_dim=4, num_classes=3, init_seed=5)
MLP = md.ModelSpec("mlp", input_dim=4, num_classes=2, hidden_dims=(8,), init_seed=5)
ATTN = md.ModelSpec("tiny_attention", input_dim=6, num_classes=3,
                    hidden_dims=(3, 4), init_seed=5)
# the benchmark's attention model: 16-d input, 4 chunks, attn_dim 8
ATTN_BENCH = md.ModelSpec("tiny_attention", input_dim=16, num_classes=4,
                          hidden_dims=(4, 8), init_seed=5)


def test_mlp_param_count():
    assert md.param_layout(MLP).total == 4 * 8 + 8 + 8 * 2 + 2  # 58


def test_param_layout_is_built_once_per_spec():
    same = md.ModelSpec("mlp", input_dim=4, num_classes=2, hidden_dims=[8], init_seed=5)
    assert md.param_layout(same) is md.param_layout(MLP)
    assert md.param_layout(md.ModelSpec("mlp", 4, 2, (9,))).total != md.param_layout(MLP).total


def test_attention_pools_with_one_shared_frozen_row(rng):
    # the 1/seq_len row that averages over positions is one constant per
    # shape, and the attention record's output is its product with p·v
    row = ad._pool_row(5, 3)
    assert ad._pool_row(5, 3) is row
    assert row.tobytes() == np.full((5, 1, 3), 1.0 / 3).tobytes()
    assert not row.flags.writeable
    with ad.new_tape() as tape:
        leaves = {k: ad.leaf(v) for k, v in md.init_params(ATTN).items()}
        md.forward(ATTN, leaves, ad.constant(rng.standard_normal((5, 6))))
    (rec,) = [rec for rec in tape.records if rec.kind == "attention"]
    kept = rec.attrs["kept"]
    assert rec.output.values.tobytes() == (row @ (kept["p"] @ kept["v"])).reshape(5, 4).tobytes()


def test_init_is_seeded_and_bounded():
    p1 = md.init_params(MLP)
    p2 = md.init_params(MLP)
    for name in p1:
        assert np.array_equal(p1[name], p2[name])
    assert np.all(np.abs(p1["w0"]) <= MLP.init_scale)
    assert np.all(p1["b0"] == 0.0)
    assert np.all(p1["b1"] == 0.0)
    p3 = md.init_params(md.ModelSpec("mlp", 4, 2, (8,), init_seed=6))
    assert not np.array_equal(p1["w0"], p3["w0"])


def test_logistic_forward_is_affine(rng):
    arrays = md.init_params(LOGISTIC)
    x = rng.standard_normal((5, 4))
    got = md.logits_array(LOGISTIC, arrays, x)
    assert np.allclose(got, x @ arrays["w"] + arrays["b"], atol=1e-14)


def test_mlp_forward_matches_numpy(rng):
    arrays = md.init_params(MLP)
    x = rng.standard_normal((5, 4))
    h = np.tanh(x @ arrays["w0"] + arrays["b0"])
    want = h @ arrays["w1"] + arrays["b1"]
    assert np.allclose(md.logits_array(MLP, arrays, x), want, atol=1e-14)


def _attention_oracle(spec, arrays, x):
    """Plain-numpy mirror of the attention block, written independently."""
    seq_len, attn_dim = spec.hidden_dims
    chunk = spec.input_dim // seq_len
    b = x.shape[0]
    parts = [x[:, i * chunk:(i + 1) * chunk] for i in range(seq_len)]
    q = np.stack([p @ arrays["wq"] for p in parts], axis=1)  # [B, L, A]
    k = np.stack([p @ arrays["wk"] for p in parts], axis=1)
    v = np.stack([p @ arrays["wv"] for p in parts], axis=1)
    scores = np.einsum("bia,bja->bij", q, k) / np.sqrt(attn_dim)
    e = np.exp(scores - scores.max(axis=2, keepdims=True))
    attn = e / e.sum(axis=2, keepdims=True)
    mixed = np.einsum("bij,bja->bia", attn, v)
    pooled = mixed.mean(axis=1)
    return pooled @ arrays["wo"] + arrays["bo"]


@pytest.mark.parametrize("spec,batch", [(ATTN, 7), (ATTN_BENCH, 32)], ids=["small", "bench"])
def test_attention_forward_matches_oracle(spec, batch, rng):
    arrays = md.init_params(spec)
    # larger weights so attention is far from uniform
    arrays = {k: v * 8.0 if k.startswith("w") else v for k, v in arrays.items()}
    x = rng.standard_normal((batch, spec.input_dim))
    got = md.logits_array(spec, arrays, x)
    want = _attention_oracle(spec, arrays, x)
    assert got.shape == (batch, spec.num_classes)
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("hidden_dims", [(1, 8), (2, 4), (4, 8), (8, 8)],
                         ids=lambda h: f"{h[0]}x{h[1]}")
def test_attention_loss_records_a_fixed_number_of_ops(hidden_dims, rng):
    # one record for the block, one for the output layer and the loss,
    # whatever seq_len
    spec = md.ModelSpec("tiny_attention", input_dim=16, num_classes=4,
                        hidden_dims=hidden_dims)
    x = rng.standard_normal((5, 16))
    with ad.new_tape() as tape:
        leaves = {k: ad.leaf(v) for k, v in md.init_params(spec).items()}
        md.loss(spec, leaves, ad.constant(x), np.array([0, 1, 2, 3, 0]))
    assert [rec.kind for rec in tape.records] == ["attention", "dense", "softmax_cross_entropy"]


def test_mlp_loss_records_one_op_per_layer(rng):
    # each layer, hidden or output, is one dense record
    spec = md.ModelSpec("mlp", input_dim=16, num_classes=4, hidden_dims=(32, 32))
    x = rng.standard_normal((5, 16))
    with ad.new_tape() as tape:
        leaves = {k: ad.leaf(v) for k, v in md.init_params(spec).items()}
        md.loss(spec, leaves, ad.constant(x), np.array([0, 1, 2, 3, 0]))
    assert [rec.kind for rec in tape.records] == ["dense"] * 3 + ["softmax_cross_entropy"]


@pytest.mark.parametrize("spec", [LOGISTIC, MLP, ATTN], ids=lambda s: s.kind)
def test_rows_are_independent(spec, rng):
    arrays = md.init_params(spec)
    x = rng.standard_normal((4, spec.input_dim))
    base = md.logits_array(spec, arrays, x)
    x2 = x.copy()
    x2[2] += 1.0
    moved = md.logits_array(spec, arrays, x2)
    assert np.allclose(moved[[0, 1, 3]], base[[0, 1, 3]], atol=1e-14)
    assert not np.allclose(moved[2], base[2])


@pytest.mark.parametrize("spec", [LOGISTIC, MLP, ATTN], ids=lambda s: s.kind)
def test_loss_gradient_matches_finite_differences(spec, rng):
    arrays = md.init_params(spec)
    x = rng.standard_normal((6, spec.input_dim))
    labels = rng.integers(0, spec.num_classes, size=6)
    shapes = md.param_shapes(spec)
    layout = md.param_layout(spec)

    def build(t):
        return md.loss(spec, t, ad.constant(x), labels)

    with ad.new_tape():
        leaves = {name: ad.leaf(arrays[name]) for name, _ in shapes}
        g = ad.backward(build(leaves), leaves)
    fd = central_diff_grad(lambda f: eval_scalar(build, f, shapes), layout.flatten(arrays))
    assert rel_err(g.values, fd) < 1e-5


def test_zero_scale_init_gives_zero_logits(rng):
    spec = md.ModelSpec("mlp", 4, 2, (8,), init_scale=0.0)
    arrays = md.init_params(spec)
    assert all(np.all(a == 0.0) for a in arrays.values())
    x = rng.standard_normal((3, 4))
    assert np.all(md.logits_array(spec, arrays, x) == 0.0)


def test_single_chunk_attention_is_feed_through(rng):
    # one sequence position: softmax over a single key is 1, so the block
    # reduces to x @ wv @ wo + bo
    spec = md.ModelSpec("tiny_attention", input_dim=4, num_classes=2,
                        hidden_dims=(1, 3), init_seed=2)
    arrays = md.init_params(spec)
    x = rng.standard_normal((5, 4))
    want = (x @ arrays["wv"]) @ arrays["wo"] + arrays["bo"]
    assert np.allclose(md.logits_array(spec, arrays, x), want, atol=1e-12)


def test_batch_permutation_permutes_logits(rng):
    perm = np.array([3, 0, 2, 1])
    for spec in (LOGISTIC, MLP, ATTN):
        arrays = md.init_params(spec)
        x = rng.standard_normal((4, spec.input_dim))
        base = md.logits_array(spec, arrays, x)
        assert np.allclose(md.logits_array(spec, arrays, x[perm]), base[perm], atol=1e-14)


def test_predict_breaks_ties_low():
    spec = md.ModelSpec("logistic", input_dim=2, num_classes=3)
    arrays = {"w": np.zeros((2, 3)), "b": np.zeros(3)}
    assert np.array_equal(md.predict(spec, arrays, np.ones((2, 2))), [0, 0])


def test_accuracy_known_case():
    spec = md.ModelSpec("logistic", input_dim=2, num_classes=2)
    arrays = {"w": np.array([[1.0, -1.0], [0.0, 0.0]]), "b": np.zeros(2)}
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0], [-2.0, 0.0]])
    assert md.accuracy(spec, arrays, x, np.array([0, 1, 0, 0])) == 0.75
    with pytest.raises(md.ModelConfigError):
        md.accuracy(spec, arrays, x, np.array([0, 1]))


def test_spec_validation():
    with pytest.raises(md.ModelConfigError):
        md.ModelSpec("rnn", 4, 2)
    with pytest.raises(md.ModelConfigError):
        md.ModelSpec("logistic", 0, 2)
    with pytest.raises(md.ModelConfigError):
        md.ModelSpec("logistic", 4, 1)
    with pytest.raises(md.ModelConfigError):
        md.ModelSpec("mlp", 4, 2, (0,))
    with pytest.raises(md.ModelConfigError):
        md.ModelSpec("tiny_attention", 6, 2, (4,))
    with pytest.raises(md.ModelConfigError):
        md.ModelSpec("tiny_attention", 7, 2, (3, 4))
    with pytest.raises(md.ModelConfigError):
        md.ModelSpec("logistic", 4, 2, init_scale=-0.5)
    with pytest.raises(md.ModelConfigError):
        md.logits_array(LOGISTIC, md.init_params(LOGISTIC), np.ones((2, 5)))


def test_spec_dict_roundtrip():
    d = fields.to_dict(ATTN)
    assert md.ModelSpec.from_dict(d) == ATTN
    with pytest.raises(md.ModelConfigError):
        md.ModelSpec.from_dict({"kind": "mlp"})
    with pytest.raises(md.ModelConfigError, match="unknown"):
        md.ModelSpec.from_dict({"kind": "mlp", "input_dim": 4, "num_classes": 2,
                                "hiden_dims": [8]})
    # numbers are kept as written, so a report reads 1 for 1
    spec = md.ModelSpec.from_dict({"kind": "mlp", "input_dim": 4, "num_classes": 2,
                                   "hidden_dims": [8], "init_scale": 1})
    assert spec.hidden_dims == (8,) and repr(fields.to_dict(spec)["init_scale"]) == "1"


def test_checkpoint_roundtrip(tmp_path, rng):
    arrays = md.init_params(ATTN)
    path = tmp_path / "ckpt.json"
    md.save_checkpoint(path, ATTN, arrays)
    spec2, arrays2 = md.load_checkpoint(path)
    assert spec2 == ATTN
    for name in arrays:
        assert np.array_equal(arrays[name], arrays2[name])


def test_checkpoint_rejects_wrong_length(tmp_path):
    import json
    arrays = md.init_params(LOGISTIC)
    path = tmp_path / "ckpt.json"
    md.save_checkpoint(path, LOGISTIC, arrays)
    doc = json.loads(path.read_text())
    doc["values"] = doc["values"][:-1]
    path.write_text(json.dumps(doc))
    _load_fails(path, "in {path}$")


def _load_fails(path, pattern):
    """``load_checkpoint(path)`` raises ``ModelConfigError`` matching
    ``pattern``, whose ``{path}`` stands for ``path``."""
    with pytest.raises(md.ModelConfigError, match=pattern.format(path=re.escape(str(path)))):
        md.load_checkpoint(path)


def _saved_checkpoint(tmp_path):
    path = tmp_path / "ckpt.json"
    md.save_checkpoint(path, LOGISTIC, md.init_params(LOGISTIC))
    return path


def test_checkpoint_that_is_not_json_names_its_path(tmp_path):
    path = _saved_checkpoint(tmp_path)
    path.write_text(path.read_text()[:-20])
    _load_fails(path, "^{path}: checkpoint is not JSON ")


def test_checkpoint_that_is_not_utf8_names_its_path(tmp_path):
    path = _saved_checkpoint(tmp_path)
    path.write_bytes(b"\xff\xfe" + path.read_bytes())
    _load_fails(path, "^{path}: checkpoint is not UTF-8 text ")


def test_missing_checkpoint_names_its_path(tmp_path):
    path = tmp_path / "absent.json"
    _load_fails(path, "^{path}: cannot open checkpoint ")


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_checkpoint_with_a_non_finite_value_names_its_path(tmp_path, bad):
    import json
    path = _saved_checkpoint(tmp_path)
    doc = json.loads(path.read_text())
    doc["values"][1] = {"NaN": float("nan"), "Infinity": float("inf")}[bad]
    path.write_text(json.dumps(doc))
    assert bad in path.read_text()
    _load_fails(path, "non-finite values in {path}$")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_saving_a_non_finite_parameter_names_its_path_and_writes_nothing(tmp_path, bad):
    arrays = md.init_params(LOGISTIC)
    arrays["w"][0, 0] = bad
    path = tmp_path / "ckpt.json"
    with pytest.raises(md.ModelConfigError,
                       match=f"non-finite parameters to {re.escape(str(path))}$"):
        md.save_checkpoint(path, LOGISTIC, arrays)
    assert not path.exists()
