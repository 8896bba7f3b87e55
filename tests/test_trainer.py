"""Trainer oracles: a bitwise hand-rolled SGD reference, optimizer math,
mode agreement, divergence handling, schedule properties, artifact formats."""

import contextlib
import copy
import gc
import json
import os
import subprocess
import sys
import textwrap
import weakref
from dataclasses import astuple, replace

import numpy as np
import pytest

from gradguide import autodiff as ad
from gradguide import fields
from gradguide import guidance as gd
from gradguide import metrics as mt
from gradguide import model as md
from gradguide import trainer as tr
from gradguide.guidance import GuidanceConfig, DirectionPrior
from gradguide.tasks import TaskPairSpec, make_gaussian_task, make_task_pair
from gradguide.trainer import TrainConfig, TrainerError, DivergenceError

from conftest import attention_chain, composed_softmax

VANILLA = GuidanceConfig(lambda1=0.0, lambda2=0.0, lambda3=0.0)


def _task(seed=3, dim=6, k=3, n=40, noise=0.6):
    return make_gaussian_task(dim=dim, num_classes=k, n_per_class=n,
                              separation=2.0, noise_std=noise, seed=seed)


def _spec(dim=6, k=3):
    return md.ModelSpec(kind="logistic", input_dim=dim, num_classes=k, init_seed=11)


def _flat(spec, params):
    return md.param_layout(spec).flatten(params)


# -- vanilla reference loop ------------------------------------------------------

def _reference_sgd(spec, task, lr, batch_size, epochs, seed):
    """Plain numpy-driven loop over the published batch schedule.  Must track
    the trainer bit for bit when every penalty weight is zero."""
    layout = md.param_layout(spec)
    flat = layout.flatten(md.init_params(spec))
    for idx in tr.batch_schedule(len(task), batch_size, epochs,
                                 [seed, tr._SCHEDULE_STREAM]):
        with ad.new_tape():
            leaves = {k: ad.leaf(v) for k, v in layout.unflatten(flat).items()}
            loss = gd.base_loss(leaves, spec, (task.inputs[idx], task.labels[idx]))
            g = ad.backward(loss, leaves).values
        flat = flat - lr * g
    return flat


def test_vanilla_run_is_bitwise_identical_to_reference():
    spec, task = _spec(), _task()
    cfg = TrainConfig(learning_rate=0.1, epochs=4, batch_size=16, seed=7,
                      guidance=VANILLA, warmup_steps=0)
    report = tr.train(spec, task, cfg)
    ref = _reference_sgd(spec, task, 0.1, 16, 4, 7)
    got = _flat(spec, report.final_params)
    assert got.tobytes() == ref.tobytes()
    assert len(report.records) == len(tr.batch_schedule(len(task), 16, 4, [7, 23]))


def test_warmup_does_not_move_vanilla_trajectory():
    # warmup only estimates statistics; parameter updates must be unaffected
    spec, task = _spec(), _task()
    a = tr.train(spec, task, TrainConfig(epochs=2, seed=5, guidance=VANILLA,
                                         warmup_steps=0))
    b = tr.train(spec, task, TrainConfig(epochs=2, seed=5, guidance=VANILLA,
                                         warmup_steps=8))
    assert _flat(spec, a.final_params).tobytes() == _flat(spec, b.final_params).tobytes()


def test_same_seed_runs_are_identical():
    spec, task = _spec(), _task()
    cfg = TrainConfig(epochs=2, batch_size=10, seed=13,
                      guidance=GuidanceConfig(lambda3=0.0), warmup_steps=4)
    a, b = tr.train(spec, task, cfg), tr.train(spec, task, cfg)
    assert _flat(spec, a.final_params).tobytes() == _flat(spec, b.final_params).tobytes()
    for ra, rb in zip(a.records, b.records):
        assert replace(ra, wall_time=0.0) == replace(rb, wall_time=0.0)
    assert a.tau == b.tau


def test_adam_matches_hand_reference():
    spec, task = _spec(), _task()
    lr, eps = 0.05, 1e-8
    cfg = TrainConfig(optimizer="adam", learning_rate=lr, epochs=2, batch_size=20,
                      seed=2, guidance=VANILLA, warmup_steps=0)
    report = tr.train(spec, task, cfg)

    layout = md.param_layout(spec)
    flat = layout.flatten(md.init_params(spec))
    m = np.zeros(layout.total)
    v = np.zeros(layout.total)
    b1, b2 = cfg.adam_betas
    for t, idx in enumerate(tr.batch_schedule(len(task), 20, 2, [2, 23]), start=1):
        with ad.new_tape():
            leaves = {k: ad.leaf(val) for k, val in layout.unflatten(flat).items()}
            loss = gd.base_loss(leaves, spec, (task.inputs[idx], task.labels[idx]))
            g = ad.backward(loss, leaves).values
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        flat = flat - lr * m_hat / (np.sqrt(v_hat) + eps)
    assert np.array_equal(_flat(spec, report.final_params), flat)


# -- guided behaviour ------------------------------------------------------------

def test_exact_and_fd_modes_agree_closely():
    spec, task = _spec(), _task()
    base = TrainConfig(learning_rate=0.05, epochs=2, batch_size=20, seed=9,
                       warmup_steps=5,
                       guidance=GuidanceConfig(lambda1=0.3, lambda2=0.3, lambda3=0.0,
                                               mode="exact"))
    exact = tr.train(spec, task, base)
    fd = tr.train(spec, task, replace(base, guidance=replace(base.guidance,
                                                             mode="fd-hvp")))
    pe, pf = _flat(spec, exact.final_params), _flat(spec, fd.final_params)
    rel = np.linalg.norm(pe - pf) / np.linalg.norm(pe)
    assert rel < 1e-3
    for re_, rf in zip(exact.records, fd.records):
        assert abs(re_.loss_total - rf.loss_total) < 1e-4


# fd-hvp's probe eps = 1e-6 (1 + |theta|) / |w| against the exact H·w, on a
# 16-d, 4-class batch of 32 with a standard normal w, init seeds 0-2.  The
# largest relative errors measured:
#   init_scale       0.1      1.0      10       30       100
#   logistic         2.0e-7   7.5e-7   1.2e-5   2.1e-5   6.2e-5
#   mlp (32,32)      1.1e-6   5.7e-6   1.2e-4   2.0e-2   6.1e-3
#   attention (4,8)  9.7e-8   1.3e-6   1.8e-4   6.4e-4   4.7e-3
# At large parameter norms the probe step grows with |theta| and leaves the
# region where the gradient is linear; only the small-norm regime is pinned.
@pytest.mark.parametrize("init_scale", [0.1, 1.0])
@pytest.mark.parametrize("kind,hidden", [("logistic", ()), ("mlp", (32, 32)),
                                         ("tiny_attention", (4, 8))])
def test_fd_hvp_tracks_exact_hvp_at_small_parameter_norms(kind, hidden, init_scale):
    task = make_gaussian_task(dim=16, num_classes=4, n_per_class=8, separation=2.0,
                              noise_std=0.5, seed=0)
    batch = (task.inputs, task.labels)
    for seed in range(3):
        spec = md.ModelSpec(kind=kind, input_dim=16, num_classes=4, hidden_dims=hidden,
                            init_scale=init_scale, init_seed=seed)
        params = md.init_params(spec)
        layout = md.param_layout(spec)
        w = np.random.default_rng(seed).standard_normal(layout.total)
        with ad.new_tape():
            leaves = {k: ad.leaf(v) for k, v in params.items()}
            loss = gd.base_loss(leaves, spec, batch)
            g0 = ad.backward(loss, leaves).values
            exact = ad.hvp_recorded(loss, leaves, w).values
        fd = tr._fd_hvp(spec, layout, layout.flatten(params), batch, w,
                        float(np.linalg.norm(w)), g0)
        assert np.linalg.norm(fd - exact) <= 1e-5 * np.linalg.norm(exact)


def test_exact_total_gradient_on_quadratic_closed_form():
    # base = 0.5 theta^T A theta with symmetric A makes every piece available
    # in closed form: grad_total = A theta + A w, where w = dR/dg at g = A theta
    rng = np.random.default_rng(42)
    n = 6
    q = rng.standard_normal((n, n))
    a = q @ q.T + n * np.eye(n)
    theta0 = rng.standard_normal(n)
    prior = DirectionPrior(direction=np.eye(n)[0], count=1)
    cfg = GuidanceConfig(lambda1=0.7, lambda2=0.4, lambda3=0.0, tau=1.5, mode="exact")

    with ad.new_tape():
        theta = ad.leaf(theta0.reshape(1, n))
        half_quad = ad.scalar_mul(
            ad.sum_(ad.mul(ad.matmul(theta, ad.constant(a)), theta)), 0.5)
        gvec = ad.backward(half_quad, {"theta": theta}, create_graph=True)
        total = ad.add(half_quad, gd._dir_term(gvec, prior.direction, cfg.lambda1))
        total = ad.add(total, gd._mag_term(gvec, cfg.tau, cfg.lambda2))
        upd = ad.backward(total, {"theta": theta}).values

    g = a @ theta0
    w = gd.regularizer_gradient_wrt_g(g, cfg, prior)
    expected = g + a @ w
    assert np.linalg.norm(upd - expected) / np.linalg.norm(expected) < 1e-10


_FAMILIES = {
    "logistic": md.ModelSpec(kind="logistic", input_dim=6, num_classes=3, init_seed=11),
    "mlp": md.ModelSpec(kind="mlp", input_dim=6, num_classes=3, hidden_dims=(8, 8),
                        init_seed=11),
    "tiny_attention": md.ModelSpec(kind="tiny_attention", input_dim=6, num_classes=3,
                                   hidden_dims=(2, 4), init_seed=11),
}


def _state(spec, params, prior=DirectionPrior(), source_grad=None):
    n = md.param_layout(spec).total
    return tr.TrainState(spec, params, prior, source_grad, 0,
                         tr.OptState(np.zeros(n), np.zeros(n)))


def _update_of_step(monkeypatch, state, batch, cfg):
    """The gradient train_step hands the optimizer."""
    seen = []
    apply = tr._apply_optimizer

    def spy(config, opt, flat, grad):
        seen.append(np.array(grad))
        return apply(config, opt, flat, grad)

    monkeypatch.setattr(tr, "_apply_optimizer", spy)
    tr.train_step(state, batch, cfg)
    return seen[0]


def _double_backprop_update(state, batch, gcfg):
    with ad.new_tape():
        leaves = {k: ad.leaf(v) for k, v in state.params.items()}
        obj = gd.build_objective(leaves, state.model_spec, batch, gcfg, state.prior,
                                 state.source_grad)
        return ad.backward(obj.total, leaves).values


@pytest.mark.parametrize("kind", _FAMILIES)
def test_exact_step_update_is_the_double_backprop_gradient(kind, monkeypatch):
    # g + H·w from the step's own tape against differentiating the penalty
    # graph, all three terms active
    spec, task = _FAMILIES[kind], _task()
    rng = np.random.default_rng(5)
    n = md.param_layout(spec).total
    gcfg = GuidanceConfig(lambda1=0.3, lambda2=0.2, lambda3=0.4, tau=0.5, mode="exact")
    prior = gd.update_prior(DirectionPrior(), rng.standard_normal(n), gcfg)
    state = _state(spec, md.init_params(spec), prior, rng.standard_normal(n))
    batch = (task.inputs[:16], task.labels[:16])
    got = _update_of_step(monkeypatch, state, batch, TrainConfig(guidance=gcfg))
    want = _double_backprop_update(state, batch, gcfg)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_exact_step_update_under_the_zero_norm_guard(monkeypatch):
    # zero inputs + balanced labels make the logistic base gradient exactly
    # zero: w = 0, so the update is the (zero) base gradient
    spec = md.ModelSpec(kind="logistic", input_dim=2, num_classes=2)
    gcfg = GuidanceConfig(lambda1=2.0, lambda2=0.5, lambda3=0.0, tau=1.0, mode="exact")
    state = _state(spec, {"w": np.zeros((2, 2)), "b": np.zeros(2)},
                   DirectionPrior(direction=np.ones(6) / np.sqrt(6.0), count=1))
    batch = (np.zeros((2, 2)), np.array([0, 1]))
    got = _update_of_step(monkeypatch, state, batch, TrainConfig(guidance=gcfg))
    want = _double_backprop_update(state, batch, gcfg)
    assert np.all(got == 0.0) and np.all(want == 0.0)


def test_exact_step_records_nothing_for_second_order(monkeypatch):
    lengths = []
    new_tape = ad.new_tape

    @contextlib.contextmanager
    def spy():
        with new_tape() as tape:
            yield tape
            lengths.append(len(tape))

    monkeypatch.setattr(ad, "new_tape", spy)
    spec, task = _FAMILIES["tiny_attention"], _task()
    n = md.param_layout(spec).total
    gcfg = GuidanceConfig(lambda1=0.3, lambda2=0.2, lambda3=0.0, tau=0.5, mode="exact")
    prior = gd.update_prior(DirectionPrior(), np.ones(n), gcfg)
    batch = (task.inputs[:16], task.labels[:16])
    tr.train_step(_state(spec, md.init_params(spec), prior), batch,
                  TrainConfig(guidance=VANILLA))
    (vanilla,) = lengths
    lengths.clear()
    tr.train_step(_state(spec, md.init_params(spec), prior), batch,
                  TrainConfig(guidance=gcfg))
    assert lengths and max(lengths) <= vanilla


def _overflowing_hvp_case(mode):
    # inputs of 1e150 keep the loss and g finite, and w ~ 1e149, but the
    # exact H·w overflows
    spec = md.ModelSpec(kind="logistic", input_dim=4, num_classes=2)
    x = np.full((2, 4), 1e150)
    x[1] *= -1.0
    batch = (x, np.array([0, 1]))
    params = {"w": np.zeros((4, 2)), "b": np.zeros(2)}
    gcfg = GuidanceConfig(lambda1=0.0, lambda2=0.1, lambda3=0.0, tau=1.0, mode=mode)
    return _state(spec, params), batch, TrainConfig(guidance=gcfg)


@pytest.mark.parametrize("mode", ["vanilla", "exact", "fd-hvp"])
def test_only_exact_steps_keep_adjoints(monkeypatch, mode):
    # Kept adjoints cost one array per tape node, so only an exact step with
    # an active penalty keeps them (grad_and_hvp), and its H·w comes from
    # them: one first-order sweep per step.
    kept, sweeps = [], []
    grad_and_hvp, reverse = ad.grad_and_hvp, ad._reverse

    def spy_grad_and_hvp(scalar, wrt):
        kept.append(1)
        return grad_and_hvp(scalar, wrt)

    def spy_reverse(*args, **kwargs):
        sweeps.append(args[0])
        return reverse(*args, **kwargs)

    monkeypatch.setattr(ad, "grad_and_hvp", spy_grad_and_hvp)
    monkeypatch.setattr(ad, "_reverse", spy_reverse)
    spec = _FAMILIES["mlp"]
    params = md.init_params(spec)
    task = _task()
    batch = (task.inputs[:16], task.labels[:16])
    g0 = tr.base_gradient(spec, params, (task.inputs[16:32], task.labels[16:32]))
    gcfg = VANILLA if mode == "vanilla" else GuidanceConfig(
        lambda1=0.2, lambda2=0.1, lambda3=0.0, tau=1.0, mode=mode)
    prior = gd.update_prior(DirectionPrior(), g0, gcfg)
    kept.clear()
    sweeps.clear()
    tr.train_step(_state(spec, params, prior), batch, TrainConfig(guidance=gcfg))
    if mode == "exact":
        assert len(kept) == 1 and len(sweeps) == 1 and sweeps[0].parts
    else:
        assert not kept and all(o is ad._ARRAYS for o in sweeps)
        assert len(sweeps) == (2 if mode == "fd-hvp" else 1)   # fd-hvp's probe


def test_an_exact_step_lets_go_of_its_tape_with_the_block(monkeypatch):
    # The hv an exact objective returns holds the tape's records, and so its
    # activations: the step drops it with the tape block, before it reads
    # the parameter vector, with no help from the cycle collector.
    build, flat_params = gd.build_objective, tr._flat_params
    refs, alive = [], []

    def spy_build(*args, **kwargs):
        obj = build(*args, **kwargs)
        assert obj.hv is not None
        tape = ad.active_tape()
        refs.extend([weakref.ref(tape)] + [weakref.ref(rec.output.values)
                                           for rec in tape.records])
        return obj

    def spy_flat_params(*args):
        alive.append([r for r in refs if r() is not None])
        return flat_params(*args)

    monkeypatch.setattr(gd, "build_objective", spy_build)
    monkeypatch.setattr(tr, "_flat_params", spy_flat_params)
    spec = _FAMILIES["mlp"]
    params = md.init_params(spec)
    task = _task()
    gcfg = GuidanceConfig(lambda1=0.2, lambda2=0.1, lambda3=0.0, tau=1.0, mode="exact")
    prior = gd.update_prior(DirectionPrior(), tr.base_gradient(
        spec, params, (task.inputs[16:32], task.labels[16:32])), gcfg)
    gc.disable()
    try:
        tr.train_step(_state(spec, params, prior), (task.inputs[:16], task.labels[:16]),
                      TrainConfig(guidance=gcfg))
    finally:
        gc.enable()
    assert len(refs) > 2 and alive == [[]]


@pytest.mark.parametrize("mode", ["exact", "fd-hvp"])
def test_second_order_update_whose_sum_overflows_is_a_divergence(mode, monkeypatch):
    # g ~1e300 and a finite H·w of the largest float: each part is finite,
    # their sum is not, and only the update check sees it
    spec = _spec()
    n = md.param_layout(spec).total
    batch = np.full((4, 6), 1e300), np.zeros(4, dtype=int)
    largest = np.full(n, np.finfo(np.float64).max)
    if mode == "exact":
        monkeypatch.setattr(ad, "grad_and_hvp", lambda scalar, wrt: (
            ad.backward(scalar, wrt), lambda v: ad.constant(largest)))
    else:
        monkeypatch.setattr(tr, "_fd_hvp", lambda *args: largest)
    # w = dR/dg of the direction penalty scales as lambda1/|g|: a huge
    # lambda1 keeps its entries normal numbers
    gcfg = GuidanceConfig(lambda1=1e300, lambda2=0.0, lambda3=0.0, mode=mode)
    prior = gd.update_prior(DirectionPrior(), np.ones(n), gcfg)
    state = _state(spec, {k: np.zeros_like(a) for k, a in md.init_params(spec).items()}, prior)
    with np.errstate(over="ignore"), \
            pytest.raises(DivergenceError, match="non-finite update gradient$") as exc:
        tr.train_step(state, batch, TrainConfig(guidance=gcfg))
    assert exc.value.step == 1


def test_overflowing_hvp_in_exact_step_is_a_divergence():
    # only the tangent sweep can fail here
    state, batch, cfg = _overflowing_hvp_case("exact")
    tr.train_step(state, batch, replace(cfg, guidance=VANILLA))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as exc:
            tr.train_step(state, batch, cfg)
    assert exc.value.step == 1
    assert isinstance(exc.value.__cause__, ad.NonFiniteError)


def test_evaluation_overflow_is_a_divergence_at_its_step():
    # the step's gradient is finite, but parameters ~1e307 overflow the
    # logits of the evaluation that follows
    cfg = TrainConfig(learning_rate=1e308, epochs=1, batch_size="full", seed=0,
                      guidance=VANILLA, warmup_steps=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as exc:
            tr.train(_spec(), _task(), cfg)
    assert exc.value.step == 1
    assert isinstance(exc.value.__cause__, ad.NonFiniteError)


def test_fd_hvp_step_of_finite_huge_update_records_finite_norm():
    # fd-hvp probes a saturated softmax and gets a finite H·w ~1e305, so the
    # parameters stay finite (~7e303) while the plain sum of squares of the
    # step overflows
    state, batch, cfg = _overflowing_hvp_case("fd-hvp")
    with np.errstate(over="ignore", invalid="ignore"):
        new_state, record = tr.train_step(state, batch, cfg)
    delta = _flat(state.model_spec, new_state.params)  # the parameters start at zero
    assert np.all(np.isfinite(delta))
    m = np.max(np.abs(delta))
    assert np.isfinite(record.update_norm) and record.update_norm > 1e304
    assert record.update_norm == pytest.approx(m * np.linalg.norm(delta / m), rel=1e-15)


def test_guided_records_populate_guidance_columns():
    spec, task = _spec(), _task()
    cfg = TrainConfig(epochs=1, batch_size=20, seed=4, warmup_steps=5,
                      guidance=GuidanceConfig(lambda1=0.2, lambda2=0.2, lambda3=0.0))
    report = tr.train(spec, task, cfg)
    assert report.tau is not None and report.tau > 0.0
    assert report.prior_count == 5
    for r in report.records:
        assert r.grad_norm > 0.0
        assert -1.0 <= r.cos_prior <= 1.0
        assert r.r_dir >= 0.0 and r.r_mag >= 0.0
        assert r.cos_source is None
        assert r.loss_total == pytest.approx(r.loss_base + r.r_dir + r.r_mag + r.r_grad,
                                             abs=1e-12)


def test_contrast_source_columns_and_refresh():
    dim, k = 6, 3
    spec = _spec(dim, k)
    target = _task(seed=3, dim=dim, k=k)
    source = _task(seed=8, dim=dim, k=k)
    cfg = TrainConfig(epochs=1, batch_size=20, seed=6, warmup_steps=3,
                      guidance=GuidanceConfig(lambda1=0.0, lambda2=0.0, lambda3=0.5))
    report = tr.train(spec, target, cfg, source_task=source)
    for r in report.records:
        assert r.cos_source is not None and -1.0 <= r.cos_source <= 1.0
        assert r.r_grad >= 0.0
    # the contrast penalty is 1 - cos scaled by lambda3, so the two columns
    # must agree record by record
    for r in report.records:
        assert r.r_grad == pytest.approx(0.5 * (1.0 - r.cos_source), abs=1e-9)


def test_lambda3_without_source_task_rejected():
    with pytest.raises(TrainerError, match="source"):
        tr.train(_spec(), _task(), TrainConfig(
            epochs=1, guidance=GuidanceConfig(lambda1=0.0, lambda2=0.0, lambda3=0.1)))


def test_tau_auto_needs_warmup():
    cfg = TrainConfig(epochs=1, warmup_steps=0,
                      guidance=GuidanceConfig(lambda1=0.0, lambda2=0.5, lambda3=0.0))
    with pytest.raises(TrainerError, match="warmup"):
        tr.train(_spec(), _task(), cfg)


def test_median_has_the_bits_of_np_median(rng):
    for n in range(1, 40):
        distinct = list(rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n))
        tied = list(rng.integers(0, 3, n) * 0.1 + 0.7)   # few values, many ties
        for values in (distinct, tied, [abs(x) for x in distinct]):
            got = tr._median(values)
            assert np.float64(got).tobytes() == np.median(values).tobytes(), (n, values)


def test_tau_auto_training_leaves_numpy_ma_unimported():
    # the first np.median of a process imports numpy.ma, inside the timed training
    script = textwrap.dedent("""
        import sys
        from gradguide import trainer as tr
        from gradguide.guidance import GuidanceConfig
        from gradguide.model import ModelSpec
        from gradguide.tasks import TaskPairSpec, make_gaussian_task, make_task_pair

        task = make_gaussian_task(dim=6, num_classes=3, n_per_class=20, separation=2.0,
                                  noise_std=0.6, seed=3)
        before = "numpy.ma" in sys.modules
        report = tr.train(ModelSpec("logistic", 6, 3), task, tr.TrainConfig(
            epochs=1, batch_size=16, warmup_steps=4,
            guidance=GuidanceConfig(lambda1=0.2, lambda2=0.1, lambda3=0.0)))
        print(before, "numpy.ma" in sys.modules, report.tau)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(tr.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    before, after, tau = proc.stdout.split()
    assert (before, after) == ("False", "False") and float(tau) > 0.0


def test_lambda1_needs_warmup():
    cfg = TrainConfig(epochs=1, warmup_steps=0,
                      guidance=GuidanceConfig(lambda1=0.5, lambda2=0.0, lambda3=0.0,
                                              tau=1.0))
    with pytest.raises(TrainerError, match="prior"):
        tr.train(_spec(), _task(), cfg)


def test_dimension_mismatch_rejected():
    with pytest.raises(TrainerError, match="dim"):
        tr.train(_spec(dim=4), _task(dim=6), TrainConfig(epochs=1, guidance=VANILLA))


def test_zero_epochs_is_a_noop_run():
    spec, task = _spec(), _task()
    cfg = TrainConfig(epochs=0, seed=1, guidance=VANILLA, warmup_steps=6)
    report = tr.train(spec, task, cfg)
    assert report.records == []
    assert report.final_loss is None
    init = _flat(spec, md.init_params(spec))
    assert _flat(spec, report.final_params).tobytes() == init.tobytes()
    assert report.prior_count == 6


def test_full_batch_convex_loss_decreases_monotonically():
    spec, task = _spec(), _task(noise=0.4)
    cfg = TrainConfig(learning_rate=0.02, epochs=30, batch_size="full", seed=3,
                      guidance=VANILLA, warmup_steps=0)
    report = tr.train(spec, task, cfg)
    losses = [r.loss_total for r in report.records]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_guided_full_batch_loss_decreases():
    spec, task = _spec(), _task(noise=0.4)
    cfg = TrainConfig(learning_rate=0.02, epochs=30, batch_size="full", seed=3,
                      warmup_steps=5,
                      guidance=GuidanceConfig(lambda1=0.05, lambda2=0.05, lambda3=0.0))
    report = tr.train(spec, task, cfg)
    assert report.records[-1].loss_total < report.records[0].loss_total


def _perceptron_separable(task):
    """Pocket-style check that a linear rule fits the training set exactly."""
    x = np.hstack([task.inputs, np.ones((len(task), 1))])
    w = np.zeros((x.shape[1], task.num_classes))
    for _ in range(2000):
        scores = x @ w
        pred = scores.argmax(axis=1)
        wrong = np.flatnonzero(pred != task.labels)
        if wrong.size == 0:
            return True
        i = wrong[0]
        w[:, task.labels[i]] += x[i]
        w[:, pred[i]] -= x[i]
    return False


def test_separable_task_reaches_full_training_accuracy():
    spec = _spec()
    task = _task(noise=0.15)
    assert _perceptron_separable(task)
    cfg = TrainConfig(learning_rate=0.5, epochs=120, batch_size="full", seed=0,
                      guidance=VANILLA, warmup_steps=0, eval_interval=1000)
    report = tr.train(spec, task, cfg)
    assert report.final_accuracy == 1.0


def test_direction_penalty_raises_prior_alignment():
    spec, task = _spec(), _task(noise=0.8)
    mk = lambda lam: TrainConfig(learning_rate=0.05, epochs=4, batch_size=20, seed=21,
                                 warmup_steps=6,
                                 guidance=GuidanceConfig(lambda1=lam, lambda2=0.0,
                                                         lambda3=0.0, tau=1.0))
    plain = tr.train(spec, task, mk(0.0))
    guided = tr.train(spec, task, mk(25.0))

    def tail_cos(report):
        cos = [r.cos_prior for r in report.records if r.cos_prior is not None]
        tail = cos[len(cos) // 2:]
        return sum(tail) / len(tail)

    assert tail_cos(guided) > tail_cos(plain)


def test_magnitude_penalty_pulls_norms_toward_tau():
    spec, task = _spec(), _task(noise=0.8)
    tau = 0.2  # well below the unguided norms so the pull is visible
    mk = lambda lam: TrainConfig(learning_rate=0.05, epochs=4, batch_size=20, seed=22,
                                 warmup_steps=3,
                                 guidance=GuidanceConfig(lambda1=0.0, lambda2=lam,
                                                         lambda3=0.0, tau=tau))
    plain = tr.train(spec, task, mk(0.0))
    guided = tr.train(spec, task, mk(5.0))

    def tail_dev(report):
        devs = [abs(r.grad_norm - tau) for r in report.records]
        tail = devs[len(devs) // 2:]
        return sum(tail) / len(tail)

    assert tail_dev(guided) < tail_dev(plain)


# -- fused dense layers ------------------------------------------------------------

def _unfused_dense(x, w, b, tanh=False):
    z = ad.add(ad.matmul(x, w), b)
    return ad.tanh(z) if tanh else z


@pytest.mark.parametrize("dim,hidden,k,rows", [(16, (32, 32), 4, 32), (256, (256,), 8, 1024)],
                         ids=["mlp32x32", "mlp256"])
def test_dense_layers_are_bitwise_the_unfused_chain(dim, hidden, k, rows, monkeypatch):
    # The same forward value, gradient, H·v (both routes) and training steps
    # from one dense record per layer as from a matmul -> add -> tanh chain.
    spec = md.ModelSpec(kind="mlp", input_dim=dim, num_classes=k, hidden_dims=hidden,
                        init_seed=3)
    task = make_gaussian_task(dim=dim, num_classes=k, n_per_class=rows // k,
                              separation=2.0, noise_std=0.6, seed=4)
    batch = (task.inputs, task.labels)
    params = md.init_params(spec)
    rng = np.random.default_rng(8)
    n = md.param_layout(spec).total
    v, source = rng.standard_normal(n), rng.standard_normal(n)
    prior = gd.update_prior(DirectionPrior(), rng.standard_normal(n), GuidanceConfig())

    def run():
        out = [md.logits_array(spec, params, batch[0]), tr.base_gradient(spec, params, batch)]
        with ad.new_tape() as tape:
            leaves = {name: ad.leaf(a) for name, a in params.items()}
            loss = gd.base_loss(leaves, spec, batch)
            records = len(tape)
            out.append(ad.hvp_recorded(loss, leaves, v).values)
        out.append(ad.hvp(lambda t: gd.base_loss(t, spec, batch), params, v).values)
        for mode in ("vanilla", "exact", "fd-hvp"):
            gcfg = VANILLA if mode == "vanilla" else GuidanceConfig(
                lambda1=0.2, lambda2=0.1, lambda3=0.1, tau=1.0, mode=mode)
            state, record = tr.train_step(_state(spec, params, prior, source), batch,
                                          TrainConfig(optimizer="adam", guidance=gcfg))
            out += [_flat(spec, state.params), repr(replace(record, wall_time=0.0)).encode()]
        return records, [o if isinstance(o, bytes) else o.tobytes() for o in out]

    fused_records, fused = run()
    monkeypatch.setattr(ad, "dense", _unfused_dense)
    unfused_records, unfused = run()
    # with the loss: one record per layer, or three per hidden layer and two
    # for the output layer
    assert (fused_records, unfused_records) == (len(hidden) + 2, 3 * len(hidden) + 3)
    assert fused == unfused


# -- parameters across steps -----------------------------------------------------

def _independent(state):
    """``state`` rebuilt from copies of its arrays, as acceptance criterion
    04 builds a state: a dict of independent parameter arrays."""
    opt = state.opt
    return tr.TrainState(state.model_spec, {k: np.array(a) for k, a in state.params.items()},
                         state.prior, state.source_grad, state.step,
                         tr.OptState(opt.m.copy(), opt.v.copy(), opt.t))


def _step_bytes(state, record):
    return [_flat(state.model_spec, state.params).tobytes(), state.opt.m.tobytes(),
            state.opt.v.tobytes(), repr(replace(record, wall_time=0.0))]


@pytest.mark.parametrize("mode", ["vanilla", "exact", "fd-hvp"])
@pytest.mark.parametrize("kind", _FAMILIES)
def test_steps_from_their_own_state_are_steps_from_independent_arrays(kind, mode):
    # train_step reads again the parameter vector whose views it handed
    # out; from a state of independent arrays it flattens them instead
    spec, task = _FAMILIES[kind], _task()
    rng = np.random.default_rng(9)
    n = md.param_layout(spec).total
    gcfg = VANILLA if mode == "vanilla" else GuidanceConfig(
        lambda1=0.2, lambda2=0.1, lambda3=0.1, tau=1.0, mode=mode)
    prior = gd.update_prior(DirectionPrior(), rng.standard_normal(n), gcfg)
    cfg = TrainConfig(optimizer="adam", guidance=gcfg)
    state = _state(spec, md.init_params(spec), prior, rng.standard_normal(n))
    for i in range(6):
        batch = (task.inputs[16 * i:16 * i + 16], task.labels[16 * i:16 * i + 16])
        fresh = _independent(state)
        chained = tr.train_step(state, batch, cfg)
        assert _step_bytes(*chained) == _step_bytes(*tr.train_step(fresh, batch, cfg))
        state = chained[0]
        # the returned arrays cannot be written, nor can the vector they view
        for a in state.params.values():
            assert not a.flags.writeable and not a.base.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0


def test_a_replaced_parameter_entry_is_what_the_next_step_reads():
    spec, task = _FAMILIES["mlp"], _task()
    batch = (task.inputs[:16], task.labels[:16])
    cfg = TrainConfig(guidance=VANILLA)
    state, _ = tr.train_step(_state(spec, md.init_params(spec)), batch, cfg)
    state.params["w1"] = state.params["w1"] * 0.5
    expected = _step_bytes(*tr.train_step(_independent(state), batch, cfg))
    assert _step_bytes(*tr.train_step(state, batch, cfg)) == expected


def test_a_deep_copied_state_steps_from_its_own_arrays():
    # a deep copy's params are writable copies, no longer views of its
    # copied vector: a write into one is what the next step reads
    spec, task = _FAMILIES["mlp"], _task()
    batch = (task.inputs[:16], task.labels[:16])
    cfg = TrainConfig(guidance=VANILLA)
    state, _ = tr.train_step(_state(spec, md.init_params(spec)), batch, cfg)
    state = copy.deepcopy(state)
    state.params["w1"][...] *= 0.5
    expected = _step_bytes(*tr.train_step(_independent(state), batch, cfg))
    assert _step_bytes(*tr.train_step(state, batch, cfg)) == expected


# -- mechanics -------------------------------------------------------------------

_STEP_MODELS = {
    **_FAMILIES,
    "mlp256": md.ModelSpec(kind="mlp", input_dim=256, num_classes=10, hidden_dims=(256,),
                           init_seed=11),
}


def _steps_of_each_mode(spec, batch_size=256):
    """A function giving the bytes of one vanilla, one exact and one fd-hvp
    Adam ``train_step`` of ``spec`` from its init, all penalties active."""
    k, dim = spec.num_classes, spec.input_dim
    task = _task(dim=dim, k=k, n=batch_size // k + 1)
    batch = (task.inputs[:batch_size], task.labels[:batch_size])
    rng = np.random.default_rng(6)
    n = md.param_layout(spec).total
    prior = gd.update_prior(DirectionPrior(), rng.standard_normal(n), GuidanceConfig())
    source = rng.standard_normal(n)

    def steps():
        out = []
        for mode in ("vanilla", "exact", "fd-hvp"):
            gcfg = VANILLA if mode == "vanilla" else GuidanceConfig(
                lambda1=0.2, lambda2=0.1, lambda3=0.1, tau=1.0, mode=mode)
            state, record = tr.train_step(_state(spec, md.init_params(spec), prior, source),
                                          batch, TrainConfig(optimizer="adam", guidance=gcfg))
            out += [_flat(spec, state.params).tobytes(), repr(replace(record, wall_time=0.0))]
        return out
    return steps


@pytest.mark.parametrize("kind", _STEP_MODELS)
def test_steps_are_bitwise_the_same_with_the_composed_cross_entropy_rule(kind, monkeypatch):
    # The loss record keeps its softmax for the array and tangent sweeps;
    # with it dropped, every sweep runs the composed rule, with the same bits.
    steps = _steps_of_each_mode(_STEP_MODELS[kind])
    kept = steps()
    dropped = []
    op = ad.softmax_cross_entropy

    def composed(logits, labels):
        out = op(logits, labels)
        rec = ad.active_tape().records[-1]
        rec.attrs = {"labels": rec.attrs["labels"]}
        dropped.append(rec)
        return out

    monkeypatch.setattr(ad, "softmax_cross_entropy", composed)
    # the array sweep rule reads parts kept from the dropped softmax; the
    # reference sweeps the record without them
    ce = ad._OPS["softmax_cross_entropy"]
    monkeypatch.setitem(ad._OPS, "softmax_cross_entropy", replace(ce, sweep=ad._dual_sweep))
    assert steps() == kept
    assert len(dropped) == 4   # one loss per step, and fd-hvp's probe


def test_attention_steps_are_bitwise_the_same_with_the_composed_softmax_chain(monkeypatch):
    # tiny_attention (4, 8) at batch 32: its one attention record against the
    # chain of reshape, matmul and composed softmax records it stands for,
    # in every step mode
    spec = md.ModelSpec(kind="tiny_attention", input_dim=16, num_classes=4,
                        hidden_dims=(4, 8), init_seed=3)
    steps = _steps_of_each_mode(spec, batch_size=32)
    fused = steps()
    monkeypatch.setattr(ad, "attention", attention_chain)
    monkeypatch.setattr(ad, "softmax", composed_softmax)
    assert steps() == fused


@pytest.mark.parametrize("hidden", [(4, 8), (2, 4), (8, 8), (1, 8)], ids=str)
def test_attention_record_is_bitwise_the_matmul_reshape_softmax_chain(hidden, monkeypatch):
    # The one attention record against the chain of reshape, matmul and
    # softmax records it stands for: the value, the gradient, H·v by
    # grad_and_hvp and by hvp_recorded, and a step of each mode, bit for
    # bit.  Double backprop recomposes the chain in another order, so ad.hvp
    # moves by rounding alone.
    spec = md.ModelSpec(kind="tiny_attention", input_dim=16, num_classes=4,
                        hidden_dims=hidden, init_seed=3)
    task = _task(dim=16, k=4, n=8)
    batch = (task.inputs, task.labels)
    params = md.init_params(spec)
    v = np.random.default_rng(8).standard_normal(md.param_layout(spec).total)
    steps = _steps_of_each_mode(spec, batch_size=32)

    def run():
        out, records = [], []
        for one_sweep in (True, False):
            with ad.new_tape() as tape:
                leaves = {name: ad.leaf(a) for name, a in params.items()}
                f = gd.base_loss(leaves, spec, batch)
                records.append(len(tape))
                if one_sweep:
                    grad, hv = ad.grad_and_hvp(f, leaves)
                    out += [f.values, grad.values, hv(v).values]
                else:
                    out += [f.values, ad.backward(f, leaves).values,
                            ad.hvp_recorded(f, leaves, v).values]
        hvp = ad.hvp(lambda t: gd.base_loss(t, spec, batch), params, v).values
        return records, [a.tobytes() for a in out] + steps(), hvp

    fused_records, fused, fused_hvp = run()
    monkeypatch.setattr(ad, "attention", attention_chain)
    chain_records, chain, chain_hvp = run()
    assert (fused_records, chain_records) == ([3, 3], [13, 13])
    assert fused == chain
    assert np.linalg.norm(fused_hvp - chain_hvp) <= 1e-15 * np.linalg.norm(chain_hvp)


def _clipped_training():
    cfg = TrainConfig(learning_rate=0.1, epochs=2, batch_size=10, seed=5,
                      guidance=VANILLA, warmup_steps=0, gradient_clip=0.05)
    return cfg, tr.train(_spec(), _task(), cfg).records


def _clipped_step_of_huge_features():
    # features near 1e160 give a finite update whose sum of squares
    # overflows; clipping must still scale it to lr·clip, not to 0
    spec = md.ModelSpec(kind="logistic", input_dim=4, num_classes=2, init_scale=0.0)
    rng = np.random.default_rng(0)
    batch = (rng.standard_normal((8, 4)) * 1e160, rng.integers(0, 2, 8))
    cfg = TrainConfig(optimizer="sgd", learning_rate=1e-3, guidance=VANILLA,
                      warmup_steps=0, gradient_clip=1.0)
    state, record = tr.train_step(_state(spec, md.init_params(spec)), batch, cfg)
    assert record.grad_norm > 1e159
    assert not np.array_equal(_flat(spec, state.params), np.zeros(10))
    return cfg, [record]


@pytest.mark.filterwarnings("ignore:overflow")   # the huge update's norm, taken scaled
def test_gradient_clip_bounds_update_norm():
    for cfg, records in (_clipped_training(), _clipped_step_of_huge_features()):
        bound = cfg.learning_rate * cfg.gradient_clip
        assert any(r.grad_norm > cfg.gradient_clip for r in records)
        for r in records:
            assert r.update_norm <= bound + 1e-12
            if r.grad_norm > cfg.gradient_clip:
                assert r.update_norm >= bound * (1.0 - 1e-12)


def test_nonfinite_forward_raises_divergence_error():
    # softmax cross-entropy gradients are bounded, so a huge learning rate
    # alone cannot overflow a logistic model; blow up the init instead
    task = _task()
    assert np.abs(task.inputs).max() > 2.3  # guarantees inf in the first matmul
    spec = md.ModelSpec(kind="logistic", input_dim=6, num_classes=3,
                        init_scale=8e307, init_seed=11)
    cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size="full", seed=0,
                      guidance=VANILLA, warmup_steps=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as exc:
            tr.train(spec, task, cfg)
    assert exc.value.step == 1


# Outcome of a blown-up run for every model family x step mode: the step of
# the DivergenceError (0 for a warmup gradient), or None when the run
# finishes.  The values were recorded before first-order backward ran on
# plain arrays; a change in how the backward sweep raises on NaN/Inf would
# move them.  The fd-hvp runs of logistic and mlp finish, as the exact ones
# do: the fd probe's eps takes the parameter norm scaled (gd.norm), so it
# stays finite past ~1e154.  Huge inits run without warmup (lambda1 = 0,
# fixed tau) here, and with two warmup steps in _WARMUP_BLOWUP_STEPS.
_BLOWUP_MODELS = {"logistic": (), "mlp": (8, 8), "tiny_attention": (2, 4)}
_BLOWUP_STEPS = {
    # (init_scale, learning_rate): {model: (vanilla, exact, fd-hvp)}
    (8e307, 0.1): {"logistic": (1, 1, 1), "mlp": (1, 1, 1), "tiny_attention": (1, 1, 1)},
    (1e154, 0.1): {"logistic": (None, None, None), "mlp": (None, None, None),
                   "tiny_attention": (1, 1, 1)},
    (0.1, 1e300): {"logistic": (None, None, None), "mlp": (None, None, None),
                   "tiny_attention": (2, 2, 2)},
}
# The same huge inits after two warmup steps (lambda1 = 0.2, tau "auto"):
# where the forward pass overflows, the first warmup gradient does.
_WARMUP_BLOWUP_STEPS = {
    (8e307, 0.1): {"logistic": (0, 0, 0), "mlp": (0, 0, 0), "tiny_attention": (0, 0, 0)},
    (1e154, 0.1): {"logistic": (None, None, None), "mlp": (None, None, None),
                   "tiny_attention": (0, 0, 0)},
}


def _assert_blowup_outcome(kind, mode, scale, lr, warmup_steps, expected):
    task = make_gaussian_task(dim=8, num_classes=3, n_per_class=20, separation=2.0,
                              noise_std=0.6, seed=3)
    spec = md.ModelSpec(kind=kind, input_dim=8, num_classes=3,
                        hidden_dims=_BLOWUP_MODELS[kind], init_scale=scale, init_seed=11)
    if mode == "vanilla":
        guidance = VANILLA
    elif warmup_steps:
        guidance = GuidanceConfig(lambda1=0.2, lambda2=0.1, lambda3=0.0, mode=mode)
    else:
        guidance = GuidanceConfig(lambda1=0.0, lambda2=0.1, lambda3=0.0, tau=1.0, mode=mode)
    cfg = TrainConfig(learning_rate=lr, epochs=2, batch_size=10, seed=0,
                      guidance=guidance, warmup_steps=warmup_steps)
    with np.errstate(all="ignore"):
        if expected is None:
            tr.train(spec, task, cfg)
        else:
            with pytest.raises(DivergenceError) as exc:
                tr.train(spec, task, cfg)
            assert exc.value.step == expected


@pytest.mark.parametrize("kind", _BLOWUP_MODELS)
@pytest.mark.parametrize("mode_index,mode", enumerate(("vanilla", "exact", "fd-hvp")))
@pytest.mark.parametrize("scale,lr", _BLOWUP_STEPS)
def test_divergence_step_is_pinned(kind, mode_index, mode, scale, lr):
    huge_init = scale > 1.0
    _assert_blowup_outcome(kind, mode, scale, lr, 0 if huge_init else 2,
                           _BLOWUP_STEPS[(scale, lr)][kind][mode_index])


@pytest.mark.parametrize("kind", _BLOWUP_MODELS)
@pytest.mark.parametrize("mode_index,mode", enumerate(("vanilla", "exact", "fd-hvp")))
@pytest.mark.parametrize("scale,lr", _WARMUP_BLOWUP_STEPS)
def test_divergence_step_after_warmup_is_pinned(kind, mode_index, mode, scale, lr):
    _assert_blowup_outcome(kind, mode, scale, lr, 2,
                           _WARMUP_BLOWUP_STEPS[(scale, lr)][kind][mode_index])


def test_eval_interval_pattern():
    spec, task = _spec(), _task()
    cfg = TrainConfig(epochs=1, batch_size=10, seed=2, guidance=VANILLA,
                      warmup_steps=0, eval_interval=3)
    report = tr.train(spec, task, cfg)
    for r in report.records:
        if r.step % 3 == 0:
            assert r.eval_accuracy is not None
        else:
            assert r.eval_accuracy is None


@pytest.mark.parametrize("interval,evaluations", [(3, 4), (5, 3)])
def test_final_accuracy_reuses_the_last_periodic_evaluation(interval, evaluations,
                                                            monkeypatch):
    # 12 steps: at interval 3 the step-12 evaluation is the final one; at
    # interval 5 steps 5 and 10 are evaluated, then the final parameters
    spec, task = _spec(), _task()
    cfg = TrainConfig(epochs=1, batch_size=10, seed=2, guidance=VANILLA,
                      warmup_steps=0, eval_interval=interval)
    calls, evaluate = [], tr.evaluate
    monkeypatch.setattr(tr, "evaluate", lambda *a: calls.append(1) or evaluate(*a))
    report = tr.train(spec, task, cfg)
    assert len(report.records) == 12 and len(calls) == evaluations
    assert report.final_accuracy == evaluate(report.final_params, spec, task)


_SUMMARY_GUIDANCE = {
    "vanilla": VANILLA,
    "exact": GuidanceConfig(lambda1=0.2, lambda2=0.1, lambda3=0.1, mode="exact"),
    "fd-hvp": GuidanceConfig(lambda1=0.2, lambda2=0.1, lambda3=0.1, mode="fd-hvp"),
}


@pytest.mark.parametrize("mode", _SUMMARY_GUIDANCE)
@pytest.mark.parametrize("kind", _FAMILIES)
def test_summary_only_training_has_the_summary_bits(kind, mode):
    # 8 steps at eval_interval 3: a full run's last periodic evaluation is
    # at step 6, so both runs evaluate the final parameters on their own
    source, target = make_task_pair(TaskPairSpec(6, 3, 2.0, 60.0, 0.6, seed=5,
                                                 n_per_class=20))
    hold = _task(seed=30, n=10)
    cfg = TrainConfig(optimizer="adam", learning_rate=0.01, epochs=2, batch_size=16,
                      seed=4, warmup_steps=3, eval_interval=3,
                      guidance=_SUMMARY_GUIDANCE[mode])
    spec = _FAMILIES[kind]
    full = tr.train(spec, target, cfg, source_task=source, eval_task=hold)
    lean = tr.train(spec, target, cfg, source_task=source, eval_task=hold, summary_only=True)
    assert [r.step for r in full.records if r.eval_accuracy is not None] == [3, 6]
    assert len(full.records) == 8 and all(r.cos_source is not None for r in full.records)
    assert [repr(v) for v in astuple(mt.summarize(lean))] == \
        [repr(v) for v in astuple(mt.summarize(full))]
    assert _flat(spec, lean.final_params).tobytes() == _flat(spec, full.final_params).tobytes()
    for a, b in zip(lean.records, full.records):
        cos_source = None if mode == "vanilla" else b.cos_source
        assert replace(a, wall_time=0.0) == replace(b, eval_accuracy=None, wall_time=0.0,
                                                    cos_source=cos_source)


def test_summary_only_evaluation_overflow_is_a_divergence_at_its_step():
    # the scenario below, with no periodic evaluation: the final one raises
    cfg = TrainConfig(learning_rate=1e308, epochs=1, batch_size="full", seed=0,
                      guidance=VANILLA, warmup_steps=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as exc:
            tr.train(_spec(), _task(), cfg, summary_only=True)
    assert exc.value.step == 1 and "evaluation" in str(exc.value)
    assert isinstance(exc.value.__cause__, ad.NonFiniteError)


def test_eval_task_used_for_accuracy():
    spec = _spec()
    task = _task(seed=3)
    hold = _task(seed=30, n=10)
    cfg = TrainConfig(epochs=1, batch_size="full", seed=2, guidance=VANILLA,
                      warmup_steps=0)
    report = tr.train(spec, task, cfg, eval_task=hold)
    assert report.final_accuracy == tr.evaluate(report.final_params, spec, hold)


def test_batch_schedule_covers_each_epoch():
    n, bs, epochs = 23, 5, 3
    batches = tr.batch_schedule(n, bs, epochs, 123)
    per_epoch = int(np.ceil(n / bs))
    assert len(batches) == per_epoch * epochs
    for e in range(epochs):
        chunk = np.concatenate(batches[e * per_epoch:(e + 1) * per_epoch])
        assert sorted(chunk.tolist()) == list(range(n))
    assert [len(b) for b in batches[:per_epoch]] == [5, 5, 5, 5, 3]


def test_trainer_draws_its_schedule_one_epoch_at_a_time():
    # a schedule of 10**12 epochs starts at once, with the list form's batches
    lazy = tr._epoch_batches(23, 5, 10**12, [4, tr._SCHEDULE_STREAM])
    first = [next(lazy) for _ in range(12)]
    listed = tr.batch_schedule(23, 5, 3, [4, tr._SCHEDULE_STREAM])[:12]
    assert [b.tobytes() for b in first] == [b.tobytes() for b in listed]


def test_batch_schedule_full_and_oversized():
    assert [len(b) for b in tr.batch_schedule(7, "full", 2, 0)] == [7, 7]
    assert [len(b) for b in tr.batch_schedule(7, 100, 1, 0)] == [7]
    assert np.array_equal(tr.batch_schedule(5, "full", 1, 9)[0],
                          np.random.default_rng(9).permutation(5))
    with pytest.raises(TrainerError):
        tr.batch_schedule(0, "full", 1, 0)


def test_random_params_near_chance_accuracy():
    task = make_gaussian_task(dim=4, num_classes=4, n_per_class=2500,
                              separation=0.0, noise_std=1.0, seed=17)
    spec = md.ModelSpec(kind="logistic", input_dim=4, num_classes=4, init_seed=99)
    acc = tr.evaluate(md.init_params(spec), spec, task)
    assert abs(acc - 0.25) < 0.02


def test_config_validation():
    with pytest.raises(TrainerError):
        TrainConfig(optimizer="lbfgs")
    with pytest.raises(TrainerError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(TrainerError):
        TrainConfig(epochs=-1)
    with pytest.raises(TrainerError):
        TrainConfig(batch_size=0)
    with pytest.raises(TrainerError):
        TrainConfig(eval_interval=0)
    with pytest.raises(TrainerError):
        TrainConfig(epochs=True)
    for seed in ("x", True, -1, 1.5):
        with pytest.raises(TrainerError):
            TrainConfig(seed=seed)


def test_config_dict_roundtrip():
    cfg = TrainConfig(optimizer="adam", learning_rate=0.01, epochs=3, batch_size=8,
                      seed=42, guidance=GuidanceConfig(lambda3=0.0, tau=2.0),
                      warmup_steps=4, gradient_clip=1.0, eval_interval=5)
    assert TrainConfig.from_dict(fields.to_dict(cfg)) == cfg
    with pytest.raises(TrainerError, match="unknown"):
        TrainConfig.from_dict({"learning_rte": 0.1})


def test_config_keeps_numbers_as_given():
    # reports echo the config, so an int-valued number keeps its JSON form
    d = fields.to_dict(TrainConfig.from_dict({"learning_rate": 1, "adam_betas": [0, 0.5],
                                              "guidance": {"tau": 2, "lambda3": 0}}))
    assert json.dumps(d["learning_rate"]) == "1" and d["adam_betas"] == [0, 0.5]
    assert json.dumps([d["guidance"]["tau"], d["guidance"]["lambda3"]]) == "[2, 0]"


# -- artifacts -------------------------------------------------------------------

def test_csv_format_and_determinism(tmp_path):
    spec, task = _spec(), _task()
    cfg = TrainConfig(epochs=1, batch_size=20, seed=12, warmup_steps=4,
                      guidance=GuidanceConfig(lambda3=0.0), eval_interval=2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    tr.write_step_csv(tr.train(spec, task, cfg), p1)
    tr.write_step_csv(tr.train(spec, task, cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()

    lines = p1.read_text().splitlines()
    assert lines[0] == ",".join(tr.CSV_COLUMNS)
    assert len(lines) == 1 + len(tr.batch_schedule(len(task), 20, 1, 0))
    # odd steps carry no eval accuracy: trailing cell is empty, not "None"
    first = lines[1].split(",")
    assert first[0] == "1" and first[-1] == ""
    # floats are written with repr so a parse round trip is exact
    row2 = lines[2].split(",")
    assert repr(float(row2[1])) == row2[1]


def test_wide_vanilla_step_csv_is_the_same_with_transposed_views(tmp_path, monkeypatch):
    # 320 x 256 batches and hidden activations: the first layer's weight
    # gradient (256·320·256) takes the transposed view of x and the two
    # flagged products of the 4-class layer (256·320·4, 320·4·256) copy,
    # unless the view bound is raised past all of them.
    spec = md.ModelSpec(kind="mlp", input_dim=256, num_classes=4, hidden_dims=(256,),
                        init_seed=2)
    task = _task(seed=4, dim=256, k=4, n=80)
    cfg = TrainConfig(optimizer="adam", learning_rate=0.001, epochs=3,
                      guidance=VANILLA, warmup_steps=0)
    views = []
    transposed = ad._transposed

    def spy(a, view):
        views.append(view)
        return transposed(a, view)

    monkeypatch.setattr(ad, "_transposed", spy)
    tr.write_step_csv(tr.train(spec, task, cfg), tmp_path / "views.csv")
    assert views.count(True) == 3 and views.count(False) == 2 * 3
    monkeypatch.setattr(ad, "_VIEW_MIN_WORK", 2 ** 62)
    views.clear()
    tr.write_step_csv(tr.train(spec, task, cfg), tmp_path / "copies.csv")
    assert views and not any(views)
    assert (tmp_path / "views.csv").read_bytes() == (tmp_path / "copies.csv").read_bytes()


def test_report_json_shape(tmp_path):
    spec, task = _spec(), _task()
    cfg = TrainConfig(epochs=1, batch_size=20, seed=12, warmup_steps=4,
                      guidance=GuidanceConfig(lambda3=0.0))
    report = tr.train(spec, task, cfg)
    path = tmp_path / "report.json"
    tr.write_report_json(report, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"config", "records", "final"}
    assert doc["config"]["model"]["kind"] == "logistic"
    assert doc["config"]["train"]["guidance"]["tau"] == report.tau
    assert len(doc["records"]) == len(report.records)
    assert set(doc["records"][0]) == set(tr.CSV_COLUMNS)
    assert "wall_time" not in doc["records"][0]
    assert doc["final"]["steps"] == len(report.records)
    assert doc["final"]["tau"] == report.tau
    assert doc["final"]["wall_time_s"] > 0.0

    # identical rerun differs at most in wall time
    again = tr.report_to_dict(tr.train(spec, task, cfg))
    doc["final"].pop("wall_time_s"), again["final"].pop("wall_time_s")
    assert again == doc
