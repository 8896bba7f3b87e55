"""Acceptance gate: ten criteria, one verdict line each.

Each criterion is a single test; run `pytest tests/test_acceptance.py -v -s`
to see the [PASS]/[FAIL] lines inline (without -s they appear in the captured
output of any failing test).
"""

import json
import time
from dataclasses import replace

import numpy as np

from gradguide import autodiff as ad
from gradguide import cli
from gradguide import guidance as gd
from gradguide import metrics as mt
from gradguide import model as md
from gradguide import tasks as tk
from gradguide import trainer as tr

_T0 = time.time()

NO_GUIDE = gd.GuidanceConfig(lambda1=0.0, lambda2=0.0, lambda3=0.0)

LOGISTIC = md.ModelSpec(kind="logistic", input_dim=6, num_classes=3, init_seed=11)
MLP = md.ModelSpec(kind="mlp", input_dim=6, num_classes=3, hidden_dims=(8,),
                   init_seed=11)
ATTENTION = md.ModelSpec(kind="tiny_attention", input_dim=6, num_classes=3,
                         hidden_dims=(2, 4), init_seed=11)


class _verdict:
    """Prints exactly one [PASS]/[FAIL] line for the wrapped criterion."""

    def __init__(self, num, name):
        self.num, self.name = num, name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "FAIL" if exc_type else "PASS"
        print(f"[{status}] criterion {self.num}: {self.name}")
        return False


def _task(seed, noise=0.5, n=40):
    return tk.make_gaussian_task(dim=6, num_classes=3, n_per_class=n,
                                 separation=2.0, noise_std=noise, seed=seed)


def _base_grad(spec, params, batch):
    with ad.new_tape():
        leaves = {k: ad.leaf(v) for k, v in params.items()}
        return ad.backward(gd.base_loss(leaves, spec, batch), leaves).values


def test_criterion_01_first_order_gradients():
    with _verdict(1, "base-loss gradient vs central differences, all "
                     "architectures, rel < 1e-5"):
        batch = _task(seed=7, n=10).batch()
        for spec in (LOGISTIC, MLP, ATTENTION):
            assert md.param_layout(spec).total <= 200
            rel = cli._fd_vs_autodiff(
                md.init_params(spec), lambda p, s=spec: gd.base_loss(p, s, batch))
            assert rel < 1e-5, f"{spec.kind}: rel={rel:.3e}"


def test_criterion_02_second_order():
    with _verdict(2, "exact total gradient < 1e-4 vs FD; HVP < 1e-4 vs FD of "
                     "gradients; quadratic HVP exact to 1e-10"):
        batch = _task(seed=8, n=10).batch()
        params0 = md.init_params(LOGISTIC)
        g0 = _base_grad(LOGISTIC, params0, batch)
        cfg = gd.GuidanceConfig(lambda1=0.4, lambda2=0.3, lambda3=0.0,
                                tau=0.8 * float(np.linalg.norm(g0)), mode="exact")
        prior = gd.update_prior(gd.DirectionPrior(), g0, cfg)

        def total(leaves):
            return gd.build_objective(leaves, LOGISTIC, batch, cfg, prior, None).total

        rel = cli._fd_vs_autodiff(params0, total)
        assert rel < 1e-4, f"total-loss gradient rel={rel:.3e}"

        # HVP against central differences of base gradients on the MLP
        params = md.init_params(MLP)
        layout = md.param_layout(MLP)
        flat0 = layout.flatten(params)
        v = np.random.default_rng(3).standard_normal(layout.total)
        v /= np.linalg.norm(v)
        hv = ad.hvp(lambda p: gd.base_loss(p, MLP, batch), params, v).values
        eps = 1e-5 * (1.0 + float(np.linalg.norm(flat0)))
        gp = _base_grad(MLP, layout.unflatten(flat0 + eps * v), batch)
        gm = _base_grad(MLP, layout.unflatten(flat0 - eps * v), batch)
        fd = (gp - gm) / (2.0 * eps)
        rel = np.linalg.norm(fd - hv) / np.linalg.norm(hv)
        assert rel < 1e-4, f"hvp rel={rel:.3e}"

        # quadratic 0.5 x^T A x: HVP must equal Av to 1e-10
        rng = np.random.default_rng(12)
        q = rng.standard_normal((8, 8))
        a = q @ q.T + 8.0 * np.eye(8)
        theta0 = rng.standard_normal((1, 8))
        v8 = rng.standard_normal(8)

        def quad(leaves):
            t = leaves["theta"]
            return ad.scalar_mul(ad.sum_(ad.mul(ad.matmul(t, ad.constant(a)), t)), 0.5)

        hv = ad.hvp(quad, {"theta": theta0}, v8).values
        assert np.max(np.abs(hv - a @ v8)) < 1e-10


def test_criterion_03_closed_form_regularizers():
    with _verdict(3, "all regularizer hand examples reproduced to 1e-10"):
        g34 = np.array([3.0, 4.0])
        p = lambda d: gd.DirectionPrior(direction=np.asarray(d, dtype=float), count=1)
        cases = [
            (gd.direction_regularizer(g34, p([0.6, 0.8]), 7.0), 0.0),
            (gd.direction_regularizer(g34, p([-0.6, -0.8]), 1.0), 4.0),
            (gd.direction_regularizer(g34, p([1.0, 0.0]), 1.0), 0.8),
            (gd.magnitude_regularizer(g34, 5.0, 2.0), 0.0),
            (gd.magnitude_regularizer(np.zeros(2), 1.0, 3.0), 3.0),
            (gd.magnitude_regularizer(g34, 1.0, 0.5), 8.0),
            (gd.contrast_loss(np.array([1.0, 2.0, 3.0]),
                              np.array([1.0, 2.0, 3.0]), 5.0), 0.0),
            (gd.contrast_loss(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 1.0), 2.0),
            (gd.contrast_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 4.0), 4.0),
        ]
        for got, want in cases:
            assert abs(got - want) < 1e-10, f"got {got!r}, want {want!r}"


def test_criterion_04_vanilla_bitwise_equivalence():
    with _verdict(4, "lambda = 0 trajectory bitwise-identical to the vanilla "
                     "loop over 105 steps"):
        spec = LOGISTIC
        task = _task(seed=9)
        lr, bs, epochs, seed = 0.1, 8, 7, 5
        layout = md.param_layout(spec)
        schedule = tr.batch_schedule(len(task), bs, epochs, [seed, tr._SCHEDULE_STREAM])
        assert len(schedule) == 105

        flats = []
        flat = layout.flatten(md.init_params(spec))
        for idx in schedule:
            g = _base_grad(spec, layout.unflatten(flat),
                           (task.inputs[idx], task.labels[idx]))
            flat = flat - lr * g
            flats.append(flat.copy())

        cfg = tr.TrainConfig(learning_rate=lr, epochs=epochs, batch_size=bs,
                             seed=seed, guidance=NO_GUIDE, warmup_steps=0)
        state = tr.TrainState(
            model_spec=spec, params=md.init_params(spec), prior=gd.DirectionPrior(),
            source_grad=None, step=0,
            opt=tr.OptState(np.zeros(layout.total), np.zeros(layout.total)))
        for i, idx in enumerate(schedule):
            state, _ = tr.train_step(state, (task.inputs[idx], task.labels[idx]), cfg)
            assert layout.flatten(state.params).tobytes() == flats[i].tobytes(), \
                f"diverged at step {i + 1}"

        report = tr.train(spec, task, cfg)
        assert layout.flatten(report.final_params).tobytes() == flats[-1].tobytes()


def _tail_mean(values):
    tail = values[3 * len(values) // 4:]
    return sum(tail) / len(tail)


def test_criterion_05_mechanism_effects():
    with _verdict(5, "direction and magnitude penalties win on >= 18 of 20 "
                     "paired seeds"):
        def run(seed, lam1, lam2, tau):
            task = _task(seed=300 + seed, noise=0.8)
            cfg = tr.TrainConfig(
                learning_rate=0.05, epochs=5, batch_size=20, seed=seed,
                warmup_steps=5,
                guidance=gd.GuidanceConfig(lambda1=lam1, lambda2=lam2,
                                           lambda3=0.0, tau=tau))
            return tr.train(LOGISTIC, task, cfg)

        dir_wins = mag_wins = 0
        for s in range(20):
            guided = run(s, 10.0, 0.0, 1.0)
            plain = run(s, 0.0, 0.0, 1.0)
            if (_tail_mean([r.cos_prior for r in guided.records])
                    > _tail_mean([r.cos_prior for r in plain.records])):
                dir_wins += 1
            guided = run(s, 0.0, 10.0, 0.25)
            plain = run(s, 0.0, 0.0, 0.25)
            if (_tail_mean([abs(r.grad_norm - 0.25) for r in guided.records])
                    < _tail_mean([abs(r.grad_norm - 0.25) for r in plain.records])):
                mag_wins += 1
        assert dir_wins >= 18, f"direction effect on {dir_wins}/20 seeds"
        assert mag_wins >= 18, f"magnitude effect on {mag_wins}/20 seeds"


def test_criterion_06_ordering_analogue():
    with _verdict(6, "conflict-30 pair: guided mean alignment > vanilla, "
                     "accuracy within 0.01"):
        va_align, gu_align, va_acc, gu_acc = [], [], [], []
        for s in range(20):
            pair = tk.TaskPairSpec(dim=6, num_classes=3, separation=2.0,
                                   conflict_angle_deg=30.0, noise_std=0.6,
                                   seed=400 + s, n_per_class=40)
            source, target = tk.make_task_pair(pair)
            base = dict(learning_rate=0.05, epochs=3, batch_size=20, seed=s,
                        warmup_steps=5)
            vanilla = tr.train(LOGISTIC, target,
                               tr.TrainConfig(**base, guidance=NO_GUIDE),
                               source_task=source)
            guided = tr.train(
                LOGISTIC, target,
                tr.TrainConfig(**base, guidance=gd.GuidanceConfig(
                    lambda1=0.2, lambda2=0.1, lambda3=0.1)),
                source_task=source)
            va_align.append(mt.alignment_from_cosines(
                [r.cos_prior for r in vanilla.records]))
            gu_align.append(mt.alignment_from_cosines(
                [r.cos_prior for r in guided.records]))
            va_acc.append(vanilla.final_accuracy)
            gu_acc.append(guided.final_accuracy)
        mean = lambda xs: sum(xs) / len(xs)
        assert mean(gu_align) > mean(va_align), \
            f"alignment {mean(gu_align):.4f} vs {mean(va_align):.4f}"
        assert mean(gu_acc) >= mean(va_acc) - 0.01, \
            f"accuracy {mean(gu_acc):.4f} vs {mean(va_acc):.4f}"


def _pocket_separable(task, iters=4000):
    x = np.hstack([task.inputs, np.ones((len(task), 1))])
    w = np.zeros((x.shape[1], task.num_classes))
    for _ in range(iters):
        pred = (x @ w).argmax(axis=1)
        wrong = np.flatnonzero(pred != task.labels)
        if wrong.size == 0:
            return True
        i = wrong[0]
        w[:, task.labels[i]] += x[i]
        w[:, pred[i]] -= x[i]
    return False


def test_criterion_07_sample_size_trend(tmp_path):
    with _verdict(7, "sweep 16..256 shots, 10 seeds: accuracy non-decreasing "
                     "within 0.02 and plateaued at 256"):
        for s in range(10):
            assert _pocket_separable(
                tk.make_gaussian_task(dim=6, num_classes=3, n_per_class=320,
                                      separation=2.0, noise_std=0.55, seed=100 + s))
        config = {
            "model": {"kind": "logistic", "input_dim": 6, "num_classes": 3,
                      "init_seed": 11},
            "task": {"kind": "gaussian", "dim": 6, "num_classes": 3,
                     "n_per_class": 320, "separation": 2.0, "noise_std": 0.55,
                     "seed": 100},
            "train": {"learning_rate": 0.2, "epochs": 3, "batch_size": 32,
                      "warmup_steps": 2, "eval_interval": 1000,
                      "guidance": {"lambda1": 0.0, "lambda2": 0.0, "lambda3": 0.0}},
            "method": "vanilla",
            "seeds": list(range(10)),
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "sweep_summary.csv").read_text().splitlines()[1:]
        shots = [int(l.split(",")[0]) for l in lines]
        accs = [float(l.split(",")[1]) for l in lines]
        assert shots == [16, 32, 64, 128, 256]
        for lo, hi in zip(accs, accs[1:]):
            assert hi >= lo - 0.02, f"accuracy dropped: {accs}"
        assert abs(accs[4] - accs[3]) <= 0.02, f"no plateau: {accs}"


def test_criterion_08_loss_curve_shape():
    with _verdict(8, "guided loss: >= 50% of the drop in the first quarter, "
                     "< 1% change over the final tenth (5 seeds)"):
        for s in range(5):
            task = _task(seed=500 + s)
            cfg = tr.TrainConfig(
                learning_rate=0.3, epochs=300, batch_size="full", seed=s,
                warmup_steps=5,
                guidance=gd.GuidanceConfig(lambda1=0.1, lambda2=0.1, lambda3=0.0))
            report = tr.train(LOGISTIC, task, cfg)
            losses = [r.loss_total for r in report.records]
            n = len(losses)
            total_drop = losses[0] - losses[-1]
            assert total_drop > 0.0
            quarter = max(1, n // 4)
            early = (losses[0] - losses[quarter - 1]) / total_drop
            assert early >= 0.5, f"seed {s}: early drop fraction {early:.3f}"
            window = losses[-max(2, n // 10):]
            wobble = (max(window) - min(window)) / abs(losses[-1])
            assert wobble < 0.01, f"seed {s}: final-tenth change {wobble:.4f}"


def test_criterion_09_determinism_and_formats(tmp_path):
    with _verdict(9, "rerun CSVs byte-identical; JSONL and checkpoint round "
                     "trips exact"):
        config = {
            "model": {"kind": "logistic", "input_dim": 6, "num_classes": 3,
                      "init_seed": 1},
            "task": {"kind": "gaussian", "dim": 6, "num_classes": 3,
                     "n_per_class": 40, "separation": 2.0, "noise_std": 0.6,
                     "seed": 5},
            "train": {"learning_rate": 0.05, "epochs": 2, "batch_size": 20,
                      "warmup_steps": 4,
                      "guidance": {"lambda1": 0.2, "lambda2": 0.2, "lambda3": 0.0}},
            "method": "guided-exact",
            "seeds": [0],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(["run", "--config", str(path), "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", str(path), "--out", str(out2)]) == 0
        for name in ("summary.csv", "steps_seed0.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

        ds = _task(seed=21, n=15)
        tk.save_jsonl(tmp_path / "ds.jsonl", ds)
        loaded = tk.load_jsonl(tmp_path / "ds.jsonl")
        assert np.array_equal(loaded.inputs, ds.inputs)
        assert np.array_equal(loaded.labels, ds.labels)

        params = md.init_params(MLP)
        md.save_checkpoint(tmp_path / "ckpt.json", MLP, params)
        spec2, params2 = md.load_checkpoint(tmp_path / "ckpt.json")
        assert spec2 == MLP
        assert all(np.array_equal(params2[k], params[k]) for k in params)


def test_criterion_10_suite_budget():
    with _verdict(10, "acceptance suite well inside the 5-minute budget, "
                      "offline only"):
        elapsed = time.time() - _T0
        assert elapsed < 240.0, f"acceptance tests took {elapsed:.0f}s"
