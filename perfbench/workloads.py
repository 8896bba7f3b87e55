"""Workload configs, recorded reference outputs and the correctness gate.

A workload is one gradguide CLI command on one generated config.  The
benchmark seed picks one of ``VARIANTS`` input variants (``seed % VARIANTS``);
the variant sets the data seed, the trainer seed and the init seed, and
``references.json`` holds each variant's recorded outputs.

The gate decides which trainings (one per method x trainer seed) failed:

  * the command exited non-zero;
  * a documented artifact is missing or does not parse;
  * ``final_loss`` is off its reference by more than ``LOSS_RTOL`` relative,
    or ``final_accuracy`` by more than ``ACCURACY_ATOL``;
  * a vanilla artifact is not byte-identical to its recorded SHA-256: the
    step CSV of a ``run``, the vanilla rows of ``compare.csv``;
  * in a ``compare``, guided-fd and guided-exact ``final_loss`` differ by
    more than ``FD_EXACT_RTOL`` relative (charged to guided-fd).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

VARIANTS = 32
LOSS_RTOL = 1e-6
ACCURACY_ATOL = 0.005
FD_EXACT_RTOL = 1e-5

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# Documented artifact headers (README "Artifacts").
STEP_COLUMNS = ["step", "loss_total", "loss_base", "r_dir", "r_mag", "r_grad",
                "grad_norm", "cos_prior", "cos_source", "update_norm", "eval_accuracy"]
SUMMARY_COLUMNS = ["seed", "avg_accuracy", "gradient_stability", "directional_alignment",
                   "final_loss", "steps_to_loss_threshold"]
COMPARE_COLUMNS = ["method", "seed", "shots", "avg_accuracy", "gradient_stability",
                   "directional_alignment", "final_loss"]
COMPARE_SUMMARY_COLUMNS = ["method", "mean_avg_accuracy", "mean_stability",
                           "mean_alignment"]
COMPARE_METHODS = ("vanilla", "guided-exact", "guided-fd")
# Step modes: vanilla when every lambda is 0, else the guidance mode.
MODES = ("vanilla", "exact", "fd-hvp")


def _attn_exact(v: int) -> dict:
    return {
        "model": {"kind": "tiny_attention", "input_dim": 16, "num_classes": 4,
                  "hidden_dims": [4, 8], "init_seed": v},
        "task": {"kind": "gaussian", "dim": 16, "num_classes": 4, "seed": 0},
        "train": {"batch_size": 32, "epochs": 2, "warmup_steps": 5,
                  "guidance": {"lambda1": 0.2, "lambda2": 0.1, "lambda3": 0.0}},
        "method": "guided-exact", "seeds": [v],
    }


def _pair_compare(v: int) -> dict:
    return {
        "model": {"kind": "mlp", "input_dim": 16, "num_classes": 4,
                  "hidden_dims": [32, 32], "init_seed": v},
        "task": {"kind": "pair", "dim": 16, "num_classes": 4, "separation": 2.0,
                 "conflict_angle_deg": 60.0, "noise_std": 0.5, "seed": 0},
        "train": {"batch_size": 32, "epochs": 2, "warmup_steps": 5,
                  "guidance": {"lambda1": 0.2, "lambda2": 0.1, "lambda3": 0.1}},
        "seeds": [v],
    }


def _wide_vanilla(v: int) -> dict:
    return {
        "model": {"kind": "mlp", "input_dim": 256, "num_classes": 10,
                  "hidden_dims": [256], "init_seed": v},
        "task": {"kind": "gaussian", "dim": 256, "num_classes": 10, "n_per_class": 400,
                 "seed": 0},
        "split": {"shots_per_class": 256},
        "train": {"optimizer": "adam", "learning_rate": 0.001, "batch_size": "full",
                  "epochs": 40, "warmup_steps": 5, "eval_interval": 5},
        "method": "vanilla", "seeds": [v],
    }


# name -> (CLI command, config builder, step modes the workload runs,
#          calibration kernel of calibrate.py)
WORKLOADS = {
    "attn-exact": ("run", _attn_exact, ("exact",), "small"),
    "pair-compare": ("compare", _pair_compare, MODES, "small"),
    "wide-vanilla": ("run", _wide_vanilla, ("vanilla",), "large"),
}


def variant(seed: int) -> int:
    return seed % VARIANTS


def config(workload: str, seed: int) -> dict:
    return WORKLOADS[workload][1](variant(seed))


def cli_args(workload: str, config_path: str, out_dir: str) -> list[str]:
    return [WORKLOADS[workload][0], "--config", config_path, "--out", out_dir]


def trainings(workload: str, seed: int) -> list[str]:
    cfg = config(workload, seed)
    methods = COMPARE_METHODS if WORKLOADS[workload][0] == "compare" else (cfg["method"],)
    return [f"{m}/seed{s}" for s in cfg["seeds"] for m in methods]


def load_references() -> dict:
    with open(REFERENCES) as f:
        return json.load(f)


# -- extraction -------------------------------------------------------------------

class ArtifactError(Exception):
    """A documented artifact is missing or does not parse."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_csv(path: str, header: list[str]) -> list[list[str]]:
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        raise ArtifactError(f"{os.path.basename(path)}: {e.strerror}")
    if not rows or rows[0] != header:
        raise ArtifactError(f"{os.path.basename(path)}: header is not {header}")
    if any(len(r) != len(header) for r in rows[1:]):
        raise ArtifactError(f"{os.path.basename(path)}: ragged row")
    return rows[1:]


def _float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ArtifactError(f"{what}: {text!r} is not a number")


def _observe_run(out_dir: str, method: str, seed: int) -> dict:
    steps_path = os.path.join(out_dir, f"steps_seed{seed}.csv")
    _read_csv(steps_path, STEP_COLUMNS)
    _read_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_COLUMNS)
    report_path = os.path.join(out_dir, f"report_seed{seed}.json")
    try:
        with open(report_path) as f:
            final = json.load(f)["final"]
        obs = {"final_loss": float(final["final_loss"]),
               "final_accuracy": float(final["final_accuracy"])}
    except OSError as e:
        raise ArtifactError(f"report_seed{seed}.json: {e.strerror}")
    except (ValueError, KeyError, TypeError) as e:
        raise ArtifactError(f"report_seed{seed}.json does not parse: {e!r}")
    if method == "vanilla":
        with open(steps_path, "rb") as f:
            obs["digest"] = _sha256(f.read())
    return obs


def _observe_compare(out_dir: str) -> dict:
    path = os.path.join(out_dir, "compare.csv")
    rows = _read_csv(path, COMPARE_COLUMNS)
    _read_csv(os.path.join(out_dir, "compare_summary.csv"), COMPARE_SUMMARY_COLUMNS)
    obs = {}
    for r in rows:
        obs[f"{r[0]}/seed{r[1]}"] = {
            "final_loss": _float(r[6], f"compare.csv final_loss of {r[0]}"),
            "final_accuracy": _float(r[3], f"compare.csv avg_accuracy of {r[0]}")}
    with open(path, "rb") as f:
        vanilla = [line for line in f.read().splitlines(keepends=True)
                   if line.startswith(b"vanilla,")]
    for line in vanilla:
        key = f"vanilla/seed{line.split(b',')[1].decode()}"
        if key in obs:
            obs[key]["digest"] = _sha256(line)
    return obs


def observe(workload: str, seed: int, out_dir: str) -> dict:
    """Training id -> observed values, or an error string for the trainings
    whose artifacts are missing or do not parse."""
    ids = trainings(workload, seed)
    if WORKLOADS[workload][0] == "compare":
        try:
            found = _observe_compare(out_dir)
        except ArtifactError as e:
            return {t: str(e) for t in ids}
        return {t: found.get(t, "compare.csv has no row for it") for t in ids}
    out = {}
    for t in ids:
        method, s = t.split("/seed")
        try:
            out[t] = _observe_run(out_dir, method, int(s))
        except ArtifactError as e:
            out[t] = str(e)
    return out


# -- gate -------------------------------------------------------------------------

def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check(workload: str, seed: int, out_dir: str, returncode: int,
          reference: dict) -> dict[str, list[str]]:
    """Training id -> the reasons it failed (empty when it passed).
    ``reference`` is the variant's entry in references.json."""
    ids = trainings(workload, seed)
    if returncode != 0:
        return {t: [f"exit code {returncode}"] for t in ids}
    observed = observe(workload, seed, out_dir)
    problems: dict[str, list[str]] = {}
    for t in ids:
        obs, ref, why = observed[t], reference.get(t), []
        if isinstance(obs, str):
            why.append(obs)
        elif ref is None:
            why.append("no recorded reference")
        else:
            if _rel(obs["final_loss"], ref["final_loss"]) > LOSS_RTOL:
                why.append(f"final_loss {obs['final_loss']!r} != reference "
                           f"{ref['final_loss']!r}")
            if abs(obs["final_accuracy"] - ref["final_accuracy"]) > ACCURACY_ATOL:
                why.append(f"final_accuracy {obs['final_accuracy']!r} != reference "
                           f"{ref['final_accuracy']!r}")
            if "digest" in ref and obs.get("digest") != ref["digest"]:
                why.append("vanilla artifact differs from its recorded digest")
        problems[t] = why
    for t in ids:
        if not t.startswith("guided-fd/"):
            continue
        fd, exact = observed[t], observed.get(t.replace("guided-fd", "guided-exact"))
        if isinstance(fd, dict) and isinstance(exact, dict):
            if _rel(fd["final_loss"], exact["final_loss"]) > FD_EXACT_RTOL:
                problems[t].append(f"guided-fd final_loss {fd['final_loss']!r} is off "
                                   f"guided-exact {exact['final_loss']!r}")
    return problems
