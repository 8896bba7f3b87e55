"""gradguide benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload attn-exact --seed 0 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/gradguide``.  The run
starts one fresh Python process per gradguide CLI invocation (child.py),
one after another, until ``--seconds`` have passed and every percentile it
reports has enough samples.  Each invocation's artifacts go through the
correctness gate in workloads.py.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

  setup_s      CPU time of the process up to the end of the first model
               init (interpreter start, imports, config parse, data, init);
               median over processes
  command_s    CPU time of the whole process, start to exit: the gradguide
               command a user waits for; median over processes
  steps_per_s  optimizer steps / CPU seconds inside trainer.train; median
  step_ms.p50  per workload step mode (vanilla when every lambda is 0,
  step_ms.p90  else the guidance mode), the percentile of trainer.train_step
               CPU times pooled over processes; summed over the workload's
               modes.  The first WARM_STEPS steps of every training are left
               out.  Each mode's own percentiles and counts are printed.
  peak_rss_mb  peak resident set of the process; median over processes

Times are process CPU times, which leave out the wall time a shared
virtual machine's hypervisor takes away (see child.py).  They are taken at
the reference speed of calibrate.py: each step time is divided by the speed
factor (calibration kernel ms / REFERENCE_MS) interpolated at the step's
end, and each process-level time by the median factor of its process.  The
CPU time of the kernel itself is left out.  The raw medians are printed on
the ``raw`` line.

The failed/attempted counts of the last line are trainings (one per method
x trainer seed); failed_ratio = failed / attempted is printed above it.

``--trace 1`` interleaves untraced and traced processes and reports the
per-layer metrics of BENCHMARK.json: span counts and times from the traced
processes (per optimizer step unless PER_RUN; 0 where the function does not
run in the workload) and the traced/untraced command_s ratio (raw, since
traced processes do not calibrate) as trace.overhead_ratio.  The per-mode
step percentiles of the untraced processes are printed in both modes, also
as one ``modes {json}`` line that suite.py keeps.

The last line of stdout is the JSON result; the lines above it are for
people.  Exit code 2 means the benchmark could not run at all.
"""

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from statistics import median

import numpy as np

import calibrate
import tracer
import workloads as wl
from stats import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
BLAS_THREADS = 1
WARM_STEPS = 2
MIN_PROCESSES = 3      # per kind of process (untraced, traced) in one run
MIN_STEP_SAMPLES = 100  # per mode, so p90 has 10 samples beyond it
DEADLINE_S = 120       # start no process after this; exit well within 180 s
SMOOTH = 7             # calibration samples in the running median of a speed factor

# Per-layer metrics reported per run (per process) instead of per step.
PER_RUN = {"model.init_params.ms", "tasks.make_gaussian_task.ms", "tasks.make_task_pair.ms",
           "tasks.few_shot_split.ms", "cli.parse_config.ms", "cli.materialize.ms",
           "autodiff.tapes_live.max"}


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def _children_cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def launch(workload: str, seed: int, work: str, run_id: str, traced: bool,
           timeout: float) -> dict:
    """Run one CLI invocation in a fresh process in ``work``; returns its
    exit code and command CPU time (``cpu_s``), plus the child's own
    measurements when it succeeded."""
    os.makedirs(work)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w") as f:
        json.dump(wl.config(workload, seed), f)
    result_path = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--src", SRC,
           "--result", result_path]
    kernel = wl.WORKLOADS[workload][3]
    if traced:
        cmd += ["--spans", os.path.join(work, "spans.npz"), "--run-id", run_id]
    else:
        cmd += ["--kernel", kernel]
    cli = wl.cli_args(workload, config_path, os.path.join(work, "out"))
    env = child_env()
    with open(os.path.join(work, "stdout"), "wb") as out, \
            open(os.path.join(work, "stderr"), "wb") as err:
        # children run one at a time, so the growth of RUSAGE_CHILDREN over
        # this wait is this child's CPU time
        before = _children_cpu_s()
        proc = subprocess.Popen(cmd + ["--"] + cli, stdout=out, stderr=err, env=env, cwd=work)
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = "timeout"
        cpu_s = _children_cpu_s() - before
    res = {}
    if rc == 0:
        with open(result_path) as f:
            res = json.load(f)
        res["factors"] = speed_factors(res["cal"], calibrate.REFERENCE_MS[kernel])
    res.update(returncode=rc, cpu_s=cpu_s, traced=traced)
    return res


def speed_factors(samples: list, reference_ms: float) -> list:
    """[time, factor] per calibration sample; the factor is the running
    median of SMOOTH samples around it over ``reference_ms``, so one
    disturbed sample does not scale the steps near it."""
    h = SMOOTH // 2
    ms = [m for _, m in samples]
    return [[t, median(ms[max(0, i - h):i + h + 1]) / reference_ms]
            for i, (t, _) in enumerate(samples)]


def step_factors(child: dict, times) -> np.ndarray:
    """The child's speed factor at each of ``times``, interpolated between
    its calibration samples (1 where it has none)."""
    if not child.get("factors"):
        return np.ones(len(times))
    t, f = np.array(child["factors"]).T
    return np.interp(times, t, f)


def process_factor(child: dict) -> float:
    return median(f for _, f in child["factors"]) if child.get("factors") else 1.0


def mode_percentiles(children: list, normalise: bool = True) -> dict:
    """Mode -> p50, p90 (None when withheld) and sample count of the
    trainer.train_step CPU times, pooled over processes; the first
    WARM_STEPS steps of each training are left out."""
    samples = {m: [] for m in wl.MODES}
    for c in children:
        for training in c["steps"]:
            kept = training[WARM_STEPS:]
            factors = (step_factors(c, [t for _, _, t in kept]) if normalise
                       else np.ones(len(kept)))
            for (mode, ms, _), f in zip(kept, factors):
                samples[mode].append(ms / f)
    return {m: {"p50": percentile(s, 50), "p90": percentile(s, 90), "n": len(s)}
            for m, s in samples.items()}


def end_to_end(workload: str, children: list, normalise: bool = True) -> dict:
    modes = wl.WORKLOADS[workload][2]
    per_mode = mode_percentiles(children, normalise)
    speed = {id(c): process_factor(c) if normalise else 1.0 for c in children}
    out = {
        "setup_s": median([c["setup_cpu_s"] / speed[id(c)] for c in children]),
        "command_s": median([(c["cpu_s"] - c["cal_cpu_s"]) / speed[id(c)]
                             for c in children]),
        "steps_per_s": median([sum(len(t) for t in c["steps"]) / c["train_cpu_s"]
                               * speed[id(c)] for c in children]),
        "peak_rss_mb": median([c["peak_rss_kb"] / 1024.0 for c in children]),
    }
    for stat in ("p50", "p90"):
        parts = [per_mode[m][stat] for m in modes]
        if None not in parts:
            out[f"step_ms.{stat}"] = sum(parts)
    return out


def layer_values(agg: dict) -> dict:
    """One traced process's per-layer figures: span calls, ms and self_ms
    and counters, per optimizer step unless PER_RUN."""
    spans = agg["spans"]
    flat = dict(agg["counters"])
    for name, s in spans.items():
        for field in ("calls", "ms", "self_ms"):
            flat[f"{name}.{field}"] = s[field]
    ops = [s for name, s in spans.items() if name.startswith("autodiff.op.")]
    flat["autodiff.op.calls"] = sum(s["calls"] for s in ops)
    flat["autodiff.op.self_ms"] = sum(s["self_ms"] for s in ops)
    steps = max(flat.get("trainer.train_step.calls", 0), 1)
    return {k: (v if k in PER_RUN else v / steps) for k, v in flat.items()}


def per_layer(names: list, untraced: list, traced: list) -> dict:
    out = {}
    for name in names:
        if name == "trace.overhead_ratio":
            out[name] = (median([c["cpu_s"] for c in traced])
                         / median([c["cpu_s"] - c["cal_cpu_s"] for c in untraced]))
        else:
            out[name] = median([c["layers"].get(name, 0) for c in traced])
    return out


def enough(workload: str, seconds: float, elapsed: float, untraced: list,
           traced: list, trace: bool) -> bool:
    if elapsed < seconds or len(untraced) < MIN_PROCESSES:
        return False
    if trace and len(traced) < MIN_PROCESSES:
        return False
    counts = mode_percentiles(untraced)
    return all(counts[m]["n"] >= MIN_STEP_SAMPLES for m in wl.WORKLOADS[workload][2])


def measure(args, run_dir: str, reference: dict) -> tuple:
    """Start processes until enough is measured or one fails.  Returns
    (untraced, traced, attempted, failures)."""
    untraced, traced, failures, attempted = [], [], {}, 0
    t0 = time.perf_counter()
    for i in itertools.count():
        elapsed = time.perf_counter() - t0
        if elapsed >= DEADLINE_S or enough(args.workload, args.seconds, elapsed,
                                           untraced, traced, args.trace):
            break
        # untraced, traced, traced, untraced, ...: a steady drift of machine
        # speed then biases neither kind
        is_traced = bool(args.trace) and i % 4 in (1, 2)
        work = os.path.join(run_dir, f"p{i}")
        run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}-p{i}"
        c = launch(args.workload, args.seed, work, run_id, is_traced,
                   timeout=DEADLINE_S + 20 - elapsed)
        problems = wl.check(args.workload, args.seed, os.path.join(work, "out"),
                            c["returncode"], reference)
        attempted += len(problems)
        bad = {f"p{i}:{t}": why for t, why in problems.items() if why}
        failures.update(bad)
        if c["returncode"] != 0:
            with open(os.path.join(work, "stderr"), errors="replace") as f:
                tail = f.read()[-2000:]
            print(f"process p{i} exited with {c['returncode']}:\n{tail}", file=sys.stderr)
        if bad:
            break
        if is_traced:
            c["layers"] = layer_values(tracer.aggregate(os.path.join(work, "spans.npz")))
            traced.append(c)
        else:
            untraced.append(c)
        shutil.rmtree(work)
    return untraced, traced, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gradguide", "cli.py")):
        print(f"perfbench: {SRC}/gradguide not found; run from a gradguide checkout",
              file=sys.stderr)
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        reference = wl.load_references()[args.workload][str(wl.variant(args.seed))]
    except (OSError, ValueError, KeyError) as e:
        print(f"perfbench: cannot load BENCHMARK.json or references: {e!r}", file=sys.stderr)
        return 2

    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        untraced, traced, attempted, failures = measure(args, run_dir, reference)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = {}
    if untraced and (traced or not args.trace):
        if args.trace:
            values = per_layer([m["name"] for m in spec], untraced, traced)
        else:
            values = end_to_end(args.workload, untraced)

    failed = len(failures)
    print(f"workload {args.workload}  seed {args.seed} (variant {wl.variant(args.seed)})  "
          f"processes {len(untraced)} untraced + {len(traced)} traced")
    print("machine " + json.dumps(machine()))
    print(f"trainings attempted {attempted}  failed {failed}  "
          f"failed_ratio {failed / max(attempted, 1):.4f}")
    for key, why in failures.items():
        print(f"FAILED {key}: {'; '.join(why)}")
    modes = {m: p for m, p in mode_percentiles(untraced).items() if p["n"]}
    for mode, p in modes.items():
        p50, p90 = (f"{p[k]:.4f} ms" if p[k] is not None else "withheld" for k in ("p50", "p90"))
        print(f"step_ms.{mode}.p50 {p50}  p90 {p90}  (n={p['n']})")
    print("modes " + json.dumps(modes))
    if untraced:
        raw = end_to_end(args.workload, untraced, normalise=False)
        raw.update({f"step_ms.{m}.{k}": p[k] for m, p in
                    mode_percentiles(untraced, normalise=False).items() if p["n"]
                    for k in ("p50", "p90") if p[k] is not None})
        print("raw " + json.dumps(raw))
    for m in spec:
        if m["name"] in values:
            print(f"{m['name']:<44} {values[m['name']]:.6g} {m['unit']}")
    result = {"correct": not failures and attempted > 0, "attempted": max(attempted, 1),
              "failed": failed if attempted else 1,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in spec if m["name"] in values}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
