"""One gradguide CLI invocation in a fresh process, timed from inside.

Usage (run.py starts it; nothing else needs to):

    python3 perfbench/child.py --src SRC --result R.json
        [--kernel small|large] [--spans S.npz --run-id ID] -- <gradguide cli args>

``--kernel`` runs that calibration kernel (calibrate.py) at the end of
set-up and then at most every ``CAL_INTERVAL_S`` between steps.
The exit code is the CLI's.
"""

import argparse
import json
import resource
import sys
import time

import calibrate

CAL_INTERVAL_S = 0.1


def _cpu_seconds() -> float:
    """User + system CPU time of this process since it started."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _timing_hooks(result: dict, kernel) -> None:
    """Record the process CPU time at the end of set-up (the first model
    init), CPU time inside ``trainer.train``, each step's CPU time by mode
    and, with ``kernel``, calibration samples.  Cheap enough to leave on in
    untraced runs.

    Everything is timed in process CPU time, not wall time: on a shared
    virtual machine the hypervisor can take a large share of the wall time in
    bursts (steal time), which CPU time does not count.  With one BLAS thread
    the program is single-threaded, so on an idle machine the two agree.

    Each calibration sample is (wall clock, kernel CPU ms); the CPU time the
    samples take is kept apart so run.py can leave it out."""
    from gradguide import model as md
    from gradguide import trainer as tr

    clock, cpu = time.perf_counter, time.process_time
    init_params, train, train_step = md.init_params, tr.train, tr.train_step
    steps, cal = result["steps"], result["cal"]
    last_cal = [float("-inf")]

    def calibrate_now():
        if kernel is None:
            return
        c0 = cpu()
        cal.append((clock(), calibrate.sample(kernel)))
        last_cal[0] = clock()
        result["cal_cpu_s"] += cpu() - c0

    def timed_init_params(*args, **kwargs):
        out = init_params(*args, **kwargs)
        if result["setup_cpu_s"] is None:
            result["setup_cpu_s"] = _cpu_seconds()
            calibrate_now()
        return out

    def timed_train(*args, **kwargs):
        steps.append([])
        t0, cal0 = cpu(), result["cal_cpu_s"]
        try:
            return train(*args, **kwargs)
        finally:
            result["train_cpu_s"] += cpu() - t0 - (result["cal_cpu_s"] - cal0)

    def timed_train_step(state, batch, config):
        g = config.guidance
        mode = g.mode if g.any_active() else "vanilla"
        t0 = cpu()
        out = train_step(state, batch, config)
        t1 = cpu()
        steps[-1].append((mode, 1e3 * (t1 - t0), clock()))
        if clock() - last_cal[0] >= CAL_INTERVAL_S:
            calibrate_now()
        return out

    md.init_params, tr.train, tr.train_step = timed_init_params, timed_train, timed_train_step


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--kernel", choices=sorted(calibrate.KERNELS))
    parser.add_argument("--spans")
    parser.add_argument("--run-id")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, args.src)
    from gradguide import cli

    result = {"setup_cpu_s": None, "train_cpu_s": 0.0, "steps": [], "cal": [],
              "cal_cpu_s": 0.0}
    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer(args.run_id)
        tracing.install(tracer)
    _timing_hooks(result, args.kernel)  # outermost, so traced runs time the same calls
    rc = 1
    try:
        rc = cli.main(cli_args)
    finally:
        result["returncode"] = rc
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.write(args.spans)
        with open(args.result, "w") as f:
            json.dump(result, f)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
