"""Run every workload over several seeds and keep the results as one set.

    python3 perfbench/suite.py --out parent.jsonl [--seeds 0-9] [--trace 0|1]

Each (seed, workload) is one run.py process of BENCHMARK.json's
run_seconds, seed by seed, so slow drift of the machine spreads over every
workload alike.  Each line of the output
file is one run: workload, seed, trace, the machine facts and the JSON
result.  At the end the table gives, per workload and metric, the median,
quartiles and spread (interquartile distance / median) over the seeds, and
the failed ratio over all trainings.  compare.py compares two such files.
"""

import argparse
import json
import os
import subprocess
import sys

from stats import quartiles, spread
from workloads import MODES, trainings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload: str, seed: int, seconds, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    entry = {"workload": workload, "seed": seed, "trace": trace,
             "exit_code": proc.returncode, "lines": lines[:-1]}
    for key in ("machine", "modes"):
        found = [ln for ln in lines if ln.startswith(key + " ")]
        if found:
            entry[key] = json.loads(found[0][len(key) + 1:])
    try:
        entry["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        entry["result"] = None
        entry["stderr"] = proc.stderr[-4000:]
    return entry


def load(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def mode_specs(bench: dict) -> list[dict]:
    """Each step mode's own percentiles, bounded like the summed ones."""
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    return [dict(bounds[f"step_ms.{stat}"], name=f"step_ms.{mode}.{stat}")
            for mode in MODES for stat in ("p50", "p90")]


def by_metric(entries: list[dict], workload: str, trace: int) -> dict:
    """metric -> {seed: value} over the runs of one workload, with each step
    mode's percentiles from the ``modes`` line as step_ms.<mode>.<stat>."""
    out: dict = {}
    for e in entries:
        if e["workload"] != workload or e["trace"] != trace or not e["result"]:
            continue
        values = {name: m["value"] for name, m in e["result"]["metrics"].items()}
        for mode, p in e.get("modes", {}).items():
            values.update({f"step_ms.{mode}.{stat}": p[stat] for stat in ("p50", "p90")
                           if p[stat] is not None})
        for name, v in values.items():
            out.setdefault(name, {})[e["seed"]] = v
    return out


def table(entries: list[dict], bench: dict, trace: int) -> list[str]:
    spec = bench["per_layer"] if trace else bench["end_to_end"] + mode_specs(bench)
    rows = []
    for w in [x["name"] for x in bench["workloads"]]:
        runs = [e for e in entries if e["workload"] == w and e["trace"] == trace]
        if not runs:
            continue
        done = [e["result"] for e in runs if e["result"]]
        # a run with no result counts its trainings of one process as failed
        lost = sum(len(trainings(w, e["seed"])) for e in runs if not e["result"])
        attempted = sum(r["attempted"] for r in done) + lost
        failed = sum(r["failed"] for r in done) + lost
        rows.append(f"{w}: {len(runs)} runs, failed_ratio {failed / max(attempted, 1):.4f} "
                    f"({failed}/{attempted} trainings), "
                    f"{sum(not r['correct'] for r in done)} runs not correct")
        values = by_metric(entries, w, trace)
        for m in spec:
            v = list(values.get(m["name"], {}).values())
            if not v:
                continue
            q1, med, q3 = quartiles(v)
            rows.append(f"  {m['name']:<44} {med:12.6g} {m['unit']:<10} "
                        f"[{q1:.6g}, {q3:.6g}]  spread {100 * spread(v):6.2f}%"
                        + (f"  (bound {100 * m['bound']:.0f}%)" if "bound" in m else ""))
    return rows


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON-lines result set to append to")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    entries = []
    for seed in seed_range(args.seeds):
        for w in [x["name"] for x in bench["workloads"]]:
            entry = run_one(w, seed, bench["run_seconds"], args.trace)
            entries.append(entry)
            with open(args.out, "a") as f:
                f.write(json.dumps(entry) + "\n")
            r = entry["result"]
            status = (f"correct={r['correct']} failed={r['failed']}/{r['attempted']}"
                      if r else f"no result, exit {entry['exit_code']}")
            print(f"seed {seed} {w}: {status}", flush=True)
    print("\n".join(table(entries, bench, args.trace)))
    return 0 if all(e["result"] and e["result"]["correct"] for e in entries) else 1


if __name__ == "__main__":
    raise SystemExit(main())
