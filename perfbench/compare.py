"""Compare two result sets written by suite.py (parent vs change).

    python3 perfbench/compare.py parent.jsonl change.jsonl

Both sets should come from the same benchmark code, settings and seeds;
runs are paired by seed.  For every workload and end-to-end metric it
prints both sides' median and quartiles and a verdict (see
stats.verdict): better, within bound, worse, or unresolved when a side's
spread exceeds the metric's bound.  Each step mode's own percentiles
(step_ms.<mode>.p50/p90) get verdicts too, under the bound of the summed
step_ms metric, so a gain on one route that costs another shows.  For the
per-layer metrics of traced runs it prints the change/parent ratio of the
medians.
"""

import argparse

from stats import quartiles, verdict
from suite import by_metric, load, load_benchmark, mode_specs


def _fmt(values: dict) -> str:
    q1, med, q3 = quartiles(list(values.values()))
    return f"{med:10.5g} [{q1:.5g}, {q3:.5g}]"


def report(parent: list, change: list, bench: dict) -> list[str]:
    rows = []
    workloads = [w["name"] for w in bench["workloads"]]
    for w in workloads:
        p, c = by_metric(parent, w, 0), by_metric(change, w, 0)
        if not p or not c:
            continue
        rows.append(f"{w}")
        for m in bench["end_to_end"] + mode_specs(bench):
            if m["name"] not in p and m["name"] not in c:
                continue
            if m["name"] not in p or m["name"] not in c:
                rows.append(f"  {m['name']:<20} missing on one side")
                continue
            v = verdict(p[m["name"]], c[m["name"]], m["bound"], m["better"])
            rows.append(f"  {m['name']:<20} {m['unit']:<4} parent {_fmt(p[m['name']])}  "
                        f"change {_fmt(c[m['name']])}  {v} (bound {100 * m['bound']:.0f}%)")
    for w in workloads:
        p, c = by_metric(parent, w, 1), by_metric(change, w, 1)
        if not p or not c:
            continue
        rows.append(f"{w} per layer (change / parent, medians)")
        for m in bench["per_layer"]:
            if m["name"] not in p or m["name"] not in c:
                continue
            pm, cm = quartiles(list(p[m["name"]].values()))[1], \
                quartiles(list(c[m["name"]].values()))[1]
            if pm == 0 and cm == 0:
                continue
            ratio = f"{cm / pm:8.3f}" if pm else "     inf"
            rows.append(f"  {m['name']:<44} {ratio}  ({pm:.5g} -> {cm:.5g} {m['unit']})")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    print("\n".join(report(load(args.parent), load(args.change), load_benchmark())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
