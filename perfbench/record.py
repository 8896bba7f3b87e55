"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/record.py

Runs every input variant of every workload once, in a fresh process as the
benchmark does, and rewrites references.json.  Run it only on a commit
whose outputs are known good: the gate then holds later commits to these
values.
"""

import json
import os
import shutil
import sys

import run
import workloads as wl


def main() -> int:
    refs = {}
    work_root = os.path.join(run.WORK, f"record-{os.getpid()}")
    try:
        for workload in wl.WORKLOADS:
            for v in range(wl.VARIANTS):
                work = os.path.join(work_root, f"{workload}-{v}")
                c = run.launch(workload, v, work, f"record-{workload}-{v}", traced=False,
                               timeout=600)
                if c["returncode"] != 0:
                    print(f"{workload} variant {v}: exit code {c['returncode']}",
                          file=sys.stderr)
                    return 1
                observed = wl.observe(workload, v, os.path.join(work, "out"))
                broken = {t: o for t, o in observed.items() if isinstance(o, str)}
                if broken:
                    print(f"{workload} variant {v}: {broken}", file=sys.stderr)
                    return 1
                refs.setdefault(workload, {})[str(v)] = observed
                print(f"{workload} variant {v}: {json.dumps(observed)}")
                shutil.rmtree(work)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    with open(wl.REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
