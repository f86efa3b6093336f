"""Record the golden error tables in ``golden.json``.

Usage (from the repository root): ``python3 perfbench/record_golden.py``.
Runs one untraced full-size pass of every input, each wall phase of
``sweep`` and ``dump`` and the one ``converge`` study, and writes their
error tables. The benchmark reports the largest relative deviation from
these tables as ``postproc.err_drift_rel``, without gating on it.
Stops with status 1, writing nothing, if any pass fails its checks.
"""

import json
import sys
import time

import run
import workloads


def main() -> int:
    problem = run.use_package_sources()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    golden = {}
    for name in workloads.NAMES:
        golden[name] = {}
        seeds = range(len(workloads.PHASES)) if name != "converge" else [0]
        for seed in seeds:
            work = workloads.Workload(name, seed)
            with run.work_directory(f"golden-{name}-{seed}") as directory:
                done = run.Bench(work, directory,
                                 time.monotonic()).run_pass(trace=False)
            print(f"{name} seed {seed}: wall {done.wall:.3f} s, "
                  f"{done.dofs} dofs, {done.failed} failed", flush=True)
            if done.failed or done.problems:
                print("\n".join(done.problems), file=sys.stderr)
                return 1
            golden[name][str(work.phase_index or 0)] = done.table
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
