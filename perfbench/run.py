"""fracdg benchmark driver.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 42 \\
        --trace 0

Runs the named workload (see ``workloads.py``) against the package
sources under ``src/`` as a closed loop of one client: each pass is a
fresh child process, started only after the previous one exited, with
BLAS pinned to one thread. Before the passes, a few set-up probes
import ``fracdg`` and parse the config (or build the preset). Passes
start while the median pass time still fits in ``--seconds``; at least
one always runs.

With ``--trace 0`` it reports the end-to-end metrics, each a median over
the run's samples: ``wall_s`` (one pass, spawn to exit), ``dofs_per_s``
(dofs solved in a pass over its wall time), ``setup_s`` (spawn to the
end of import and parse) and ``peak_rss_mb`` (peak resident memory of a
pass). With ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics of ``layertrace.py`` instead.

Every pass is checked; operations are error-table rows or convergence
solves, and ``failed_frac`` is failed over attempted. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit status is 1 when any check failed
and 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import threading
import time
from statistics import median

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
BLAS_THREADS = "1"

# pin BLAS before numpy loads, here and in every child
os.environ.update(OPENBLAS_NUM_THREADS=BLAS_THREADS,
                  OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
sys.path.insert(0, str(HERE))
import layertrace  # noqa: E402
import workloads  # noqa: E402

# every run exits within 180 s: no child outlives this
HARD_LIMIT_S = 170.0
# set-up probes before the passes; each untraced pass adds one sample
SETUP_PROBES = 3

END_TO_END_UNITS = {"wall_s": "s", "dofs_per_s": "dofs/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


class Pass:
    """Outcome of one child: timings, memory and, for a pass, its checks
    and table. ``setup`` is spawn to the end of import and parse, or None
    for a traced pass."""

    def __init__(self, status, wall, rss_mb, result, setup):
        self.status = status
        self.wall = wall
        self.rss_mb = rss_mb
        self.result = result
        self.setup = setup
        self.dofs = 0
        self.failed = 0
        self.problems = []
        self.table = []


class Bench:
    """Child processes of one workload, in a private work directory."""

    def __init__(self, work: workloads.Workload, directory: pathlib.Path,
                 start: float):
        self.work = work
        self.dir = directory
        self.start = start
        self.env = child_env()
        self.input = work.write_inputs(directory)
        self.count = 0

    def _spawn(self, spec: dict) -> Pass:
        """Run child.py to completion."""
        self.count += 1
        tag = f"{spec['mode']}-{self.count}"
        spec_path = self.dir / f"{tag}.spec.json"
        spec["result"] = str(self.dir / f"{tag}.result.json")
        spec_path.write_text(json.dumps(spec))
        timeout = HARD_LIMIT_S - (time.monotonic() - self.start)
        if timeout <= 0:
            raise BenchError("out of time before a child could start")
        with open(self.dir / f"{tag}.log", "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                cwd=self.dir, env=self.env, stdout=log, stderr=log)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, raw, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(raw)
        try:
            result = json.loads(pathlib.Path(spec["result"]).read_text())
        except (OSError, ValueError):
            result = {}
        setup = result["setup_end"] - t0 if "setup_end" in result else None
        # ru_maxrss is in KiB on Linux
        return Pass(proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6,
                    result, setup)

    def setup_probe(self) -> float:
        """Seconds from spawn to the end of import and parse."""
        probe = self._spawn({"mode": "setup", "workload": self.work.name,
                             "input": str(self.input), "trace": False})
        if probe.status != 0 or probe.setup is None:
            raise BenchError(f"set-up probe failed with status "
                             f"{probe.status}")
        return probe.setup

    def run_pass(self, trace: bool) -> Pass:
        out = self.dir / f"out-{self.count + 1}"
        spec = {"mode": "pass", "workload": self.work.name,
                "input": str(self.input), "trace": trace}
        if self.work.uses_cli:
            spec["cli_args"] = self.work.cli_args(self.input, out)
        done = self._spawn(spec)
        done.failed, done.problems = self.work.check(done.status, out,
                                                     done.result)
        done.dofs = self.work.dofs(out, done.result)
        done.table = self.work.table(out, done.result)
        shutil.rmtree(out, ignore_errors=True)
        return done


@contextlib.contextmanager
def work_directory(tag: str):
    """A private directory under the checkout, removed afterwards."""
    WORK_ROOT.mkdir(exist_ok=True)
    directory = WORK_ROOT / f"{tag}-{os.getpid()}"
    directory.mkdir()
    try:
        yield directory
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def use_package_sources():
    """Import ``fracdg`` from ``src/``; returns an error message or None."""
    if not (SRC / "fracdg" / "__init__.py").is_file():
        return f"no package sources at {SRC / 'fracdg'}"
    sys.path.insert(0, str(SRC))
    import fracdg
    if pathlib.Path(fracdg.__file__).resolve().parent != SRC / "fracdg":
        return f"fracdg imported from {fracdg.__file__}, not {SRC}"
    return None


# ---------------------------------------------------------------------------
# environment record

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_state() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()

    try:
        commit = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return "unknown (git failed)"
    return commit + ("-dirty" if dirty else "")


def environment(args) -> dict:
    import numpy
    import scipy

    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "size": args.size, "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS, "commit": _git_state()}


# ---------------------------------------------------------------------------
# a run

def measure(work: workloads.Workload, args) -> tuple:
    """Run set-up probes and passes; returns (metrics, samples, passes)."""
    start = time.monotonic()
    deadline = start + args.seconds
    plain, traced, loops = [], [], []
    with work_directory(f"{args.workload}-{args.seed}") as directory:
        bench = Bench(work, directory, start)
        bench.setup_probe()  # writes the byte-code caches; not counted
        setups = [bench.setup_probe() for _ in range(SETUP_PROBES)]
        while True:
            t0 = time.monotonic()
            plain.append(bench.run_pass(trace=False))
            if args.trace:
                traced.append(bench.run_pass(trace=True))
            loops.append(time.monotonic() - t0)
            if any(p.status != 0 for p in plain + traced) or \
                    time.monotonic() + median(loops) > deadline:
                break

    if args.trace:
        metrics = _trace_metrics(work, plain, traced)
        return metrics, dict.fromkeys(metrics, len(traced)), plain + traced
    setups += [p.setup for p in plain if p.setup is not None]
    print("set-up samples: " + " ".join(f"{s:.4f}" for s in setups) + " s")
    metrics = {
        "wall_s": median([p.wall for p in plain]),
        "dofs_per_s": median([p.dofs / p.wall for p in plain]),
        "setup_s": median(setups),
        "peak_rss_mb": median([p.rss_mb for p in plain]),
    }
    samples = dict.fromkeys(metrics, len(plain))
    samples["setup_s"] = len(setups)
    return metrics, samples, plain


def _trace_metrics(work, plain, traced) -> dict:
    if any("trace" not in p.result for p in traced):
        raise BenchError("a traced pass ended without writing its spans")
    per_pass = [layertrace.layer_metrics(p.result["trace"], p.wall)
                for p in traced]
    metrics = {name: median([m[name] for m in per_pass])
               for name in per_pass[0]}
    metrics["trace.overhead_s"] = (median([p.wall for p in traced])
                                   - median([p.wall for p in plain]))
    golden = work.golden()
    metrics["postproc.err_drift_rel"] = (
        0.0 if golden is None else
        max(workloads.drift(p.table, golden) for p in traced))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES),
                        default="full",
                        help="smoke runs every workload at reduced size")
    args = parser.parse_args(argv)

    problem = use_package_sources()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(args)), flush=True)
    work = workloads.Workload(args.workload, args.seed, args.size)
    try:
        metrics, samples, passes = measure(work, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = work.rows_per_pass() * len(passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        print(f"pass {'traced' if 'trace' in p.result else 'plain'}: "
              f"wall {p.wall:.3f} s, {p.dofs} dofs, peak RSS "
              f"{p.rss_mb:.1f} MB, exit {p.status}")
        for problem in p.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    units = layertrace.UNITS if args.trace else END_TO_END_UNITS
    for name in sorted(metrics):
        print(f"{args.workload} {name} median {metrics[name]:.6g} "
              f"{units[name]} (n={samples[name]})")
    print(f"{args.workload} failed_frac {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    correct = failed == 0 and not any(p.problems for p in passes)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
