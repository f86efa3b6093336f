"""Smoke test of the benchmark itself.

Runs every workload once at reduced size through the same driver and
child code as a full run, traced and untraced, and checks that each
metric named in ``BENCHMARK.json`` is emitted with its unit. Run from
the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def bench(root, workload, trace, seed=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    emitted = result["metrics"]
    assert {name: m["unit"] for name, m in emitted.items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(math.isfinite(m["value"]) for m in emitted.values())
    if trace:
        # layer self times, the probe and the remainder make up the wall
        parts = sum(m["value"] for name, m in emitted.items()
                    if m["unit"] == "s" and name not in
                    ("trace.wall_s", "trace.overhead_s"))
        assert parts == pytest.approx(emitted["trace.wall_s"]["value"],
                                      abs=1e-9)
    else:
        assert all(m["value"] > 0 for m in emitted.values())


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_a_nan_row_fails_its_operation(tmp_path):
    (tmp_path / "errors.csv").write_text(
        "d0,variant,l2_error,bulk_dofs,iface_dofs,residual\n"
        "0.01,I,nan,6144,64,1e-15\n"
        "0.01,II-R,0.5,6144,64,1e-15\n")
    (tmp_path / "run.log").write_text("relative residual 1e-15\n")
    work = workloads.Workload("sweep", 0, "smoke")
    failed, problems = work.check(0, tmp_path, {})
    # the nan row and the six rows missing from the sweep's eight
    assert failed == 1 + work.rows_per_pass() - 2
    assert any("nan row" in p for p in problems)
