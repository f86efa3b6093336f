"""The benchmark's workloads: their inputs, their sizes and their checks.

Each workload is a closed loop of one client: a pass runs in a fresh
process and the next pass starts only after it exits.

* ``sweep``: the paper's error table through the user's entry point
  (``fracdg.cli.main``). Asymmetric walls, all four reduced variants,
  d0 = 1e-1 and 1e-3, h = 1/32, degree 1, reference at degree 2,
  direct LU, no dumps. Assembly-bound; holds the d0 = 1e-3 reference.
* ``dump``: the same CLI path on tangential flow (symmetric walls) for
  variants I and II-R at d0 = 1e-2, with field and matrix dumps, so
  point location and evaluation in ``models`` and the writes in
  ``postproc`` carry the pass.
* ``converge``: a library mesh-convergence study on the manufactured
  preset, degree 3 at h = 1/16 and 1/32 with the default solver
  (Jacobi-preconditioned CG). Solve-bound, with no reduced form and no
  averaging: the bypass case for assembly and averaging changes.

The seed picks the sinusoid wall phase of ``sweep`` and ``dump`` from
``PHASES`` through a generated ``preset = custom`` config; seed 0 gives
phase 0, which reproduces the named presets ``perp-asym`` and
``tangential``. ``converge`` has no free input and ignores the seed.
A finite phase set keeps a recorded golden error table for every input.
"""

from __future__ import annotations

import json
import math
import pathlib

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

PHASES = tuple(round(math.fmod(1.3 * k, 2.0 * math.pi), 12)
               for k in range(8))
TOL = 1e-10

# full size, and a reduced size for the benchmark's own smoke test
SIZES = {
    "full": {"h": "1/32", "ref_h": "1/32",
             "converge_h": (1 / 16, 1 / 32), "converge_degrees": 3,
             "min_order": 3.8},
    "smoke": {"h": "1/16", "ref_h": "1/16",
              "converge_h": (1 / 4, 1 / 8), "converge_degrees": 2,
              "min_order": 2.5},
}

_CLI_PROBLEM = {
    # (boundary datum, fracture permeability, wall asymmetry) of the
    # named presets perp-asym and tangential
    "sweep": ("affine: 1, -1, 0", "0.5", "antisymmetric"),
    "dump": ("inflow-bubble", "2.0", "symmetric"),
}
_CLI_SWEEP = {
    "sweep": {"variants": ("I", "I-R", "II", "II-R"), "d0": (1e-1, 1e-3),
              "dump": False},
    "dump": {"variants": ("I", "II-R"), "d0": (1e-2,), "dump": True},
}

NAMES = ("sweep", "dump", "converge")


class Workload:
    """Inputs, per-pass dofs and output checks of one workload."""

    def __init__(self, name: str, seed: int, size: str = "full"):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}; expected one of "
                             f"{', '.join(NAMES)}")
        self.name = name
        self.size = size
        self.sizes = SIZES[size]
        self.uses_cli = name in _CLI_SWEEP
        self.phase_index = seed % len(PHASES) if self.uses_cli else None

    # ------------------------------------------------------------------
    # inputs

    def write_inputs(self, directory: pathlib.Path) -> pathlib.Path:
        """Write the pass input into ``directory`` and return its path."""
        if not self.uses_cli:
            path = directory / "converge.json"
            path.write_text(json.dumps({
                "preset": "manufactured",
                "h": list(self.sizes["converge_h"]),
                "degrees": self.sizes["converge_degrees"],
                "tol": TOL}))
            return path
        g, k_f, asymmetry = _CLI_PROBLEM[self.name]
        sweep = _CLI_SWEEP[self.name]
        text = "\n".join([
            "[experiment]",
            "preset = custom",
            f"variants = {', '.join(sweep['variants'])}",
            f"d0 = {', '.join(repr(d) for d in sweep['d0'])}",
            f"h = {self.sizes['h']}",
            "degrees = 1",
            f"ref_h = {self.sizes['ref_h']}",
            "ref_degrees = 2",
            "[solver]",
            "method = direct-LU",
            "ref_method = direct-LU",
            f"tol = {TOL!r}",
            "[problem]",
            f"g = {g}",
            f"k_f = {k_f}",
            f"asymmetry = {asymmetry}",
            f"phase = {PHASES[self.phase_index]!r}",
            ""])
        path = directory / f"{self.name}.cfg"
        path.write_text(text)
        return path

    def cli_args(self, config: pathlib.Path, out: pathlib.Path) -> list:
        args = [str(config), "--out", str(out)]
        if _CLI_SWEEP[self.name]["dump"]:
            args += ["--dump-fields", "--dump-matrices"]
        return args

    def dofs(self, out: pathlib.Path, result: dict) -> int:
        """Dofs of every linear system the pass solved."""
        if not self.uses_cli:
            return sum(run["dofs"] for run in result.get("runs", []))
        return sum(_log_values(out / "run.log", " dofs=", int))

    def rows_per_pass(self) -> int:
        """Operations of one pass: error-table rows or (h, k) solves."""
        if not self.uses_cli:
            return len(self.sizes["converge_h"])
        sweep = _CLI_SWEEP[self.name]
        return len(sweep["variants"]) * len(sweep["d0"])

    # ------------------------------------------------------------------
    # checks

    def check(self, status: int, out: pathlib.Path, result: dict):
        """Check one pass; returns (failed operations, problem list)."""
        if not self.uses_cli:
            return _check_converge(status, result, self.rows_per_pass(),
                                   self.sizes["min_order"])
        return _check_cli(self, status, out)

    def table(self, out: pathlib.Path, result: dict) -> list:
        """The pass's error table as ``[d0 or h, variant, l2_error]`` rows."""
        if not self.uses_cli:
            return [[run["h"], "full", run["l2_error"]]
                    for run in result.get("runs", [])]
        csv = out / "errors.csv"
        if not csv.exists():
            return []
        return [[row["d0"], row["variant"], row["l2_error"]]
                for row in read_error_table(csv)]

    def golden(self):
        """Recorded error table of this input, or None at smoke size."""
        if self.size != "full":
            return None
        key = str(self.phase_index or 0)
        return json.loads(GOLDEN_PATH.read_text())[self.name][key]


def read_error_table(path: pathlib.Path) -> list:
    """Rows of an ``errors.csv`` as dicts with numeric fields."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        for key in ("d0", "l2_error", "residual"):
            row[key] = float(row[key])
        for key in ("bulk_dofs", "iface_dofs"):
            row[key] = int(row[key])
        rows.append(row)
    return rows


def _log_values(path: pathlib.Path, key: str, kind=float) -> list:
    """Every value after ``key`` in the run log, one per solve: the
    reference solves log there too, unlike in ``errors.csv``."""
    found = []
    if not path.exists():
        return found
    for line in path.read_text().splitlines():
        _, sep, tail = line.partition(key)
        if sep:
            found.append(kind(tail.split()[0]))
    return found


def drift(table: list, golden: list) -> float:
    """Largest relative deviation of a table's errors from ``golden``."""
    want = {(a, b): err for a, b, err in golden}
    if len(table) != len(want):
        return math.inf
    worst = 0.0
    for a, b, err in table:
        ref = want.get((a, b))
        if ref is None or not math.isfinite(err):
            return math.inf
        worst = max(worst, abs(err - ref) / abs(ref))
    return worst


def _check_cli(work: Workload, status: int, out: pathlib.Path):
    expected = work.rows_per_pass()
    csv = out / "errors.csv"
    if not csv.exists():
        return expected, [f"exit {status}, no errors.csv"]
    rows = read_error_table(csv)
    problems = []
    if status != 0:
        problems.append(f"exit status {status}")
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    bad = set()
    for i, row in enumerate(rows):
        if not (math.isfinite(row["l2_error"])
                and math.isfinite(row["residual"])):
            bad.add(i)
            problems.append(f"nan row d0={row['d0']:g} {row['variant']}")
        elif row["residual"] > TOL:
            bad.add(i)
            problems.append(f"residual {row['residual']:.3e} > {TOL:g} at "
                            f"d0={row['d0']:g} {row['variant']}")
    logged = _log_values(out / "run.log", "relative residual ")
    if not logged or not all(r <= TOL for r in logged):
        # a reference solve above tol spoils every row compared with it
        bad.update(range(len(rows)))
        problems.append(f"run log residuals {logged} exceed {TOL:g}")
    if work.name == "sweep":
        at = {r["variant"]: r["l2_error"] for r in rows if r["d0"] == 1e-1}
        if not (at.get("I", math.inf) < at.get("I-R", -math.inf)
                and at.get("I", math.inf) < at.get("II", -math.inf)
                < at.get("II-R", -math.inf)):
            bad.update(i for i, r in enumerate(rows) if r["d0"] == 1e-1)
            problems.append(f"criterion-3 ordering fails at d0=0.1: {at}")
    if work.name == "dump":
        for i, row in enumerate(rows):
            issue = _check_dump(out, row)
            if issue:
                bad.add(i)
                problems.append(issue)
    failed = len(bad) + max(expected - len(rows), 0)
    if status != 0 and not failed:
        failed = expected
    return failed, problems


def _check_dump(out: pathlib.Path, row: dict):
    """Read back the field dumps of one row and of its reference."""
    import numpy as np
    from fracdg import postproc

    fields = out / "fields"
    stems = [f"d0_{row['d0']:.6g}_{row['variant']}",
             f"d0_{row['d0']:.6g}_reference"]
    for stem in stems:
        elements = fields / f"{stem}.elements.txt"
        samples = fields / f"{stem}.samples.txt"
        if not (elements.exists() and samples.exists()):
            return f"missing dump {stem}"
        n_elem = sum(1 for line in elements.read_text().splitlines()
                     if not line.startswith("#"))
        _, points, values = postproc.read_samples(samples)
        if len(values) != 4 * n_elem:
            return f"{stem}: {len(values)} samples, expected {4 * n_elem}"
        if not (np.all(np.isfinite(points)) and np.all(np.isfinite(values))):
            return f"{stem}: non-finite samples"
    gamma = fields / f"{stems[0]}.gamma.txt"
    if not gamma.exists():
        return f"missing dump {gamma.name}"
    t, values = postproc.read_gamma_curve(gamma)
    cells = row["iface_dofs"] // 2  # degree-1 interface: 2 dofs per cell
    if len(values) != 8 * cells:
        return f"{gamma.name}: {len(values)} rows, expected {8 * cells}"
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(values))):
        return f"{gamma.name}: non-finite values"
    return None


def _check_converge(status: int, result: dict, expected: int,
                    min_order: float):
    runs = result.get("runs", [])
    problems = [] if status == 0 else [f"exit status {status}"]
    bad = set()
    for i, run in enumerate(runs):
        if not (math.isfinite(run["l2_error"])
                and run["converged"] and run["residual"] <= TOL):
            bad.add(i)
            problems.append(f"h={run['h']:g}: error {run['l2_error']:.3e}, "
                            f"converged={run['converged']}, residual "
                            f"{run['residual']:.3e}")
    if len(runs) == expected and not bad:
        errs = [run["l2_error"] for run in runs]
        order = math.log(errs[0] / errs[1]) / math.log(runs[0]["h"]
                                                      / runs[1]["h"])
        if order < min_order:
            bad.update(range(len(runs)))
            problems.append(f"observed L2 order {order:.3f} < {min_order}")
    failed = len(bad) + max(expected - len(runs), 0)
    if status != 0 and not failed:
        failed = expected
    return failed, problems
