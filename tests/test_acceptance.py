"""Acceptance suite: one test per shipping criterion.

Each test prints a single summary line with the measured quantities so a
verbose run reads as a checklist.  Criteria are ordering- and trend-based
at desk scale; the meshes, degrees, and tolerances used here are pinned
so reruns are reproducible.

  1. homogeneous sanity: uniform permeability reproduces a linear field
  2. constant apertures: variants I and II-R assemble the same system
  3. asymmetric-wall benchmark: error ordering I < I-R, I < II < II-R
  4. asymmetric-wall benchmark: aperture convergence, wall-trace models
     converge faster than rectified ones
  5. symmetric-wall benchmark: wall-trace and rectified gradient models
     beat the gradient-free ones by orders of magnitude
  6. tangential-flow benchmark: ordering and fastest convergence of the
     full-gradient model
  7. manufactured solution: mesh convergence at orders k+1
  8. module invariant suites all pass
  9. wellposedness diagnostic matches a dense-sampling oracle
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

from fracdg import models, postproc, solver
from fracdg.geometry import ApertureProfile, check_wellposedness

D0_SWEEP = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
ALL_VARIANTS = ("I", "I-R", "II", "II-R")


def fit_slope(d0s, errors):
    return np.polyfit(np.log(d0s), np.log(errors), 1)[0]


def test_criterion_1_homogeneous_linear_field():
    preset = models.constant_aperture_preset(0.05)
    errs = []
    for h in (1 / 8, 1 / 16):
        sol = models.run_full(preset, h, degrees=1, method="direct-LU")
        errs.append(postproc.l2_error_bulk(sol,
                                           lambda x: 1.0 - x[:, 0]))
    print(f"criterion 1: L2 errors {errs[0]:.2e} (h=1/8), "
          f"{errs[1]:.2e} (h=1/16); tolerance 1e-9")
    assert all(e < 1e-9 for e in errs)


def test_criterion_2_constant_aperture_degeneracy():
    preset = models.constant_aperture_preset(0.05)
    systems = {}
    solutions = {}
    for variant in ("I", "II-R"):
        *_, system = models.prepare_reduced(preset, variant, 1 / 16)
        systems[variant] = system
        solutions[variant], _ = solver.solve(system)
    matrix_diff = abs(systems["I"].matrix - systems["II-R"].matrix).max()
    rhs_diff = np.abs(systems["I"].rhs - systems["II-R"].rhs).max()
    sol_diff = np.abs(solutions["I"] - solutions["II-R"]).max()
    print(f"criterion 2: entrywise matrix diff {matrix_diff:.2e} "
          f"(tol 1e-12), rhs diff {rhs_diff:.2e} (tol 1e-12), "
          f"solution diff {sol_diff:.2e} (tol 1e-10)")
    assert matrix_diff <= 1e-12
    assert rhs_diff <= 1e-12
    assert sol_diff <= 1e-10


def test_criterion_3_asymmetric_wall_error_ordering():
    table = postproc.aperture_sweep("perp-asym", ALL_VARIANTS, [1e-1],
                                    1 / 64)
    err = {v: table.get(1e-1, v).l2_error for v in ALL_VARIANTS}
    separation = (err["II-R"] - err["I"]) / err["II-R"]
    print(f"criterion 3: errors I={err['I']:.3e} I-R={err['I-R']:.3e} "
          f"II={err['II']:.3e} II-R={err['II-R']:.3e}; "
          f"separation {separation:.0%} (needs >= 20%)")
    assert err["I"] < err["I-R"]
    assert err["I"] < err["II"] < err["II-R"]
    assert separation >= 0.20


def test_criterion_4_asymmetric_wall_aperture_convergence():
    table = postproc.aperture_sweep("perp-asym", ALL_VARIANTS, D0_SWEEP,
                                    1 / 32, degrees=2)
    errs = {v: table.errors(v) for v in ALL_VARIANTS}
    slopes = {v: fit_slope(D0_SWEEP, errs[v]) for v in ALL_VARIANTS}
    print("criterion 4: slopes " +
          " ".join(f"{v}={slopes[v]:.2f}" for v in ALL_VARIANTS) +
          "; I and II monotone, steeper than I-R and II-R")
    for variant in ("I", "II"):
        assert np.all(np.diff(errs[variant]) < 0.0), \
            f"errors of {variant} not monotone: {errs[variant]}"
        for rectified in ("I-R", "II-R"):
            assert slopes[variant] > slopes[rectified], \
                f"slope({variant}) <= slope({rectified})"


def test_criterion_5_symmetric_wall_exact_reference():
    at_d0 = postproc.aperture_sweep("perp-sym", ALL_VARIANTS, [1e-1],
                                    1 / 32, degrees=2, reference="exact")
    err = {v: at_d0.get(1e-1, v).l2_error for v in ALL_VARIANTS}
    ratio = min(err["II"], err["II-R"]) / max(err["I"], err["I-R"])
    sweep = postproc.aperture_sweep("perp-sym", ["I"], D0_SWEEP, 1 / 32,
                                    degrees=2, reference="exact")
    errs_i = sweep.errors("I")
    print(f"criterion 5: gradient/gradient-free ratio {ratio:.0f}x "
          f"(needs >= 100x); variant-I errors "
          f"{np.array2string(errs_i, precision=2)} monotone to d0=1e-3")
    assert ratio >= 100.0
    assert np.all(np.diff(errs_i) < 0.0)


def test_criterion_6_tangential_flow_ordering():
    table = postproc.aperture_sweep("tangential", ALL_VARIANTS, D0_SWEEP,
                                    1 / 32)
    err = {v: table.get(1e-1, v).l2_error for v in ALL_VARIANTS}
    slopes = {v: fit_slope(D0_SWEEP, table.errors(v))
              for v in ALL_VARIANTS}
    pair_factor = max(err["II"], err["II-R"]) / min(err["II"], err["II-R"])
    print(f"criterion 6: errors I={err['I']:.3e} I-R={err['I-R']:.3e} "
          f"II={err['II']:.3e} II-R={err['II-R']:.3e}; II/II-R within "
          f"factor {pair_factor:.2f} (needs <= 2); slopes " +
          " ".join(f"{v}={slopes[v]:.2f}" for v in ALL_VARIANTS))
    assert err["I"] < err["I-R"]
    assert err["I"] < err["II"]
    assert pair_factor <= 2.0
    for other in ("I-R", "II", "II-R"):
        assert slopes["I"] > slopes[other], f"slope(I) <= slope({other})"


def test_criterion_7_manufactured_mesh_convergence():
    preset = models.preset_by_name("manufactured")
    spacings = (1 / 8, 1 / 16, 1 / 32)
    observed = {}
    for degree in (1, 2):
        errs = [postproc.l2_error_bulk(
            models.run_full(preset, h, degrees=degree),
            preset.exact_pressure) for h in spacings]
        observed[degree] = np.polyfit(np.log(spacings), np.log(errs), 1)[0]
    print(f"criterion 7: L2 orders k=1: {observed[1]:.2f} (needs >= 1.8), "
          f"k=2: {observed[2]:.2f} (needs >= 2.8)")
    assert observed[1] >= 1.8
    assert observed[2] >= 2.8


def test_criterion_8_module_invariant_suites():
    tests_dir = Path(__file__).parent
    suites = [str(tests_dir / f"test_{name}.py")
              for name in ("geometry", "mesh", "assembly", "solver",
                           "models", "postproc", "cli")]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--no-header",
         "-p", "no:cacheprovider", *suites],
        capture_output=True, text=True, cwd=tests_dir.parent)
    tail = result.stdout.strip().splitlines()[-1] if result.stdout else ""
    print(f"criterion 8: module suites -> {tail}")
    assert result.returncode == 0, \
        f"module suites failed:\n{result.stdout}\n{result.stderr}"


def test_criterion_9_wellposedness_diagnostic():
    for d1, d2 in ((0.05, 0.05), (0.08, 0.02)):
        preset = models.constant_aperture_preset(0.05)
        report = check_wellposedness(
            ApertureProfile.constant(d1, d2), preset.permeability())
        assert report.lhs == 0.0 and report.satisfied

    worst = 0.0
    for name in ("perp-asym", "perp-sym", "tangential"):
        preset = models.preset_by_name(name, d0=0.1)
        perm = preset.permeability()
        report = check_wellposedness(preset.profile, perm)

        t = np.linspace(*preset.profile.t_range, 1 << 16 | 1)
        d1p = preset.profile.dd1_fn(t)
        d2p = preset.profile.dd2_fn(t)
        d = preset.profile.d1_fn(t) + preset.profile.d2_fn(t)
        tau = np.array([0.0, 1.0])
        eig = np.linalg.eigvalsh(np.atleast_2d(tau @ preset.k_f @ tau))
        contrast = eig.max() / eig.min()
        oracle = contrast ** 2 * (d.max() / d.min()) * (
            (2.0 * perm.xi - 1.0) * np.abs(d1p + d2p).max() ** 2
            + np.abs(d1p - d2p).max() ** 2)
        rel = abs(report.lhs - oracle) / oracle
        worst = max(worst, rel)
        assert rel <= 0.01, f"{name}: lhs {report.lhs} vs oracle {oracle}"
    print(f"criterion 9: constant apertures give lhs = 0; benchmark "
          f"profiles match the dense oracle within {worst:.2%} "
          f"(needs <= 1%)")
