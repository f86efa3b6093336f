"""Tests for averaging, interface errors, sweep tables, and field dumps.

Averaging oracles are closed-form integrals of polynomial fields in the
wall-normal coordinate; the error metric is pinned by hand-computable
integrals.  Field dumps are checked by round trip.
"""

import dataclasses
import math
import pathlib
import weakref

import numpy as np
import pytest

from fracdg import assembly as asm
from fracdg import models, postproc
from fracdg.geometry import ApertureProfile, FractureFrame
from fracdg.mesh import build_bulk_mesh, build_interface_grid

FRAME = FractureFrame.vertical_line(0.5)


def full_with_field(profile, f, degree=1, h=0.125):
    """Full-dimensional solution object carrying the interpolant of f."""
    preset = dataclasses.replace(
        models.constant_aperture_preset(0.05), profile=profile)
    sol = models.run_full(preset, h, degrees=degree)
    space = asm.DGSpace.bulk(sol.mesh, degree)
    coeffs = asm.interpolate_bulk(sol.mesh, space, f)
    return dataclasses.replace(sol, space=space, coefficients=coeffs)


class TestAveraging:
    def test_constant_field(self):
        profile = ApertureProfile.constant(0.05, 0.05)
        sol = full_with_field(profile, lambda x: np.full(len(x), 3.25))
        avg = postproc.average_across_fracture(sol)
        t = np.linspace(0.0, 1.0, 9)
        np.testing.assert_allclose(avg(t), 3.25, atol=1e-12)

    def test_odd_field_symmetric_walls(self):
        profile = ApertureProfile.constant(0.05, 0.05)
        sol = full_with_field(profile, lambda x: x[:, 0] - 0.5)
        avg = postproc.average_across_fracture(sol)
        np.testing.assert_allclose(avg(np.linspace(0.1, 0.9, 7)), 0.0,
                                   atol=1e-13)

    def test_linear_field_asymmetric_walls(self):
        profile = ApertureProfile.constant(0.03, 0.07)
        sol = full_with_field(profile, lambda x: x[:, 0] - 0.5)
        avg = postproc.average_across_fracture(sol)
        np.testing.assert_allclose(avg(np.linspace(0.05, 0.95, 7)),
                                   (0.07 - 0.03) / 2.0, atol=1e-13)

    def test_linear_field_wavy_walls(self):
        profile = ApertureProfile.sinusoidal(0.1, frequency=2.0 * np.pi,
                                             asymmetry="antisymmetric")
        sol = full_with_field(profile, lambda x: x[:, 0] - 0.5)
        avg = postproc.average_across_fracture(sol)
        for t in (0.0, 0.25, 0.37, 0.62, 1.0):
            d1 = float(profile.d1_fn(t))
            d2 = float(profile.d2_fn(t))
            assert avg(t) == pytest.approx((d2 - d1) / 2.0, abs=1e-12)

    def test_cubic_field_exact(self):
        # integrand polynomial in the normal coordinate, well below the
        # quadrature order: averaging must be exact
        profile = ApertureProfile.sinusoidal(0.1, frequency=2.0 * np.pi,
                                             asymmetry="symmetric")
        sol = full_with_field(profile, lambda x: (x[:, 0] - 0.5)**3,
                              degree=3)
        avg = postproc.average_across_fracture(sol)
        for t in (0.1, 0.52, 0.83):
            d1 = float(profile.d1_fn(t))
            d2 = float(profile.d2_fn(t))
            exact = (d2**4 - d1**4) / (4.0 * (d1 + d2))
            assert avg(t) == pytest.approx(exact, abs=1e-12)

    def test_rejects_reduced_meshes(self):
        preset = models.constant_aperture_preset(0.05)
        sol = models.run_reduced(preset, "I", 0.25)
        fake = models.FullSolution(preset=preset, mesh=sol.mesh,
                                   space=sol.bulk_space,
                                   coefficients=sol.bulk_coefficients,
                                   report=sol.report, perm=sol.perm)
        with pytest.raises(ValueError, match="full-dimensional"):
            postproc.average_across_fracture(fake)

    def test_rejects_out_of_range_coordinate(self):
        profile = ApertureProfile.constant(0.05, 0.05)
        sol = full_with_field(profile, lambda x: np.full(len(x), 1.0))
        avg = postproc.average_across_fracture(sol)
        with pytest.raises(ValueError, match="leaves"):
            avg(1.5)

    def test_rejects_out_of_range_coordinate_in_vector(self):
        profile = ApertureProfile.constant(0.05, 0.05)
        sol = full_with_field(profile, lambda x: np.full(len(x), 1.0))
        avg = postproc.average_across_fracture(sol)
        with pytest.raises(ValueError, match="coordinate 1.5 leaves"):
            avg(np.array([0.2, 0.5, 1.5, 0.7]))

    def test_rejects_segment_leaving_the_block(self):
        sol = full_with_field(ApertureProfile.constant(0.05, 0.05),
                              lambda x: np.full(len(x), 1.0))
        avg = postproc.average_across_fracture(
            sol, profile=ApertureProfile.constant(0.2, 0.2))
        with pytest.raises(ValueError, match="exits the fracture block"):
            avg(np.linspace(0.1, 0.9, 5))

    def test_vector_matches_pointwise_calls(self):
        profile = ApertureProfile.sinusoidal(0.1, frequency=2.0 * np.pi,
                                             asymmetry="antisymmetric")
        sol = full_with_field(profile, lambda x: np.sin(3.0 * x[:, 0])
                              + x[:, 1] * x[:, 0], degree=2)
        avg = postproc.average_across_fracture(sol)
        t = np.linspace(0.0, 1.0, 23)
        np.testing.assert_allclose(avg(t), [avg(ti) for ti in t],
                                   rtol=0.0, atol=1e-14)


class TestErrorMetric:
    def grid(self, h=0.125):
        profile = ApertureProfile.constant(0.05, 0.05)
        mesh = build_bulk_mesh(((0.0, 0.0), (1.0, 1.0)), profile,
                               "curved-reduced", h, frame=FRAME)
        return build_interface_grid(mesh)

    def test_identical_fields(self):
        grid = self.grid()
        f = lambda t: np.sin(3.0 * t)
        assert postproc.l2_error_gamma(f, f, grid) == 0.0

    def test_constant_offset(self):
        grid = self.grid()
        err = postproc.l2_error_gamma(lambda t: 0.8 + 0.0 * t, 0.5, grid)
        assert err == pytest.approx(0.3, abs=1e-13)

    def test_linear_difference(self):
        grid = self.grid()
        err = postproc.l2_error_gamma(lambda t: np.asarray(t, float),
                                      lambda t: 0.0 * t, grid)
        assert err == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-13)

    def test_symmetry_and_triangle_inequality(self):
        grid = self.grid()
        rng = np.random.default_rng(5)
        for _ in range(10):
            c = rng.normal(size=(3, 3))
            fs = [lambda t, ci=ci: ci[0] + ci[1] * t + ci[2] * t**2
                  for ci in c]
            ab = postproc.l2_error_gamma(fs[0], fs[1], grid)
            ba = postproc.l2_error_gamma(fs[1], fs[0], grid)
            assert ab == pytest.approx(ba, rel=1e-14)
            ac = postproc.l2_error_gamma(fs[0], fs[2], grid)
            cb = postproc.l2_error_gamma(fs[2], fs[1], grid)
            assert ab <= ac + cb + 1e-14

    def test_accepts_reduced_solution(self):
        preset = models.constant_aperture_preset(0.05)
        sol = models.run_reduced(preset, "I", 0.25)
        err = postproc.l2_error_gamma(sol, 0.5, sol.grid)
        assert err == pytest.approx(0.0, abs=1e-9)


class TestBulkError:
    def test_exact_solution_gives_zero(self):
        preset = models.constant_aperture_preset(0.05)
        sol = models.run_full(preset, 0.25)
        err = postproc.l2_error_bulk(sol, lambda x: 1.0 - x[:, 0])
        assert err < 1e-9

    def test_constant_offset(self):
        preset = models.constant_aperture_preset(0.05)
        sol = models.run_full(preset, 0.25)
        err = postproc.l2_error_bulk(sol,
                                     lambda x: 1.0 - x[:, 0] + 0.25)
        assert err == pytest.approx(0.25, rel=1e-9)


class TestErrorTable:
    def row(self, d0=0.1, variant="I", err=0.5):
        return postproc.ErrorRow(d0, variant, err, 100, 10, 1e-12)

    def test_duplicate_key_rejected(self):
        table = postproc.ErrorTable()
        table.add(self.row())
        with pytest.raises(ValueError, match="duplicate"):
            table.add(self.row(err=0.7))

    def test_negative_error_rejected(self):
        table = postproc.ErrorTable()
        with pytest.raises(ValueError, match="negative"):
            table.add(self.row(err=-0.1))

    def test_csv_shape(self):
        table = postproc.ErrorTable()
        table.add(self.row(variant="I"))
        table.add(self.row(variant="II"))
        text = table.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "d0,variant,l2_error,bulk_dofs,iface_dofs," \
                           "residual"
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "I"


class TestSweep:
    def test_single_row(self):
        # h must resolve the wall oscillation or the averaging guard
        # rejects the reference mesh
        table = postproc.aperture_sweep("perp-asym", ["I"], [0.1], 0.0625,
                                        ref_h=0.0625)
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.variant == "I" and row.d0 == 0.1
        assert np.isfinite(row.l2_error) and row.l2_error >= 0.0
        assert row.bulk_dofs > 0 and row.iface_dofs > 0
        assert row.note == ""

    def test_one_reference_alive_at_a_time(self, monkeypatch):
        # the hook keeps weak references to the references; each new
        # reference run counts how many earlier ones are still alive
        refs, alive = [], []
        run_full = models.run_full

        def counting_run_full(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            return run_full(*args, **kwargs)

        def hook(d0, tag, solution):
            if tag == "reference":
                refs.append(weakref.ref(solution))

        monkeypatch.setattr(models, "run_full", counting_run_full)
        table = postproc.aperture_sweep("perp-asym", ["I"], [0.1, 0.05],
                                        0.0625, ref_h=0.0625,
                                        on_solution=hook)
        assert len(refs) == 2
        assert alive == [0, 0]
        assert all(np.isfinite(r.l2_error) for r in table.rows)

    def test_preset_xi_reaches_reduced_runs(self):
        # the preset is the one source of xi: run_reduced and the sweep's
        # preset callable both assemble with it
        def preset(d0):
            return dataclasses.replace(
                models.preset_by_name("perp-asym", d0), xi=0.8)

        h = 0.0625
        default = models.run_reduced(models.preset_by_name("perp-asym", 0.1),
                                     "I", h).system.matrix
        direct = models.run_reduced(preset(0.1), "I", h)
        solutions = {}
        postproc.aperture_sweep(
            preset, ["I"], [0.1], h, ref_h=h,
            on_solution=lambda d0, tag, sol: solutions.setdefault(tag, sol))
        sweep_sol = solutions["I"]
        for sol in (direct, sweep_sol):
            assert sol.perm.xi == 0.8
            assert sol.system.matrix.shape == default.shape
            assert abs(sol.system.matrix - default).max() > 1e-8
        assert (direct.system.matrix != sweep_sol.system.matrix).nnz == 0

    def test_failure_recorded_per_row(self):
        table = postproc.aperture_sweep("perp-asym", ["I", "XXL"], [0.1],
                                        0.0625, ref_h=0.0625)
        good = table.get(0.1, "I")
        bad = table.get(0.1, "XXL")
        assert np.isfinite(good.l2_error)
        assert math.isnan(bad.l2_error)
        assert "unknown model" in bad.note

    def test_unbuildable_problem_fails_every_row_on_its_mesh(self,
                                                              monkeypatch):
        # the rectified problem cannot be built: I-R and II-R fail with
        # its note after one attempt, I and II on the other mesh run
        modes = []
        assemble = models.assemble_reduced

        def rectified_fails(mesh, *args, **kwargs):
            modes.append(mesh.mode)
            if mesh.mode == "rectified":
                raise MemoryError("Unable to allocate")
            return assemble(mesh, *args, **kwargs)

        monkeypatch.setattr(models, "assemble_reduced", rectified_fails)
        table = postproc.aperture_sweep("perp-sym",
                                        ["I", "I-R", "II", "II-R"], [0.1],
                                        0.125, reference="exact")
        assert modes == ["curved-reduced", "rectified"]
        assert [r.variant for r in table.rows] == ["I", "I-R", "II", "II-R"]
        for name in ("I", "II"):
            assert np.isfinite(table.get(0.1, name).l2_error)
        for name in ("I-R", "II-R"):
            row = table.get(0.1, name)
            assert math.isnan(row.l2_error) and row.bulk_dofs == 0
            assert row.note == "Unable to allocate"

    def test_exact_reference_skips_full_run(self):
        table = postproc.aperture_sweep("perp-sym", ["I"], [0.1], 0.125,
                                        reference="exact")
        assert len(table.rows) == 1
        assert np.isfinite(table.rows[0].l2_error)

    def test_exact_reference_requires_closed_form(self):
        with pytest.raises(ValueError, match="closed-form"):
            postproc.aperture_sweep("perp-asym", ["I"], [0.1], 0.125,
                                    reference="exact")

    def test_unresolved_walls_rejected_by_averaging_guard(self):
        # at h = 1/8 the mesh has two rows per wall period; the chords
        # deviate from the analytic walls by more than a cell and the
        # averaging refuses to produce a reference from it
        preset = models.preset_by_name("perp-asym", d0=0.1)
        sol = models.run_full(preset, 0.125)
        avg = postproc.average_across_fracture(sol)
        with pytest.raises(ValueError, match="exits the fracture"):
            avg(np.linspace(0.0, 1.0, 17))


def looped_write_fields(solution, prefix):
    """The per-line writer ``write_fields`` replaced, kept as its oracle."""
    prefix = str(prefix)
    if isinstance(solution, models.FullSolution):
        mesh, space, coeffs = solution.mesh, solution.space, \
            solution.coefficients
        evaluate = solution.evaluate
        reduced = None
    else:
        mesh, space, coeffs = solution.mesh, solution.bulk_space, \
            solution.bulk_coefficients
        evaluate = solution.evaluate_bulk
        reduced = solution
    with open(prefix + ".vertices.txt", "w") as fh:
        fh.write("# vertex x y\n")
        for i, (x, y) in enumerate(mesh.vertices):
            fh.write(f"{i} {x:.17g} {y:.17g}\n")
    with open(prefix + ".elements.txt", "w") as fh:
        fh.write("# element v0 v1 v2 subdomain degree\n")
        for e in range(mesh.n_elements):
            v = mesh.elements[e]
            fh.write(f"{e} {v[0]} {v[1]} {v[2]} {int(mesh.subdomain[e])} "
                     f"{space.degree}\n")
    with open(prefix + ".coefficients.txt", "w") as fh:
        fh.write("# element coefficients...\n")
        for e in range(mesh.n_elements):
            vals = " ".join(f"{c:.17g}"
                            for c in coeffs[space.dofs(e)])
            fh.write(f"{e} {vals}\n")
    pts = postproc._bulk_sample_points(mesh).reshape(-1, 2)
    vals = evaluate(pts)
    elems = np.repeat(np.arange(mesh.n_elements), 4)
    with open(prefix + ".samples.txt", "w") as fh:
        fh.write("# element x y value\n")
        for e, (x, y), v in zip(elems, pts, vals):
            fh.write(f"{e} {x:.17g} {y:.17g} {v:.17g}\n")
    if reduced is not None:
        grid = reduced.grid
        t0 = grid.t_breaks[:-1, None]
        ts = (t0 + (grid.t_breaks[1:, None] - t0)
              * (np.arange(8) + 0.5) / 8.0).ravel()
        vals = reduced.evaluate_interface(ts)
        with open(prefix + ".gamma.txt", "w") as fh:
            fh.write("# t value\n")
            for t, v in zip(ts, vals):
                fh.write(f"{t:.17g} {v:.17g}\n")


class TestFieldDumps:
    def test_full_round_trip(self, tmp_path):
        preset = models.constant_aperture_preset(0.05)
        sol = models.run_full(preset, 0.25)
        paths = postproc.write_fields(sol, tmp_path / "run")
        assert len(paths) == 4
        elems, pts, vals = postproc.read_samples(tmp_path
                                                 / "run.samples.txt")
        np.testing.assert_allclose(vals, sol.evaluate(pts), atol=1e-12)
        assert len(elems) == 4 * sol.mesh.n_elements

    def test_reduced_samples_lie_in_named_elements(self, tmp_path):
        preset = models.preset_by_name("perp-asym", d0=0.1)
        sol = models.run_reduced(preset, "I", 0.125)
        postproc.write_fields(sol, tmp_path / "red")
        elems, pts, vals = postproc.read_samples(tmp_path
                                                 / "red.samples.txt")
        np.testing.assert_array_equal(
            elems, np.repeat(np.arange(sol.mesh.n_elements), 4))
        np.testing.assert_array_equal(models._locate(sol.mesh, pts), elems)
        np.testing.assert_allclose(vals, sol.evaluate_bulk(pts), atol=1e-12)

    def test_constant_field_dumps_constant(self, tmp_path):
        profile = ApertureProfile.constant(0.05, 0.05)
        sol = full_with_field(profile, lambda x: np.full(len(x), 2.0),
                              h=0.25)
        postproc.write_fields(sol, tmp_path / "c")
        _, _, vals = postproc.read_samples(tmp_path / "c.samples.txt")
        np.testing.assert_allclose(vals, 2.0, atol=1e-12)

    def test_reduced_gamma_curve(self, tmp_path):
        preset = models.preset_by_name("perp-asym", d0=0.1)
        sol = models.run_reduced(preset, "I", 0.125)
        paths = postproc.write_fields(sol, tmp_path / "red")
        assert any(str(p).endswith(".gamma.txt") for p in paths)
        t, vals = postproc.read_gamma_curve(tmp_path / "red.gamma.txt")
        assert np.all(np.diff(t) > 0)
        np.testing.assert_allclose(vals, sol.evaluate_interface(t),
                                   atol=1e-12)
        assert len(t) == 8 * sol.grid.n_elements

    @pytest.mark.parametrize("kind", [
        *(f"full k={k}" for k in range(1, asm.MAX_DEGREE + 1)), "reduced"])
    def test_matches_per_line_writer_byte_for_byte(self, tmp_path, kind):
        rng = np.random.default_rng(11)
        preset = models.preset_by_name("perp-asym", d0=0.1)
        if kind != "reduced":
            sol = models.run_full(preset, 0.25)
            space = asm.DGSpace.bulk(sol.mesh,
                                     int(kind.removeprefix("full k=")))
            coeffs = rng.standard_normal(space.n_dofs)
            coeffs[:3] = (0.0, -0.0, 1e-300)
            sol = dataclasses.replace(sol, space=space, coefficients=coeffs)
        else:
            sol = models.run_reduced(preset, "II-R", 0.125, degrees=(2, 3))
        paths = postproc.write_fields(sol, tmp_path / "new")
        looped_write_fields(sol, tmp_path / "old")
        assert len(paths) == (4 if kind != "reduced" else 5)
        for path in paths:
            old = str(path).replace("new.", "old.")
            assert pathlib.Path(path).read_bytes() == \
                pathlib.Path(old).read_bytes(), path
