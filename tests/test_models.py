"""Tests for the orchestration layer: presets, variants, end-to-end runs.

The no-contrast configuration (unit permeability everywhere, linear
boundary data) has the exact solution p = 1 - x1 with midline pressure
1/2 for the full model and for every reduced variant, which pins down the
whole pipeline including trace evaluation.  Degenerate constant-aperture
runs must collapse variants I and II-R onto each other.
"""

import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracdg import assembly as asm
from fracdg import models, postproc
from fracdg.geometry import ApertureProfile, FractureFrame
from fracdg.mesh import MESH_MODES, build_bulk_mesh


class TestVariantTable:
    def test_flag_table(self):
        rows = {
            "I": (False, True),
            "I-R": (True, True),
            "II": (False, False),
            "II-R": (True, False),
        }
        for name, flags in rows.items():
            v = models.ModelVariant.of(name)
            assert (v.uses_rectified_bulk,
                    v.gradient_terms_in_transport) == flags
            assert v.name == name

    def test_passthrough_and_unknown(self):
        v = models.ModelVariant.of("II")
        assert models.ModelVariant.of(v) is v
        with pytest.raises(ValueError, match="unknown model"):
            models.ModelVariant.of("III")

    def test_transport_gating_matches_assembly_variants(self):
        # a variant's system adds the wall-trace transport form exactly
        # when its flag says so
        for name in ("I", "I-R", "II", "II-R"):
            v = models.ModelVariant.of(name)
            assert (name in ("I", "I-R")) == v.gradient_terms_in_transport


class TestPresets:
    def test_perp_asym_data(self):
        p = models.preset_by_name("perp-asym", d0=0.1)
        np.testing.assert_allclose(p.k_f, 0.5 * np.eye(2))
        np.testing.assert_allclose(p.k1, np.eye(2))
        assert p.xi == pytest.approx(2.0 / 3.0)
        assert p.q is None and p.q_gamma is None
        assert p.profile.d1_fn(1.0 / 16.0) == pytest.approx(0.15)
        assert p.profile.d2_fn(1.0 / 16.0) == pytest.approx(0.05)
        x = np.array([[0.25, 0.7]])
        assert p.g(x)[0] == pytest.approx(0.75)
        gg = p.gamma_data()
        assert gg(0.37) == pytest.approx(0.5)

    def test_perp_sym_data(self):
        p = models.preset_by_name("perp-sym", d0=0.1)
        t = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(p.profile.d1_fn(t), p.profile.d2_fn(t))
        d = p.profile.d1_fn(t) + p.profile.d2_fn(t)
        assert d.min() == pytest.approx(0.1, abs=1e-3)
        assert d.max() == pytest.approx(0.3, abs=1e-3)
        np.testing.assert_allclose(p.gamma_reference(t), 0.5)

    def test_tangential_data(self):
        p = models.preset_by_name("tangential", d0=0.1)
        np.testing.assert_allclose(p.k_f, 2.0 * np.eye(2))
        gg = p.gamma_data()
        for t in (0.0, 0.25, 1.0):
            assert gg(t) == pytest.approx(1.0 - t, abs=1e-14)
        x = np.array([[0.5, 0.0], [0.5, 1.0], [0.0, 0.3]])
        np.testing.assert_allclose(p.g(x), [1.0, 0.0, 0.0], atol=1e-15)

    def test_manufactured_consistency(self):
        # source equals the negative Laplacian of the exact field
        p = models.preset_by_name("manufactured")
        assert p.exact_pressure is not None
        x = np.array([[0.3, 0.6]])
        eps = 1e-5
        lap = 0.0
        for dim in range(2):
            shift = np.zeros(2)
            shift[dim] = eps
            lap += (p.exact_pressure(x + shift)[0]
                    + p.exact_pressure(x - shift)[0]
                    - 2.0 * p.exact_pressure(x)[0]) / eps**2
        assert p.q(x)[0] == pytest.approx(-lap, rel=1e-4)
        np.testing.assert_allclose(p.g(x), p.exact_pressure(x))

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            models.preset_by_name("tilted")

    def test_constant_aperture_preset(self):
        p = models.constant_aperture_preset(0.05)
        assert p.profile.is_constant
        assert p.name == "custom"


class TestMeshModeResolution:
    def test_auto(self):
        wavy = ApertureProfile.sinusoidal(0.1)
        flat = ApertureProfile.constant(0.05, 0.05)
        V = models.ModelVariant.of
        assert models.resolve_mesh_mode(V("I"), wavy) == "curved-reduced"
        assert models.resolve_mesh_mode(V("II"), wavy) == "curved-reduced"
        assert models.resolve_mesh_mode(V("I-R"), wavy) == "rectified"
        assert models.resolve_mesh_mode(V("II-R"), wavy) == "rectified"
        assert models.resolve_mesh_mode(V("II-R"), flat) == "curved-reduced"
        assert models.resolve_mesh_mode(V("I"), flat) == "curved-reduced"

    def test_explicit_and_invalid(self):
        wavy = ApertureProfile.sinusoidal(0.1)
        v = models.ModelVariant.of("I-R")
        assert models.resolve_mesh_mode(v, wavy, "rectified") == "rectified"
        with pytest.raises(ValueError, match="mesh mode"):
            models.resolve_mesh_mode(v, wavy, "flattened")


class TestRunFull:
    def test_no_contrast_recovers_linear_field(self):
        preset = models.constant_aperture_preset(0.05)
        sol = models.run_full(preset, 0.25)
        assert sol.report.converged
        assert sol.report.method == "CG"
        rng = np.random.default_rng(11)
        pts = rng.random((40, 2))
        np.testing.assert_allclose(sol.evaluate(pts), 1.0 - pts[:, 0],
                                   atol=1e-8)

    def test_evaluate_rejects_outside_points(self):
        preset = models.constant_aperture_preset(0.05)
        sol = models.run_full(preset, 0.25)
        with pytest.raises(ValueError, match="outside"):
            sol.evaluate(np.array([[1.4, 0.2]]))


class TestRunReduced:
    def test_rejects_full_variant(self):
        preset = models.constant_aperture_preset()
        with pytest.raises(ValueError, match="run_full"):
            models.run_reduced(preset, "full", 0.25)

    def test_constant_aperture_exact_state(self):
        # no contrast: exact bulk pressure 1 - x1, midline pressure 1/2,
        # wall traces offset by the half-apertures
        preset = models.constant_aperture_preset(0.05)
        sol = models.run_reduced(preset, "I", 0.25)
        t = np.linspace(0.02, 0.98, 9)
        np.testing.assert_allclose(sol.evaluate_interface(t), 0.5,
                                   atol=1e-9)
        np.testing.assert_allclose(sol.wall_trace(1, t), 0.55, atol=1e-9)
        np.testing.assert_allclose(sol.wall_trace(2, t), 0.45, atol=1e-9)
        pts = np.array([[0.2, 0.3], [0.8, 0.9], [0.44, 0.5]])
        np.testing.assert_allclose(sol.evaluate_bulk(pts),
                                   1.0 - pts[:, 0], atol=1e-9)

    def test_constant_aperture_variants_agree(self):
        preset = models.constant_aperture_preset(0.05, k_f=0.5 * np.eye(2))
        sols = [models.run_reduced(preset, v, 0.25)
                for v in ("I", "II-R")]
        np.testing.assert_allclose(sols[0].bulk_coefficients,
                                   sols[1].bulk_coefficients, atol=1e-10)
        np.testing.assert_allclose(sols[0].iface_coefficients,
                                   sols[1].iface_coefficients, atol=1e-10)

    def test_reassembly_is_bit_identical(self):
        preset = models.preset_by_name("perp-asym", d0=0.1)
        sys1 = models.prepare_reduced(preset, "I", 0.25)[-1]
        sys2 = models.prepare_reduced(preset, "I", 0.25)[-1]
        a1, a2 = sys1.matrix.tocsr(), sys2.matrix.tocsr()
        assert np.array_equal(a1.data, a2.data)
        assert np.array_equal(a1.indices, a2.indices)
        assert np.array_equal(a1.indptr, a2.indptr)
        assert np.array_equal(sys1.rhs, sys2.rhs)

    def test_gap_points_rejected_for_wall_conforming_mesh(self):
        preset = models.constant_aperture_preset(0.05)
        sol = models.run_reduced(preset, "I", 0.25)
        with pytest.raises(ValueError, match="outside"):
            sol.evaluate_bulk(np.array([[0.5, 0.3]]))

    def test_perp_sym_interface_stays_near_half(self):
        preset = models.preset_by_name("perp-sym", d0=0.1)
        sol = models.run_reduced(preset, "I", 0.125)
        assert sol.wellposedness.satisfied
        t = np.linspace(0.01, 0.99, 33)
        dev = np.abs(sol.evaluate_interface(t) - 0.5).max()
        assert dev < 0.05

    def test_wellposedness_violation_warns(self, caplog):
        preset = models.preset_by_name("perp-sym", d0=0.2)
        with caplog.at_level(logging.WARNING, logger="fracdg.models"):
            sol = models.run_reduced(preset, "I", 0.25)
        assert not sol.wellposedness.satisfied
        assert any("wellposedness" in r.message for r in caplog.records)

    def test_min_max_sanity_band(self):
        # q = 0 and boundary data within [0, 1]: discrete fields stay
        # inside the data range up to a 5% overshoot
        preset = models.preset_by_name("perp-asym", d0=0.1)
        for variant in ("I", "II-R"):
            sol = models.run_reduced(preset, variant, 0.125)
            cent = sol.mesh.vertices[sol.mesh.elements].mean(axis=1)
            vals = sol.evaluate_bulk(cent)
            assert vals.min() > -0.05 and vals.max() < 1.05
            pg = sol.evaluate_interface(np.linspace(0.01, 0.99, 41))
            assert pg.min() > -0.05 and pg.max() < 1.05

    def test_explicit_rectified_mesh_with_wall_variant_fails(self,
                                                             monkeypatch):
        # every entry point refuses the variant before it builds a mesh
        builds = []
        build = models.build_bulk_mesh

        def counting_build(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(models, "build_bulk_mesh", counting_build)
        preset = models.preset_by_name("perp-asym", d0=0.1)
        for run in (models.run_reduced, models.prepare_reduced):
            with pytest.raises(ValueError, match="wall-conforming"):
                run(preset, "I", 0.25, mesh_mode="rectified")
            assert builds == []
        table = postproc.aperture_sweep("perp-sym", ["I"], [0.1], 0.125,
                                        reference="exact",
                                        mesh_mode="rectified")
        (row,) = table.rows
        assert math.isnan(row.l2_error) and row.bulk_dofs == 0
        assert "wall-conforming" in row.note
        assert builds == []

    def test_solver_report_attached(self):
        preset = models.preset_by_name("perp-asym", d0=0.1)
        sol = models.run_reduced(preset, "II", 0.25)
        assert sol.report.method == "direct-LU"
        assert sol.report.relative_residual <= 1e-10


class TestReducedProblem:
    PRESET = models.preset_by_name("perp-asym", d0=0.1)

    def problem(self, mode, preset=None):
        return models.ReducedProblem.build(preset or self.PRESET, mode, 0.25)

    def test_variant_mesh_validation(self):
        curved = self.problem("curved-reduced")
        rectified = self.problem("rectified")
        with pytest.raises(ValueError, match="wall-conforming"):
            rectified.solve("I")
        with pytest.raises(ValueError, match="rectified"):
            curved.solve("II-R")
        with pytest.raises(ValueError, match="variant"):
            curved.solve("III")
        assert curved.solve("I").report.converged
        assert rectified.solve("I-R").report.converged

    def test_variant_is_shared_system_plus_its_forms(self):
        problem = self.problem("curved-reduced")
        shared = problem.system
        assert problem.system_of("II") is shared
        system = problem.system_of("I")
        assert system.rhs is shared.rhs
        transport = asm.transport_form(problem.mesh, problem.grid,
                                       problem.bulk_space,
                                       problem.iface_space, problem.perm,
                                       self.PRESET.profile)
        assert (system.matrix != shared.matrix + transport).nnz == 0

    def test_wellposedness_warned_once_per_problem(self, caplog):
        preset = models.preset_by_name("perp-sym", d0=0.2)
        with caplog.at_level(logging.WARNING, logger="fracdg.models"):
            problem = self.problem("curved-reduced", preset)
            sols = [problem.solve(v) for v in ("I", "II")]
        assert all(s.wellposedness is problem.wellposedness for s in sols)
        assert sum("wellposedness" in r.message
                   for r in caplog.records) == 1

    def test_prepare_returns_problem_and_variant_system(self):
        problem, system = models.prepare_reduced(self.PRESET, "I-R", 0.25)
        assert problem.mesh.mode == "rectified"
        assert system.rhs is problem.system.rhs
        assert (system.matrix != problem.system.matrix).nnz > 0
        # the entries of the shared matrix that the transport form cancels
        # stay stored, as in a single assembly: the LU ordering sees the
        # same pattern
        def stored(matrix):
            coo = matrix.tocoo()
            return set(zip(coo.row.tolist(), coo.col.tolist()))

        assert stored(problem.system.matrix) <= stored(system.matrix)


class TestEffectiveVelocity:
    def test_zero_for_flat_constant_state(self):
        preset = models.constant_aperture_preset(0.05)
        sol = models.run_reduced(preset, "II-R", 0.25)
        u = models.effective_velocity(sol, np.linspace(0.05, 0.95, 7))
        assert np.abs(u).max() < 1e-8

    def test_constant_aperture_linear_interface(self):
        # constant aperture: velocity reduces to -K d p', here with
        # p_gamma = t, d = 0.1 and tangential permeability 1
        preset = models.constant_aperture_preset(0.05)
        sol = models.run_reduced(preset, "II-R", 0.25)
        lin = asm.interpolate_interface(sol.grid, sol.iface_space,
                                        lambda t: np.asarray(t, float))
        sol = dataclasses.replace(sol, iface_coefficients=lin)
        u = models.effective_velocity(sol, np.array([0.3, 0.6]))
        np.testing.assert_allclose(u, [[0.0, -0.1], [0.0, -0.1]],
                                   atol=1e-10)

    def test_scalar_argument_shape(self):
        preset = models.constant_aperture_preset(0.05)
        sol = models.run_reduced(preset, "II-R", 0.25)
        u = models.effective_velocity(sol, 0.4)
        assert u.shape == (2,)

    def test_transport_flag_changes_velocity(self):
        preset = models.preset_by_name("perp-sym", d0=0.1)
        sol1 = models.run_reduced(preset, "I", 0.125)
        sol2 = dataclasses.replace(sol1,
                                   variant=models.ModelVariant.of("II"))
        t = np.linspace(0.05, 0.95, 11)
        u1 = models.effective_velocity(sol1, t)
        u2 = models.effective_velocity(sol2, t)
        assert np.abs(u1 - u2).max() > 1e-4


# ---------------------------------------------------------------------------
# batched point location and evaluation against per-point references


def looped_locate(mesh, points, tol=1e-9):
    """Element id containing each point, one point at a time (-1 when
    outside); ties go to the first candidate in set iteration order."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.full(len(pts), -1, dtype=np.int64)
    verts, elems = mesh.vertices, mesh.elements
    for p, (x, y) in enumerate(pts):
        best_id, best_lam = -1, -np.inf
        for lat in mesh.lattices:
            ys = lat.ys
            if y < ys[0] - tol or y > ys[-1] + tol:
                continue
            j = min(max(int(np.searchsorted(ys, y, side="right")) - 1, 0),
                    lat.n_rows - 1)
            s = (y - ys[j]) / (ys[j + 1] - ys[j])
            edges = (1.0 - s) * lat.xs[j] + s * lat.xs[j + 1]
            if x < edges[0] - tol or x > edges[-1] + tol:
                continue
            i = min(max(int(np.searchsorted(edges, x, side="right")) - 1, 0),
                    lat.n_cols - 1)
            for ci in {max(i - 1, 0), i, min(i + 1, lat.n_cols - 1)}:
                for e in lat.elem_ids[j, ci]:
                    tri = verts[elems[e]]
                    mat = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
                    try:
                        ab = np.linalg.solve(mat, np.array([x, y]) - tri[0])
                    except np.linalg.LinAlgError:
                        continue
                    lam = min(ab[0], ab[1], 1.0 - ab[0] - ab[1])
                    if lam > best_lam:
                        best_id, best_lam = int(e), lam
        if best_lam >= -tol:
            out[p] = best_id
    return out


def looped_eval_bulk(mesh, space, coeffs, points, elems=None):
    """Bulk field values, one point at a time, on the elements
    ``looped_locate`` finds unless they are given."""
    maps = mesh.maps
    if elems is None:
        elems = looped_locate(mesh, points)
    vals = np.empty(len(points))
    for i, e in enumerate(elems):
        e = int(e)
        phi = asm._basis_at(maps, space, e, points[i:i + 1])
        vals[i] = phi[0] @ coeffs[space.dofs(e)]
    return vals


def smallest_barycentric(mesh, e, x):
    maps = mesh.maps
    ab = maps.jac_inv[e] @ (x - maps.v0[e])
    return min(ab[0], ab[1], 1.0 - ab[0] - ab[1])


WAVY = ApertureProfile.sinusoidal(0.1, frequency=2.0 * np.pi,
                                  asymmetry="antisymmetric")
MESHES = {mode: build_bulk_mesh(models.UNIT_SQUARE, WAVY, mode, 0.125,
                                frame=FractureFrame.vertical_line(0.5))
          for mode in MESH_MODES}


def gap_points(rng, n):
    """Points strictly between the two walls of the wavy profile."""
    t = rng.random(n)
    lo = 0.5 - WAVY.d1_fn(t)
    hi = 0.5 + WAVY.d2_fn(t)
    s = 0.05 + 0.9 * rng.random(n)
    return np.column_stack([lo + s * (hi - lo), t])


class TestPointLocation:
    @pytest.mark.parametrize("mode", MESH_MODES)
    def test_matches_looped_oracle(self, mode):
        mesh = MESHES[mode]
        rng = np.random.default_rng(5)
        pts = np.concatenate([rng.uniform(-0.1, 1.1, size=(1500, 2)),
                              gap_points(rng, 200)])
        got = models._locate(mesh, pts)
        np.testing.assert_array_equal(got, looped_locate(mesh, pts))
        outside = (pts < 0.0).any(axis=1) | (pts > 1.0).any(axis=1)
        assert np.all(got[outside] == -1)
        gap = got[-200:]
        if mode == "curved-reduced":
            assert np.all(gap == -1)
        else:
            assert np.all(gap >= 0)

    @pytest.mark.parametrize("mode", MESH_MODES)
    def test_vertices_lie_in_their_element(self, mode):
        mesh = MESHES[mode]
        got = models._locate(mesh, mesh.vertices)
        assert np.all(got >= 0)
        for v, e in zip(mesh.vertices, got):
            assert smallest_barycentric(mesh, e, v) >= -1e-9

    def test_ties_go_to_the_lowest_element_id(self):
        # dyadic coordinates make every barycentric coordinate exact, so
        # a vertex ties at lam == 0 in all triangles of its row touching
        # it; the rectified midline vertices tie across both lattices
        mesh = build_bulk_mesh(models.UNIT_SQUARE, WAVY, "rectified", 0.125,
                               frame=FractureFrame.vertical_line(0.5))
        got = models._locate(mesh, mesh.vertices)
        ys = mesh.lattices[0].ys
        for v, e in zip(mesh.vertices, got):
            j = min(int(np.searchsorted(ys, v[1], side="right")) - 1,
                    len(ys) - 2)
            star = [int(c) for lat in mesh.lattices
                    for c in lat.elem_ids[j].ravel()
                    if np.any(np.all(mesh.vertices[mesh.elements[c]] == v,
                                     axis=1))]
            assert e == min(star)

    @settings(max_examples=200, deadline=None)
    @given(mode=st.sampled_from(MESH_MODES),
           which=st.floats(0.0, 1.0, exclude_max=True),
           a=st.floats(1e-3, 0.998), b=st.floats(1e-3, 0.998))
    def test_interior_point_locates_to_its_element(self, mode, which, a, b):
        assume(a + b <= 0.999)
        mesh = MESHES[mode]
        e = int(which * mesh.n_elements)
        v0, v1, v2 = mesh.vertices[mesh.elements[e]]
        x = v0 + a * (v1 - v0) + b * (v2 - v0)
        assert models._locate(mesh, x)[0] == e


DEGREES = range(1, asm.MAX_DEGREE + 1)


def random_fields_reduced(variant, seed):
    """Reduced solutions on the wavy profile with random coefficients,
    one for each bulk degree k = 1..MAX_DEGREE, with interface degree
    MAX_DEGREE + 1 - k, so the two degrees differ."""
    preset = dataclasses.replace(models.preset_by_name("perp-asym"),
                                 profile=WAVY)
    sol = models.run_reduced(preset, variant, 0.125)
    rng = np.random.default_rng(seed)
    for degree in DEGREES:
        bulk = asm.DGSpace.bulk(sol.mesh, degree)
        iface = asm.DGSpace.interface(sol.grid, asm.MAX_DEGREE + 1 - degree)
        yield dataclasses.replace(
            sol, bulk_space=bulk, iface_space=iface,
            bulk_coefficients=rng.standard_normal(bulk.n_dofs),
            iface_coefficients=rng.standard_normal(iface.n_dofs))


def sample_t(grid, rng):
    return np.concatenate([rng.random(300), grid.t_breaks,
                           [0.0, 1.0, 0.5]])


class TestBatchedEvaluation:
    @pytest.mark.parametrize("variant", ["I", "II-R"])
    def test_bulk_matches_pointwise(self, variant):
        sols = list(random_fields_reduced(variant, 3))
        pts = np.random.default_rng(8).random((800, 2))
        elems = looped_locate(sols[0].mesh, pts)
        pts, elems = pts[elems >= 0], elems[elems >= 0]
        for sol in sols:
            want = looped_eval_bulk(sol.mesh, sol.bulk_space,
                                    sol.bulk_coefficients, pts, elems)
            np.testing.assert_allclose(
                sol.evaluate_bulk(pts), want, rtol=0.0,
                atol=1e-14 * np.abs(want).max(),
                err_msg=f"degree {sol.bulk_space.degree}")

    def test_full_matches_pointwise(self):
        preset = dataclasses.replace(models.preset_by_name("perp-asym"),
                                     profile=WAVY)
        sol = models.run_full(preset, 0.125)
        rng = np.random.default_rng(9)
        pts = np.concatenate([rng.random((800, 2)), sol.mesh.vertices])
        elems = looped_locate(sol.mesh, pts)
        for degree in DEGREES:
            space = asm.DGSpace.bulk(sol.mesh, degree)
            field = dataclasses.replace(
                sol, space=space,
                coefficients=rng.standard_normal(space.n_dofs))
            want = looped_eval_bulk(sol.mesh, space, field.coefficients, pts,
                                    elems)
            got = field.evaluate(pts)
            # vertices may tie-break to another element than the loop did
            inner = slice(0, 800)
            np.testing.assert_allclose(got[inner], want[inner], rtol=0.0,
                                       atol=1e-14 * np.abs(want).max(),
                                       err_msg=f"degree {degree}")

    @pytest.mark.parametrize("variant", ["I", "II-R"])
    def test_interface_matches_pointwise(self, variant):
        for sol in random_fields_reduced(variant, 4):
            grid, space = sol.grid, sol.iface_space
            c, k = sol.iface_coefficients, space.degree
            t = sample_t(grid, np.random.default_rng(2))
            vals, ders = np.empty(len(t)), np.empty(len(t))
            for i, ti in enumerate(t):
                e = grid.element_of_t(float(ti))
                t0, t1 = grid.t_breaks[e], grid.t_breaks[e + 1]
                loc = np.array([(ti - t0) / (t1 - t0)])
                vals[i] = asm.seg_basis(k, loc)[0] @ c[space.dofs(e)]
                ders[i] = (asm.seg_basis_deriv(k, loc)[0] / (t1 - t0)) \
                    @ c[space.dofs(e)]
            np.testing.assert_allclose(
                sol.evaluate_interface(t), vals, rtol=0.0,
                atol=1e-14 * np.abs(vals).max(), err_msg=f"degree {k}")
            np.testing.assert_allclose(
                sol.interface_derivative(t), ders, rtol=0.0,
                atol=1e-14 * np.abs(ders).max(), err_msg=f"degree {k}")
            assert sol.evaluate_interface(0.3) == pytest.approx(
                sol.evaluate_interface(np.array([0.3]))[0], abs=0.0)

    @pytest.mark.parametrize("variant", ["I", "II-R"])
    def test_wall_trace_matches_pointwise(self, variant):
        for sol in random_fields_reduced(variant, 6):
            maps = sol.mesh.maps
            t = sample_t(sol.grid, np.random.default_rng(7))
            for side, belem in ((1, sol.grid.belem1), (2, sol.grid.belem2)):
                x = asm._wall_points(sol.mesh, WAVY, t, side)
                want = np.empty(len(t))
                for i, ti in enumerate(t):
                    e = int(belem[sol.grid.element_of_t(float(ti))])
                    phi = asm._basis_at(maps, sol.bulk_space, e, x[i:i + 1])
                    want[i] = phi[0] @ sol.bulk_coefficients[
                        sol.bulk_space.dofs(e)]
                np.testing.assert_allclose(
                    sol.wall_trace(side, t), want, rtol=0.0,
                    atol=1e-14 * np.abs(want).max(),
                    err_msg=f"degree {sol.bulk_space.degree}")
