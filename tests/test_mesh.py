"""Tests for structured fracture-conforming meshing and the interface grid.

Expected element/facet counts for the small lattices are derived by hand
from the construction rule (power-of-two rows/columns, two triangles per
cell).  The interface grid is checked against the wall facets themselves:
every row's trace element must own the wall facet spanning that row.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdg.geometry import ApertureProfile, FractureFrame
from fracdg.mesh import (
    BOUNDARY,
    FRACTURE,
    GAMMA_1,
    GAMMA_2,
    INTERIOR,
    Mesh,
    SIDE_1,
    SIDE_2,
    _classify,
    _extract_facets,
    build_bulk_mesh,
    build_interface_grid,
    classify_facets,
    mesh_quality,
)

FRAME = FractureFrame.vertical_line(0.5)
UNIT = ((0.0, 0.0), (1.0, 1.0))


def manual_mesh(vertices, elements):
    vertices = np.asarray(vertices, dtype=float)
    elements = np.asarray(elements, dtype=np.int64)
    facets, fe = _extract_facets(elements)
    cls = _classify(facets, fe, set(), set())
    return Mesh(vertices=vertices, elements=elements,
                subdomain=np.full(len(elements), SIDE_1, dtype=np.int8),
                mode="manual", facets=facets, facet_elements=fe,
                facet_class=cls, lattices=(), frame=FRAME,
                profile=ApertureProfile.constant(0.05, 0.05), h_target=1.0)


class TestFacetExtraction:
    def test_two_triangle_square(self):
        mesh = manual_mesh([[0, 0], [1, 0], [1, 1], [0, 1]],
                           [[0, 1, 2], [0, 2, 3]])
        counts = classify_facets(mesh)
        assert counts["interior"] == 1
        assert counts["exterior-boundary"] == 4
        assert counts["gamma-side-1"] == counts["gamma-side-2"] == 0

    def test_rejects_overshared_edge(self):
        with pytest.raises(ValueError, match="more than two"):
            _extract_facets(np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]]))


class TestQuality:
    def test_unit_right_triangle(self):
        mesh = manual_mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        q = mesh_quality(mesh)
        assert q["h_max"] == pytest.approx(math.sqrt(2.0))
        assert q["h_min"] == pytest.approx(math.sqrt(2.0))
        assert q["min_angle"] == pytest.approx(45.0)

    def test_uniform_rectified_mesh(self):
        prof = ApertureProfile.constant(0.05, 0.05)
        mesh = build_bulk_mesh(UNIT, prof, "rectified", 0.25, FRAME)
        q = mesh_quality(mesh)
        assert q["h_max"] == pytest.approx(q["h_min"])


class TestElementMaps:
    @pytest.mark.parametrize("mode", ["full", "rectified", "curved-reduced"])
    def test_maps_send_reference_vertices_to_the_triangle(self, mode):
        prof = ApertureProfile.sinusoidal(0.1)
        mesh = build_bulk_mesh(UNIT, prof, mode, 0.25, FRAME)
        maps = mesh.maps
        ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        elems = np.arange(mesh.n_elements)
        np.testing.assert_allclose(maps.points(elems, ref),
                                   mesh.vertices[mesh.elements], atol=1e-14)
        np.testing.assert_allclose(maps.jac @ maps.jac_inv,
                                   np.broadcast_to(np.eye(2), maps.jac.shape),
                                   atol=1e-12)
        tri = mesh.vertices[mesh.elements]
        a, b = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
        shoelace = 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
        np.testing.assert_allclose(mesh.element_volumes(), shoelace,
                                   rtol=1e-14, atol=0.0)
        edges = np.linalg.norm(tri - np.roll(tri, 1, axis=1), axis=2)
        np.testing.assert_array_equal(mesh.element_h, edges.max(axis=1))

    def test_maps_and_sizes_are_built_once_per_mesh(self):
        prof = ApertureProfile.constant(0.05, 0.05)
        mesh = build_bulk_mesh(UNIT, prof, "rectified", 0.25, FRAME)
        assert mesh.maps is mesh.maps
        assert mesh.element_h is mesh.element_h
        other = build_bulk_mesh(UNIT, prof, "rectified", 0.25, FRAME)
        assert other.maps is not mesh.maps
        np.testing.assert_array_equal(other.maps.det, mesh.maps.det)


class TestRectifiedMesh:
    PROF = ApertureProfile.constant(0.05, 0.05)

    def test_counts_h_quarter(self):
        # 4 rows, 2 columns per side: 2 * (4*2*2) = 32 triangles,
        # per side 30 facets of which 4 lie on the interface
        mesh = build_bulk_mesh(UNIT, self.PROF, "rectified", 0.25, FRAME)
        assert mesh.n_elements == 32
        counts = classify_facets(mesh)
        assert counts["gamma-side-1"] == 4
        assert counts["gamma-side-2"] == 4
        assert counts["exterior-boundary"] == 16
        assert counts["interior"] == 36
        assert mesh.n_facets == 60

    def test_sides_disconnected_and_walls_on_gamma(self):
        mesh = build_bulk_mesh(UNIT, self.PROF, "rectified", 0.25, FRAME)
        for cls in (GAMMA_1, GAMMA_2):
            ids = mesh.facets_of_class(cls)
            x = mesh.vertices[mesh.facets[ids]][:, :, 0]
            np.testing.assert_allclose(x, 0.5, atol=1e-15)
            # one-sided facets with the matching subdomain tag
            assert np.all(mesh.facet_elements[ids, 1] == -1)
        tags1 = mesh.subdomain[mesh.facet_elements[mesh.facets_of_class(GAMMA_1), 0]]
        tags2 = mesh.subdomain[mesh.facet_elements[mesh.facets_of_class(GAMMA_2), 0]]
        assert np.all(tags1 == SIDE_1)
        assert np.all(tags2 == SIDE_2)

    def test_tiles_unit_square(self):
        mesh = build_bulk_mesh(UNIT, self.PROF, "rectified", 0.25, FRAME)
        assert mesh.element_volumes().sum() == pytest.approx(1.0, abs=1e-12)

    def test_positive_volumes(self):
        mesh = build_bulk_mesh(UNIT, self.PROF, "rectified", 1.0 / 8.0, FRAME)
        assert mesh.element_volumes().min() > 0.0


class TestFullMesh:
    def test_constant_aperture_partition(self):
        prof = ApertureProfile.constant(0.1, 0.1)
        mesh = build_bulk_mesh(UNIT, prof, "full", 0.25, FRAME)
        tags = set(np.unique(mesh.subdomain))
        assert tags == {SIDE_1, SIDE_2, FRACTURE}
        assert mesh.element_volumes().sum() == pytest.approx(1.0, abs=1e-12)

    def test_fracture_layer_count(self):
        prof = ApertureProfile.constant(0.1, 0.1)
        mesh = build_bulk_mesh(UNIT, prof, "full", 0.25, FRAME,
                               fracture_layers=4)
        # 4 rows of 4 fracture columns, two triangles each
        assert int(np.sum(mesh.subdomain == FRACTURE)) == 32

    def test_wall_facets_between_matrix_and_slab(self):
        prof = ApertureProfile.sinusoidal(0.05)
        mesh = build_bulk_mesh(UNIT, prof, "full", 0.125, FRAME)
        counts = classify_facets(mesh)
        assert counts["gamma-side-1"] == 8
        assert counts["gamma-side-2"] == 8
        for cls, tag in ((GAMMA_1, SIDE_1), (GAMMA_2, SIDE_2)):
            for f in mesh.facets_of_class(cls):
                e0, e1 = mesh.facet_elements[f]
                assert e1 >= 0
                assert {int(mesh.subdomain[e0]), int(mesh.subdomain[e1])} == \
                    {tag, FRACTURE}

    def test_slab_volume_matches_trapezoid_aperture(self):
        prof = ApertureProfile.sinusoidal(0.1, asymmetry="symmetric")
        mesh = build_bulk_mesh(UNIT, prof, "full", 1.0 / 16.0, FRAME)
        ys = mesh.lattices[0].ys
        d = prof.d1_fn(ys) + prof.d2_fn(ys)
        gap = np.trapezoid(d, ys) if hasattr(np, "trapezoid") else np.trapz(d, ys)
        slab = mesh.element_volumes()[mesh.subdomain == FRACTURE].sum()
        assert slab == pytest.approx(gap, abs=1e-12)


class TestCurvedReducedMesh:
    def test_wall_vertices_snap_to_profile(self):
        prof = ApertureProfile.sinusoidal(1e-3)
        mesh = build_bulk_mesh(UNIT, prof, "curved-reduced", 1.0 / 32.0, FRAME)
        ids = mesh.facets_of_class(GAMMA_1)
        verts = mesh.vertices[np.unique(mesh.facets[ids])]
        np.testing.assert_allclose(verts[:, 0],
                                   0.5 - prof.d1_fn(verts[:, 1]), atol=1e-12)
        ids = mesh.facets_of_class(GAMMA_2)
        verts = mesh.vertices[np.unique(mesh.facets[ids])]
        np.testing.assert_allclose(verts[:, 0],
                                   0.5 + prof.d2_fn(verts[:, 1]), atol=1e-12)

    def test_volume_conservation_against_meshed_gap(self):
        # the meshed walls are piecewise linear, so the unmeshed gap is
        # exactly the trapezoid-rule aperture integral
        prof = ApertureProfile.sinusoidal(0.1, asymmetry="symmetric")
        for h in (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0):
            mesh = build_bulk_mesh(UNIT, prof, "curved-reduced", h, FRAME)
            ys = mesh.lattices[0].ys
            d = prof.d1_fn(ys) + prof.d2_fn(ys)
            gap = np.trapezoid(d, ys) if hasattr(np, "trapezoid") else np.trapz(d, ys)
            vol = mesh.element_volumes().sum()
            assert vol == pytest.approx(1.0 - gap, abs=1e-12)

    def test_volume_approaches_analytic_gap(self):
        # full periods of the oscillation: analytic gap = 2 d0
        prof = ApertureProfile.sinusoidal(0.1, asymmetry="symmetric")
        mesh = build_bulk_mesh(UNIT, prof, "curved-reduced", 1.0 / 64.0, FRAME)
        vol = mesh.element_volumes().sum()
        # trapezoid error <= |d''|_inf h^2 / 12 * |Gamma|
        bound = 0.05 * (8.0 * math.pi) ** 2 * (1.0 / 64.0) ** 2 / 12.0
        assert abs(vol - (1.0 - 0.2)) < bound

    def test_anisotropic_reference_spacing(self):
        prof = ApertureProfile.sinusoidal(0.01)
        mesh = build_bulk_mesh(UNIT, prof, "curved-reduced", 1.0 / 32.0, FRAME,
                               h_target_normal=1.0 / 8.0)
        lat1 = mesh.lattices[0]
        assert lat1.n_rows == 32
        assert lat1.n_cols == 4

    def test_rejects_wall_exiting_domain(self):
        prof = ApertureProfile.constant(0.6, 0.1)
        with pytest.raises(ValueError, match="exits the domain"):
            build_bulk_mesh(UNIT, prof, "curved-reduced", 0.25, FRAME)
        prof = ApertureProfile.constant(0.1, 0.6)
        with pytest.raises(ValueError, match="exits the domain"):
            build_bulk_mesh(UNIT, prof, "full", 0.25, FRAME)


class TestBuildErrors:
    PROF = ApertureProfile.constant(0.05, 0.05)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            build_bulk_mesh(UNIT, self.PROF, "unstructured", 0.25, FRAME)

    def test_bad_h(self):
        with pytest.raises(ValueError, match="positive"):
            build_bulk_mesh(UNIT, self.PROF, "rectified", -0.1, FRAME)

    def test_frame_outside_domain(self):
        frame = FractureFrame.vertical_line(1.5)
        with pytest.raises(ValueError, match="outside"):
            build_bulk_mesh(UNIT, self.PROF, "rectified", 0.25, frame)

    @pytest.mark.parametrize("normal, tangent", [
        ((0.0, 1.0), (1.0, 0.0)), ((-1.0, 0.0), (0.0, 1.0)),
        ((1.0, 0.0), (0.0, -1.0)), ((0.6, 0.8), (-0.8, 0.6))],
        ids=["horizontal", "normal-flipped", "tangent-flipped", "oblique"])
    def test_frame_other_than_vertical(self, normal, tangent):
        # the lattices are built along x = offset; any other frame would
        # be meshed as that vertical slab without notice
        frame = FractureFrame(normal=normal, tangents=[tangent], offset=0.3)
        for mode in ("full", "curved-reduced", "rectified"):
            with pytest.raises(ValueError, match="vertical fracture"):
                build_bulk_mesh(UNIT, self.PROF, mode, 0.25, frame)
        frame = FractureFrame.vertical_line(0.3)
        assert build_bulk_mesh(UNIT, self.PROF, "full", 0.25, frame).frame \
            is frame

    def test_zero_fracture_layers(self):
        with pytest.raises(ValueError, match="layers"):
            build_bulk_mesh(UNIT, self.PROF, "full", 0.25, FRAME,
                            fracture_layers=0)

    def test_profile_range_mismatch(self):
        prof = ApertureProfile.constant(0.05, 0.05, t_range=(0.0, 2.0))
        with pytest.raises(ValueError, match="range"):
            build_bulk_mesh(UNIT, prof, "rectified", 0.25, FRAME)


class TestRefinementNesting:
    def test_rectified_h_max_exactly_halves(self):
        prof = ApertureProfile.constant(0.05, 0.05)
        q1 = mesh_quality(build_bulk_mesh(UNIT, prof, "rectified", 0.25, FRAME))
        q2 = mesh_quality(build_bulk_mesh(UNIT, prof, "rectified", 0.125, FRAME))
        assert q2["h_max"] == pytest.approx(0.5 * q1["h_max"], rel=1e-14)

    def test_constant_full_h_max_exactly_halves(self):
        prof = ApertureProfile.constant(0.1, 0.1)
        q1 = mesh_quality(build_bulk_mesh(UNIT, prof, "full", 0.25, FRAME))
        q2 = mesh_quality(build_bulk_mesh(UNIT, prof, "full", 0.125, FRAME))
        assert q2["h_max"] == pytest.approx(0.5 * q1["h_max"], rel=1e-14)

    @pytest.mark.parametrize("asymmetry,d0", [("antisymmetric", 0.01),
                                              ("symmetric", 0.1)])
    def test_curved_h_max_halving_approaches_half(self, asymmetry, d0):
        # wall vertices are snapped to the analytic graphs, so finer meshes
        # sample the wall slope closer to its supremum; the halving ratio
        # therefore exceeds 1/2 while the wall is under-resolved and
        # approaches it from above under refinement
        prof = ApertureProfile.sinusoidal(d0, asymmetry=asymmetry)
        hs = [1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0]
        hmax = [mesh_quality(build_bulk_mesh(UNIT, prof, "curved-reduced",
                                             h, FRAME))["h_max"] for h in hs]
        ratios = [hmax[i + 1] / hmax[i] for i in range(len(hmax) - 1)]
        for a, b in zip(ratios, ratios[1:]):
            assert b <= a + 1e-12
        assert all(r >= 0.5 - 1e-12 for r in ratios)
        assert ratios[-1] <= 0.51


def wall_edges(mesh, elem, cls):
    """Vertex pairs of the edges of ``elem`` that are wall facets of
    class ``cls``."""
    wall = {tuple(f) for f in mesh.facets[mesh.facets_of_class(cls)].tolist()}
    tri = mesh.elements[elem].tolist()
    return [(a, b) for a, b in zip(tri, tri[1:] + tri[:1])
            if (min(a, b), max(a, b)) in wall]


def check_grid(mesh, grid):
    """The grid is the lattice rows, and each row's trace element on wall
    i is a side-i triangle whose one wall-i edge spans exactly that row."""
    for lat in mesh.lattices:
        np.testing.assert_array_equal(grid.t_breaks, lat.ys)
    t = grid.t_breaks.tolist()
    for belem, cls, tag in ((grid.belem1, GAMMA_1, SIDE_1),
                            (grid.belem2, GAMMA_2, SIDE_2)):
        assert len(belem) == grid.n_elements
        assert np.all(mesh.subdomain[belem] == tag)
        for k, e in enumerate(belem.tolist()):
            spans = [tuple(sorted(mesh.frame.tangential(
                mesh.vertices[list(edge)]).tolist()))
                for edge in wall_edges(mesh, e, cls)]
            assert spans == [(t[k], t[k + 1])]


def walls_strategy():
    sinusoidal = st.builds(
        lambda d0, phase, asymmetry: ApertureProfile.sinusoidal(
            d0, phase=phase, asymmetry=asymmetry),
        st.floats(1e-3, 0.1), st.floats(0.0, 2.0 * math.pi),
        st.sampled_from(("antisymmetric", "symmetric")))
    constant = st.tuples(st.floats(-0.05, 0.2), st.floats(-0.05, 0.2)) \
        .filter(lambda d: d[0] + d[1] > 1e-3) \
        .map(lambda d: ApertureProfile.constant(*d))
    return st.one_of(sinusoidal, constant)


class TestInterfaceGrid:
    def test_rectified_grid_matches_wall_facets(self):
        prof = ApertureProfile.constant(0.05, 0.05)
        mesh = build_bulk_mesh(UNIT, prof, "rectified", 0.25, FRAME)
        grid = build_interface_grid(mesh)
        assert grid.n_elements == 4
        np.testing.assert_allclose(grid.t_breaks, np.linspace(0, 1, 5))
        assert grid.measure == pytest.approx(1.0, abs=1e-12)
        # pairing: one element per side per interface element, each
        # owning the wall facet over it
        assert len(np.unique(grid.belem1)) == 4
        assert len(np.unique(grid.belem2)) == 4
        check_grid(mesh, grid)

    def test_projected_grid_measures_gamma(self):
        prof = ApertureProfile.sinusoidal(0.1, asymmetry="symmetric")
        mesh = build_bulk_mesh(UNIT, prof, "curved-reduced", 1.0 / 16.0, FRAME)
        grid = build_interface_grid(mesh)
        assert grid.lengths.sum() == pytest.approx(1.0, abs=1e-12)
        assert grid.measure == pytest.approx(1.0, abs=1e-12)

    def test_full_mode_needs_explicit_request(self):
        prof = ApertureProfile.constant(0.1, 0.1)
        mesh = build_bulk_mesh(UNIT, prof, "full", 0.25, FRAME)
        with pytest.raises(ValueError, match="no reduced interface"):
            build_interface_grid(mesh)

    def test_pairing_roundtrip_through_wall_chord(self):
        prof = ApertureProfile.sinusoidal(0.1)
        mesh = build_bulk_mesh(UNIT, prof, "curved-reduced", 1.0 / 8.0, FRAME)
        grid = build_interface_grid(mesh)
        from fracdg.geometry import project_to_gamma
        for k in range(grid.n_elements):
            t = 0.5 * (grid.t_breaks[k] + grid.t_breaks[k + 1])
            for elem, cls in ((grid.belem1[k], GAMMA_1),
                              (grid.belem2[k], GAMMA_2)):
                (edge,) = wall_edges(mesh, elem, cls)
                va, vb = mesh.vertices[list(edge)]
                if va[1] > vb[1]:
                    va, vb = vb, va
                lam = (t - va[1]) / (vb[1] - va[1])
                assert 0.0 <= lam <= 1.0
                point = va + lam * (vb - va)
                back = FRAME.tangential(project_to_gamma(point, FRAME))
                assert back == pytest.approx(t, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(mode=st.sampled_from(("curved-reduced", "rectified")),
           profile=walls_strategy(),
           offset=st.sampled_from((0.5, 0.3)),
           h=st.floats(1.0 / 32.0, 0.5))
    def test_grid_is_rows_and_wall_triangles(self, mode, profile, offset,
                                             h):
        mesh = build_bulk_mesh(UNIT, profile, mode, h,
                               FractureFrame.vertical_line(offset))
        check_grid(mesh, build_interface_grid(mesh))

    @pytest.mark.parametrize("mode", ["curved-reduced", "rectified"])
    def test_other_triangle_of_the_cell_fails_the_check(self, mode):
        prof = ApertureProfile.sinusoidal(0.05)
        mesh = build_bulk_mesh(UNIT, prof, mode, 1.0 / 8.0, FRAME)
        grid = build_interface_grid(mesh)
        lat1, lat2 = mesh.lattices
        for swapped in (
                dataclasses.replace(
                    grid, belem1=lat1.elem_ids[:, lat1.gamma1_line - 1, 1]),
                dataclasses.replace(
                    grid, belem2=lat2.elem_ids[:, lat2.gamma2_line, 0])):
            with pytest.raises(AssertionError):
                check_grid(mesh, swapped)

    def test_element_lookup(self):
        prof = ApertureProfile.constant(0.05, 0.05)
        mesh = build_bulk_mesh(UNIT, prof, "rectified", 0.25, FRAME)
        grid = build_interface_grid(mesh)
        assert grid.element_of_t(0.10) == 0
        assert grid.element_of_t(0.80) == 3
        assert grid.element_of_t(0.0) == 0
        assert grid.element_of_t(1.0) == 3
