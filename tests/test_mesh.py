"""Tests for structured fracture-conforming meshing and the interface grid.

Expected element/facet counts for the small lattices are derived by hand
from the construction rule (power-of-two rows/columns, two triangles per
cell).  The interface grid is checked against the wall facets themselves:
every row's trace element must own the wall facet spanning that row.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracdg.geometry import ApertureProfile
from fracdg.mesh import (
    BOUNDARY,
    FRACTURE,
    GAMMA_1,
    GAMMA_2,
    INTERIOR,
    MESH_MODES,
    Mesh,
    SIDE_1,
    SIDE_2,
    build_bulk_mesh,
    build_interface_grid,
    element_count,
)

UNIT = ((0.0, 0.0), (1.0, 1.0))

_FACET_NAMES = {INTERIOR: "interior", BOUNDARY: "exterior-boundary",
                GAMMA_1: "gamma-side-1", GAMMA_2: "gamma-side-2"}


def classify_facets(mesh: Mesh) -> dict:
    """Validate facet adjacency and report the class partition counts."""
    ne_per_facet = np.sum(mesh.facet_elements >= 0, axis=1)
    if np.any(ne_per_facet == 0) or np.any(ne_per_facet > 2):
        raise ValueError("facet adjacent to zero or more than two elements")
    counts = {name: int(np.sum(mesh.facet_class == cls))
              for cls, name in _FACET_NAMES.items()}
    total = sum(counts.values())
    if total != mesh.n_facets:
        raise ValueError("facet classes do not partition the facet set")
    # wall facets carry one element per side tag in reduced modes, and in
    # full mode separate the slab from the matching matrix side
    for cls, tag in ((GAMMA_1, SIDE_1), (GAMMA_2, SIDE_2)):
        for f in np.flatnonzero(mesh.facet_class == cls):
            e0, e1 = mesh.facet_elements[f]
            tags = {int(mesh.subdomain[e0])}
            if e1 >= 0:
                tags.add(int(mesh.subdomain[e1]))
            if mesh.mode == "full":
                if tags != {tag, FRACTURE}:
                    raise ValueError(f"facet {f}: wall facet with tags {tags}")
            elif tags != {tag}:
                raise ValueError(f"facet {f}: wall facet with tags {tags}")
    return counts


def mesh_quality(mesh: Mesh) -> dict:
    """Mesh size range and the minimum interior angle (degrees)."""
    if mesh.n_elements == 0:
        raise ValueError("empty mesh")
    h = mesh.element_h
    v = mesh.vertices
    e = mesh.elements
    min_angle = math.inf
    p0, p1, p2 = v[e[:, 0]], v[e[:, 1]], v[e[:, 2]]
    for a, b, c in ((p0, p1, p2), (p1, p2, p0), (p2, p0, p1)):
        u = b - a
        w = c - a
        cosang = np.sum(u * w, axis=1) / (np.linalg.norm(u, axis=1)
                                          * np.linalg.norm(w, axis=1))
        ang = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
        min_angle = min(min_angle, float(ang.min()))
    return {"h_max": float(h.max()), "h_min": float(h.min()),
            "min_angle": min_angle}


def generic_facets(elements):
    """The oracle of the lattice facets: every element edge once, sorted
    by its vertex pair, with its one or two elements (the second -1 when
    one-sided)."""
    owners = {}
    for e, tri in enumerate(elements.tolist()):
        for a, b in zip(tri, tri[1:] + tri[:1]):
            owners.setdefault((min(a, b), max(a, b)), []).append(e)
    assert max(map(len, owners.values())) <= 2
    pairs = sorted(owners)
    return (np.array(pairs, dtype=np.int64),
            np.array([owners[p] + [-1] * (2 - len(owners[p])) for p in pairs],
                     dtype=np.int64))


def manual_mesh(vertices, elements):
    vertices = np.asarray(vertices, dtype=float)
    elements = np.asarray(elements, dtype=np.int64)
    facets, fe = generic_facets(elements)
    cls = np.where(fe[:, 1] >= 0, INTERIOR, BOUNDARY).astype(np.int8)
    return Mesh(vertices=vertices, elements=elements,
                subdomain=np.full(len(elements), SIDE_1, dtype=np.int8),
                mode="manual", facets=facets, facet_elements=fe,
                facet_class=cls, lattices=(), gamma0=0.5,
                profile=ApertureProfile.constant(0.05, 0.05), h_target=1.0)


def facet_set(facets, facet_elements, facet_class) -> set:
    """(a, b, triangles, class) of every facet: the two triangles of a
    two-sided facet in sorted order, a one-sided facet's as (e, -1)."""
    return {(a, b, (e0, e1) if e1 < 0 else tuple(sorted((e0, e1))), c)
            for (a, b), (e0, e1), c in zip(facets.tolist(),
                                           facet_elements.tolist(),
                                           np.asarray(facet_class).tolist())}


def oracle_facet_set(mesh: Mesh) -> set:
    """:func:`facet_set` of the generic extraction from ``mesh.elements``:
    two-sided facets are interior and one-sided ones boundary, except the
    edges along each lattice wall line, which are wall facets."""
    facets, fe = generic_facets(mesh.elements)
    walls = {}
    for lat in mesh.lattices:
        for line, tag in ((lat.gamma1_line, GAMMA_1),
                          (lat.gamma2_line, GAMMA_2)):
            if line is not None:
                ids = lat.vidx[:, line].tolist()
                walls.update(dict.fromkeys(zip(ids[:-1], ids[1:]), tag))
    cls = [walls.get((a, b), INTERIOR if e1 >= 0 else BOUNDARY)
           for (a, b), (_, e1) in zip(facets.tolist(), fe.tolist())]
    return facet_set(facets, fe, cls)


class TestFacetExtraction:
    def test_two_triangle_square(self):
        mesh = manual_mesh([[0, 0], [1, 0], [1, 1], [0, 1]],
                           [[0, 1, 2], [0, 2, 3]])
        counts = classify_facets(mesh)
        assert counts["interior"] == 1
        assert counts["exterior-boundary"] == 4
        assert counts["gamma-side-1"] == counts["gamma-side-2"] == 0


class TestQuality:
    def test_unit_right_triangle(self):
        mesh = manual_mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        q = mesh_quality(mesh)
        assert q["h_max"] == pytest.approx(math.sqrt(2.0))
        assert q["h_min"] == pytest.approx(math.sqrt(2.0))
        assert q["min_angle"] == pytest.approx(45.0)

    def test_uniform_rectified_mesh(self):
        prof = ApertureProfile.constant(0.05, 0.05)
        mesh = build_bulk_mesh(UNIT, prof, "rectified", 0.25)
        q = mesh_quality(mesh)
        assert q["h_max"] == pytest.approx(q["h_min"])


class TestElementMaps:
    @pytest.mark.parametrize("mode", ["full", "rectified", "curved-reduced"])
    def test_maps_send_reference_vertices_to_the_triangle(self, mode):
        prof = ApertureProfile.sinusoidal(0.1)
        mesh = build_bulk_mesh(UNIT, prof, mode, 0.25)
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
        mesh = build_bulk_mesh(UNIT, prof, "rectified", 0.25)
        assert mesh.maps is mesh.maps
        assert mesh.element_h is mesh.element_h
        other = build_bulk_mesh(UNIT, prof, "rectified", 0.25)
        assert other.maps is not mesh.maps
        np.testing.assert_array_equal(other.maps.det, mesh.maps.det)


class TestRectifiedMesh:
    PROF = ApertureProfile.constant(0.05, 0.05)

    def test_counts_h_quarter(self):
        # 4 rows, 2 columns per side: 2 * (4*2*2) = 32 triangles,
        # per side 30 facets of which 4 lie on the interface
        mesh = build_bulk_mesh(UNIT, self.PROF, "rectified", 0.25)
        assert mesh.n_elements == 32
        counts = classify_facets(mesh)
        assert counts["gamma-side-1"] == 4
        assert counts["gamma-side-2"] == 4
        assert counts["exterior-boundary"] == 16
        assert counts["interior"] == 36
        assert mesh.n_facets == 60

    def test_sides_disconnected_and_walls_on_gamma(self):
        mesh = build_bulk_mesh(UNIT, self.PROF, "rectified", 0.25)
        for cls in (GAMMA_1, GAMMA_2):
            ids = np.flatnonzero(mesh.facet_class == cls)
            x = mesh.vertices[mesh.facets[ids]][:, :, 0]
            np.testing.assert_allclose(x, 0.5, atol=1e-15)
            # one-sided facets with the matching subdomain tag
            assert np.all(mesh.facet_elements[ids, 1] == -1)
        owner = mesh.subdomain[mesh.facet_elements[:, 0]]
        tags1 = owner[mesh.facet_class == GAMMA_1]
        tags2 = owner[mesh.facet_class == GAMMA_2]
        assert np.all(tags1 == SIDE_1)
        assert np.all(tags2 == SIDE_2)

    def test_tiles_unit_square(self):
        mesh = build_bulk_mesh(UNIT, self.PROF, "rectified", 0.25)
        assert mesh.element_volumes().sum() == pytest.approx(1.0, abs=1e-12)

    def test_positive_volumes(self):
        mesh = build_bulk_mesh(UNIT, self.PROF, "rectified", 1.0 / 8.0)
        assert mesh.element_volumes().min() > 0.0


class TestFullMesh:
    def test_constant_aperture_partition(self):
        prof = ApertureProfile.constant(0.1, 0.1)
        mesh = build_bulk_mesh(UNIT, prof, "full", 0.25)
        tags = set(np.unique(mesh.subdomain))
        assert tags == {SIDE_1, SIDE_2, FRACTURE}
        assert mesh.element_volumes().sum() == pytest.approx(1.0, abs=1e-12)

    def test_fracture_layer_count(self):
        prof = ApertureProfile.constant(0.1, 0.1)
        mesh = build_bulk_mesh(UNIT, prof, "full", 0.25,
                               fracture_layers=4)
        # 4 rows of 4 fracture columns, two triangles each
        assert int(np.sum(mesh.subdomain == FRACTURE)) == 32

    def test_wall_facets_between_matrix_and_slab(self):
        prof = ApertureProfile.sinusoidal(0.05)
        mesh = build_bulk_mesh(UNIT, prof, "full", 0.125)
        counts = classify_facets(mesh)
        assert counts["gamma-side-1"] == 8
        assert counts["gamma-side-2"] == 8
        for cls, tag in ((GAMMA_1, SIDE_1), (GAMMA_2, SIDE_2)):
            for f in np.flatnonzero(mesh.facet_class == cls):
                e0, e1 = mesh.facet_elements[f]
                assert e1 >= 0
                assert {int(mesh.subdomain[e0]), int(mesh.subdomain[e1])} == \
                    {tag, FRACTURE}

    def test_slab_volume_matches_trapezoid_aperture(self):
        prof = ApertureProfile.sinusoidal(0.1, asymmetry="symmetric")
        mesh = build_bulk_mesh(UNIT, prof, "full", 1.0 / 16.0)
        ys = mesh.lattices[0].ys
        d = prof.d1_fn(ys) + prof.d2_fn(ys)
        gap = np.trapezoid(d, ys) if hasattr(np, "trapezoid") else np.trapz(d, ys)
        slab = mesh.element_volumes()[mesh.subdomain == FRACTURE].sum()
        assert slab == pytest.approx(gap, abs=1e-12)


class TestCurvedReducedMesh:
    def test_wall_vertices_snap_to_profile(self):
        prof = ApertureProfile.sinusoidal(1e-3)
        mesh = build_bulk_mesh(UNIT, prof, "curved-reduced", 1.0 / 32.0)
        ids = np.flatnonzero(mesh.facet_class == GAMMA_1)
        verts = mesh.vertices[np.unique(mesh.facets[ids])]
        np.testing.assert_allclose(verts[:, 0],
                                   0.5 - prof.d1_fn(verts[:, 1]), atol=1e-12)
        ids = np.flatnonzero(mesh.facet_class == GAMMA_2)
        verts = mesh.vertices[np.unique(mesh.facets[ids])]
        np.testing.assert_allclose(verts[:, 0],
                                   0.5 + prof.d2_fn(verts[:, 1]), atol=1e-12)

    def test_volume_conservation_against_meshed_gap(self):
        # the meshed walls are piecewise linear, so the unmeshed gap is
        # exactly the trapezoid-rule aperture integral
        prof = ApertureProfile.sinusoidal(0.1, asymmetry="symmetric")
        for h in (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0):
            mesh = build_bulk_mesh(UNIT, prof, "curved-reduced", h)
            ys = mesh.lattices[0].ys
            d = prof.d1_fn(ys) + prof.d2_fn(ys)
            gap = np.trapezoid(d, ys) if hasattr(np, "trapezoid") else np.trapz(d, ys)
            vol = mesh.element_volumes().sum()
            assert vol == pytest.approx(1.0 - gap, abs=1e-12)

    def test_volume_approaches_analytic_gap(self):
        # full periods of the oscillation: analytic gap = 2 d0
        prof = ApertureProfile.sinusoidal(0.1, asymmetry="symmetric")
        mesh = build_bulk_mesh(UNIT, prof, "curved-reduced", 1.0 / 64.0)
        vol = mesh.element_volumes().sum()
        # trapezoid error <= |d''|_inf h^2 / 12 * |Gamma|
        bound = 0.05 * (8.0 * math.pi) ** 2 * (1.0 / 64.0) ** 2 / 12.0
        assert abs(vol - (1.0 - 0.2)) < bound

    def test_anisotropic_reference_spacing(self):
        prof = ApertureProfile.sinusoidal(0.01)
        mesh = build_bulk_mesh(UNIT, prof, "curved-reduced", 1.0 / 32.0,
                               h_target_normal=1.0 / 8.0)
        lat1 = mesh.lattices[0]
        assert lat1.n_rows == 32
        assert lat1.n_cols == 4

    def test_rejects_wall_exiting_domain(self):
        prof = ApertureProfile.constant(0.6, 0.1)
        with pytest.raises(ValueError, match="exits the domain"):
            build_bulk_mesh(UNIT, prof, "curved-reduced", 0.25)
        prof = ApertureProfile.constant(0.1, 0.6)
        with pytest.raises(ValueError, match="exits the domain"):
            build_bulk_mesh(UNIT, prof, "full", 0.25)


class TestBuildErrors:
    PROF = ApertureProfile.constant(0.05, 0.05)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            build_bulk_mesh(UNIT, self.PROF, "unstructured", 0.25)

    def test_bad_h(self):
        with pytest.raises(ValueError, match="positive"):
            build_bulk_mesh(UNIT, self.PROF, "rectified", -0.1)

    @pytest.mark.parametrize("mode", ["full", "rectified"])
    def test_spacing_beyond_a_float_count(self, mode):
        # 1 / 1e-320 overflows to inf: a ValueError naming the spacing,
        # not an OverflowError from the lattice count
        with pytest.raises(ValueError, match=r"spacing 1e-320 is too fine"):
            build_bulk_mesh(UNIT, self.PROF, mode, 1e-320)
        with pytest.raises(ValueError, match=r"\(0\.25, 1e-320\)"):
            build_bulk_mesh(UNIT, self.PROF, mode, 0.25,
                            h_target_normal=1e-320)

    @pytest.mark.parametrize("gamma0", [1.5, 0.0, 1.0, math.nan, math.inf],
                             ids=["beyond", "xmin", "xmax", "nan", "inf"])
    def test_gamma0_outside_domain(self, gamma0):
        with pytest.raises(ValueError, match="outside"):
            build_bulk_mesh(UNIT, self.PROF, "rectified", 0.25, gamma0)

    def test_zero_fracture_layers(self):
        with pytest.raises(ValueError, match="layers"):
            build_bulk_mesh(UNIT, self.PROF, "full", 0.25,
                            fracture_layers=0)

    def test_thin_slab_refused_only_where_it_is_meshed(self):
        # d = 2e-15 is nine ulps of 1: one slab layer fits, four do not,
        # and the two-block meshes have no slab to split
        prof = ApertureProfile.constant(1e-15, 1e-15)
        with pytest.raises(ValueError, match="too thin"):
            build_bulk_mesh(UNIT, prof, "full", 0.25)
        build_bulk_mesh(UNIT, prof, "full", 0.25, fracture_layers=1)
        for mode in ("curved-reduced", "rectified"):
            build_bulk_mesh(UNIT, prof, mode, 0.25)

    def test_profile_range_mismatch(self):
        prof = ApertureProfile.constant(0.05, 0.05, t_range=(0.0, 2.0))
        with pytest.raises(ValueError, match="range"):
            build_bulk_mesh(UNIT, prof, "rectified", 0.25)


class TestWalls:
    @pytest.mark.parametrize("domain, gamma0", [
        (UNIT, 0.4), (((-0.3, 0.0), (0.7, 1.0)), 0.2)],
        ids=["unit", "shifted"])
    @pytest.mark.parametrize("mode", MESH_MODES)
    def test_walls_are_the_lattice_wall_lines(self, mode, domain, gamma0):
        # on the shifted domain xmin + (w1 - xmin) rounds away from w1
        prof = ApertureProfile.sinusoidal(0.07, phase=0.3,
                                          asymmetry="symmetric")
        mesh = build_bulk_mesh(domain, prof, mode, 1.0 / 16.0, gamma0,
                               fracture_layers=3)
        # bit for bit: the lattice wall lines come from the same rule
        lat1, lat2 = mesh.lattices[0], mesh.lattices[-1]
        w1, w2 = mesh.walls(lat1.ys)
        assert np.array_equal(w1, lat1.xs[:, lat1.gamma1_line])
        assert np.array_equal(w2, lat2.xs[:, lat2.gamma2_line])
        # between the rows, the analytic walls or the midline
        t = np.linspace(0.0, 1.0, 37)
        if mode == "rectified":
            want = (np.full_like(t, gamma0), np.full_like(t, gamma0))
        else:
            want = (gamma0 - prof.d1_fn(t), gamma0 + prof.d2_fn(t))
        np.testing.assert_array_equal(mesh.walls(t), want)

    @settings(max_examples=150, deadline=None)
    @example(mode="full", log10_d0=308.2, asymmetry="symmetric", phase=1.0,
             gamma0=0.5, h=0.25, layers=4)  # walls overflow
    @example(mode="rectified", log10_d0=-1.0, asymmetry="symmetric",
             phase=0.0, gamma0=1e-310, h=0.25, layers=1)  # empty block
    @given(mode=st.sampled_from(MESH_MODES),
           log10_d0=st.one_of(st.floats(-310.0, 310.0),
                              st.floats(-17.0, 0.0)),
           asymmetry=st.sampled_from(("antisymmetric", "symmetric")),
           phase=st.floats(0.0, 2.0 * math.pi),
           gamma0=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           h=st.floats(1.0 / 16.0, 2.0),
           layers=st.integers(1, 4))
    def test_build_gives_a_mesh_or_a_value_error(self, mode, log10_d0,
                                                  asymmetry, phase, gamma0,
                                                  h, layers):
        # d0 spans subnormal to infinite, and often lies in the band where
        # a mesh can exist; h >= 1/16 keeps every mesh small
        with np.errstate(over="ignore"):
            d0 = float(np.float64(10.0) ** log10_d0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prof = ApertureProfile.sinusoidal(d0, phase=phase,
                                              asymmetry=asymmetry)
            try:
                mesh = build_bulk_mesh(UNIT, prof, mode, h, gamma0,
                                       fracture_layers=layers)
            except ValueError:
                return
            assert np.all(mesh.element_volumes() > 0.0)


class TestElementCount:
    @pytest.mark.parametrize("domain, gamma0", [
        (UNIT, 0.5), (((-0.3, 0.0), (0.7, 2.0)), 0.2)],
        ids=["unit", "shifted"])
    @pytest.mark.parametrize("mode", MESH_MODES)
    def test_counts_the_built_mesh(self, mode, domain, gamma0):
        (_, ymin), (_, ymax) = domain
        prof = ApertureProfile.constant(0.05, 0.05, t_range=(ymin, ymax))
        for h, layers, h_normal in ((0.3, 4, None), (1 / 8, 1, 0.05),
                                    (0.07, 3, 0.4)):
            built = build_bulk_mesh(domain, prof, mode, h, gamma0, layers,
                                    h_normal)
            assert element_count(domain, mode, h, gamma0, layers,
                                 h_normal) == built.n_elements

    def test_counts_a_mesh_too_large_to_build(self):
        assert element_count(UNIT, "full", 2.0 ** -20) \
            == 2 * 2 ** 20 * (2 ** 19 + 2 ** 19 + 4)


class TestRefinementNesting:
    def test_rectified_h_max_exactly_halves(self):
        prof = ApertureProfile.constant(0.05, 0.05)
        q1 = mesh_quality(build_bulk_mesh(UNIT, prof, "rectified", 0.25))
        q2 = mesh_quality(build_bulk_mesh(UNIT, prof, "rectified", 0.125))
        assert q2["h_max"] == pytest.approx(0.5 * q1["h_max"], rel=1e-14)

    def test_constant_full_h_max_exactly_halves(self):
        prof = ApertureProfile.constant(0.1, 0.1)
        q1 = mesh_quality(build_bulk_mesh(UNIT, prof, "full", 0.25))
        q2 = mesh_quality(build_bulk_mesh(UNIT, prof, "full", 0.125))
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
                                             h))["h_max"] for h in hs]
        ratios = [hmax[i + 1] / hmax[i] for i in range(len(hmax) - 1)]
        for a, b in zip(ratios, ratios[1:]):
            assert b <= a + 1e-12
        assert all(r >= 0.5 - 1e-12 for r in ratios)
        assert ratios[-1] <= 0.51


def wall_edges(mesh, elem, cls):
    """Vertex pairs of the edges of ``elem`` that are wall facets of
    class ``cls``."""
    wall = {tuple(f) for f in mesh.facets[mesh.facet_class == cls].tolist()}
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
            spans = [tuple(sorted(mesh.vertices[list(edge), 1].tolist()))
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


class TestLatticeFacets:
    @settings(max_examples=80, deadline=None)
    @given(mode=st.sampled_from(MESH_MODES), profile=walls_strategy(),
           gamma0=st.sampled_from((0.5, 0.3)), h=st.floats(1.0 / 32.0, 0.5),
           layers=st.integers(1, 4))
    def test_lattice_facets_match_the_generic_extraction(
            self, mode, profile, gamma0, h, layers):
        mesh = build_bulk_mesh(UNIT, profile, mode, h, gamma0,
                               fracture_layers=layers)
        got = facet_set(mesh.facets, mesh.facet_elements, mesh.facet_class)
        assert len(got) == mesh.n_facets
        assert got == oracle_facet_set(mesh)


class TestInterfaceGrid:
    def test_rectified_grid_matches_wall_facets(self):
        prof = ApertureProfile.constant(0.05, 0.05)
        mesh = build_bulk_mesh(UNIT, prof, "rectified", 0.25)
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
        mesh = build_bulk_mesh(UNIT, prof, "curved-reduced", 1.0 / 16.0)
        grid = build_interface_grid(mesh)
        assert grid.lengths.sum() == pytest.approx(1.0, abs=1e-12)
        assert grid.measure == pytest.approx(1.0, abs=1e-12)

    def test_full_mode_needs_explicit_request(self):
        prof = ApertureProfile.constant(0.1, 0.1)
        mesh = build_bulk_mesh(UNIT, prof, "full", 0.25)
        with pytest.raises(ValueError, match="no reduced interface"):
            build_interface_grid(mesh)

    def test_pairing_roundtrip_through_wall_chord(self):
        prof = ApertureProfile.sinusoidal(0.1)
        mesh = build_bulk_mesh(UNIT, prof, "curved-reduced", 1.0 / 8.0)
        grid = build_interface_grid(mesh)
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
                assert point[1] == pytest.approx(t, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(mode=st.sampled_from(("curved-reduced", "rectified")),
           profile=walls_strategy(),
           gamma0=st.sampled_from((0.5, 0.3)),
           h=st.floats(1.0 / 32.0, 0.5))
    def test_grid_is_rows_and_wall_triangles(self, mode, profile, gamma0,
                                             h):
        mesh = build_bulk_mesh(UNIT, profile, mode, h, gamma0)
        check_grid(mesh, build_interface_grid(mesh))

    @pytest.mark.parametrize("mode", ["curved-reduced", "rectified"])
    def test_other_triangle_of_the_cell_fails_the_check(self, mode):
        prof = ApertureProfile.sinusoidal(0.05)
        mesh = build_bulk_mesh(UNIT, prof, mode, 1.0 / 8.0)
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
        mesh = build_bulk_mesh(UNIT, prof, "rectified", 0.25)
        grid = build_interface_grid(mesh)
        assert grid.element_of_t(0.10) == 0
        assert grid.element_of_t(0.80) == 3
        assert grid.element_of_t(0.0) == 0
        assert grid.element_of_t(1.0) == 3
