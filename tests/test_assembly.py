"""Tests for the DG assembly layer.

Quadrature and basis oracles are closed forms (factorial formulas for
monomial moments, finite differences for gradients) and scipy's
Gauss-Jacobi rule.  The assembled forms are checked against
hand-computable states: constant and linear pressures reproduced
exactly, penalty values evaluated by hand, and the degenerate
constant-aperture configuration where all reduced variants collapse onto
one another.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracdg import assembly as asm
from fracdg import models
from fracdg.geometry import ApertureProfile, PermeabilityData
from fracdg.mesh import BOUNDARY, FRACTURE, GAMMA_1, GAMMA_2, INTERIOR, \
    SIDE_1, SIDE_2, ElementMaps, build_bulk_mesh, build_interface_grid

DOMAIN = ((0.0, 0.0), (1.0, 1.0))


def iso_perm(kperp=1.0, kt=1.0, xi=2.0 / 3.0, k_f=None):
    kg = np.diag([kperp, kt])
    return PermeabilityData(np.eye(2), np.eye(2), kg, kperp, xi=xi, k_f=k_f)


def const_setup(h=0.25, degree=1, d_half=0.05):
    profile = ApertureProfile.constant(d_half, d_half)
    mesh = build_bulk_mesh(DOMAIN, profile, "curved-reduced", h)
    grid = build_interface_grid(mesh)
    bs = asm.DGSpace.bulk(mesh, degree)
    ifs = asm.DGSpace.interface(grid, degree)
    return profile, mesh, grid, bs, ifs


def wavy_setup(h=0.25, degree=1, d0=0.1, asymmetry="antisymmetric"):
    profile = ApertureProfile.sinusoidal(d0, asymmetry=asymmetry)
    mesh = build_bulk_mesh(DOMAIN, profile, "curved-reduced", h)
    grid = build_interface_grid(mesh)
    bs = asm.DGSpace.bulk(mesh, degree)
    ifs = asm.DGSpace.interface(grid, degree)
    return profile, mesh, grid, bs, ifs


def g_linear(x):
    return 1.0 - x[:, 0]


def pgamma_half(t):
    return np.full_like(np.asarray(t, dtype=float), 0.5)


def exact_state(mesh, grid, bs, ifs):
    xb = asm.interpolate_bulk(mesh, bs, g_linear)
    xi = asm.interpolate_interface(grid, ifs, pgamma_half)
    return np.concatenate([xb, xi])


def variant_system(variant, mesh, grid, bs, ifs, perm, q_bulk, q_gamma,
                   g_bulk, g_gamma, mu0, mu0_gamma, edge_terms="consistent"):
    """The shared reduced system plus, where the variant's table row
    keeps it, the transport form."""
    system = asm.assemble_reduced(mesh, grid, bs, ifs, perm, q_bulk,
                                  q_gamma, g_bulk, g_gamma, mu0, mu0_gamma,
                                  edge_terms=edge_terms)
    if models.ModelVariant.of(variant).gradient_terms_in_transport:
        system.matrix = system.matrix + asm.transport_form(
            mesh, grid, bs, ifs, perm, edge_terms)
    return system


# ---------------------------------------------------------------------------
# quadrature


class TestQuadrature:
    def test_segment_rule_monomial_exactness(self):
        for n in range(1, 7):
            t, w = asm.segment_rule(n)
            assert len(t) == n
            for j in range(2 * n):
                got = float(w @ t**j)
                assert got == pytest.approx(1.0 / (j + 1), abs=1e-14)

    def test_segment_rule_inside_unit_interval(self):
        t, w = asm.segment_rule(5)
        assert np.all((t > 0.0) & (t < 1.0))
        assert np.all(w > 0.0)

    def test_triangle_rule_monomial_exactness(self):
        # moment of x^a y^b over the unit reference triangle, every
        # monomial of total degree <= 2n - 1 exact to round-off
        for n in range(1, 9):
            pts, w = asm.triangle_rule(n)
            assert len(w) == n * n
            for a in range(2 * n):
                for b in range(2 * n - a):
                    exact = (math.factorial(a) * math.factorial(b)
                             / math.factorial(a + b + 2))
                    got = float(w @ (pts[:, 0]**a * pts[:, 1]**b))
                    assert abs(got - exact) <= 1e-14 * exact, (n, a, b)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gauss_jacobi_matches_scipy(self, n):
        # scipy.special stays out of the package; only this oracle loads it
        from scipy.special import roots_jacobi
        x, w = asm._gauss_jacobi(n)
        x_ref, w_ref = roots_jacobi(n, 1.0, 0.0)
        np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(w, w_ref, rtol=1e-14, atol=0.0)

    def test_package_import_leaves_out_scipy_special(self):
        code = ("import sys, fracdg.cli; "
                "sys.exit('scipy.special' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        assert subprocess.run([sys.executable, "-c", code],
                              env=env).returncode == 0

    def test_triangle_rule_weights_and_support(self):
        pts, w = asm.triangle_rule(4)
        assert float(w.sum()) == pytest.approx(0.5, abs=1e-14)
        assert np.all(w > 0.0)
        assert np.all(pts > 0.0)
        assert np.all(pts.sum(axis=1) < 1.0)


# ---------------------------------------------------------------------------
# bases


class TestBases:
    def test_tri_dim(self):
        assert [asm.tri_dim(k) for k in (1, 2, 3)] == [3, 6, 10]

    def test_exponent_ordering(self):
        assert asm.tri_exponents(2) == ((0, 0), (1, 0), (0, 1),
                                        (2, 0), (1, 1), (0, 2))

    def test_tri_basis_values(self):
        pts = np.array([[0.25, 0.5]])
        vals = asm.tri_basis(2, pts)
        expect = [1.0, 0.25, 0.5, 0.0625, 0.125, 0.25]
        np.testing.assert_allclose(vals[0], expect, rtol=1e-14)

    def test_tri_basis_gradient_matches_fd(self):
        rng = np.random.default_rng(7)
        pts = rng.random((20, 2)) * 0.5
        eps = 1e-6
        for k in (1, 2, 3):
            grad = asm.tri_basis_grad(k, pts)
            for d in range(2):
                shift = np.zeros(2)
                shift[d] = eps
                fd = (asm.tri_basis(k, pts + shift)
                      - asm.tri_basis(k, pts - shift)) / (2 * eps)
                np.testing.assert_allclose(grad[:, :, d], fd,
                                           rtol=1e-6, atol=1e-8)

    def test_seg_basis_and_derivative(self):
        t = np.array([0.0, 0.5, 1.0])
        vals = asm.seg_basis(3, t)
        np.testing.assert_allclose(vals[1], [1.0, 0.5, 0.25, 0.125],
                                   rtol=1e-15)
        eps = 1e-6
        fd = (asm.seg_basis(3, t + eps) - asm.seg_basis(3, t - eps)) / (2 * eps)
        np.testing.assert_allclose(asm.seg_basis_deriv(3, t), fd,
                                   rtol=1e-6, atol=1e-8)

    def test_reference_mass_matrices_invertible(self):
        for k in (1, 2, 3):
            pts, w = asm.triangle_rule(k + 2)
            phi = asm.tri_basis(k, pts)
            mass = phi.T @ (phi * w[:, None])
            assert np.linalg.cond(mass) < 1e8


# ---------------------------------------------------------------------------
# penalty


class TestPenalty:
    def test_boundary_facet_value(self):
        # k = 1, h = 0.1, mu0 = 1: (k+1)(k+2)/h = 60
        assert asm.penalty_bulk(1, (0.1,), 1.0) == pytest.approx(60.0)

    def test_interior_facet_takes_max(self):
        assert asm.penalty_bulk(1, (0.1, 0.05), 1.0) \
            == pytest.approx(120.0)

    def test_higher_degree(self):
        assert asm.penalty_bulk(2, (0.1,), 1.0) == pytest.approx(120.0)

    def test_scales_with_mu0(self):
        assert asm.penalty_bulk(1, (0.1, 0.05), 2.5) \
            == pytest.approx(300.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            asm.penalty_bulk(1, (0.1,), 0.0)
        with pytest.raises(ValueError):
            asm.penalty_bulk(1, (0.1, 0.05, 0.2), 1.0)
        with pytest.raises(ValueError):
            asm.penalty_bulk(1, (0.0,), 1.0)


# ---------------------------------------------------------------------------
# spaces and interpolation


class TestSpaces:
    def test_bulk_dof_count(self):
        _, mesh, _, bs, _ = const_setup(degree=1)
        assert bs.n_dofs == 3 * mesh.n_elements
        bs2 = asm.DGSpace.bulk(mesh, 2)
        assert bs2.n_dofs == 6 * mesh.n_elements

    def test_bulk_offsets_grouped_by_side(self):
        _, mesh, _, bs, _ = const_setup()
        off1 = bs.offsets[mesh.subdomain == SIDE_1]
        off2 = bs.offsets[mesh.subdomain == SIDE_2]
        assert off1.max() < off2.min()

    def test_full_mode_fracture_block_last(self):
        profile = ApertureProfile.constant(0.05, 0.05)
        mesh = build_bulk_mesh(DOMAIN, profile, "full", 0.25)
        bs = asm.DGSpace.bulk(mesh, 1)
        offf = bs.offsets[mesh.subdomain == FRACTURE]
        assert offf.min() > bs.offsets[mesh.subdomain == SIDE_2].max()

    def test_interface_dof_count(self):
        _, _, grid, _, ifs = const_setup(degree=1)
        assert ifs.n_dofs == 2 * grid.n_elements

    def test_degree_bounds(self):
        _, mesh, grid, _, _ = const_setup()
        with pytest.raises(ValueError):
            asm.DGSpace.bulk(mesh, 0)
        with pytest.raises(ValueError):
            asm.DGSpace.bulk(mesh, asm.MAX_DEGREE + 1)
        with pytest.raises(ValueError):
            asm.DGSpace.interface(grid, asm.MAX_DEGREE + 1)
        # one degree per space: a per-element degree array is refused
        with pytest.raises(ValueError, match="one integer"):
            asm.DGSpace.bulk(mesh, np.ones(mesh.n_elements, dtype=int))
        with pytest.raises(ValueError, match="one integer"):
            asm.DGSpace.interface(grid, np.ones(grid.n_elements, dtype=int))

    def test_bulk_interpolation_reproduces_polynomials(self):
        rng = np.random.default_rng(3)
        for k, f in ((1, g_linear),
                     (2, lambda x: x[:, 0]**2 - 3.0 * x[:, 0] * x[:, 1])):
            _, mesh, _, _, _ = const_setup(degree=k)
            bs = asm.DGSpace.bulk(mesh, k)
            coeffs = asm.interpolate_bulk(mesh, bs, f)
            maps = mesh.maps
            for e in rng.integers(0, mesh.n_elements, size=8):
                e = int(e)
                verts = mesh.vertices[mesh.elements[e]]
                lam = rng.dirichlet(np.ones(3))
                x = (lam @ verts)[None, :]
                phi = asm._basis_at(maps, bs, e, x)
                dofs = bs.dofs(e)
                got = float(phi[0] @ coeffs[dofs])
                assert got == pytest.approx(float(f(x)[0]), abs=1e-11)

    def test_interface_interpolation_reproduces_polynomials(self):
        _, _, grid, _, _ = const_setup()
        ifs = asm.DGSpace.interface(grid, 2)
        f = lambda t: 2.0 * t**2 - t + 0.25
        coeffs = asm.interpolate_interface(grid, ifs, f)
        for e in range(grid.n_elements):
            t0, t1 = grid.t_breaks[e], grid.t_breaks[e + 1]
            tm = 0.5 * (t0 + t1)
            psi = asm.seg_basis(2, np.array([(tm - t0) / (t1 - t0)]))
            dofs = ifs.dofs(e)
            assert float(psi[0] @ coeffs[dofs]) == pytest.approx(f(tm),
                                                                 abs=1e-12)

    def test_interface_interpolation_matches_looped_reference(self):
        _, _, grid, _, _ = wavy_setup(h=0.0625)
        for degree in range(1, asm.MAX_DEGREE + 1):
            ifs = asm.DGSpace.interface(grid, degree)
            # a datum may return one value for all points
            for f in (lambda t: np.sin(5.0 * t) + t**3, lambda t: 0.5):
                want = looped_interpolate_interface(grid, ifs, f)
                got = asm.interpolate_interface(grid, ifs, f)
                assert np.abs(got - want).max() \
                    <= 1e-14 * np.abs(want).max(), degree


def looped_interpolate_interface(grid, space, f):
    """Local L2 projection onto the interface space, one element at a
    time."""
    coeffs = np.zeros(space.n_dofs)
    k = space.degree
    for e in range(grid.n_elements):
        t0, t1 = grid.t_breaks[e], grid.t_breaks[e + 1]
        tq, w = asm.segment_rule(k + 2)
        psi = asm.seg_basis(k, tq)
        wq = w * (t1 - t0)
        mass = psi.T @ (psi * wq[:, None])
        rhs = psi.T @ (np.asarray(f(t0 + tq * (t1 - t0)), dtype=float) * wq)
        coeffs[space.dofs(e)] = np.linalg.solve(mass, rhs)
    return coeffs


# ---------------------------------------------------------------------------
# batched bulk form against a per-element, per-facet reference


def looped_bulk_sipg(mesh, space, perm, q, g, mu0, flux_classes):
    """Dense SIPG matrix and rhs, one element and one facet at a time."""
    n = space.n_dofs
    mat, rhs = np.zeros((n, n)), np.zeros(n)
    maps = mesh.maps
    h = mesh.element_h
    k = space.degree

    def perm_of(e):
        tag = int(mesh.subdomain[e])
        return perm.k_f if tag == FRACTURE else perm.bulk(tag)

    def basis(e, x):
        ref = (x - maps.v0[e]) @ maps.jac_inv[e].T
        return (asm.tri_basis(k, ref),
                asm.tri_basis_grad(k, ref) @ maps.jac_inv[e])

    for e in range(mesh.n_elements):
        dofs = space.dofs(e)
        pts, w = asm.triangle_rule(k + 2)
        x = maps.v0[e] + pts @ maps.jac[e].T
        phi, grad = basis(e, x)
        wq = w * maps.det[e]
        mat[np.ix_(dofs, dofs)] += np.einsum("qid,qjd,q->ij", grad,
                                             grad @ perm_of(e).T, wq)
        rhs[dofs] += phi.T @ (q(x) * wq)

    for f in range(mesh.n_facets):
        e0, e1 = mesh.facet_elements[f]
        if mesh.facet_class[f] == BOUNDARY:
            elems = (e0,)
        elif mesh.facet_class[f] in flux_classes and e1 >= 0:
            elems = (e0, e1)
        else:
            continue
        va, vb = mesh.vertices[mesh.facets[f]]
        length = np.linalg.norm(vb - va)
        normal = np.array([vb[1] - va[1], va[0] - vb[0]]) / length
        centroid = mesh.vertices[mesh.elements[e0]].mean(axis=0)
        if normal @ (0.5 * (va + vb) - centroid) < 0.0:
            normal = -normal
        tq, w = asm.segment_rule(k + 2)
        x = va + np.outer(tq, vb - va)
        wq = w * length
        mu = asm.penalty_bulk(k, [h[e] for e in elems], mu0)
        # jump [v] = sum s_i v_i, average {K grad u . n} = avg * sum
        signs, avg = (1.0, -1.0), 1.0 / len(elems)
        sides = []
        for e, sign in zip(elems, signs):
            phi, grad = basis(e, x)
            sides.append((space.dofs(e), sign, phi,
                          grad @ (perm_of(e) @ normal)))
        for di, si, phi_i, kdn_i in sides:
            for dj, sj, phi_j, kdn_j in sides:
                mat[np.ix_(di, dj)] += \
                    mu * si * sj * phi_i.T @ (phi_j * wq[:, None]) \
                    - avg * si * phi_i.T @ (kdn_j * wq[:, None]) \
                    - avg * sj * (kdn_i * wq[:, None]).T @ phi_j
        if len(elems) == 1:
            (dofs, _, phi, kdn), = sides
            gw = g(x) * wq
            rhs[dofs] += mu * phi.T @ gw - kdn.T @ gw
    return mat, rhs


class TestBatchedBulkForm:
    @pytest.mark.parametrize("mode", ["full", "curved-reduced"])
    def test_matches_looped_reference(self, mode):
        profile = ApertureProfile.sinusoidal(0.1, frequency=2.0 * np.pi)
        mesh = build_bulk_mesh(DOMAIN, profile, mode, 0.25)
        perm = PermeabilityData(np.diag([1.0, 2.0]),
                                np.array([[1.5, 0.3], [0.3, 0.8]]),
                                np.diag([0.5, 3.0]), 0.5,
                                k_f=np.diag([0.5, 3.0]))
        q = lambda x: np.sin(3.0 * x[:, 0]) + x[:, 1]
        g = lambda x: np.cos(x[:, 0]) * x[:, 1]
        classes = (INTERIOR, GAMMA_1, GAMMA_2) if mode == "full" \
            else (INTERIOR,)
        for degree in range(1, asm.MAX_DEGREE + 1):
            space = asm.DGSpace.bulk(mesh, degree)
            got, got_rhs = asm._bulk_sipg(mesh, space, perm, q, g, 10.0,
                                          classes, space.n_dofs)
            mat, rhs = looped_bulk_sipg(mesh, space, perm, q, g, 10.0,
                                        classes)
            got = got.toarray()
            # summation order differs, so agreement is to rounding only
            assert np.abs(got - mat).max() <= 1e-13 * np.abs(mat).max(), \
                degree
            assert np.abs(got_rhs - rhs).max() \
                <= 1e-13 * np.abs(rhs).max(), degree


@st.composite
def triangles(draw):
    """Three vertices of a nondegenerate triangle, its smallest angle
    bounded away from 0 (area over squared longest edge at least 0.05)."""
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    v = np.array(draw(st.lists(st.tuples(coord, coord), min_size=3,
                               max_size=3)))
    (ax, ay), (bx, by) = v[1] - v[0], v[2] - v[0]
    area = 0.5 * abs(ax * by - ay * bx)
    longest = max(np.sum((v - np.roll(v, 1, axis=0)) ** 2, axis=1))
    assume(area >= 0.05 * longest and longest > 1e-2)
    return v


class TestEdgeTables:
    """The facet terms read the basis on the directed reference edges
    from fixed tables; these must be what the element map gives."""

    @settings(max_examples=40, deadline=None)
    @given(triangles())
    def test_tables_match_basis_at_physical_points(self, vertices):
        v0 = vertices[0]
        jac = np.column_stack([vertices[1] - v0, vertices[2] - v0])
        maps = ElementMaps(v0=v0[None], jac=jac[None],
                           jac_inv=np.linalg.inv(jac)[None],
                           det=np.array([np.linalg.det(jac)]))
        for k in range(1, asm.MAX_DEGREE + 1):
            space = asm.DGSpace("bulk", k, np.array([0]))
            tq, _ = asm.segment_rule(k + 2)
            _, phi, grad, _, _ = asm._edge_tables(k)
            for e, (a, b) in enumerate(asm._EDGES):
                x = vertices[a] + tq[:, None] * (vertices[b] - vertices[a])
                want = asm._basis_at(maps, space, 0, x)
                assert np.abs(phi[e] - want).max() \
                    <= 1e-13 * np.abs(want).max()
                # the physical gradients at the reference images of x
                ref = (x - v0) @ maps.jac_inv[0].T
                want_grad = asm.tri_basis_grad(k, ref) @ maps.jac_inv[0]
                got_grad = grad[e] @ maps.jac_inv[0]
                assert np.abs(got_grad - want_grad).max() \
                    <= 1e-13 * np.abs(want_grad).max()

    @pytest.mark.parametrize("mode", ["full", "curved-reduced", "rectified"])
    def test_both_sides_of_a_facet_give_its_points(self, mode):
        mesh = build_bulk_mesh(DOMAIN, ApertureProfile.sinusoidal(0.1),
                               mode, 0.25)
        maps = mesh.maps
        facets = np.flatnonzero(mesh.facet_elements[:, 1] >= 0)
        va, vb = (mesh.vertices[mesh.facets[facets, i]] for i in (0, 1))
        tq, _ = asm.segment_rule(3)
        want = va[:, None] + tq[:, None] * (vb - va)[:, None]
        pts = asm._edge_tables(1)[0]
        for elems in mesh.facet_elements[facets].T:
            ref = pts[asm._facet_edges(mesh, elems, facets)]
            got = maps.v0[elems, None] + ref @ np.swapaxes(maps.jac[elems],
                                                           1, 2)
            assert np.abs(got - want).max() <= 1e-14


# ---------------------------------------------------------------------------
# batched interface forms against a per-element, per-edge reference


class BlockAccumulator:
    """COO triplets with a dense rhs, taking dense blocks one call at a
    time; :meth:`matrix` sums the duplicates."""

    def __init__(self, n):
        self.rows, self.cols, self.vals = [], [], []
        self.rhs = np.zeros(n)
        self.n = n

    def add(self, rows, cols, blocks):
        """Add dense blocks: ``rows`` (..., m), ``cols`` (..., n) and
        ``blocks`` (..., m, n) broadcast against each other."""
        blocks = np.asarray(blocks, dtype=float)
        rows, cols = np.asarray(rows), np.asarray(cols)
        self.rows.append(np.broadcast_to(rows[..., :, None],
                                         blocks.shape).ravel())
        self.cols.append(np.broadcast_to(cols[..., None, :],
                                         blocks.shape).ravel())
        self.vals.append(blocks.ravel())

    def matrix(self):
        return sp.coo_matrix(
            (np.concatenate(self.vals), (np.concatenate(self.rows),
                                         np.concatenate(self.cols))),
            shape=(self.n, self.n)).tocsr()


def looped_interface_forms(acc, mesh, grid, bulk_space, iface_space, perm,
                           q_gamma, g_gamma, mu0, edge_terms, transport):
    """Tangential-flow, coupling and (with ``transport``) wall-slope
    transport forms, one interface element and one edge at a time, added
    to the :class:`BlockAccumulator` ``acc`` of the coupled system."""
    off = bulk_space.n_dofs
    maps = mesh.maps
    profile = mesh.profile
    tau = np.array([0.0, 1.0])
    kt = float(tau @ perm.k_gamma @ tau)
    lengths = grid.lengths
    m = grid.n_elements
    k = iface_space.degree

    def rule(e, n_pts):
        t0, t1 = grid.t_breaks[e], grid.t_breaks[e + 1]
        tq, w = asm.segment_rule(n_pts)
        return t0 + tq * (t1 - t0), w * (t1 - t0), 1.0 / (t1 - t0)

    def local(e, t):
        t0, t1 = grid.t_breaks[e], grid.t_breaks[e + 1]
        return (np.atleast_1d(t) - t0) / (t1 - t0)

    def penalty(edge):
        adjacent = [e for e in (edge - 1, edge) if 0 <= e < m]
        return mu0 * max((k + 1) ** 2 / lengths[e] for e in adjacent)

    def idofs(e):
        return off + iface_space.dofs(e)

    def wall_trace_rows(e, t):
        """Per-side (dofs, basis values) of the wall traces at t."""
        out = []
        for side, belem in ((1, grid.belem1[e]), (2, grid.belem2[e])):
            x = np.column_stack([mesh.walls(t)[side - 1], t])
            out.append((bulk_space.dofs(int(belem)),
                        asm._basis_at(maps, bulk_space, int(belem), x)))
        return out

    def d_and_slope(t):
        return (np.asarray(profile.d1_fn(t), dtype=float)
                + np.asarray(profile.d2_fn(t), dtype=float),
                np.asarray(profile.dd1_fn(t), dtype=float)
                + np.asarray(profile.dd2_fn(t), dtype=float))

    boundary_edges = ((0, 0, 0.0, -1.0), (m, m - 1, 1.0, 1.0))

    # tangential flow: kt * (d p)' phi' and the interface source
    for e in range(m):
        t, wq, scale = rule(e, k + 3)
        psi = asm.seg_basis(k, local(e, t))
        dpsi = asm.seg_basis_deriv(k, local(e, t)) * scale
        d, dd = d_and_slope(t)
        flux = dd[:, None] * psi + d[:, None] * dpsi
        acc.add(idofs(e), idofs(e), kt * dpsi.T @ (flux * wq[:, None]))
        if q_gamma is not None:
            acc.rhs[idofs(e)] += psi.T @ (np.asarray(q_gamma(t), dtype=float)
                                          * wq)

    for edge in range(1, m):
        d, dd = (float(v) for v in d_and_slope(grid.t_breaks[edge]))
        mu = penalty(edge)
        data = []
        for e, loc in ((edge - 1, 1.0), (edge, 0.0)):
            psi = asm.seg_basis(k, np.array([loc]))[0]
            dpsi = asm.seg_basis_deriv(k, np.array([loc]))[0] / lengths[e]
            data.append((idofs(e), psi, dpsi))
        signs = (1.0, -1.0)
        for i, (di, pi, gi) in enumerate(data):
            for j, (dj, pj, gj) in enumerate(data):
                block = mu * signs[i] * signs[j] * np.outer(pi, pj) \
                    - 0.5 * signs[i] * kt * np.outer(pi, dd * pj + d * gj) \
                    - 0.5 * signs[j] * kt * d * np.outer(gi, pj)
                acc.add(di, dj, block)

    for edge, e, loc, nu in boundary_edges:
        te = float(grid.t_breaks[edge])
        d, dd = (float(v) for v in d_and_slope(te))
        mu = penalty(edge)
        psi = asm.seg_basis(k, np.array([loc]))[0]
        dpsi = asm.seg_basis_deriv(k, np.array([loc]))[0] / lengths[e]
        sym_sign = -1.0 if edge_terms == "consistent" else 1.0
        block = mu * np.outer(psi, psi) \
            - nu * kt * np.outer(psi, dd * psi + d * dpsi) \
            + sym_sign * nu * kt * d * np.outer(dpsi, psi)
        acc.add(idofs(e), idofs(e), block)
        gval = float(g_gamma(te))
        acc.rhs[idofs(e)] += mu * gval * psi - nu * kt * d * gval * dpsi

    # coupling: (kperp / d) [p][phi] and beta (p_gamma - {p})(phi - {phi})
    for e in range(m):
        t, wq, scale = rule(e, max(k, bulk_space.degree) + 3)
        d, _ = d_and_slope(t)
        psi = asm.seg_basis(k, local(e, t))
        sides = wall_trace_rows(e, t)
        jump_sign = (-1.0, 1.0)
        wflux = perm.k_gamma_perp / d * wq
        for i, (di, pi) in enumerate(sides):
            for j, (dj, pj) in enumerate(sides):
                acc.add(di, dj, jump_sign[i] * jump_sign[j]
                        * pi.T @ (pj * wflux[:, None]))
        wb = perm.beta_gamma(d) * wq
        terms = [(idofs(e), psi, 1.0)] + [(d_, p_, -0.5) for d_, p_ in sides]
        for di, pi, si in terms:
            for dj, pj, sj in terms:
                acc.add(di, dj, si * sj * pi.T @ (pj * wb[:, None]))
        if not transport:
            continue
        # transport volume: -(p1 dd1 + p2 dd2) kt psi'
        dpsi = asm.seg_basis_deriv(k, local(e, t)) * scale
        slopes = (np.asarray(profile.dd1_fn(t), dtype=float),
                  np.asarray(profile.dd2_fn(t), dtype=float))
        for (dofs, phi), ddi in zip(sides, slopes):
            acc.add(idofs(e), dofs, -kt * dpsi.T @ (phi * (ddi * wq)[:, None]))

    if not transport:
        return
    # transport, interior edges: mean wall pressure over both walls and
    # both one-sided limits against the interface jump, weighted kt * d'
    for edge in range(1, m):
        te = np.array([float(grid.t_breaks[edge])])
        dd = float(d_and_slope(te)[1][0])
        trace_rows = [(dofs, 0.25 * phi[0]) for e in (edge - 1, edge)
                      for dofs, phi in wall_trace_rows(e, te)]
        for e, loc, sign in ((edge - 1, 1.0, 1.0), (edge, 0.0, -1.0)):
            psi = asm.seg_basis(k, np.array([loc]))[0]
            for dofs, row in trace_rows:
                acc.add(idofs(e), dofs, sign * kt * dd * np.outer(psi, row))

    # transport, boundary edges: as printed the permeability factor is
    # absent; the consistent flavour keeps it
    kfac = kt if edge_terms == "consistent" else 1.0
    for edge, e, loc, nu in boundary_edges:
        te = np.array([float(grid.t_breaks[edge])])
        psi = asm.seg_basis(k, np.array([loc]))[0]
        slopes = (float(profile.dd1_fn(te[0])), float(profile.dd2_fn(te[0])))
        for (dofs, phi), ddi in zip(wall_trace_rows(e, te), slopes):
            acc.add(idofs(e), dofs, nu * kfac * ddi * np.outer(psi, phi[0]))


class TestBatchedInterfaceForms:
    @pytest.mark.parametrize("mode", ["curved-reduced", "rectified"])
    @pytest.mark.parametrize("asymmetry", ["antisymmetric", "symmetric"])
    @pytest.mark.parametrize("transport", [True, False])
    @pytest.mark.parametrize("edge_terms", asm.EDGE_TERMS)
    def test_matches_looped_reference(self, mode, asymmetry, transport,
                                      edge_terms):
        profile = ApertureProfile.sinusoidal(0.1, asymmetry=asymmetry)
        mesh = build_bulk_mesh(DOMAIN, profile, mode, 0.125)
        grid = build_interface_grid(mesh)
        perm = PermeabilityData(np.eye(2), np.eye(2),
                                np.array([[2.0, 0.4], [0.4, 1.5]]), 0.7,
                                xi=0.8)
        q_gamma = lambda t: np.cos(3.0 * t) + 0.5
        g_gamma = lambda t: 1.0 + 2.0 * np.asarray(t, dtype=float) ** 2
        # (bulk, interface) degrees: every degree on both spaces, equal
        # and unequal pairs, the larger degree on either side
        for degrees in ((1, 1), (2, 3), (3, 2), (4, 4)):
            bs = asm.DGSpace.bulk(mesh, degrees[0])
            ifs = asm.DGSpace.interface(grid, degrees[1])
            args = (mesh, grid, bs, ifs, perm, q_gamma, g_gamma, 7.0,
                    edge_terms)
            n = bs.n_dofs + ifs.n_dofs
            want = BlockAccumulator(n)
            # the shared forms alone, or with the transport form added
            a, rhs = asm._interface_forms(*args)
            looped_interface_forms(want, *args, transport)
            b = want.matrix()
            assert a.shape == (n, n) and rhs.shape == (n,)
            if transport:
                a = a + asm.transport_form(mesh, grid, bs, ifs, perm,
                                           edge_terms)
            # summation order differs, so agreement is to rounding only
            assert abs(a - b).max() <= 1e-13 * abs(b).max(), degrees
            assert np.abs(rhs - want.rhs).max() \
                <= 1e-13 * np.abs(want.rhs).max(), degrees


# ---------------------------------------------------------------------------
# full-dimensional assembly


class TestFullAssembly:
    def setup_method(self):
        self.profile = ApertureProfile.constant(0.05, 0.05)
        self.mesh = build_bulk_mesh(DOMAIN, self.profile, "full", 0.25)
        self.space = asm.DGSpace.bulk(self.mesh, 1)
        self.perm = iso_perm()

    def assemble(self, mu0=10.0, q=None, g=g_linear, perm=None):
        return asm.assemble_full(self.mesh, self.space, perm or self.perm,
                                 q, g, mu0)

    def test_shapes_and_maps(self):
        sys_ = self.assemble()
        n = self.space.n_dofs
        assert sys_.matrix.shape == (n, n)
        assert sys_.rhs.shape == (n,)
        assert sys_.n_bulk == n and sys_.n_iface == 0

    def test_symmetry(self):
        assert self.assemble().symmetry_defect() < 1e-12

    def test_constant_pressure_residual(self):
        sys_ = self.assemble(g=lambda x: np.ones(len(x)))
        x = asm.interpolate_bulk(self.mesh, self.space,
                                 lambda x: np.ones(len(x)))
        assert np.abs(sys_.matrix @ x - sys_.rhs).max() < 1e-11

    def test_linear_pressure_residual(self):
        sys_ = self.assemble()
        x = asm.interpolate_bulk(self.mesh, self.space, g_linear)
        assert np.abs(sys_.matrix @ x - sys_.rhs).max() < 1e-11

    def test_quadratic_manufactured_residual(self):
        # p = x^2 solves -div(grad p) = -2 with g = p on the boundary
        mesh = self.mesh
        space = asm.DGSpace.bulk(mesh, 2)
        p = lambda x: x[:, 0]**2
        q = lambda x: np.full(len(x), -2.0)
        sys_ = asm.assemble_full(mesh, space, self.perm, q, p, 10.0)
        x = asm.interpolate_bulk(mesh, space, p)
        assert np.abs(sys_.matrix @ x - sys_.rhs).max() < 1e-10

    def test_penalty_affine_in_mu0(self):
        a1 = self.assemble(mu0=10.0).matrix
        a2 = self.assemble(mu0=20.0).matrix
        a3 = self.assemble(mu0=30.0).matrix
        diff = ((a3 - a2) - (a2 - a1)).toarray()
        assert np.abs(diff).max() < 1e-10

    def test_solve_reproduces_linear_field(self):
        sys_ = self.assemble()
        x = spla.spsolve(sys_.matrix.tocsc(), sys_.rhs)
        ref = asm.interpolate_bulk(self.mesh, self.space, g_linear)
        assert np.abs(x - ref).max() < 1e-10

    def test_rejects_reduced_mesh(self):
        profile, mesh, _, bs, _ = const_setup()
        with pytest.raises(ValueError):
            asm.assemble_full(mesh, bs, self.perm, None, g_linear, 10.0)

    def test_affine_patch(self):
        # an affine field is reproduced exactly at every degree
        g = lambda x: 0.3 - 1.2 * x[:, 0] + 0.7 * x[:, 1]
        rng = np.random.default_rng(7)
        lam = rng.dirichlet(np.ones(3), size=5)
        elems = np.arange(self.mesh.n_elements)
        pts = lam @ self.mesh.vertices[self.mesh.elements]
        for degree in range(1, asm.MAX_DEGREE + 1):
            space = asm.DGSpace.bulk(self.mesh, degree)
            sys_ = asm.assemble_full(self.mesh, space,
                                     iso_perm(k_f=np.eye(2)), None, g, 10.0)
            assert sys_.symmetry_defect() < 1e-12
            x = spla.spsolve(sys_.matrix.tocsc(), sys_.rhs)
            # compare pressures, not monomial coefficients: those of
            # degree 4 on the thin slab elements are ill-conditioned
            phi = asm._basis_at(self.mesh.maps, space, elems, pts)
            got = np.einsum("epi,ei->ep", phi, x[space.dofs(elems)])
            assert np.abs(got - g(pts.reshape(-1, 2)).reshape(got.shape)
                          ).max() < 1e-10, degree


# ---------------------------------------------------------------------------
# stored entries and assembly memory


def buffer_entries(array):
    """Entries of the buffer ``array`` is stored in (a view's base)."""
    return (array if array.base is None else array.base).size


def csr_bytes(matrix):
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes


class TestOneTripletPerEntry:
    """The bulk form writes each element-pair block once, and every
    assembled CSR keeps its stored entries in buffers of their size."""

    @pytest.mark.parametrize("degree", [1, 3])
    def test_bulk_form_gives_one_triplet_per_entry(self, degree):
        profile = ApertureProfile.sinusoidal(0.1)
        mesh = build_bulk_mesh(DOMAIN, profile, "full", 0.25)
        space = asm.DGSpace.bulk(mesh, degree)
        classes = (INTERIOR, GAMMA_1, GAMMA_2)
        matrix, _ = asm._bulk_sipg(mesh, space, iso_perm(k_f=np.eye(2)),
                                   None, g_linear, 10.0, classes,
                                   space.n_dofs)
        # written in place: canonical, with buffers of nnz entries
        assert matrix.has_canonical_format
        for array in (matrix.data, matrix.indices):
            assert buffer_entries(array) == matrix.nnz
        # its own block for every element, two for every interior facet
        interior = np.count_nonzero(mesh.facet_elements[:, 1] >= 0)
        assert matrix.nnz == (mesh.n_elements + 2 * interior) \
            * space.dim ** 2

    @pytest.mark.parametrize("degree", [1, 3])
    def test_full_system_buffers_hold_nnz(self, degree):
        preset = models.preset_by_name("perp-asym")
        matrix = models.prepare_full(preset, 1 / 8, degree)[-1].matrix
        assert matrix.has_canonical_format
        for array in (matrix.data, matrix.indices):
            assert buffer_entries(array) == matrix.nnz

    @pytest.mark.parametrize("mode, variant", [("curved-reduced", "I"),
                                               ("rectified", "I-R")])
    def test_reduced_system_buffers_hold_nnz(self, mode, variant):
        # the interface forms add to stored entries, and so does the
        # transport form of the variant
        problem = models.ReducedProblem.build(
            models.preset_by_name("perp-asym"), mode, 1 / 8, 2)
        for matrix in (problem.system.matrix,
                       problem.system_of(variant).matrix):
            assert matrix.has_canonical_format
            for array in (matrix.data, matrix.indices):
                assert buffer_entries(array) == matrix.nnz

    def test_assembly_peak_memory(self):
        # the degree-3 converge problem at h = 1/16; the triplets and the
        # CSR built from them take 28 bytes per entry against the CSR's 12
        preset = models.preset_by_name("manufactured")
        mesh = models.full_mesh(preset, 1 / 16)
        space = asm.DGSpace.bulk(mesh, 3)
        perm = preset.permeability()
        mesh.maps, mesh.element_h  # cached on the mesh, not assembly's
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            system = asm.assemble_full(mesh, space, perm, preset.q, preset.g,
                                       10.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * csr_bytes(system.matrix)


def traced_peak(fn):
    """Peak of the arrays ``fn()`` allocates on top of what it started
    with, in bytes, and its result."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """The full assembly writes its CSR in place and the symmetry check
    reads it in place, each with transients of bounded size: on the
    degree-3 converge problem at h = 1/16, the traced peaks were 2.6x
    and 3.2x the CSR's bytes when both went through whole-matrix
    copies."""

    def setup_method(self):
        self.preset = models.preset_by_name("manufactured")
        self.mesh = models.full_mesh(self.preset, 1 / 16)
        self.mesh.maps, self.mesh.element_h  # cached on the mesh

    def assemble(self):
        return asm.assemble_full(self.mesh, asm.DGSpace.bulk(self.mesh, 3),
                                 self.preset.permeability(), self.preset.q,
                                 self.preset.g, 10.0)

    def test_full_assembly_peak(self):
        peak, system = traced_peak(self.assemble)
        assert peak <= 2.0 * csr_bytes(system.matrix)

    def test_symmetry_check_peak(self):
        system = self.assemble()
        peak, defect = traced_peak(system.symmetry_defect)
        assert defect < 1e-12
        assert peak <= 1.0 * csr_bytes(system.matrix)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_estimate_bounds_both_assembly_paths(self, degree):
        # the CLI's size preflight refuses a mesh by this estimate
        mesh = models.full_mesh(self.preset, 1 / 32)
        mesh.maps, mesh.element_h  # cached on the mesh
        space = asm.DGSpace.bulk(mesh, degree)
        peak, _ = traced_peak(lambda: asm.assemble_full(
            mesh, space, self.preset.permeability(), self.preset.q,
            self.preset.g, 10.0))
        assert peak <= asm.bulk_assembly_bytes(mesh.n_elements, degree)
        peak, problem = traced_peak(lambda: models.ReducedProblem.build(
            models.preset_by_name("perp-asym"), "curved-reduced", 1 / 32,
            degree))
        assert peak <= asm.bulk_assembly_bytes(problem.mesh.n_elements,
                                               degree)

    @pytest.mark.parametrize("mode", ["full", "curved-reduced"])
    def test_small_batches_match_looped_reference(self, mode, monkeypatch):
        # one facet, element or row per batch
        monkeypatch.setattr(asm, "_CHUNK_ENTRIES", 1)
        profile = ApertureProfile.sinusoidal(0.1)
        mesh = build_bulk_mesh(DOMAIN, profile, mode, 0.25)
        space = asm.DGSpace.bulk(mesh, 2)
        perm = iso_perm(k_f=np.eye(2))
        q = lambda x: np.sin(3.0 * x[:, 0]) + x[:, 1]
        classes = (INTERIOR, GAMMA_1, GAMMA_2) if mode == "full" \
            else (INTERIOR,)
        got, got_rhs = asm._bulk_sipg(mesh, space, perm, q, g_linear, 10.0,
                                      classes, space.n_dofs + 5)
        mat, rhs = looped_bulk_sipg(mesh, space, perm, q, g_linear, 10.0,
                                    classes)
        n = space.n_dofs
        assert got.shape == (n + 5, n + 5) and got.has_canonical_format
        assert got[n:].nnz == 0 and not got_rhs[n:].any()
        got = got[:n, :n].toarray()
        assert np.abs(got - mat).max() <= 1e-13 * np.abs(mat).max()
        assert np.abs(got_rhs[:n] - rhs).max() <= 1e-13 * np.abs(rhs).max()
        system = asm.SparseSystem(matrix=sp.csr_matrix(got), rhs=rhs,
                                  n_bulk=n, n_iface=0)
        assert system.symmetry_defect() == dense_defect(system.matrix)


def coo_sum(a, b):
    """``a + b`` through their concatenated COO triplets, which keeps
    every entry either stores, zeros included."""
    a, b = a.tocoo(), b.tocoo()
    return sp.coo_matrix((np.concatenate([a.data, b.data]),
                          (np.concatenate([a.row, b.row]),
                           np.concatenate([a.col, b.col]))),
                         shape=a.shape).tocsr()


def assert_same_bits(got, want):
    assert got.has_canonical_format
    for name in ("indptr", "indices"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    # the sign of every zero included
    np.testing.assert_array_equal(got.data.view(np.uint64),
                                  want.data.view(np.uint64))


@st.composite
def summands(draw):
    """Two CSR matrices of one shape with stored zeros, exact
    cancellations (b = -a on some shared entries), entries of b outside
    a's pattern, empty rows and, now and then, an empty b."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))

    def cells(elements):
        return np.array(draw(st.lists(elements, min_size=n * m,
                                      max_size=n * m))).reshape(n, m)

    value = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 1e300]) \
        | st.floats(-1e3, 1e3)
    in_a, in_b = cells(st.booleans()), cells(st.booleans())
    empty = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    in_a[empty] = in_b[empty] = False
    if draw(st.booleans()):
        in_b[:] = False
    va = cells(value)
    vb = np.where(cells(st.booleans()), -va, cells(value))

    def csr(stored, values):
        matrix = sp.csr_matrix((values[stored], np.nonzero(stored)),
                               shape=(n, m))
        assert matrix.nnz == stored.sum()  # stored zeros kept
        return matrix

    return csr(in_a, va), csr(in_b, vb)


class TestCsrSum:
    """One sum serves the shared reduced system and ``plus``: both keep
    every entry either side stores, as the COO sum does, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(pair=summands())
    def test_matches_coo_sum(self, pair):
        a, b = pair
        assert_same_bits(asm._csr_sum(a, b), coo_sum(a, b))
        assert_same_bits(asm._csr_sum(b, a), coo_sum(a, b))

    @pytest.mark.parametrize("mode", ["curved-reduced", "rectified"])
    def test_shared_system_sums_its_forms(self, mode):
        _, mesh, grid, bs, ifs = wavy_setup(h=0.125, degree=3)
        perm = iso_perm()
        system = asm.assemble_reduced(mesh, grid, bs, ifs, perm, None, None,
                                      g_linear, pgamma_half, 10.0, 10.0)
        bulk, _ = asm._bulk_sipg(mesh, bs, perm, None, g_linear, 10.0,
                                 (INTERIOR,), system.n_dofs)
        forms, _ = asm._interface_forms(mesh, grid, bs, ifs, perm, None,
                                        pgamma_half, 10.0, "consistent")
        assert_same_bits(system.matrix, coo_sum(bulk, forms))
        transport = asm.transport_form(mesh, grid, bs, ifs, perm)
        assert_same_bits(system.plus(transport).matrix,
                         coo_sum(system.matrix, transport))

    def test_plus_peak_memory(self):
        # the transport form is added on the union pattern; the COO
        # round trip peaked at 2.36x the result's CSR
        problem = models.ReducedProblem.build(
            models.preset_by_name("perp-asym"), "curved-reduced", 1 / 16, 3)
        transport = asm.transport_form(problem.mesh, problem.grid,
                                       problem.bulk_space,
                                       problem.iface_space, problem.perm)
        peak, system = traced_peak(lambda: problem.system.plus(transport))
        assert peak <= 1.5 * csr_bytes(system.matrix)


def dense_defect(matrix):
    a = matrix.toarray()
    return np.abs(a - a.T).max() / np.abs(a).max()


class TestSymmetryDefect:
    """``symmetry_defect`` reads every entry's transpose in place; it
    must give the dense ``max|A - A^T| / max|A|`` exactly."""

    def full(self):
        profile = ApertureProfile.sinusoidal(0.1)
        mesh = build_bulk_mesh(DOMAIN, profile, "full", 0.25)
        return asm.assemble_full(mesh, asm.DGSpace.bulk(mesh, 2),
                                 iso_perm(k_f=np.eye(2)), None, g_linear,
                                 10.0)

    def test_full_system(self):
        system = self.full()
        assert system.symmetry_defect() == dense_defect(system.matrix)

    def test_reduced_transport_system(self):
        # 3-dof triangles and 2-dof segments; the transport form makes
        # the matrix nonsymmetric
        _, mesh, grid, bs, ifs = wavy_setup()
        system = variant_system("I", mesh, grid, bs, ifs, iso_perm(), None,
                                None, g_linear, pgamma_half, 10.0, 10.0)
        assert set(np.diff(np.append(system.block_offsets,
                                     system.n_dofs))) == {2, 3}
        defect = system.symmetry_defect()
        assert defect > 1e-8
        assert defect == dense_defect(system.matrix)

    @pytest.mark.parametrize("seed", range(4))
    def test_raw_system(self, seed):
        # random patterns: most transposes stored, some not, some runs of
        # consecutive columns whose rows do not share their columns
        rng = np.random.default_rng(seed)
        n = 30
        a = np.where(rng.random((n, n)) < 0.3, rng.standard_normal((n, n)),
                     0.0)
        a += np.where(rng.random((n, n)) < 0.8, a.T, 0.0)
        system = asm.SparseSystem(matrix=sp.csr_matrix(a), rhs=np.zeros(n),
                                  n_bulk=n, n_iface=0)
        assert system.block_offsets is None
        assert system.symmetry_defect() == dense_defect(system.matrix)

    def test_non_canonical_matrix(self):
        # every entry stored as two halves in reversed column order; the
        # halves are dyadic, so their sum is exact in any order
        a = self.full().matrix.toarray()
        a = np.round(a * 64.0) / 64.0
        a[0, 1] += 0.5
        rows, cols = np.nonzero(a)
        order = np.lexsort((-cols, rows))
        rows, cols = np.repeat(rows[order], 2), np.repeat(cols[order], 2)
        vals = np.repeat(a[np.nonzero(a)][order] / 2.0, 2)
        matrix = sp.csr_matrix((vals, cols, np.searchsorted(
            rows, np.arange(len(a) + 1))), shape=a.shape)
        assert not matrix.has_canonical_format
        system = asm.SparseSystem(matrix=matrix, rhs=np.zeros(len(a)),
                                  n_bulk=len(a), n_iface=0)
        defect = system.symmetry_defect()
        assert defect == np.abs(a - a.T).max() / np.abs(a).max()
        assert defect >= 0.5 / np.abs(a).max()
        # the matrix handed in is left as it was
        assert not matrix.has_canonical_format

    def test_one_entry_perturbed(self):
        system = self.full()
        matrix = system.matrix
        rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
        pos = np.flatnonzero(matrix.indices != rows)[len(rows) // 3]
        matrix.data[pos] += 1e-3
        defect = system.symmetry_defect()
        assert defect == dense_defect(matrix)
        assert 0.9e-3 < defect * abs(matrix).max() < 1.1e-3

    def test_entry_without_stored_transpose(self):
        system = self.full()
        n = system.n_dofs
        assert system.matrix[0, n - 1] == 0.0
        assert system.matrix[n - 1, 0] == 0.0
        system = system.plus(sp.csr_matrix(([0.25], ([n - 1], [0])),
                                           shape=(n, n)))
        assert system.matrix.nnz == self.full().matrix.nnz + 1
        defect = system.symmetry_defect()
        assert defect == dense_defect(system.matrix)
        assert defect == 0.25 / abs(system.matrix).max()


# ---------------------------------------------------------------------------
# reduced assembly


class TestReducedAssembly:
    def test_block_sizes(self):
        _, mesh, grid, bs, ifs = const_setup()
        sys_ = asm.assemble_reduced(mesh, grid, bs, ifs, iso_perm(), None,
                                    None, g_linear, pgamma_half, 10.0, 10.0)
        n = bs.n_dofs + ifs.n_dofs
        assert sys_.matrix.shape == (n, n)
        assert sys_.n_bulk == bs.n_dofs and sys_.n_iface == ifs.n_dofs

    def test_linear_field_is_discrete_solution_all_variants(self):
        # with matching boundary data, unit permeabilities and a constant
        # aperture, the piecewise-linear pressure and the midline trace
        # satisfy the assembled equations of every variant
        _, mesh, grid, bs, ifs = const_setup()
        x = exact_state(mesh, grid, bs, ifs)
        for variant in models.MODEL_NAMES:
            sys_ = variant_system(variant, mesh, grid, bs, ifs, iso_perm(),
                                  None, None, g_linear, pgamma_half,
                                  10.0, 10.0)
            res = np.abs(sys_.matrix @ x - sys_.rhs).max()
            assert res < 1e-10, (variant, res)

    def test_printed_edge_terms_lose_consistency(self):
        _, mesh, grid, bs, ifs = const_setup()
        x = exact_state(mesh, grid, bs, ifs)
        sys_ = asm.assemble_reduced(mesh, grid, bs, ifs, iso_perm(), None,
                                    None, g_linear, pgamma_half, 10.0, 10.0,
                                    edge_terms="printed")
        assert np.abs(sys_.matrix @ x - sys_.rhs).max() > 1e-3

    def test_constant_aperture_variants_coincide(self):
        _, mesh, grid, bs, ifs = const_setup()
        perm = PermeabilityData.from_fracture(np.eye(2), np.eye(2),
                                              2.0 * np.eye(2),
                                              2.0 / 3.0)
        systems = [variant_system(v, mesh, grid, bs, ifs, perm, None, None,
                                  g_linear, pgamma_half, 10.0, 10.0)
                   for v in models.MODEL_NAMES]
        a0 = systems[0].matrix
        for s in systems[1:]:
            d = (s.matrix - a0).tocoo()
            assert (np.abs(d.data).max() if d.nnz else 0.0) <= 1e-12
            np.testing.assert_allclose(s.rhs, systems[0].rhs, atol=1e-12)

    def test_transport_terms_only_in_interface_rows(self):
        _, mesh, grid, bs, ifs = wavy_setup()
        perm = iso_perm()
        args = (mesh, grid, bs, ifs, perm, None, None, g_linear,
                pgamma_half, 10.0, 10.0)
        s1 = variant_system("I", *args)
        s2 = variant_system("II", *args)
        nb = bs.n_dofs
        diff = (s1.matrix - s2.matrix).toarray()
        assert np.abs(diff[:nb, :]).max() < 1e-14
        assert np.abs(diff[nb:, nb:]).max() < 1e-14
        assert np.abs(diff[nb:, :nb]).max() > 1e-6
        np.testing.assert_allclose(s1.rhs, s2.rhs, atol=1e-14)

    def test_symmetry_by_variant(self):
        _, mesh, grid, bs, ifs = wavy_setup()
        args = (mesh, grid, bs, ifs, iso_perm(), None, None, g_linear,
                pgamma_half, 10.0, 10.0)
        assert variant_system("II", *args).symmetry_defect() < 1e-12
        assert variant_system("I", *args).symmetry_defect() > 1e-8

    def test_coupling_scales_linearly_in_transversal_permeability(self):
        _, mesh, grid, bs, ifs = const_setup()
        mats = []
        for kperp in (1.0, 2.0, 3.0):
            perm = iso_perm(kperp=kperp)
            mats.append(asm.assemble_reduced(mesh, grid, bs, ifs, perm, None,
                                             None, g_linear, pgamma_half,
                                             10.0, 10.0).matrix)
        d21 = (mats[1] - mats[0]).toarray()
        d32 = (mats[2] - mats[1]).toarray()
        np.testing.assert_allclose(d32, d21, atol=1e-10)
        # increment is itself a symmetric coupling block
        assert np.abs(d21 - d21.T).max() < 1e-12

    def test_coupling_closure_diagonal_entry(self):
        # beta = 4 kperp / ((2 xi - 1) d): the increment per unit kperp is
        # 4/((1/3)*0.1) = 120, integrated over one element of length 0.25
        _, mesh, grid, bs, ifs = const_setup()
        a1 = asm.assemble_reduced(mesh, grid, bs, ifs, iso_perm(1.0), None,
                                  None, g_linear, pgamma_half, 10.0,
                                  10.0).matrix
        a2 = asm.assemble_reduced(mesh, grid, bs, ifs, iso_perm(2.0), None,
                                  None, g_linear, pgamma_half, 10.0,
                                  10.0).matrix
        off = bs.n_dofs
        # only the closure term reaches pure interface entries
        got = (a2 - a1)[off, off]
        assert got == pytest.approx(120.0 * 0.25, rel=1e-12)

    def test_gamma_data_enters_rhs_only(self):
        _, mesh, grid, bs, ifs = const_setup()
        args = (mesh, grid, bs, ifs, iso_perm(), None, None, g_linear)
        s1 = asm.assemble_reduced(*args, pgamma_half, 10.0, 10.0)
        s2 = asm.assemble_reduced(*args, lambda t: 1.0 + 0.0 * t, 10.0, 10.0)
        d = (s1.matrix - s2.matrix).tocoo()
        assert (np.abs(d.data).max() if d.nnz else 0.0) < 1e-14
        assert np.abs(s1.rhs - s2.rhs).max() > 1e-6

    def test_rejects_full_mesh(self):
        profile = ApertureProfile.constant(0.05, 0.05)
        fmesh = build_bulk_mesh(DOMAIN, profile, "full", 0.25)
        _, cmesh, grid, _, ifs = const_setup()
        bs = asm.DGSpace.bulk(fmesh, 1)
        with pytest.raises(ValueError, match="full"):
            asm.assemble_reduced(fmesh, grid, bs, ifs, iso_perm(), None,
                                 None, g_linear, pgamma_half, 10.0, 10.0)

    def test_rejects_unknown_edge_terms(self):
        _, mesh, grid, bs, ifs = const_setup()
        with pytest.raises(ValueError, match="edge_terms"):
            asm.assemble_reduced(mesh, grid, bs, ifs, iso_perm(), None,
                                 None, g_linear, pgamma_half, 10.0, 10.0,
                                 edge_terms="upwind")
        with pytest.raises(ValueError, match="edge_terms"):
            asm.transport_form(mesh, grid, bs, ifs, iso_perm(),
                               edge_terms="upwind")

    def test_reduced_solve_recovers_linear_field(self):
        _, mesh, grid, bs, ifs = const_setup(h=0.25)
        sys_ = variant_system("I", mesh, grid, bs, ifs, iso_perm(), None,
                              None, g_linear, pgamma_half, 10.0, 10.0)
        x = spla.spsolve(sys_.matrix.tocsc(), sys_.rhs)
        ref = exact_state(mesh, grid, bs, ifs)
        assert np.abs(x - ref).max() < 1e-9
