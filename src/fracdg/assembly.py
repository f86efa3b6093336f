"""Interior-penalty DG assembly for the bulk and interface problems.

Bases are monomials on the reference simplex mapped affinely to each
element; quadrature is Gauss-Legendre (segments) and a conical product of
Gauss-Legendre with Gauss-Jacobi (triangles), with enough points to
integrate products of two basis gradients exactly.

Every space has one polynomial degree on all of its elements; the bulk
and the interface space may differ.  The bulk SIPG form is assembled in
three batches, the volume terms of all elements, the boundary facets and
the interior flux facets, each batch one ``einsum`` over
reference-element tables and one block of COO triplets.  Data functions
are called once per batch on all of its quadrature points.

Three coupled bilinear forms make up the system every reduced variant on
a mesh shares (:func:`assemble_reduced`, with the whole rhs):

* the bulk SIPG form on the two matrix blocks (wall facets carry no bulk
  facet terms in reduced modes; the coupling form replaces them),
* the interface form for the tangential flow of ``d * p_gamma`` along the
  fracture midsurface,
* the coupling form tying the wall traces to the interface pressure.

The variants that keep aperture-gradient transport (``I``, ``I-R``) add
the wall-slope transport form, the tangential flux fed by the bulk wall
traces, which :func:`transport_form` returns as a separate matrix with no
rhs.

The interface-side terms are written as sparse products: every term is
``B^T diag(w) C``, where B and C are (points x dofs) evaluation matrices
of the interface basis, its tangential derivative or one of the two wall
traces, and ``w`` holds quadrature weights times coefficients.  Volume
terms take their points at the Gauss points of every interface element,
edge terms at the left and right limits of every edge, which a sparse
(edges x limits) matrix sums into jumps and means.  Interior and
boundary edges share one expression, a missing side counting as zero.
Wall traces are evaluated where the mesh mode dictates: on the walls
themselves for curved meshes (polynomial extension of the wall element at
the analytic wall points) and on the midsurface for rectified meshes.

The interface Nitsche edge terms exist in two flavours (``edge_terms``):
``"consistent"`` (default) symmetrizes the boundary-edge terms so that the
exact solution annihilates the residual; ``"printed"`` keeps a
sign-flipped symmetrizing term and drops the permeability factor from the
transport edge term, reproducing a formulation found in the literature
that is inconsistent at inflow/outflow edges of the interface.  The flag
exists for sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .geometry import ApertureProfile, PermeabilityData
from .mesh import (
    BOUNDARY,
    FRACTURE,
    GAMMA_1,
    GAMMA_2,
    INTERIOR,
    MESH_MODES,
    ElementMaps,
    InterfaceGrid,
    Mesh,
)

__all__ = [
    "DGSpace", "SparseSystem",
    "triangle_rule", "segment_rule",
    "tri_basis", "tri_basis_grad", "seg_basis", "seg_basis_deriv",
    "penalty_bulk",
    "interpolate_bulk", "interpolate_interface",
    "assemble_full", "assemble_reduced", "transport_form",
]

MAX_DEGREE = 4
EDGE_TERMS = ("consistent", "printed")
REDUCED_MESH_MODES = tuple(mode for mode in MESH_MODES if mode != "full")


# ---------------------------------------------------------------------------
# quadrature

@lru_cache(maxsize=None)
def segment_rule(n: int):
    """Gauss-Legendre rule with n points on [0, 1] (exact to degree 2n-1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _gauss_jacobi(n: int):
    """Gauss-Jacobi rule with n points on [-1, 1] for the weight (1 - x),
    from the eigenpairs of the Jacobi matrix (Golub-Welsch): the nodes
    are its eigenvalues, the weights 2 v_0^2 for unit eigenvectors v."""
    k = np.arange(n)
    diag = -1.0 / ((2 * k + 1) * (2 * k + 3))
    k = k[1:]
    off = np.sqrt(k * (k + 1.0)) / (2 * k + 1)
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, 2.0 * v[0] ** 2


@lru_cache(maxsize=None)
def triangle_rule(n: int):
    """Conical-product rule with n^2 points on the reference triangle
    {(x, y): x, y >= 0, x + y <= 1}, exact for total degree 2n-1."""
    u, wu = segment_rule(n)
    yj, wj = _gauss_jacobi(n)
    y = 0.5 * (yj + 1.0)
    wy = 0.25 * wj
    pts = np.empty((n * n, 2))
    w = np.empty(n * n)
    idx = 0
    for j in range(n):
        for i in range(n):
            pts[idx, 0] = u[i] * (1.0 - y[j])
            pts[idx, 1] = y[j]
            w[idx] = wu[i] * wy[j]
            idx += 1
    return pts, w


# ---------------------------------------------------------------------------
# reference bases (monomials)

@lru_cache(maxsize=None)
def tri_exponents(k: int) -> tuple:
    """Monomial exponents (a, b), total degree ascending."""
    return tuple((a, d - a) for d in range(k + 1) for a in range(d, -1, -1))


def tri_dim(k: int) -> int:
    return (k + 1) * (k + 2) // 2


def tri_basis(k: int, pts: np.ndarray) -> np.ndarray:
    """Monomial values at reference points; shape (npts, ndof)."""
    pts = np.atleast_2d(pts)
    exps = tri_exponents(k)
    out = np.empty((len(pts), len(exps)))
    for i, (a, b) in enumerate(exps):
        out[:, i] = pts[:, 0] ** a * pts[:, 1] ** b
    return out


def tri_basis_grad(k: int, pts: np.ndarray) -> np.ndarray:
    """Reference gradients of the monomials; shape (npts, ndof, 2)."""
    pts = np.atleast_2d(pts)
    exps = tri_exponents(k)
    out = np.zeros((len(pts), len(exps), 2))
    for i, (a, b) in enumerate(exps):
        if a > 0:
            out[:, i, 0] = a * pts[:, 0] ** (a - 1) * pts[:, 1] ** b
        if b > 0:
            out[:, i, 1] = b * pts[:, 0] ** a * pts[:, 1] ** (b - 1)
    return out


def seg_basis(k: int, t: np.ndarray) -> np.ndarray:
    t = np.atleast_1d(t)
    return np.vander(t, k + 1, increasing=True)


def seg_basis_deriv(k: int, t: np.ndarray) -> np.ndarray:
    t = np.atleast_1d(t)
    out = np.zeros((len(t), k + 1))
    for a in range(1, k + 1):
        out[:, a] = a * t ** (a - 1)
    return out


# ---------------------------------------------------------------------------
# spaces

@dataclass(frozen=True)
class DGSpace:
    """Broken polynomial space of one degree on every element.

    ``kind`` is "bulk" (triangles) or "interface" (segments).  Every
    element holds ``dim`` contiguous dofs, starting at its entry of
    ``offsets``.  Bulk dofs are grouped by subdomain (side 1, side 2,
    fracture slab) in deterministic element order, so system matrices are
    reproducible.
    """

    kind: str
    degree: int
    offsets: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.degree, (int, np.integer)) \
                or not 1 <= self.degree <= MAX_DEGREE:
            raise ValueError(f"the degree must be one integer in "
                             f"[1, {MAX_DEGREE}]")

    @property
    def dim(self) -> int:
        """Number of dofs on each element."""
        return tri_dim(self.degree) if self.kind == "bulk" else self.degree + 1

    @property
    def n_dofs(self) -> int:
        return self.dim * len(self.offsets)

    def dofs(self, elems) -> np.ndarray:
        """Dofs of ``elems``, shape ``np.shape(elems) + (dim,)``."""
        return self.offsets[elems][..., None] + np.arange(self.dim)

    @classmethod
    def _ranked(cls, kind: str, degree: int, rank: np.ndarray) -> "DGSpace":
        """The space whose element e holds the rank[e]-th block of dofs."""
        space = cls(kind, degree, rank)
        return replace(space, offsets=space.dim * rank)

    @classmethod
    def bulk(cls, mesh: Mesh, degree: int) -> "DGSpace":
        group = np.argsort(np.where(mesh.subdomain == FRACTURE, 3,
                                    mesh.subdomain), kind="stable")
        rank = np.empty(mesh.n_elements, dtype=np.int64)
        rank[group] = np.arange(mesh.n_elements)
        return cls._ranked("bulk", degree, rank)

    @classmethod
    def interface(cls, grid: InterfaceGrid, degree: int) -> "DGSpace":
        return cls._ranked("interface", degree,
                           np.arange(grid.n_elements, dtype=np.int64))


def _data_at(f, x: np.ndarray) -> np.ndarray:
    """A data function of (m, 2) points, called once on all of ``x``
    (shape (..., 2)); returns values of shape ``x.shape[:-1]``."""
    pts = x.reshape(-1, 2)
    vals = np.broadcast_to(np.asarray(f(pts), dtype=float), (len(pts),))
    return vals.reshape(x.shape[:-1])


def _data_on_t(f, t: np.ndarray) -> np.ndarray:
    """An interface data function, called once on all of ``t``; returns
    values of the shape of ``t`` (a datum may return one value)."""
    vals = np.asarray(f(t.ravel()), dtype=float)
    return np.broadcast_to(vals, (t.size,)).reshape(t.shape)


def _basis_at(mesh_maps: ElementMaps, space: DGSpace, elems,
              x_phys: np.ndarray, grad: bool = False):
    """Element bases (and physical gradients) at physical points.

    ``elems`` is one element with points of shape (m, 2), or an array of
    N elements with points of shape (N, m, 2) on each.  Values have shape
    (..., m, dim), gradients (..., m, dim, 2).
    """
    k = space.degree
    jac_inv = mesh_maps.jac_inv[elems]
    ref = (x_phys - mesh_maps.v0[elems, None]) @ np.swapaxes(jac_inv, -1, -2)
    flat = ref.reshape(-1, 2)
    vals = tri_basis(k, flat).reshape(ref.shape[:-1] + (space.dim,))
    if not grad:
        return vals
    g_ref = tri_basis_grad(k, flat).reshape(vals.shape + (2,))
    return vals, g_ref @ jac_inv[..., None, :, :]


# ---------------------------------------------------------------------------
# penalty

def penalty_bulk(k: int, h_values, mu0: float, dim: int = 2):
    """Facet penalty of degree k, mu0 * (k+1)(k+dim) / min h.  The
    minimum runs over the last axis of ``h_values``, which holds the sizes
    of the elements adjacent to a facet: one for boundary facets and two
    for interior ones."""
    h_values = np.atleast_1d(np.asarray(h_values, dtype=float))
    if h_values.shape[-1] not in (1, 2):
        raise ValueError("need one or two element sizes")
    if mu0 <= 0.0:
        raise ValueError("mu0 must be positive")
    if np.any(h_values <= 0.0):
        raise ValueError("nonpositive element size")
    return mu0 * np.max((k + 1) * (k + dim) / h_values, axis=-1)


# ---------------------------------------------------------------------------
# interpolation (local L2 projection; exact for polynomials of degree <= k)

def interpolate_bulk(mesh: Mesh, space: DGSpace, f) -> np.ndarray:
    maps, elems = mesh.maps, np.arange(mesh.n_elements)
    k = space.degree
    pts, w = triangle_rule(k + 2)
    phi = tri_basis(k, pts)
    wq = w * maps.det[:, None]
    mass = np.einsum("qi,qj,eq->eij", phi, phi, wq)
    rhs = np.einsum("qi,eq->ei",
                    phi, _data_at(f, maps.points(elems, pts)) * wq)
    coeffs = np.zeros(space.n_dofs)
    coeffs[space.dofs(elems)] = np.linalg.solve(mass, rhs[..., None])[..., 0]
    return coeffs


def interpolate_interface(grid: InterfaceGrid, space: DGSpace, f) -> np.ndarray:
    k = space.degree
    tq, w = segment_rule(k + 2)
    psi = seg_basis(k, tq)
    t0 = grid.t_breaks[:-1, None]
    length = grid.t_breaks[1:, None] - t0
    wq = w * length
    vals = _data_on_t(f, t0 + tq * length)
    # stacked matmuls reproduce a per-element loop bit for bit; an
    # einsum moves degree-4 monomial coefficients by ~1e-11
    mass = psi.T @ (psi * wq[..., None])
    rhs = psi.T @ (vals * wq)[..., None]
    # interface dofs run in element order
    return np.linalg.solve(mass, rhs)[..., 0].ravel()


# ---------------------------------------------------------------------------
# sparse system container

@dataclass
class SparseSystem:
    """Assembled linear system, blocked as [bulk dofs | interface dofs].

    ``block_offsets`` holds the first dof of every element block in
    ascending order (bulk triangles, then interface segments); each
    element's dofs are contiguous.  None means no element structure.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    n_bulk: int
    n_iface: int
    block_offsets: np.ndarray | None = None

    @property
    def n_dofs(self) -> int:
        return self.matrix.shape[0]

    def symmetry_defect(self) -> float:
        """max |A - A^T| / max |A|."""
        d = self.matrix - self.matrix.T
        denom = np.abs(self.matrix.data).max() if self.matrix.nnz else 1.0
        num = np.abs(d.data).max() if d.nnz else 0.0
        return float(num / denom)

    def plus(self, matrix: sp.spmatrix) -> "SparseSystem":
        """This system with ``matrix`` added to its matrix.  Every entry
        stored here stays stored, also where the sum is 0 (a sparse sum
        would drop it), so the sparsity pattern, and with it the LU
        ordering, is the one assembling both at once gives."""
        acc = _Accumulator(self.n_dofs)
        acc.add_matrix(self.matrix)
        acc.add_matrix(matrix)
        return replace(self, matrix=acc.matrix())


class _Accumulator:
    """COO triplet accumulator with a dense rhs."""

    def __init__(self, n: int):
        self.rows: list[np.ndarray] = []
        self.cols: list[np.ndarray] = []
        self.vals: list[np.ndarray] = []
        self.rhs = np.zeros(n)
        self.n = n
        # 32-bit indices halve the triplet memory; scipy keeps them as is
        self.index_dtype = np.int32 if n < 2**31 else np.int64

    def add(self, rows, cols, blocks) -> None:
        """Add dense blocks: ``rows`` (..., m), ``cols`` (..., n) and
        ``blocks`` (..., m, n) broadcast against each other."""
        blocks = np.asarray(blocks, dtype=float)
        rows = np.asarray(rows, dtype=self.index_dtype)
        cols = np.asarray(cols, dtype=self.index_dtype)
        self.rows.append(np.broadcast_to(rows[..., :, None],
                                         blocks.shape).ravel())
        self.cols.append(np.broadcast_to(cols[..., None, :],
                                         blocks.shape).ravel())
        self.vals.append(blocks.ravel())

    def add_matrix(self, matrix: sp.spmatrix) -> None:
        """Add a sparse (n, n) matrix."""
        coo = matrix.tocoo()
        self.rows.append(coo.row.astype(self.index_dtype))
        self.cols.append(coo.col.astype(self.index_dtype))
        self.vals.append(coo.data)

    def add_rhs(self, dofs, values) -> None:
        """Add ``values`` at ``dofs`` (same shape; repeats accumulate)."""
        self.rhs += np.bincount(np.ravel(dofs), np.ravel(values),
                                minlength=self.n)

    def matrix(self) -> sp.csr_matrix:
        """The summed CSR matrix.  The call hands over the triplets: the
        accumulator keeps none of them, and each list is freed as soon as
        it is concatenated, so the COO -> CSR step never runs beside a
        second copy of every triplet."""
        if not self.rows:
            return sp.csr_matrix((self.n, self.n))
        rows, self.rows = self.rows, []
        rows = np.concatenate(rows)
        cols, self.cols = self.cols, []
        cols = np.concatenate(cols)
        vals, self.vals = self.vals, []
        vals = np.concatenate(vals)
        return sp.coo_matrix((vals, (rows, cols)), shape=(self.n, self.n)).tocsr()


# ---------------------------------------------------------------------------
# facet and element data

def _facet_geometry(mesh: Mesh):
    """Start and end vertices, lengths and unit normals pointing out of
    the first adjacent element, of all facets."""
    va = mesh.vertices[mesh.facets[:, 0]]
    vb = mesh.vertices[mesh.facets[:, 1]]
    tang = vb - va
    length = np.linalg.norm(tang, axis=1)
    normal = np.column_stack([tang[:, 1], -tang[:, 0]]) / length[:, None]
    centroid = mesh.vertices[
        mesh.elements[mesh.facet_elements[:, 0]]].mean(axis=1)
    outward = np.einsum("fd,fd->f", normal, 0.5 * (va + vb) - centroid)
    normal[outward < 0.0] *= -1.0
    return va, vb, length, normal


def _element_permeability(mesh: Mesh, perm: PermeabilityData) -> np.ndarray:
    """Permeability tensor of every element, shape (n_elements, 2, 2)."""
    tags = np.unique(mesh.subdomain)
    table = np.stack([perm.k_f if tag == FRACTURE else perm.bulk(int(tag))
                      for tag in tags])
    return table[np.searchsorted(tags, mesh.subdomain)]


# ---------------------------------------------------------------------------
# bulk SIPG form

def _bulk_sipg(acc: _Accumulator, mesh: Mesh, space: DGSpace,
               perm: PermeabilityData, q, g, mu0: float,
               flux_classes: tuple[int, ...]) -> None:
    """Volume + facet terms of the symmetric interior penalty form.

    ``flux_classes`` lists the facet classes treated as interior flux
    facets (wall facets belong here for full-dimensional meshes only).
    Exterior-boundary facets always receive Nitsche terms with data ``g``.
    """
    maps = mesh.maps
    h_elem = mesh.element_h
    perm_elem = _element_permeability(mesh, perm)
    k = space.degree
    elems = np.arange(mesh.n_elements)

    pts, w = triangle_rule(k + 2)
    wq = w * maps.det[:, None]
    grad = tri_basis_grad(k, pts) @ maps.jac_inv[:, None]
    kgrad = grad @ np.swapaxes(perm_elem[:, None], -1, -2)
    blocks = np.einsum("eqid,eqjd->eij", grad * wq[..., None, None],
                       kgrad, optimize=True)
    dofs = space.dofs(elems)
    acc.add(dofs, dofs, blocks)
    if q is not None:
        qw = _data_at(q, maps.points(elems, pts)) * wq
        acc.add_rhs(dofs, np.einsum("qi,eq->ei", tri_basis(k, pts), qw))

    va, vb, length, normal = _facet_geometry(mesh)
    e0, e1 = mesh.facet_elements[:, 0], mesh.facet_elements[:, 1]
    tq, w = segment_rule(k + 2)

    def facet_rule(facets):
        x = va[facets, None] + tq[:, None] * (vb - va)[facets, None]
        return x, w * length[facets, None]

    def side(elems, facets, x):
        """Basis values, normal fluxes K grad phi . n and dofs of the
        elements on one side of the facets."""
        phi, gphi = _basis_at(maps, space, elems, x, grad=True)
        kn = np.einsum("fds,fs->fd", perm_elem[elems], normal[facets])
        kdn = np.einsum("fqnd,fd->fqn", gphi, kn)
        return phi, kdn, space.dofs(elems)

    def tmul(a, b):
        """a^T b per facet: (F, q, m), (F, q, n) -> (F, m, n)."""
        return np.swapaxes(a, -1, -2) @ b

    facets = np.flatnonzero(mesh.facet_class == BOUNDARY)
    x, wq = facet_rule(facets)
    mu = penalty_bulk(k, h_elem[e0[facets], None], mu0)
    phi, kdn, dofs = side(e0[facets], facets, x)
    pw = phi * wq[..., None]
    flux = tmul(pw, kdn)
    acc.add(dofs, dofs, mu[:, None, None] * tmul(pw, phi)
            - flux - np.swapaxes(flux, -1, -2))
    gw = _data_at(g, x) * wq
    acc.add_rhs(dofs, np.einsum("fqi,fq->fi",
                                mu[:, None, None] * phi - kdn, gw))

    facets = np.flatnonzero(np.isin(mesh.facet_class, flux_classes)
                            & (e1 >= 0))
    x, wq = facet_rule(facets)
    mu = penalty_bulk(k, np.column_stack([h_elem[e0[facets]],
                                          h_elem[e1[facets]]]), mu0)
    sides = [side(e0[facets], facets, x), side(e1[facets], facets, x)]
    signs = (1.0, -1.0)
    for i, (phi_i, kdn_i, dofs_i) in enumerate(sides):
        pw_i = phi_i * wq[..., None]
        kw_i = kdn_i * wq[..., None]
        for j, (phi_j, kdn_j, dofs_j) in enumerate(sides):
            block = (mu * signs[i] * signs[j])[:, None, None] \
                * tmul(pw_i, phi_j) \
                - 0.5 * signs[i] * tmul(pw_i, kdn_j) \
                - 0.5 * signs[j] * tmul(kw_i, phi_j)
            acc.add(dofs_i, dofs_j, block)


# ---------------------------------------------------------------------------
# interface forms (tangential flow, coupling, wall-slope transport)

def _wall_points(mesh: Mesh, profile: ApertureProfile, t: np.ndarray,
                 side: int) -> np.ndarray:
    """Physical evaluation points of the wall traces at parameters t."""
    gamma0 = mesh.frame.offset
    x = np.empty((len(t), 2))
    x[:, 1] = t
    if mesh.mode == "rectified":
        x[:, 0] = gamma0
    elif side == 1:
        x[:, 0] = gamma0 - np.asarray(profile.d1_fn(t), dtype=float)
    else:
        x[:, 0] = gamma0 + np.asarray(profile.d2_fn(t), dtype=float)
    return x


def _point_matrix(space: DGSpace, elems: np.ndarray, values: np.ndarray,
                  n_cols: int, col_offset: int = 0) -> sp.csr_matrix:
    """Sparse (points x n_cols) evaluation matrix of the basis of
    ``space``, its dofs shifted by ``col_offset``.  Point i lies on element
    ``elems[i]``, where the basis takes the values ``values[i]``, shape
    (len(elems), dim)."""
    return sp.csr_matrix(
        (values.ravel(), (np.repeat(np.arange(len(elems)), space.dim),
                          col_offset + space.dofs(elems).ravel())),
        shape=(len(elems), n_cols))


def _interface_basis(grid: InterfaceGrid, space: DGSpace, elems: np.ndarray,
                     t: np.ndarray, n_cols: int, col_offset: int = 0,
                     derivative: bool = False) -> sp.csr_matrix:
    """Evaluation matrix of the interface basis, or of its t-derivative
    if ``derivative``, at the points t, point i on element ``elems[i]``."""
    t0 = grid.t_breaks[elems]
    length = grid.t_breaks[elems + 1] - t0
    loc = (t - t0) / length
    values = seg_basis_deriv(space.degree, loc) / length[:, None] \
        if derivative else seg_basis(space.degree, loc)
    return _point_matrix(space, elems, values, n_cols, col_offset)


def _wall_trace_matrix(mesh: Mesh, grid: InterfaceGrid, space: DGSpace,
                       profile: ApertureProfile, side: int,
                       elems: np.ndarray, t: np.ndarray,
                       n_cols: int) -> sp.csr_matrix:
    """Evaluation matrix of the bulk trace on wall ``side`` (1 or 2) at
    the points t, point i over interface element ``elems[i]`` and taken
    on that element's wall element."""
    belem = (grid.belem1 if side == 1 else grid.belem2)[elems]
    x = _wall_points(mesh, profile, t, side)
    return _point_matrix(
        space, belem, _basis_at(mesh.maps, space, belem, x[:, None])[:, 0],
        n_cols)


def _gauss(grid: InterfaceGrid, n_pts: int):
    """Element, coordinate and weight of every Gauss point of the
    interface grid, with n_pts points on each element."""
    tq, w = segment_rule(n_pts)
    t0 = grid.t_breaks[:-1, None]
    length = grid.t_breaks[1:, None] - t0
    return (np.repeat(np.arange(grid.n_elements), n_pts),
            (t0 + tq * length).ravel(), (w * length).ravel())


def _coupling_gauss(grid: InterfaceGrid, bulk_space: DGSpace,
                    iface_space: DGSpace):
    """Gauss points of the coupling rule, which integrates the products
    of the interface basis and the wall traces on every element."""
    return _gauss(grid, max(bulk_space.degree, iface_space.degree) + 3)


def _edge_limits(grid: InterfaceGrid):
    """The 2m one-sided limits at the m+1 edges of the interface grid.

    Returns the element and coordinate of every limit, from the left
    (element j-1 at edge j) and from the right (element j at edge j), the
    (edges x limits) matrices ``total`` and ``jump`` that sum them per
    edge, the latter with signs [v] = v_left - v_right, and the number of
    sides of every edge (1 on the two boundary edges).
    """
    m = grid.n_elements
    elems = np.arange(m)
    edge = np.concatenate([elems + 1, elems])

    def per_edge(signs):
        return sp.csr_matrix((signs, (edge, np.arange(2 * m))),
                             shape=(m + 1, 2 * m))

    return (np.concatenate([elems, elems]),
            np.concatenate([grid.t_breaks[1:], grid.t_breaks[:-1]]),
            per_edge(np.ones(2 * m)), per_edge(np.repeat([1.0, -1.0], m)),
            np.bincount(edge))


def _wall_traces(mesh: Mesh, grid: InterfaceGrid, bulk_space: DGSpace,
                 profile: ApertureProfile, elems: np.ndarray, t: np.ndarray,
                 n_cols: int):
    """Evaluation matrices of the bulk traces on walls 1 and 2."""
    return [_wall_trace_matrix(mesh, grid, bulk_space, profile, side, elems,
                               t, n_cols) for side in (1, 2)]


def _aperture(profile: ApertureProfile, t: np.ndarray):
    """d, d', d1' and d2' at t."""
    d1, d2, dd1, dd2 = (_data_on_t(f, t) for f in (
        profile.d1_fn, profile.d2_fn, profile.dd1_fn, profile.dd2_fn))
    return d1 + d2, dd1 + dd2, dd1, dd2


def _tangential_k(grid: InterfaceGrid, perm: PermeabilityData) -> float:
    tau = grid.frame.tangents[0]
    return float(tau @ perm.k_gamma @ tau)


def _form(b, w, c):
    """B^T diag(w) C."""
    return b.T @ (sp.diags(w) @ c)


def _interface_forms(acc: _Accumulator, mesh: Mesh, grid: InterfaceGrid,
                     bulk_space: DGSpace, iface_space: DGSpace,
                     profile: ApertureProfile, perm: PermeabilityData,
                     q_gamma, g_gamma, mu0: float, edge_terms: str) -> None:
    """Tangential-flow and coupling forms on the interface grid.

    Every term is B^T diag(w) C, with B and C sparse (points x dofs)
    evaluation matrices of the interface basis, its t-derivative and the
    two wall traces.  Volume terms take them at the Gauss points of every
    interface element; edge terms at both one-sided limits of the m+1
    edges, summed per edge (a missing side counts as zero) into a jump
    [v] = v_left - v_right and a mean {v} = (v_left + v_right) / sides.
    """
    n, off, m = acc.n, bulk_space.n_dofs, grid.n_elements
    kt = _tangential_k(grid, perm)
    kf = iface_space.degree

    def iface(elems, t):
        return [_interface_basis(grid, iface_space, elems, t, n, off,
                                 derivative) for derivative in (False, True)]

    # tangential flow kt (d p)' phi' and the interface source
    e, t, w = _gauss(grid, kf + 3)
    psi, dpsi = iface(e, t)
    d, dd, _, _ = _aperture(profile, t)
    mat = _form(dpsi, kt * dd * w, psi) + _form(dpsi, kt * d * w, dpsi)
    if q_gamma is not None:
        acc.rhs += psi.T @ (_data_on_t(q_gamma, t) * w)

    # coupling: (kperp / d) [p][phi] with [p] = p2 - p1, and the closure
    # beta (p_gamma - {p})(phi_gamma - {phi})
    e, t, w = _coupling_gauss(grid, bulk_space, iface_space)
    psi = _interface_basis(grid, iface_space, e, t, n, off)
    p1, p2 = _wall_traces(mesh, grid, bulk_space, profile, e, t, n)
    d = _aperture(profile, t)[0]
    closure = psi - 0.5 * (p1 + p2)
    mat += _form(p2 - p1, perm.k_gamma_perp / d * w, p2 - p1) \
        + _form(closure, perm.beta_gamma(d) * w, closure)

    lim_e, lim_t, total, jump, sides = _edge_limits(grid)
    psi, dpsi = iface(lim_e, lim_t)
    jpsi, spsi, sdpsi = jump @ psi, total @ psi, total @ dpsi
    boundary, mean = sides == 1, 1.0 / sides
    d, dd, _, _ = _aperture(profile, grid.t_breaks)
    # penalty mu [p][v], consistency -kt [v]{(d p)'} and symmetrization
    # -kt d {v'}[p]; mu is the bulk rule with the segment dimension,
    # (k+1)^2 / length over the adjacent elements
    adjacent = np.clip(np.column_stack([np.arange(-1, m), np.arange(m + 1)]),
                       0, m - 1)
    mu = penalty_bulk(kf, grid.lengths[adjacent], mu0, dim=1)
    # the printed flavour flips the symmetrizing term on boundary edges
    sym = np.where(boundary & (edge_terms == "printed"), -1.0, 1.0)
    mat += _form(jpsi, mu, jpsi) - _form(jpsi, kt * dd * mean, spsi) \
        - _form(jpsi, kt * d * mean, sdpsi) \
        - _form(sdpsi, kt * d * mean * sym, jpsi)
    # Nitsche data: the outer value g_gamma enters as the jump nu * g
    nu_g = np.zeros(m + 1)
    nu_g[[0, m]] = np.array([-1.0, 1.0]) \
        * _data_on_t(g_gamma, grid.t_breaks[[0, m]])
    acc.rhs += jpsi.T @ (mu * nu_g) - sdpsi.T @ (kt * d * mean * nu_g)
    acc.add_matrix(mat)


def transport_form(mesh: Mesh, grid: InterfaceGrid, bulk_space: DGSpace,
                   iface_space: DGSpace, perm: PermeabilityData,
                   profile: ApertureProfile,
                   edge_terms: str = "consistent") -> sp.csr_matrix:
    """Wall-slope transport form, a matrix on the dofs of the reduced
    system ([bulk | interface]); it has no rhs.

    The volume term -kt (p1 d1' + p2 d2') psi' takes its points at the
    coupling rule.  At interior edges the mean of both wall traces over
    both limits meets the interface jump, weighted kt d'; at the two
    boundary edges each wall's own trace and slope do, with the
    permeability factor kt only for ``edge_terms="consistent"`` (the
    printed flavour drops it).
    """
    if edge_terms not in EDGE_TERMS:
        raise ValueError(f"unknown edge_terms {edge_terms!r}")
    off = bulk_space.n_dofs
    n = off + iface_space.n_dofs
    kt = _tangential_k(grid, perm)

    e, t, w = _coupling_gauss(grid, bulk_space, iface_space)
    dpsi = _interface_basis(grid, iface_space, e, t, n, off, derivative=True)
    p1, p2 = _wall_traces(mesh, grid, bulk_space, profile, e, t, n)
    _, _, dd1, dd2 = _aperture(profile, t)
    mat = -(_form(dpsi, kt * dd1 * w, p1) + _form(dpsi, kt * dd2 * w, p2))

    lim_e, lim_t, total, jump, sides = _edge_limits(grid)
    jpsi = jump @ _interface_basis(grid, iface_space, lim_e, lim_t, n, off)
    s1, s2 = (total @ p for p in _wall_traces(mesh, grid, bulk_space,
                                               profile, lim_e, lim_t, n))
    _, dd, dd1, dd2 = _aperture(profile, grid.t_breaks)
    boundary = sides == 1
    kfac = kt if edge_terms == "consistent" else 1.0
    interior = 0.25 * kt * dd
    mat += _form(jpsi, np.where(boundary, kfac * dd1, interior), s1) \
        + _form(jpsi, np.where(boundary, kfac * dd2, interior), s2)
    return mat.tocsr()


# ---------------------------------------------------------------------------
# public assembly entry points

def assemble_full(mesh: Mesh, space: DGSpace, perm: PermeabilityData,
                  q, g, mu0: float) -> SparseSystem:
    """Assemble the SIPG system of the non-reduced model.

    Wall facets are ordinary interior facets here (permeability jumps
    across them); ``g`` is the Dirichlet datum on the outer boundary,
    imposed weakly."""
    if mesh.mode != "full":
        raise ValueError("assemble_full needs a full-mode mesh")
    acc = _Accumulator(space.n_dofs)
    _bulk_sipg(acc, mesh, space, perm, q, g, mu0,
               flux_classes=(INTERIOR, GAMMA_1, GAMMA_2))
    return SparseSystem(matrix=acc.matrix(), rhs=acc.rhs,
                        n_bulk=space.n_dofs, n_iface=0,
                        block_offsets=np.sort(space.offsets))


def assemble_reduced(mesh: Mesh, grid: InterfaceGrid, bulk_space: DGSpace,
                     iface_space: DGSpace, perm: PermeabilityData,
                     profile: ApertureProfile, q_bulk, q_gamma, g_bulk,
                     g_gamma, mu0_bulk: float, mu0_gamma: float,
                     edge_terms: str = "consistent") -> SparseSystem:
    """Assemble the coupled bulk/interface system every reduced variant
    on this mesh shares.

    The system is blocked as [bulk dofs | interface dofs] and holds the
    bulk SIPG form, the tangential interface form and the coupling form
    with the full rhs.  Variants that keep the wall-slope transport terms
    add :func:`transport_form` to its matrix.  Wall traces are taken on
    the walls for curved meshes and on the midsurface for rectified ones.
    """
    if edge_terms not in EDGE_TERMS:
        raise ValueError(f"unknown edge_terms {edge_terms!r}")
    if mesh.mode not in REDUCED_MESH_MODES:
        raise ValueError("reduced assembly cannot use a full-dimensional "
                         "mesh")

    off = bulk_space.n_dofs
    acc = _Accumulator(off + iface_space.n_dofs)
    _bulk_sipg(acc, mesh, bulk_space, perm, q_bulk, g_bulk, mu0_bulk,
               flux_classes=(INTERIOR,))
    _interface_forms(acc, mesh, grid, bulk_space, iface_space, profile, perm,
                     q_gamma, g_gamma, mu0_gamma, edge_terms)
    return SparseSystem(matrix=acc.matrix(), rhs=acc.rhs,
                        n_bulk=off, n_iface=iface_space.n_dofs,
                        block_offsets=np.concatenate(
                            [np.sort(bulk_space.offsets),
                             off + iface_space.offsets]))
