"""Interior-penalty DG assembly for the bulk and interface problems.

Bases are monomials on the reference simplex mapped affinely to each
element; quadrature is Gauss-Legendre (segments) and a conical product of
Gauss-Legendre with Gauss-Jacobi (triangles), with enough points to
integrate products of two basis gradients exactly.

Every space has one polynomial degree on all of its elements; the bulk
and the interface space may differ.  The bulk SIPG form is assembled in
three batches, the volume terms of all elements, the boundary facets and
the interior flux facets, each batch a few products of per-element or
per-facet scalars with reference tables: the maps are affine and the
mesh conforming, so a facet lies on one of the 6 directed edges of each
neighbour's reference triangle, whose tables (:func:`_edge_tables`)
hold the basis there.  The facet batches hold a fixed number of block
entries.  Each element-pair block is stored once: an element's own block
sums its volume and facet terms, and every interior flux facet gives
one block per direction coupling its two elements.  The element graph
fixes the canonical CSR before any value is computed, and every block
is written straight to its place there.  No system is held as COO
triplets: the reduced ones add their other forms to that CSR on the
union of both patterns.  Data functions are called once per batch on
all of its quadrature points.

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
Wall traces are evaluated at the mesh's walls (``Mesh.walls``): on the
walls themselves for curved meshes (polynomial extension of the wall element
at the analytic wall points) and on the midsurface for rectified meshes.
The aperture profile is the mesh's own as well; the tangential
permeability is the (t, t) = (y, y) entry of ``k_gamma``.

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

from .geometry import PermeabilityData, refusal
from .mesh import (
    BOUNDARY,
    FRACTURE,
    GAMMA_1,
    GAMMA_2,
    INTERIOR,
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
    "bulk_assembly_bytes",
]

MAX_DEGREE = 4
EDGE_TERMS = ("consistent", "printed")


def check_degree(k, name: str = "degree") -> None:
    """Refuse a degree that is not one integer in 1..MAX_DEGREE; the
    ValueError names ``name``."""
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= MAX_DEGREE:
        how = "lie in" if isinstance(k, (int, np.integer)) \
            else "be one integer in"
        raise refusal(name, f"{name} must {how} 1..{MAX_DEGREE}, got {k}")


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
    # point j n + i at (u_i (1 - y_j), y_j)
    pts = np.column_stack([np.outer(1.0 - y, u).ravel(), np.repeat(y, n)])
    return pts, np.outer(0.25 * wj, wu).ravel()


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
        check_degree(self.degree)

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
              x_phys: np.ndarray) -> np.ndarray:
    """Element bases at physical points.

    ``elems`` is one element with points of shape (m, 2), or an array of
    N elements with points of shape (N, m, 2) on each.  Values have shape
    (..., m, dim).
    """
    ref = (x_phys - mesh_maps.v0[elems, None]) \
        @ np.swapaxes(mesh_maps.jac_inv[elems], -1, -2)
    return tri_basis(space.degree, ref.reshape(-1, 2)).reshape(
        ref.shape[:-1] + (space.dim,))


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

# entries a batch of element blocks, facets or stored entries holds at most
_CHUNK_ENTRIES = 1 << 14


def _canonical(matrix: sp.spmatrix) -> sp.csr_matrix:
    """``matrix`` as a CSR with sorted column indices and no duplicates;
    a non-canonical one is summed on a copy."""
    matrix = matrix.tocsr()
    if not matrix.has_canonical_format:
        matrix = matrix.copy()
        matrix.sum_duplicates()
    return matrix


def _search(matrix: sp.csr_matrix, rows, cols) -> np.ndarray:
    """Position of the first stored entry of row ``rows`` whose column
    is at least ``cols``, or the end of the row; a binary search over
    each row of ``matrix``, a canonical CSR with stored entries."""
    rows, cols = np.broadcast_arrays(rows, cols)
    base = matrix.indptr[rows].astype(np.int64)
    length = matrix.indptr[rows + 1] - base
    # each step halves every range, the longest one included
    for _ in range(int(length.max(initial=0)).bit_length()):
        half = length >> 1
        base += half * (matrix.indices[base + half] < cols)
        length -= half
    # one candidate left in every nonempty range
    last = np.minimum(base, matrix.nnz - 1)
    return base + ((length > 0) & (matrix.indices[last] < cols))


@dataclass
class SparseSystem:
    """Assembled linear system, blocked as [bulk dofs | interface dofs].

    ``block_offsets`` holds the first dof of every element block in
    ascending order (bulk triangles, then interface segments); each
    element's dofs are contiguous.  None means no element structure.
    ``prolongation`` is the (n_dofs x coarse dofs) matrix whose columns
    span the iterative solvers' coarse space; None means the first dof
    of every block.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    n_bulk: int
    n_iface: int
    block_offsets: np.ndarray | None = None
    prolongation: sp.csr_matrix | None = None

    @property
    def n_dofs(self) -> int:
        return self.matrix.shape[0]

    def symmetry_defect(self) -> float:
        """max |A - A^T| / max |A|.

        Every stored entry above the diagonal is compared with its
        transpose, in batches of rows, so no copy of the matrix, its
        transpose or its magnitudes is made; a non-canonical matrix is
        summed on a copy first.  Runs of consecutive columns are cut at
        every row and every block start.  The transposes of a run sit
        at one offset in consecutive rows wherever those rows share
        their columns, as the rows of an element block do; one search
        per run finds it, and an entry whose guess misses is searched on
        its own.  An entry whose transpose is not stored meets a 0.
        Each transpose found is a distinct entry below the diagonal, so
        the entries below the diagonal are compared with theirs only
        when the transposes found number fewer than them.
        """
        a = _canonical(self.matrix)
        if not a.nnz:
            return 0.0
        indptr, indices, data = a.indptr, a.indices, a.data

        def misses(pos, end, col):
            """Where ``pos`` does not lie before ``end`` or hold ``col``."""
            return np.flatnonzero((pos >= end)
                                  | (indices.take(pos, mode="clip") != col))

        def compare(lo, hi):
            """Largest |a_ij - a_ji| over the stored entries of every row
            i at the positions from ``lo[i]`` to ``hi[i]``, and the number
            of their transposes stored."""
            num, met = 0.0, 0
            before = np.append(0, np.cumsum(hi - lo))
            bounds = np.unique(np.append(np.searchsorted(
                before, np.arange(0, before[-1], _CHUNK_ENTRIES),
                side="right") - 1, len(lo)))
            for r0, r1 in zip(bounds[:-1], bounds[1:]):
                length = hi[r0:r1] - lo[r0:r1]
                first = before[r0:r1] - before[r0]
                rows = np.repeat(np.arange(r0, r1, dtype=indices.dtype),
                                 length)
                pos = np.repeat(lo[r0:r1] - first, length)
                pos += np.arange(len(pos))
                cols = indices[pos]
                # runs of consecutive columns, cut at every row and block
                head = np.empty(len(cols), dtype=bool)
                np.not_equal(cols[1:], cols[:-1] + 1, out=head[1:])
                head[1:] |= block_start[cols[1:]]
                head[first[length > 0]] = True
                heads = np.flatnonzero(head)
                start, end = indptr[cols], indptr[1:][cols]
                shift = _search(a, cols[heads], rows[heads]) - start[heads]
                at = start + np.repeat(shift, np.diff(np.append(heads,
                                                                len(cols))))
                miss = misses(at, end, rows)
                if len(miss):
                    at[miss] = _search(a, cols[miss], rows[miss])
                    # transposes not stored: the entry meets a 0
                    lost = miss[misses(at[miss], end[miss], rows[miss])]
                    at[lost] = pos[lost]
                    num = max(num, np.abs(data[pos[lost]]).max(initial=0.0))
                    met -= len(lost)
                gap = data[pos]
                gap -= data[at]
                num = max(num, np.abs(gap, out=gap).max(initial=0.0))
                met += len(pos)
            return num, met

        rows = np.arange(a.shape[0])
        starts = rows if self.block_offsets is None \
            else np.asarray(self.block_offsets)
        block_start = np.zeros(len(rows), dtype=bool)
        block_start[starts] = True
        # the rows of a block share their columns: the first row's search
        # tells where each of them stores its diagonal
        block = np.cumsum(block_start) - 1
        first = indptr[:-1] + np.maximum(rows - starts[block] + (
            _search(a, starts, starts) - indptr[starts])[block], 0)
        miss = misses(first, indptr[1:], rows)
        first[miss] = _search(a, miss, miss)
        past = first + 1
        past[miss[misses(first[miss], indptr[1:][miss], miss)]] -= 1
        num, met = compare(past, indptr[1:])
        if met < np.sum(first - indptr[:-1]):
            num = max(num, compare(indptr[:-1], first)[0])
        return float(num / max(data.max(), -data.min()))

    def plus(self, matrix: sp.spmatrix) -> "SparseSystem":
        """This system with ``matrix`` added to its matrix, on the union
        of both patterns (:func:`_csr_sum`): every entry either stores
        stays stored, also where the sum is 0 (a sparse sum would drop
        it), so the sparsity pattern, and with it the LU ordering, is
        the one assembling both at once gives."""
        return replace(self, matrix=_csr_sum(self.matrix, matrix))


def _csr_sum(a: sp.spmatrix, b: sp.spmatrix) -> sp.csr_matrix:
    """``a + b`` as a canonical CSR on the union of both stored patterns,
    sums of 0 kept, bit for bit the sum of their COO triplets.  The
    union sums both patterns with all-ones data, whose counts (1 or 2)
    never cancel.  Only the smaller matrix's entries are searched in it;
    those that count 1 are its own, and the larger matrix's entries fill
    every other position in order."""
    a, b = _canonical(a), _canonical(b)
    if a.nnz < b.nnz:
        a, b = b, a

    def ones(m):
        return sp.csr_matrix((np.ones(m.nnz, dtype=np.int8), m.indices,
                              m.indptr), shape=m.shape)

    union = ones(a) + ones(b)
    at = _search(union, np.repeat(np.arange(b.shape[0]), np.diff(b.indptr)),
                 b.indices)
    mine = np.ones(union.nnz, dtype=bool)
    mine[at[union.data[at] == 1]] = False
    # scipy's sum leaves room for the entries of both in its buffers
    indices, indptr = union.indices.copy(), union.indptr
    del union
    # -0.0 is the additive identity: x + -0.0 is x, bit for bit
    data = np.full(len(indices), -0.0)
    data[mine] = a.data
    data[at] += b.data
    return sp.csr_matrix((data, indices, indptr), shape=a.shape)


class _BlockCSR:
    """Canonical (n, n) CSR of dense element-pair blocks, written in place.

    The blocks are the own block of every element (block id e), and for
    the flux facets ``(e0[f], e1[f])``, f < F, the block coupling e0[f]
    to e1[f] (id n_elements + f) and the one coupling e1[f] to e0[f] (id
    n_elements + F + f).  The element graph fixes the structure before
    any value is known: the block row of an element holds its blocks in
    column order, each of its ``dim`` rows runs through all of them, and
    rows past the bulk dofs are empty.  Every block must be written once
    with :meth:`put` before :meth:`matrix` is read.
    """

    def __init__(self, n: int, space: DGSpace, e0: np.ndarray,
                 e1: np.ndarray):
        dim = self.dim = space.dim
        n_el = len(space.offsets)
        nnz = dim * dim * (n_el + 2 * len(e0))
        # every index array in the CSR's index dtype
        index = np.int32 if max(n, nnz) < 2**31 else np.int64
        rank = (space.offsets // dim).astype(index)
        rows = np.concatenate([rank, rank[e0], rank[e1]])
        cols = np.concatenate([rank, rank[e1], rank[e0]])
        order = np.lexsort((cols, rows)).astype(index)
        count = np.bincount(rows, minlength=n_el).astype(index)
        before = np.concatenate([[0], np.cumsum(count)]).astype(index)
        slot = np.empty(len(rows), dtype=index)
        slot[order] = np.arange(len(rows), dtype=index) - before[rows[order]]
        # entry (a, b) of block i sits at first[i] + stride[i] * a + b
        self.first = dim * (dim * before[rows] + slot)
        self.stride = dim * count[rows]
        self.col0 = dim * cols
        self.indptr = np.full(n + 1, nnz, dtype=index)
        self.indptr[:dim * n_el] = (dim * dim * before[:-1, None]
                                    + dim * count[:, None] * np.arange(dim)
                                    ).ravel()
        self.indices = np.empty(nnz, dtype=index)
        self.data = np.empty(nnz)
        self.n = n

    def put(self, ids: np.ndarray, blocks: np.ndarray) -> None:
        """Write the blocks ``ids`` (shape (len(ids), dim, dim))."""
        local = np.arange(self.dim)
        pos = (self.first[ids, None, None] + local[:, None]
               * self.stride[ids, None, None] + local)
        self.data[pos] = blocks
        self.indices[pos] = self.col0[ids, None, None] + local

    def matrix(self) -> sp.csr_matrix:
        return sp.csr_matrix((self.data, self.indices, self.indptr),
                             shape=(self.n, self.n))


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

def _frozen(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=None)
def _gradient_table(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The degree-k monomials at ``triangle_rule(k + 2)``: their values
    ``phi[q, i]`` and ``S[a, b, i, j] = sum_q w_q d_a phi_i d_b phi_j``."""
    pts, w = triangle_rule(k + 2)
    grad = tri_basis_grad(k, pts)
    return _frozen(tri_basis(k, pts),
                   np.einsum("q,qia,qjb->abij", w, grad, grad))


# the reference edges from corner a to b; (a, b) is number 2a + b - (b > a)
_EDGES = tuple((a, b) for a in range(3) for b in range(3) if a != b)


@lru_cache(maxsize=None)
def _edge_tables(k: int) -> tuple[np.ndarray, ...]:
    """The degree-k monomials on the 6 directed reference edges, at the
    points ``a + t (b - a)`` of ``segment_rule(k + 2)`` on edge (a, b):
    the points ``X[e, q]``, values ``phi[e, q, i]`` and reference
    gradients ``D[e, q, i, c]``, and over the 36 pairs of edges ``M[e, f,
    i, j] = sum_q w_q phi^e_i phi^f_j`` and ``G[e, f, c, i, j] = sum_q
    w_q phi^e_i d_c phi^f_j``."""
    tq, w = segment_rule(k + 2)
    a, b = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])[np.transpose(_EDGES)]
    pts = a[:, None] + tq[:, None] * (b - a)[:, None]
    phi = tri_basis(k, pts.reshape(-1, 2)).reshape(pts.shape[:2] + (-1,))
    grad = tri_basis_grad(k, pts.reshape(-1, 2)).reshape(phi.shape + (2,))
    return _frozen(pts, phi, grad, np.einsum("q,eqi,fqj->efij", w, phi, phi),
                   np.einsum("q,eqi,fqjc->efcij", w, phi, grad))


def _facet_edges(mesh: Mesh, elems: np.ndarray, facets: np.ndarray):
    """The directed reference edge that facet ``facets[i]``, from its first
    vertex to its second, is on element ``elems[i]``."""
    at = mesh.elements[elems][:, None] == mesh.facets[facets][..., None]
    a, b = at.argmax(axis=-1).T
    return 2 * a + b - (b > a)


def _bulk_sipg(mesh: Mesh, space: DGSpace, perm: PermeabilityData, q, g,
               mu0: float, flux_classes: tuple[int, ...],
               n: int) -> tuple[sp.csr_matrix, np.ndarray]:
    """Volume + facet terms of the symmetric interior penalty form.

    Returns the (n, n) matrix, a canonical CSR whose rows past the bulk
    dofs are empty, and the rhs of length n.  ``flux_classes`` lists
    the facet classes treated as interior flux facets (wall facets
    belong here for full-dimensional meshes only).  Exterior-boundary
    facets always receive Nitsche terms with data ``g``.

    Every element-pair block is written once, in place (:class:`_BlockCSR`):
    each element's own block sums its volume term, its boundary facets
    and its side of its flux facets, and each flux facet gives the block
    coupling its elements and its transpose.  The facets run in batches
    of ``_CHUNK_ENTRIES`` block entries.  The maps are affine and K is
    constant on each element, so the volume term is ``det J^-1 K J^-T :
    S`` (:func:`_gradient_table`), and a facet side needs only its
    directed reference edge (:func:`_facet_edges`), |F|, the penalty and
    ``J^-1 K n``, whose dot product with a reference gradient is the
    normal flux, contracted with the tables of :func:`_edge_tables`.
    """
    maps = mesh.maps
    h_elem = mesh.element_h
    k, dim = space.degree, space.dim
    elems = np.arange(mesh.n_elements)
    dofs = space.dofs(elems)
    rhs = np.zeros(n)

    def add_rhs(at, values):
        rhs[:] += np.bincount(np.ravel(at), np.ravel(values), minlength=n)

    jk = maps.jac_inv @ _element_permeability(mesh, perm)  # J^-1 K
    metric = jk @ np.swapaxes(maps.jac_inv, -1, -2) * maps.det[:, None, None]
    phi_vol, stiff = _gradient_table(k)
    own = (metric.reshape(-1, 4) @ stiff.reshape(4, -1)).reshape(-1, dim, dim)
    if q is not None:
        pts, w = triangle_rule(k + 2)
        qw = _data_at(q, maps.points(elems, pts)) * (w * maps.det[:, None])
        add_rhs(dofs, np.einsum("qi,eq->ei", phi_vol, qw))

    va, vb, length, normal = _facet_geometry(mesh)
    e0, e1 = mesh.facet_elements[:, 0], mesh.facet_elements[:, 1]
    _, phi, grad, mass, gflux = _edge_tables(k)
    batch = max(1, _CHUNK_ENTRIES // dim ** 2)

    def batches(count):
        return (np.arange(i, min(i + batch, count))
                for i in range(0, count, batch))

    def side(elems, facets):
        """Directed edges and |F| J^-1 K n of one side of the facets."""
        return (_facet_edges(mesh, elems, facets), length[facets, None]
                * np.einsum("fcd,fd->fc", jk[elems], normal[facets]))

    def flux(edge_i, edge_j, kn_j):
        """|F| sum_q w_q phi^i (K grad phi^j . n) per facet."""
        return np.einsum("fcij,fc->fij", gflux[edge_i, edge_j], kn_j)

    def own_terms(edge, kn, mu_f, weight):
        """mu |F| M - weight (flux + flux^T) on one side."""
        f = flux(edge, edge, kn)
        return mu_f[:, None, None] * mass[edge, edge] \
            - weight * (f + np.swapaxes(f, -1, -2))

    tq, w = segment_rule(k + 2)
    boundary = np.flatnonzero(mesh.facet_class == BOUNDARY)
    for at in batches(len(boundary)):
        facets = boundary[at]
        edge, kn = side(e0[facets], facets)
        mu_f = length[facets] * penalty_bulk(k, h_elem[e0[facets], None], mu0)
        np.add.at(own, e0[facets], own_terms(edge, kn, mu_f, 1.0))
        x = va[facets, None] + tq[:, None] * (vb - va)[facets, None]
        add_rhs(dofs[e0[facets]], np.einsum(
            "fq,fqi->fi", _data_at(g, x) * w, mu_f[:, None, None] * phi[edge]
            - np.einsum("fqic,fc->fqi", grad[edge], kn)))

    flux_facets = np.flatnonzero(np.isin(mesh.facet_class, flux_classes)
                                 & (e1 >= 0))
    csr = _BlockCSR(n, space, e0[flux_facets], e1[flux_facets])
    for at in batches(len(flux_facets)):
        facets = flux_facets[at]
        (edge0, kn0), (edge1, kn1) = (side(e[facets], facets)
                                      for e in (e0, e1))
        mu_f = length[facets] * penalty_bulk(
            k, h_elem[mesh.facet_elements[facets]], mu0)
        # the jump is v0 - v1 with n out of e0, the flux the mean of both
        np.add.at(own, e0[facets], own_terms(edge0, kn0, mu_f, 0.5))
        np.add.at(own, e1[facets], own_terms(edge1, kn1, mu_f, -0.5))
        block = -mu_f[:, None, None] * mass[edge0, edge1] \
            - 0.5 * flux(edge0, edge1, kn1) \
            + 0.5 * np.swapaxes(flux(edge1, edge0, kn0), -1, -2)
        csr.put(mesh.n_elements + at, block)
        csr.put(mesh.n_elements + len(flux_facets) + at,
                np.swapaxes(block, -1, -2))
    for at in batches(mesh.n_elements):
        csr.put(at, own[at])
    return csr.matrix(), rhs


# ---------------------------------------------------------------------------
# interface forms (tangential flow, coupling, wall-slope transport)

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
                       side: int, elems: np.ndarray, t: np.ndarray,
                       n_cols: int) -> sp.csr_matrix:
    """Evaluation matrix of the bulk trace on wall ``side`` (1 or 2) at
    the points t of the mesh's wall, point i over interface element
    ``elems[i]`` and taken on that element's wall element."""
    belem = (grid.belem1 if side == 1 else grid.belem2)[elems]
    x = np.column_stack([mesh.walls(t)[side - 1], t])
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
                 elems: np.ndarray, t: np.ndarray, n_cols: int):
    """Evaluation matrices of the bulk traces on walls 1 and 2."""
    return [_wall_trace_matrix(mesh, grid, bulk_space, side, elems, t,
                               n_cols) for side in (1, 2)]


def _aperture(mesh: Mesh, t: np.ndarray):
    """d, d', d1' and d2' of the mesh's profile at t."""
    p = mesh.profile
    d1, d2, dd1, dd2 = (_data_on_t(f, t) for f in (
        p.d1_fn, p.d2_fn, p.dd1_fn, p.dd2_fn))
    return d1 + d2, dd1 + dd2, dd1, dd2


def _form(b, w, c):
    """B^T diag(w) C."""
    return b.T @ (sp.diags(w) @ c)


def _interface_forms(mesh: Mesh, grid: InterfaceGrid, bulk_space: DGSpace,
                     iface_space: DGSpace, perm: PermeabilityData, q_gamma,
                     g_gamma, mu0: float,
                     edge_terms: str) -> tuple[sp.spmatrix, np.ndarray]:
    """Tangential-flow and coupling forms on the interface grid: their
    matrix and rhs on the dofs of the reduced system ([bulk |
    interface]).

    Every term is B^T diag(w) C, with B and C sparse (points x dofs)
    evaluation matrices of the interface basis, its t-derivative and the
    two wall traces.  Volume terms take them at the Gauss points of every
    interface element; edge terms at both one-sided limits of the m+1
    edges, summed per edge (a missing side counts as zero) into a jump
    [v] = v_left - v_right and a mean {v} = (v_left + v_right) / sides.
    """
    off, m = bulk_space.n_dofs, grid.n_elements
    n = off + iface_space.n_dofs
    rhs = np.zeros(n)
    kt = float(perm.k_gamma[1, 1])  # the tangential permeability
    kf = iface_space.degree

    def iface(elems, t):
        return [_interface_basis(grid, iface_space, elems, t, n, off,
                                 derivative) for derivative in (False, True)]

    # tangential flow kt (d p)' phi' and the interface source
    e, t, w = _gauss(grid, kf + 3)
    psi, dpsi = iface(e, t)
    d, dd, _, _ = _aperture(mesh, t)
    mat = _form(dpsi, kt * dd * w, psi) + _form(dpsi, kt * d * w, dpsi)
    if q_gamma is not None:
        rhs += psi.T @ (_data_on_t(q_gamma, t) * w)

    # coupling: (kperp / d) [p][phi] with [p] = p2 - p1, and the closure
    # beta (p_gamma - {p})(phi_gamma - {phi})
    e, t, w = _coupling_gauss(grid, bulk_space, iface_space)
    psi = _interface_basis(grid, iface_space, e, t, n, off)
    p1, p2 = _wall_traces(mesh, grid, bulk_space, e, t, n)
    d = _aperture(mesh, t)[0]
    closure = psi - 0.5 * (p1 + p2)
    mat += _form(p2 - p1, perm.k_gamma_perp / d * w, p2 - p1) \
        + _form(closure, perm.beta_gamma(d) * w, closure)

    lim_e, lim_t, total, jump, sides = _edge_limits(grid)
    psi, dpsi = iface(lim_e, lim_t)
    jpsi, spsi, sdpsi = jump @ psi, total @ psi, total @ dpsi
    boundary, mean = sides == 1, 1.0 / sides
    d, dd, _, _ = _aperture(mesh, grid.t_breaks)
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
    rhs += jpsi.T @ (mu * nu_g) - sdpsi.T @ (kt * d * mean * nu_g)
    return mat, rhs


def transport_form(mesh: Mesh, grid: InterfaceGrid, bulk_space: DGSpace,
                   iface_space: DGSpace, perm: PermeabilityData,
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
    kt = float(perm.k_gamma[1, 1])  # the tangential permeability

    e, t, w = _coupling_gauss(grid, bulk_space, iface_space)
    dpsi = _interface_basis(grid, iface_space, e, t, n, off, derivative=True)
    p1, p2 = _wall_traces(mesh, grid, bulk_space, e, t, n)
    _, _, dd1, dd2 = _aperture(mesh, t)
    mat = -(_form(dpsi, kt * dd1 * w, p1) + _form(dpsi, kt * dd2 * w, p2))

    lim_e, lim_t, total, jump, sides = _edge_limits(grid)
    jpsi = jump @ _interface_basis(grid, iface_space, lim_e, lim_t, n, off)
    s1, s2 = (total @ p for p in _wall_traces(mesh, grid, bulk_space,
                                               lim_e, lim_t, n))
    _, dd, dd1, dd2 = _aperture(mesh, grid.t_breaks)
    boundary = sides == 1
    kfac = kt if edge_terms == "consistent" else 1.0
    interior = 0.25 * kt * dd
    mat += _form(jpsi, np.where(boundary, kfac * dd1, interior), s1) \
        + _form(jpsi, np.where(boundary, kfac * dd2, interior), s2)
    return mat.tocsr()


# ---------------------------------------------------------------------------
# public assembly entry points

# the largest traced peak per bulk entry of either assembly path, degrees
# 1-4, h = 1/32 and 1/64 (36.6, the reduced one at degree 1 and h = 1/32,
# in a batch of flux facets), rounded up
_BYTES_PER_ENTRY = 37


def bulk_assembly_bytes(n_elements, degree: int):
    """Estimated memory that assembling the bulk form of ``n_elements``
    triangles of ``degree`` takes: every element stores its own block
    and up to three neighbour blocks, at ``_BYTES_PER_ENTRY`` bytes an
    entry.  That bounds the traced peak of the full assembly (the bulk
    CSR written in place) and of the reduced one (the bulk CSR summed
    with the interface forms on the union pattern, :func:`_csr_sum`);
    the full one needs less.  Counts may be Python ints of any size or
    ``inf``."""
    return 4 * n_elements * tri_dim(degree) ** 2 * _BYTES_PER_ENTRY


def assemble_full(mesh: Mesh, space: DGSpace, perm: PermeabilityData,
                  q, g, mu0: float) -> SparseSystem:
    """Assemble the SIPG system of the non-reduced model.

    Wall facets are ordinary interior facets here (permeability jumps
    across them); ``g`` is the Dirichlet datum on the outer boundary,
    imposed weakly."""
    if mesh.mode != "full":
        raise ValueError("assemble_full needs a full-mode mesh")
    matrix, rhs = _bulk_sipg(mesh, space, perm, q, g, mu0,
                             (INTERIOR, GAMMA_1, GAMMA_2), space.n_dofs)
    return SparseSystem(matrix=matrix, rhs=rhs,
                        n_bulk=space.n_dofs, n_iface=0,
                        block_offsets=np.sort(space.offsets),
                        prolongation=_hat_prolongation(mesh, space))


def _hat_prolongation(mesh: Mesh, space: DGSpace) -> sp.csr_matrix:
    """The continuous P1 hats on the vertices the elements use, as DG
    fields of ``space``: one column per vertex, in vertex order.

    On each element the hats of corners 0, 1 and 2 are 1 - xi - eta, xi
    and eta, that is dof 0 - dof 1 - dof 2, dof 1 and dof 2 of the
    element's monomial block (:func:`tri_exponents` puts 1, xi, eta
    first).  So the row of dof 0 holds a 1 at corner 0, the rows of dofs
    1 and 2 a -1 at corner 0 and a 1 at corner 1 or 2: five entries per
    element, written straight into the CSR.
    """
    used = np.zeros(len(mesh.vertices), dtype=bool)
    used[mesh.elements] = True
    c0, c1, c2 = (np.cumsum(used) - 1)[
        mesh.elements[np.argsort(space.offsets)]].T
    s1, s2 = np.sign(c1 - c0), np.sign(c2 - c0)
    cols = np.column_stack([c0, np.minimum(c0, c1), np.maximum(c0, c1),
                            np.minimum(c0, c2), np.maximum(c0, c2)])
    vals = np.column_stack([np.ones(len(c0)), -s1, s1, -s2, s2])
    # rows 0, 1, 2, ... of a block start 0, 1, 3, 5, ... entries in
    indptr = np.append((5 * np.arange(len(c0))[:, None] + np.array(
        [0, 1, 3] + [5] * (space.dim - 3))).ravel(), 5 * len(c0))
    return sp.csr_matrix((vals.ravel(), cols.ravel(), indptr),
                         shape=(space.n_dofs, used.sum()))


def assemble_reduced(mesh: Mesh, grid: InterfaceGrid, bulk_space: DGSpace,
                     iface_space: DGSpace, perm: PermeabilityData,
                     q_bulk, q_gamma, g_bulk, g_gamma, mu0_bulk: float,
                     mu0_gamma: float,
                     edge_terms: str = "consistent") -> SparseSystem:
    """Assemble the coupled bulk/interface system every reduced variant
    on this mesh shares.

    The system is blocked as [bulk dofs | interface dofs] and holds the
    bulk SIPG form, the tangential interface form and the coupling form
    with the full rhs.  Variants that keep the wall-slope transport terms
    add :func:`transport_form` to its matrix.  Geometry and wall traces
    come from the mesh (``Mesh.walls``, ``Mesh.profile``).
    """
    if edge_terms not in EDGE_TERMS:
        raise ValueError(f"unknown edge_terms {edge_terms!r}")
    if mesh.mode == "full":
        raise ValueError("reduced assembly cannot use a full-dimensional "
                         "mesh")

    off = bulk_space.n_dofs
    bulk, rhs = _bulk_sipg(mesh, bulk_space, perm, q_bulk, g_bulk,
                           mu0_bulk, (INTERIOR,), off + iface_space.n_dofs)
    forms, forms_rhs = _interface_forms(mesh, grid, bulk_space, iface_space,
                                        perm, q_gamma, g_gamma, mu0_gamma,
                                        edge_terms)
    rhs += forms_rhs
    return SparseSystem(matrix=_csr_sum(bulk, forms), rhs=rhs,
                        n_bulk=off, n_iface=iface_space.n_dofs,
                        block_offsets=np.concatenate(
                            [np.sort(bulk_space.offsets),
                             off + iface_space.offsets]))
