"""Structured simplicial meshes conforming to a vertical fracture.

Bulk meshes are built from tensor-product lattices whose column lines are
stretched so that one line follows each fracture wall (piecewise-linearly,
vertex-snapped onto the analytic wall graphs).  Three modes exist:

``full``
    One connected mesh of matrix-side-1, fracture slab and matrix-side-2;
    the wall lines are ordinary interior facet lines with a permeability
    jump across them.
``curved-reduced``
    Two disconnected blocks whose inner boundaries follow the walls; the
    fracture gap stays unmeshed and is handled by interface coupling.
``rectified``
    Two disconnected blocks abutting along the fracture midsurface itself
    (wall vertices on Gamma, duplicated per side).

A mesh owns the fracture geometry it was built from, its ``profile`` and
the midline ``x = gamma0`` (the tangential coordinate is ``y``);
:meth:`Mesh.walls` places both walls for its mode by the rule
that places the lattice wall lines, and assembly and averaging read them
there.  :func:`check_aperture_bounds` refuses an aperture too wide for the
domain or too thin for double precision before any wall is evaluated.

Both blocks of a two-block mesh share the same rows, and the wall lines
are vertex-snapped to them, so :func:`build_interface_grid` reads the
interface grid off the lattices: its elements are the rows, and the wall
trace over each row lives on the triangle of that row next to the wall.
The facets are read off the lattices too: each block's row-line edges,
column-line edges and cell diagonals, with their triangles and classes.

Row and column counts are rounded up to powers of two so that halving the
target mesh size exactly doubles every count, which keeps refinement
studies nested.  Quadrilateral cells are split along the same diagonal
everywhere; both sub-triangles keep positive area for any wall position
because the splitting diagonal always spans one lattice cell in the row
direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import ApertureProfile, refusal

__all__ = [
    "INTERIOR", "BOUNDARY", "GAMMA_1", "GAMMA_2",
    "SIDE_1", "SIDE_2", "FRACTURE", "MESH_MODES", "REDUCED_MESH_MODES",
    "ElementMaps", "Mesh", "InterfaceGrid", "StructuredLattice",
    "build_bulk_mesh", "build_interface_grid", "check_aperture_bounds",
    "element_count",
]

# facet classes
INTERIOR = 0
BOUNDARY = 1
GAMMA_1 = 2
GAMMA_2 = 3

# subdomain tags
SIDE_1 = 1
SIDE_2 = 2
FRACTURE = 3

MESH_MODES = ("full", "curved-reduced", "rectified")
REDUCED_MESH_MODES = MESH_MODES[1:]  # the two-block modes


def _pow2_count(length: float, h: float) -> int:
    """Smallest power of two n with length / n <= h (at least 1)."""
    if h <= 0.0:
        raise ValueError("h_target must be positive")
    raw = length / h
    if raw <= 1.0:
        return 1
    return 1 << int(math.ceil(math.log2(raw) - 1e-9))


@dataclass(frozen=True)
class StructuredLattice:
    """Bookkeeping of one tensor-product block of the mesh.

    ``xs[j, i]`` is the x coordinate of lattice line ``i`` at row line
    ``j``; ``vidx`` holds the matching global vertex ids, ``elem_ids[j, i]``
    the two global triangle ids of cell ``(j, i)`` (split along the
    diagonal from the cell's lower-left to upper-right corner).
    """

    ys: np.ndarray
    xs: np.ndarray
    vidx: np.ndarray
    col_tags: np.ndarray
    elem_ids: np.ndarray
    gamma1_line: int | None = None
    gamma2_line: int | None = None

    @property
    def n_rows(self) -> int:
        return len(self.ys) - 1

    @property
    def n_cols(self) -> int:
        return self.xs.shape[1] - 1


@dataclass(frozen=True)
class ElementMaps:
    """Affine reference-to-physical maps of all triangles of a mesh."""

    v0: np.ndarray
    jac: np.ndarray
    jac_inv: np.ndarray
    det: np.ndarray

    def points(self, elems: np.ndarray, ref_pts: np.ndarray) -> np.ndarray:
        """Physical images of reference points on each of the elements,
        shape (N, m, 2)."""
        return self.v0[elems, None] + ref_pts @ np.swapaxes(self.jac[elems],
                                                            1, 2)


@dataclass(frozen=True)
class Mesh:
    """Immutable simplicial mesh with facet classification.

    ``facet_elements[f]`` lists the one or two adjacent elements
    (second entry ``-1`` on one-sided facets).  Facet classes split into
    interior, exterior boundary and the two fracture-wall families.  The
    ``profile`` and the midline x ``gamma0`` are those the mesh was built
    from.
    """

    vertices: np.ndarray
    elements: np.ndarray
    subdomain: np.ndarray
    mode: str
    facets: np.ndarray
    facet_elements: np.ndarray
    facet_class: np.ndarray
    lattices: tuple[StructuredLattice, ...]
    gamma0: float
    profile: ApertureProfile
    h_target: float

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    @cached_property
    def maps(self) -> ElementMaps:
        """Affine maps of all elements, built on first use."""
        v = self.vertices
        e = self.elements
        v0 = v[e[:, 0]]
        jac = np.stack([v[e[:, 1]] - v0, v[e[:, 2]] - v0], axis=-1)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1]
        inv[:, 0, 1] = -jac[:, 0, 1]
        inv[:, 1, 0] = -jac[:, 1, 0]
        inv[:, 1, 1] = jac[:, 0, 0]
        inv /= det[:, None, None]
        return ElementMaps(v0=v0, jac=jac, jac_inv=inv, det=det)

    def element_volumes(self) -> np.ndarray:
        return 0.5 * self.maps.det

    @cached_property
    def element_h(self) -> np.ndarray:
        """Per-element mesh size: the maximum edge length."""
        v = self.vertices
        e = self.elements
        l01 = np.linalg.norm(v[e[:, 1]] - v[e[:, 0]], axis=1)
        l12 = np.linalg.norm(v[e[:, 2]] - v[e[:, 1]], axis=1)
        l20 = np.linalg.norm(v[e[:, 0]] - v[e[:, 2]], axis=1)
        return np.maximum(np.maximum(l01, l12), l20)

    def walls(self, t) -> tuple[np.ndarray, np.ndarray]:
        """The x of wall 1 and wall 2 at tangential coordinates ``t``:
        the midline on rectified meshes, gamma -+ d_i(t) otherwise."""
        return _wall_lines(self.profile, self.gamma0, self.mode, t)


def _wall_lines(profile: ApertureProfile, gamma0: float, mode: str, t):
    """The walls of a ``mode`` mesh at ``t`` (see :meth:`Mesh.walls`)."""
    t = np.asarray(t, dtype=float)
    if mode == "rectified":
        return np.full(t.shape, gamma0), np.full(t.shape, gamma0)
    d1 = np.broadcast_to(np.asarray(profile.d1_fn(t), dtype=float), t.shape)
    d2 = np.broadcast_to(np.asarray(profile.d2_fn(t), dtype=float), t.shape)
    return gamma0 - d1, gamma0 + d2


def _ulps(xmin: float, xmax: float) -> float:
    """The narrowest width a mesh column of the domain may take."""
    return 4.0 * np.spacing(max(abs(xmin), abs(xmax)))


def check_aperture_bounds(domain, profile: ApertureProfile,
                          fracture_layers: int) -> None:
    """Raise a ValueError naming ``profile`` unless the profile's scalar
    bounds fit the domain in double precision: the walls, ``d_min`` or
    more apart, fit in its width, and ``fracture_layers`` slab columns
    stay a few ulps wide."""
    (xmin, _), (xmax, _) = domain
    d_min = profile.d_min
    if not d_min < xmax - xmin:
        raise refusal("profile", "the fracture walls leave the domain")
    if not d_min / fracture_layers > _ulps(xmin, xmax):
        raise refusal("profile", "the fracture slab is too thin for double "
                      "precision")


def _lattice_counts(domain, gamma0: float, h_target: float,
                    h_target_normal: float | None):
    """Rows, side-1 columns and side-2 columns of the lattices of
    :func:`build_bulk_mesh`."""
    (xmin, ymin), (xmax, ymax) = domain
    h_n = h_target if h_target_normal is None else h_target_normal
    return (_pow2_count(ymax - ymin, h_target),
            _pow2_count(gamma0 - xmin, h_n), _pow2_count(xmax - gamma0, h_n))


def element_count(domain, mode: str, h_target: float, gamma0: float = 0.5,
                  fracture_layers: int = 4,
                  h_target_normal: float | None = None) -> int:
    """Number of triangles :func:`build_bulk_mesh` makes from the same
    arguments, from the power-of-two lattice counts alone: nothing is
    allocated, so it can size a mesh far too large to build."""
    n_rows, n1, n2 = _lattice_counts(domain, gamma0, h_target,
                                     h_target_normal)
    slab = fracture_layers if mode == "full" else 0
    return 2 * n_rows * (n1 + n2 + slab)


def _build_block(ys: np.ndarray, xs: np.ndarray, col_tags: np.ndarray,
                 v_offset: int, e_offset: int,
                 gamma1_line: int | None, gamma2_line: int | None):
    """Triangulate one lattice block: vertices, elements, tags, lattice."""
    n_rows = len(ys) - 1
    n_lines = xs.shape[1]
    n_cols = n_lines - 1

    vidx = (v_offset + np.arange((n_rows + 1) * n_lines)).reshape(n_rows + 1, n_lines)
    verts = np.empty(((n_rows + 1) * n_lines, 2))
    verts[:, 0] = xs.ravel()
    verts[:, 1] = np.repeat(ys, n_lines)

    v00 = vidx[:-1, :-1]
    v10 = vidx[:-1, 1:]
    v01 = vidx[1:, :-1]
    v11 = vidx[1:, 1:]
    lower = np.stack([v00, v10, v11], axis=-1).reshape(-1, 3)
    upper = np.stack([v00, v11, v01], axis=-1).reshape(-1, 3)
    elems = np.empty((2 * n_rows * n_cols, 3), dtype=np.int64)
    elems[0::2] = lower
    elems[1::2] = upper

    tags = np.repeat(np.tile(col_tags, n_rows), 2).astype(np.int8)
    elem_ids = (e_offset + np.arange(2 * n_rows * n_cols)).reshape(n_rows, n_cols, 2)
    lat = StructuredLattice(ys=ys, xs=xs, vidx=vidx, col_tags=col_tags,
                            elem_ids=elem_ids,
                            gamma1_line=gamma1_line, gamma2_line=gamma2_line)
    return verts, elems, tags, lat


def _lattice_facets(lat: StructuredLattice) -> np.ndarray:
    """Facets of one block read off its lattice, one row ``(a, b, e0, e1,
    class)`` each: the row-line edges, the column-line edges and the cell
    diagonals, from vertex ``a`` to ``b > a``, with the triangle that
    exists first (``e1 = -1`` on one-sided facets)."""
    v, lower, upper = lat.vidx, lat.elem_ids[..., 0], lat.elem_ids[..., 1]
    no_row = np.full((1, lat.n_cols), -1)
    no_col = np.full((lat.n_rows, 1), -1)
    # row line r bounds the lower triangles of row r, the upper of row r-1
    rows = [v[:, :-1], v[:, 1:], np.vstack([lower, upper[-1:]]),
            np.vstack([no_row, upper[:-1], no_row])]
    # column line c bounds the upper triangles of column c, the lower of c-1
    cols = [v[:-1], v[1:], np.hstack([upper, lower[:, -1:]]),
            np.hstack([no_col, lower[:, :-1], no_col])]
    diagonals = [v[:-1, :-1], v[1:, 1:], lower, upper]
    for family in (rows, cols, diagonals):
        family.append(np.where(family[3] >= 0, INTERIOR, BOUNDARY))
    for line, tag in ((lat.gamma1_line, GAMMA_1), (lat.gamma2_line, GAMMA_2)):
        if line is not None:
            cols[4][:, line] = tag
    return np.concatenate([np.stack(family, axis=-1).reshape(-1, 5)
                           for family in (rows, cols, diagonals)])


def build_bulk_mesh(domain, profile: ApertureProfile, mode: str,
                    h_target: float, gamma0: float = 0.5,
                    fracture_layers: int = 4,
                    h_target_normal: float | None = None) -> Mesh:
    """Mesh the bulk subdomains around (or including) the fracture.

    ``domain`` is ``((xmin, ymin), (xmax, ymax))`` (default unit square)
    and the fracture midline is the line ``x = gamma0`` inside it.
    ``h_target`` bounds the lattice spacing; counts round up to powers of
    two.  ``h_target_normal`` optionally loosens the spacing across the
    fracture direction (anisotropic meshes for reference solutions).
    ``fracture_layers`` sets the number of element layers across the
    fracture slab in full mode.
    """
    if domain is None:
        domain = ((0.0, 0.0), (1.0, 1.0))
    (xmin, ymin), (xmax, ymax) = domain
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("empty domain")
    if mode not in MESH_MODES:
        raise ValueError(f"unknown mesh mode {mode!r}")
    if fracture_layers < 1:
        raise ValueError("fracture_layers must be at least 1")
    if not (xmin < gamma0 < xmax):
        raise ValueError("fracture midline lies outside the domain")
    if abs(profile.t_range[0] - ymin) > 1e-12 or abs(profile.t_range[1] - ymax) > 1e-12:
        raise ValueError("aperture profile parameter range must span the domain height")
    # the two-block meshes have no slab to split
    check_aperture_bounds(domain, profile,
                          fracture_layers if mode == "full" else 1)

    try:
        n_rows, n1, n2 = _lattice_counts(domain, gamma0, h_target,
                                         h_target_normal)
    except OverflowError:  # more lattice lines than a float can count
        spacing = h_target if h_target_normal is None \
            else (h_target, h_target_normal)
        raise ValueError(f"spacing {spacing!r} is too fine: its count of "
                         "lattice lines overflows a float") from None
    ys = np.linspace(ymin, ymax, n_rows + 1)

    w1, w2 = _wall_lines(profile, gamma0, mode, ys)
    if mode != "rectified":
        if np.any(w2 <= w1):
            raise ValueError("total aperture not positive along the fracture")
        if np.any(w1 <= xmin):
            raise ValueError("fracture wall on side 1 exits the domain "
                             f"(min x = {w1.min():.6g} <= {xmin})")
        if np.any(w2 >= xmax):
            raise ValueError("fracture wall on side 2 exits the domain "
                             f"(max x = {w2.max():.6g} >= {xmax})")

    frac1 = np.linspace(0.0, 1.0, n1 + 1)
    xs1 = xmin + np.outer(w1 - xmin, frac1)
    xs1[:, -1] = w1  # xmin + (w1 - xmin) need not round back to w1
    frac2 = np.linspace(0.0, 1.0, n2 + 1)
    xs2 = w2[:, None] + np.outer(xmax - w2, frac2)

    blocks = []
    if mode == "full":
        fracf = np.linspace(0.0, 1.0, fracture_layers + 1)[1:-1]
        xsf = w1[:, None] + np.outer(w2 - w1, fracf)
        xs = np.concatenate([xs1, xsf, xs2], axis=1)
        col_tags = np.concatenate([np.full(n1, SIDE_1, dtype=np.int8),
                                   np.full(fracture_layers, FRACTURE, dtype=np.int8),
                                   np.full(n2, SIDE_2, dtype=np.int8)])
        blocks.append((ys, xs, col_tags, n1, n1 + fracture_layers))
    else:
        blocks.append((ys, xs1, np.full(n1, SIDE_1, dtype=np.int8), n1, None))
        blocks.append((ys, xs2, np.full(n2, SIDE_2, dtype=np.int8), None, 0))
    # a block squeezed against an edge would give singular element maps
    if any(not np.diff(xs_b, axis=1).min() > _ulps(xmin, xmax)
           for _, xs_b, *_ in blocks):
        raise ValueError("a mesh column is too thin for double precision")

    all_verts, all_elems, all_tags, lattices = [], [], [], []
    v_off = e_off = 0
    for ys_b, xs_b, tags_b, g1_line, g2_line in blocks:
        verts, elems, tags, lat = _build_block(ys_b, xs_b, tags_b, v_off, e_off,
                                               g1_line, g2_line)
        all_verts.append(verts)
        all_elems.append(elems)
        all_tags.append(tags)
        lattices.append(lat)
        v_off += len(verts)
        e_off += len(elems)

    vertices = np.concatenate(all_verts)
    elements = np.concatenate(all_elems)
    subdomain = np.concatenate(all_tags)

    facets = np.concatenate([_lattice_facets(lat) for lat in lattices])

    mesh = Mesh(vertices=vertices, elements=elements, subdomain=subdomain,
                mode=mode, facets=facets[:, :2], facet_elements=facets[:, 2:4],
                facet_class=facets[:, 4].astype(np.int8),
                lattices=tuple(lattices),
                gamma0=gamma0, profile=profile, h_target=h_target)

    vol = mesh.element_volumes()
    if np.any(vol <= 0.0):
        bad = np.nonzero(vol <= 0.0)[0]
        raise ValueError(f"inverted elements: ids {bad[:10].tolist()}"
                         f"{' ...' if len(bad) > 10 else ''}")
    return mesh


@dataclass(frozen=True)
class InterfaceGrid:
    """One-dimensional grid on the fracture midsurface.

    Element k spans ``[t_breaks[k], t_breaks[k+1]]`` in the tangential
    coordinate.  ``belem1/belem2`` hold, per interface element, the bulk
    element on each wall that carries the wall trace over it.  Interior
    edges sit at ``t_breaks[1:-1]``, boundary edges at the two ends.
    """

    t_breaks: np.ndarray
    belem1: np.ndarray
    belem2: np.ndarray

    @property
    def n_elements(self) -> int:
        return len(self.t_breaks) - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.t_breaks)

    @property
    def measure(self) -> float:
        return float(self.t_breaks[-1] - self.t_breaks[0])

    def element_of_t(self, t):
        """Element of each coordinate ``t`` (clipped to the first and last
        element); an int for a scalar, an array for an array."""
        k = np.clip(np.searchsorted(self.t_breaks, t, side="right") - 1, 0,
                    self.n_elements - 1)
        return int(k) if np.ndim(k) == 0 else k


def build_interface_grid(mesh: Mesh) -> InterfaceGrid:
    """Interface grid on Gamma of a two-block (reduced) mesh.

    Both blocks share the rows ``ys`` and their walls are vertex-snapped
    to them, so the grid is the rows themselves, and the wall trace of
    row k is carried by the wall-adjacent triangle of that row: on side 1
    the lower triangle of the last column (its right edge lies on wall 1),
    on side 2 the upper triangle of the first column (its left edge lies
    on wall 2).
    """
    if mesh.mode == "full":
        raise ValueError("full-dimensional meshes have no reduced interface")
    lat1, lat2 = mesh.lattices
    return InterfaceGrid(t_breaks=lat1.ys,
                         belem1=lat1.elem_ids[:, lat1.gamma1_line - 1, 0],
                         belem2=lat2.elem_ids[:, lat2.gamma2_line, 1])
