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

Both blocks of a two-block mesh share the same rows, and the wall lines
are vertex-snapped to them, so :func:`build_interface_grid` reads the
interface grid off the lattices: its elements are the rows, and the wall
trace over each row lives on the triangle of that row next to the wall.

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

from .geometry import ApertureProfile, FractureFrame

__all__ = [
    "INTERIOR", "BOUNDARY", "GAMMA_1", "GAMMA_2",
    "SIDE_1", "SIDE_2", "FRACTURE", "MESH_MODES",
    "ElementMaps", "Mesh", "InterfaceGrid", "StructuredLattice",
    "build_bulk_mesh", "build_interface_grid", "classify_facets",
    "mesh_quality",
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

_FACET_NAMES = {INTERIOR: "interior", BOUNDARY: "exterior-boundary",
                GAMMA_1: "gamma-side-1", GAMMA_2: "gamma-side-2"}


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
    interior, exterior boundary and the two fracture-wall families.
    """

    vertices: np.ndarray
    elements: np.ndarray
    subdomain: np.ndarray
    mode: str
    facets: np.ndarray
    facet_elements: np.ndarray
    facet_class: np.ndarray
    lattices: tuple[StructuredLattice, ...]
    frame: FractureFrame
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

    def facets_of_class(self, cls: int) -> np.ndarray:
        return np.nonzero(self.facet_class == cls)[0]


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


def _gamma_edge_set(lat: StructuredLattice, line: int) -> set[tuple[int, int]]:
    ids = lat.vidx[:, line]
    return {(min(a, b), max(a, b)) for a, b in zip(ids[:-1], ids[1:])}


def _edge_keys(edges: np.ndarray) -> np.ndarray:
    """One int64 per vertex pair (a, b) of ids below 2**32, ordered like
    the pairs."""
    edges = np.asarray(edges, dtype=np.int64)
    return (edges[:, 0] << 32) | edges[:, 1]


def _extract_facets(elements: np.ndarray):
    """All element edges, deduplicated, with adjacency (second id -1 when
    one-sided)."""
    ne = len(elements)
    edges = np.concatenate([elements[:, [0, 1]], elements[:, [1, 2]],
                            elements[:, [2, 0]]])
    owner = np.tile(np.arange(ne), 3)
    edges_sorted = np.sort(edges, axis=1)
    _, first, inverse, counts = np.unique(
        _edge_keys(edges_sorted), return_index=True, return_inverse=True,
        return_counts=True)
    uniq = edges_sorted[first]
    if counts.max() > 2:
        bad = np.nonzero(counts > 2)[0][:5]
        raise ValueError(f"facets adjacent to more than two elements: {uniq[bad].tolist()}")
    facet_elements = np.full((len(uniq), 2), -1, dtype=np.int64)
    order = np.argsort(inverse, kind="stable")
    sorted_inv = inverse[order]
    sorted_owner = owner[order]
    starts = np.searchsorted(sorted_inv, np.arange(len(uniq)))
    facet_elements[:, 0] = sorted_owner[starts]
    two = counts == 2
    facet_elements[two, 1] = sorted_owner[starts[two] + 1]
    return uniq, facet_elements


def build_bulk_mesh(domain, profile: ApertureProfile, mode: str,
                    h_target: float, frame: FractureFrame | None = None,
                    fracture_layers: int = 4,
                    h_target_normal: float | None = None) -> Mesh:
    """Mesh the bulk subdomains around (or including) the fracture.

    ``domain`` is ``((xmin, ymin), (xmax, ymax))`` (default unit square).
    ``h_target`` bounds the lattice spacing; counts round up to powers of
    two.  ``h_target_normal`` optionally loosens the spacing across the
    fracture direction (anisotropic meshes for reference solutions).
    ``fracture_layers`` sets the number of element layers across the
    fracture slab in full mode.  The lattices need a vertical fracture:
    ``frame`` must have normal (1, 0) and tangent (0, 1).
    """
    if frame is None:
        frame = FractureFrame.vertical_line(0.5)
    if not (np.array_equal(frame.normal, (1.0, 0.0))
            and np.array_equal(frame.tangents, ((0.0, 1.0),))):
        raise ValueError("the mesh needs a vertical fracture: frame normal "
                         "(1, 0) and tangent (0, 1), got normal "
                         f"{tuple(frame.normal.tolist())}")
    if domain is None:
        domain = ((0.0, 0.0), (1.0, 1.0))
    (xmin, ymin), (xmax, ymax) = domain
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("empty domain")
    if mode not in MESH_MODES:
        raise ValueError(f"unknown mesh mode {mode!r}")
    if fracture_layers < 1:
        raise ValueError("fracture_layers must be at least 1")
    gamma0 = frame.offset
    if not (xmin < gamma0 < xmax):
        raise ValueError("fracture hyperplane lies outside the domain")
    if abs(profile.t_range[0] - ymin) > 1e-12 or abs(profile.t_range[1] - ymax) > 1e-12:
        raise ValueError("aperture profile parameter range must span the domain height")

    h_n = h_target if h_target_normal is None else h_target_normal
    n_rows = _pow2_count(ymax - ymin, h_target)
    n1 = _pow2_count(gamma0 - xmin, h_n)
    n2 = _pow2_count(xmax - gamma0, h_n)
    ys = np.linspace(ymin, ymax, n_rows + 1)

    if mode == "rectified":
        w1 = np.full(n_rows + 1, gamma0)
        w2 = np.full(n_rows + 1, gamma0)
    else:
        d1 = np.asarray(profile.d1_fn(ys), dtype=float)
        d2 = np.asarray(profile.d2_fn(ys), dtype=float)
        if np.any(d1 + d2 <= 0.0):
            raise ValueError("total aperture not positive along the fracture")
        w1 = gamma0 - d1
        w2 = gamma0 + d2
        if np.any(w1 <= xmin):
            raise ValueError("fracture wall on side 1 exits the domain "
                             f"(min x = {w1.min():.6g} <= {xmin})")
        if np.any(w2 >= xmax):
            raise ValueError("fracture wall on side 2 exits the domain "
                             f"(max x = {w2.max():.6g} >= {xmax})")

    frac1 = np.linspace(0.0, 1.0, n1 + 1)
    xs1 = xmin + np.outer(w1 - xmin, frac1)
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

    all_verts, all_elems, all_tags, lattices = [], [], [], []
    gamma1_edges: set[tuple[int, int]] = set()
    gamma2_edges: set[tuple[int, int]] = set()
    v_off = e_off = 0
    for ys_b, xs_b, tags_b, g1_line, g2_line in blocks:
        verts, elems, tags, lat = _build_block(ys_b, xs_b, tags_b, v_off, e_off,
                                               g1_line, g2_line)
        all_verts.append(verts)
        all_elems.append(elems)
        all_tags.append(tags)
        lattices.append(lat)
        if g1_line is not None:
            gamma1_edges |= _gamma_edge_set(lat, g1_line)
        if g2_line is not None:
            gamma2_edges |= _gamma_edge_set(lat, g2_line)
        v_off += len(verts)
        e_off += len(elems)

    vertices = np.concatenate(all_verts)
    elements = np.concatenate(all_elems)
    subdomain = np.concatenate(all_tags)

    facets, facet_elements = _extract_facets(elements)
    facet_class = _classify(facets, facet_elements, gamma1_edges, gamma2_edges)

    mesh = Mesh(vertices=vertices, elements=elements, subdomain=subdomain,
                mode=mode, facets=facets, facet_elements=facet_elements,
                facet_class=facet_class, lattices=tuple(lattices),
                frame=frame, profile=profile, h_target=h_target)

    vol = mesh.element_volumes()
    if np.any(vol <= 0.0):
        bad = np.nonzero(vol <= 0.0)[0]
        raise ValueError(f"inverted elements: ids {bad[:10].tolist()}"
                         f"{' ...' if len(bad) > 10 else ''}")
    return mesh


def _classify(facets: np.ndarray, facet_elements: np.ndarray,
              gamma1_edges: set, gamma2_edges: set) -> np.ndarray:
    cls = np.where(facet_elements[:, 1] >= 0, INTERIOR,
                   BOUNDARY).astype(np.int8)
    keys = _edge_keys(facets)
    # side 1 last: it wins a facet listed on both walls
    for edges, tag in ((gamma2_edges, GAMMA_2), (gamma1_edges, GAMMA_1)):
        wall = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
        cls[np.isin(keys, _edge_keys(wall))] = tag
    return cls


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
        for f in mesh.facets_of_class(cls):
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
    frame: FractureFrame

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
                         belem2=lat2.elem_ids[:, lat2.gamma2_line, 1],
                         frame=mesh.frame)
