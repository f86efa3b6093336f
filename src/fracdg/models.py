"""End-to-end model runs: geometry, mesh, assembly, solve, evaluation.

This module owns the model table and the mesh rule.  A
:class:`ModelVariant` row says what distinguishes a reduced model:
whether the bulk domains are rectified onto the midline and whether the
tangential transport equation keeps the wall-slope terms;
:func:`resolve_mesh_mode` is the one rule for which mesh a variant runs
on.  A :class:`ReducedProblem` is one reduced discretization, a mesh with
its shared system; a variant is those shared forms plus what its table
row adds, the transport form for ``I`` and ``I-R``.  The problem presets
bundle the data of the benchmark configurations.  :func:`preflight` holds
the input rules of a run; the entry points apply it before they mesh.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import solver
from .assembly import DGSpace, SparseSystem, _aperture, _basis_at, \
    _interface_basis, _wall_trace_matrix, assemble_full, assemble_reduced, \
    bulk_assembly_bytes, check_degree, transport_form
from .geometry import ApertureProfile, PermeabilityData, \
    WellposednessReport, check_wellposedness, refusal
from .mesh import MESH_MODES, REDUCED_MESH_MODES, ElementMaps, \
    InterfaceGrid, Mesh, build_bulk_mesh, build_interface_grid, \
    check_aperture_bounds, element_count

logger = logging.getLogger(__name__)

PRESET_NAMES = ("perp-asym", "perp-sym", "tangential", "manufactured",
                "custom")

UNIT_SQUARE = ((0.0, 0.0), (1.0, 1.0))


# ---------------------------------------------------------------------------
# variants

@dataclass(frozen=True)
class ModelVariant:
    """One row of the model table.

    ``uses_rectified_bulk``: bulk domains flattened onto the midline, so
    the wall traces sit on the midline rather than on the curved walls.
    ``gradient_terms_in_transport``: wall-slope terms kept in the
    tangential transport equation.
    """

    name: str
    uses_rectified_bulk: bool
    gradient_terms_in_transport: bool

    @classmethod
    def of(cls, name) -> "ModelVariant":
        if isinstance(name, ModelVariant):
            return name
        try:
            return _VARIANTS[name]
        except KeyError:
            raise ValueError(f"unknown model variant {name!r}, expected one "
                             f"of {MODEL_NAMES} (the full model runs "
                             "through run_full)") from None


_VARIANTS = {v.name: v for v in (
    ModelVariant("I", False, True),
    ModelVariant("I-R", True, True),
    ModelVariant("II", False, False),
    ModelVariant("II-R", True, False),
)}
MODEL_NAMES = tuple(_VARIANTS)


def resolve_mesh_mode(variant, profile: ApertureProfile,
                      mesh_mode: str = "auto") -> str:
    """Mesh mode a reduced variant runs on; raises a ValueError naming
    ``mesh_mode`` if the variant cannot run on it.

    "auto" picks the wall-conforming mesh for the wall-trace variants and
    for any variant with a constant aperture (where the flattened and
    wall-conforming descriptions carry the same model and the wall mesh
    keeps the trace offsets exact); rectified variants with genuinely
    varying walls get the rectified mesh.
    """
    var = ModelVariant.of(variant)
    if mesh_mode == "auto":
        return ("rectified" if var.uses_rectified_bulk
                and not profile.is_constant else "curved-reduced")
    if mesh_mode not in MESH_MODES:
        raise refusal("mesh_mode", f"unknown mesh mode {mesh_mode!r}")
    if mesh_mode not in REDUCED_MESH_MODES:
        raise refusal("mesh_mode",
                      "reduced variants cannot use a full-dimensional mesh")
    if var.uses_rectified_bulk:
        # With a constant aperture the wall-conforming mesh carries the
        # same model (every slope term vanishes and the trace offset is
        # exact), so it is accepted as the canonical degenerate case.
        if mesh_mode == "curved-reduced" and not profile.is_constant:
            raise refusal("mesh_mode", f"variant {var.name} needs a "
                          "rectified mesh for non-constant apertures")
    elif mesh_mode != "curved-reduced":
        raise refusal("mesh_mode", f"variant {var.name} evaluates traces "
                      "on the fracture walls and needs a wall-conforming "
                      f"mesh, got {mesh_mode!r}")
    return mesh_mode


# ---------------------------------------------------------------------------
# presets

@dataclass(frozen=True)
class ProblemPreset:
    """Data of one benchmark problem.

    ``g`` is the bulk Dirichlet datum (callable on (m, 2) arrays), ``q``
    the bulk source, ``q_gamma`` the interface source and ``g_gamma`` the
    interface Dirichlet datum at the fracture endpoints; ``g_gamma=None``
    uses the trace of ``g`` on the midline, the only choice consistent
    with the full-dimensional reference.  ``gamma0`` is the x of the
    fracture midline.  ``exact_pressure`` and ``gamma_reference`` carry
    closed-form references where one exists.
    """

    name: str
    profile: ApertureProfile
    k1: np.ndarray
    k2: np.ndarray
    k_f: np.ndarray
    g: Callable
    q: Callable | None = None
    q_gamma: Callable | None = None
    g_gamma: Callable | None = None
    xi: float = 2.0 / 3.0
    gamma0: float = 0.5
    domain: tuple = UNIT_SQUARE
    exact_pressure: Callable | None = None
    gamma_reference: Callable | None = None

    def permeability(self) -> PermeabilityData:
        return PermeabilityData.from_fracture(self.k1, self.k2, self.k_f,
                                              self.xi)

    def gamma_data(self) -> Callable:
        if self.g_gamma is not None:
            return self.g_gamma
        g, gamma0 = self.g, self.gamma0

        def trace(t):
            t = np.asarray(t, dtype=float)
            pts = np.atleast_2d(np.stack([np.full_like(t, gamma0), t], -1))
            vals = np.asarray(g(pts), dtype=float)
            return float(vals[0]) if np.ndim(t) == 0 else vals

        return trace


def _g_linear(x):
    return 1.0 - x[:, 0]


def inflow_bubble(x):
    return 4.0 * x[:, 0] * (1.0 - x[:, 0]) * (1.0 - x[:, 1])


def cosine_product(x):
    return np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])


def cosine_product_source(x):
    """Source of ``cosine_product``: minus its Laplacian."""
    return 2.0 * np.pi**2 * np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])


def preset_by_name(name: str, d0: float = 0.1,
                   xi: float = 2.0 / 3.0) -> ProblemPreset:
    """The named benchmark configurations.

    All use the unit square with the fracture midline at x1 = 1/2, unit
    matrix permeability and zero sources.  ``d0`` scales the sinusoidal
    aperture profiles.
    """
    eye = np.eye(2)
    if name == "perp-asym":
        return ProblemPreset(
            name=name,
            profile=ApertureProfile.sinusoidal(d0,
                                               asymmetry="antisymmetric"),
            k1=eye, k2=eye, k_f=0.5 * eye, g=_g_linear, xi=xi)
    if name == "perp-sym":
        return ProblemPreset(
            name=name,
            profile=ApertureProfile.sinusoidal(d0, asymmetry="symmetric"),
            k1=eye, k2=eye, k_f=0.5 * eye, g=_g_linear, xi=xi,
            gamma_reference=lambda t: np.full_like(
                np.asarray(t, dtype=float), 0.5))
    if name == "tangential":
        return ProblemPreset(
            name=name,
            profile=ApertureProfile.sinusoidal(d0, asymmetry="symmetric"),
            k1=eye, k2=eye, k_f=2.0 * eye, g=inflow_bubble, xi=xi)
    if name == "manufactured":
        return ProblemPreset(
            name=name,
            profile=ApertureProfile.constant(d0 / 2.0, d0 / 2.0),
            k1=eye, k2=eye, k_f=eye, g=cosine_product,
            q=cosine_product_source, xi=xi, exact_pressure=cosine_product)
    raise ValueError(f"unknown preset {name!r}; custom problems are built "
                     "directly through ProblemPreset")


def constant_aperture_preset(d_half: float = 0.05, k_f=None,
                             xi: float = 2.0 / 3.0) -> ProblemPreset:
    """Flat-walled configuration used by degeneracy checks."""
    eye = np.eye(2)
    return ProblemPreset(name="custom",
                         profile=ApertureProfile.constant(d_half, d_half),
                         k1=eye, k2=eye,
                         k_f=eye if k_f is None else np.asarray(k_f, float),
                         g=_g_linear, xi=xi)


# ---------------------------------------------------------------------------
# point location and evaluation

def _locate(mesh: Mesh, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Element id containing each point (-1 when outside the mesh).

    Each lattice takes the row that ``searchsorted(ys, y, side="right")``
    picks (clipped to the last row, so a point on a row line goes to the
    row above it) and the column its interpolated row edges pick, and
    offers the two triangles of that cell and of its left and right
    neighbours.  A point goes to the candidate with the largest smallest
    barycentric coordinate ``lam`` over all lattices, and lies outside
    when that ``lam`` is below ``-tol`` or when no lattice spans it (the
    fracture gap of curved-reduced meshes).  Ties in ``lam``, as at mesh
    vertices, go to the lowest element id.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    maps = mesh.maps
    out = np.full(len(pts), -1, dtype=np.int64)
    best_lam = np.full(len(pts), -np.inf)
    for lat in mesh.lattices:
        ys = lat.ys
        idx = np.flatnonzero((y >= ys[0] - tol) & (y <= ys[-1] + tol))
        j = np.clip(np.searchsorted(ys, y[idx], side="right") - 1, 0,
                    lat.n_rows - 1)
        s = ((y[idx] - ys[j]) / (ys[j + 1] - ys[j]))[:, None]
        edges = (1.0 - s) * lat.xs[j] + s * lat.xs[j + 1]
        px = x[idx, None]
        keep = ((px >= edges[:, :1] - tol)
                & (px <= edges[:, -1:] + tol))[:, 0]
        idx, j, edges, px = idx[keep], j[keep], edges[keep], px[keep]
        i = np.clip((edges <= px).sum(axis=1) - 1, 0, lat.n_cols - 1)
        cols = np.clip(i[:, None] + np.arange(-1, 2), 0, lat.n_cols - 1)
        cand = lat.elem_ids[j[:, None], cols].reshape(-1, 6)
        ab = ((pts[idx, None] - maps.v0[cand])[..., None, :]
              @ np.swapaxes(maps.jac_inv[cand], -1, -2))[..., 0, :]
        lam = np.minimum(np.minimum(ab[..., 0], ab[..., 1]),
                         1.0 - ab[..., 0] - ab[..., 1])
        pick = np.argmax(lam, axis=1)[:, None]
        lam = np.take_along_axis(lam, pick, axis=1)[:, 0]
        better = lam > best_lam[idx]
        out[idx[better]] = np.take_along_axis(cand, pick, axis=1)[better, 0]
        best_lam[idx[better]] = lam[better]
    out[best_lam < -tol] = -1
    return out


def _field_at(maps: ElementMaps, space: DGSpace, coeffs: np.ndarray,
              elems: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Values of a bulk field at points whose elements are known.

    ``pts`` has shape ``elems.shape + (m, 2)``, the points of each item
    lying in the matching element of ``elems``; values have shape
    ``pts.shape[:-1]``.
    """
    flat_elems = elems.reshape(-1)
    phi = _basis_at(maps, space, flat_elems,
                    pts.reshape((-1,) + pts.shape[-2:]))
    c = coeffs[space.dofs(flat_elems)]
    return (phi @ c[..., None])[..., 0].reshape(pts.shape[:-1])


def _eval_bulk(mesh: Mesh, space: DGSpace, coeffs: np.ndarray,
               points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    elems = _locate(mesh, pts)
    if np.any(elems < 0):
        bad = pts[elems < 0][0]
        raise ValueError(f"point {tuple(bad)} lies outside the mesh")
    return _field_at(mesh.maps, space, coeffs, elems, pts[:, None])[:, 0]


@dataclass
class FullSolution:
    """Discrete pressure of the full-dimensional model."""

    preset: ProblemPreset
    mesh: Mesh
    space: DGSpace
    coefficients: np.ndarray
    report: solver.SolveReport
    perm: PermeabilityData
    system: SparseSystem | None = None

    def evaluate(self, points) -> np.ndarray:
        """Pressure at arbitrary points of the meshed domain."""
        return _eval_bulk(self.mesh, self.space, self.coefficients, points)


@dataclass
class ReducedSolution:
    """Coupled bulk/interface solution of a reduced model."""

    preset: ProblemPreset
    variant: ModelVariant
    mesh: Mesh
    grid: InterfaceGrid
    bulk_space: DGSpace
    iface_space: DGSpace
    bulk_coefficients: np.ndarray
    iface_coefficients: np.ndarray
    report: solver.SolveReport
    wellposedness: WellposednessReport
    perm: PermeabilityData
    system: SparseSystem | None = None

    def evaluate_bulk(self, points) -> np.ndarray:
        """Bulk pressure at arbitrary points of the two matrix blocks."""
        return _eval_bulk(self.mesh, self.bulk_space, self.bulk_coefficients,
                          points)

    def _interface_values(self, t, derivative: bool):
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        basis = _interface_basis(self.grid, self.iface_space,
                                 self.grid.element_of_t(tt), tt,
                                 self.iface_space.n_dofs,
                                 derivative=derivative)
        vals = basis @ self.iface_coefficients
        return vals if np.ndim(t) else float(vals[0])

    def evaluate_interface(self, t) -> np.ndarray:
        """Interface pressure at tangential coordinates ``t``."""
        return self._interface_values(t, derivative=False)

    def interface_derivative(self, t) -> np.ndarray:
        """Tangential derivative of the interface pressure at ``t``."""
        return self._interface_values(t, derivative=True)

    def wall_trace(self, side: int, t) -> np.ndarray:
        """Bulk pressure trace on wall 1 or 2 at tangential coordinates
        ``t``, evaluated at the mesh's walls."""
        if side not in (1, 2):
            raise ValueError("side must be 1 or 2")
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        trace = _wall_trace_matrix(self.mesh, self.grid, self.bulk_space,
                                   side, self.grid.element_of_t(tt), tt,
                                   self.bulk_space.n_dofs)
        vals = trace @ self.bulk_coefficients
        return vals if np.ndim(t) else float(vals[0])


def effective_velocity(solution: ReducedSolution, t) -> np.ndarray:
    """Tangential flow velocity along the fracture at coordinates ``t``.

    Computed from the tangential flux of the aperture-weighted interface
    pressure; the wall-trace slope terms are included exactly when the
    variant keeps them in the transport equation.
    """
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    pg = np.atleast_1d(solution.evaluate_interface(tt))
    dpg = np.atleast_1d(solution.interface_derivative(tt))
    d, dd, dd1, dd2 = _aperture(solution.mesh, tt)
    total = dd * pg + d * dpg
    if solution.variant.gradient_terms_in_transport:
        p1 = np.atleast_1d(solution.wall_trace(1, tt))
        p2 = np.atleast_1d(solution.wall_trace(2, tt))
        total = total - (p1 * dd1 + p2 * dd2)
    u = -np.multiply.outer(total, solution.perm.k_gamma[:, 1])
    return u if np.ndim(t) else u[0]


# ---------------------------------------------------------------------------
# run orchestration

def _degree_pair(degrees) -> tuple[int, int]:
    """(bulk, interface) degrees, one or a pair, as given."""
    if not isinstance(degrees, (tuple, list)):
        degrees = (degrees, degrees)
    if len(degrees) != 2:
        raise refusal("degrees", "degrees must be an int or (bulk, interface)")
    return degrees[0], degrees[1]


def _physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def preflight(preset: ProblemPreset, h: float, degrees=1, *, mode: str,
              mu0: float = 10.0, mu0_gamma: float | None = None,
              fracture_layers: int = 4,
              h_normal: float | None = None) -> None:
    """Refuse, before anything is meshed, a run on the ``mode`` mesh at
    ``h`` ("auto": the reduced meshes of a sweep) that cannot be done:
    degrees outside 1..MAX_DEGREE, a ``mu0`` or ``mu0_gamma`` that is not
    positive and finite, an ``h`` or ``h_normal`` that is not positive,
    ``fracture_layers`` that is not an integer of at least 1, the
    preset's ``xi`` and aperture bounds (``profile``), or a bulk assembly
    whose estimate exceeds the physical memory (``h``, or ``h_normal`` when
    set).  The ValueError or MemoryError names the parameter as its
    ``param``."""
    for k in _degree_pair(degrees):
        check_degree(k, "degrees")
    for name, value in (("mu0", mu0), ("mu0_gamma", mu0_gamma)):
        if value is not None and not 0.0 < value < math.inf:
            raise refusal(name, f"{name} must be "
                          f"{'finite' if value > 0.0 else 'positive'}")
    for name, value in (("h", h), ("h_normal", h_normal)):
        if value is not None and not value > 0.0:
            raise refusal(name, f"{name} must be positive, got {value}")
    if not isinstance(fracture_layers, (int, np.integer)) \
            or fracture_layers < 1:
        raise refusal("fracture_layers", "fracture_layers must be an "
                      f"integer of at least 1, got {fracture_layers}")
    preset.permeability()
    check_aperture_bounds(preset.domain, preset.profile,
                          fracture_layers if mode == "full" else 1)
    try:
        elements = float(element_count(preset.domain, mode, h, preset.gamma0,
                                       fracture_layers, h_normal))
    except OverflowError:  # more lattice lines than a float can count
        elements = math.inf
    degree = _degree_pair(degrees)[0]
    need, have = bulk_assembly_bytes(elements, degree), _physical_memory()
    if need > have:
        raise refusal("h" if h_normal is None else "h_normal",
                      f"Unable to allocate the {need / 2**30:.3g} GiB that "
                      f"assembling {elements:.3g} elements of degree "
                      f"{degree} needs; the machine has {have / 2**30:.3g} "
                      "GiB", MemoryError)


def full_mesh(preset: ProblemPreset, h: float, *, fracture_layers: int = 4,
              h_normal: float | None = None) -> Mesh:
    """Fracture-conforming mesh of the full-dimensional model."""
    return build_bulk_mesh(preset.domain, preset.profile, "full", h,
                           gamma0=preset.gamma0,
                           fracture_layers=fracture_layers,
                           h_target_normal=h_normal)


def prepare_full(preset: ProblemPreset, h: float, degrees=1,
                 mu0: float = 10.0, *, fracture_layers: int = 4,
                 h_normal: float | None = None, mesh: Mesh | None = None):
    """Mesh, spaces and assembled system of the full-dimensional model
    after the :func:`preflight`; ``mesh`` is :func:`full_mesh` of the same
    arguments when the caller has built it."""
    preflight(preset, h, degrees, mode="full", mu0=mu0,
              fracture_layers=fracture_layers, h_normal=h_normal)
    if mesh is None:
        mesh = full_mesh(preset, h, fracture_layers=fracture_layers,
                         h_normal=h_normal)
    space = DGSpace.bulk(mesh, _degree_pair(degrees)[0])
    perm = preset.permeability()
    system = assemble_full(mesh, space, perm, preset.q, preset.g, mu0)
    return mesh, space, perm, system


def run_full(preset: ProblemPreset, h: float, degrees=1, mu0: float = 10.0,
             *, fracture_layers: int = 4, h_normal: float | None = None,
             method: str | None = None, tol: float = 1e-10,
             max_iter: int | None = None,
             mesh: Mesh | None = None) -> FullSolution:
    """Solve the full-dimensional problem on a fracture-conforming mesh
    (:func:`prepare_full`)."""
    mesh, space, perm, system = prepare_full(
        preset, h, degrees, mu0, fracture_layers=fracture_layers,
        h_normal=h_normal, mesh=mesh)
    x, report = solver.solve(system, method=method, tol=tol,
                             max_iter=max_iter)
    logger.info("full run: h=%g dofs=%d %s", h, system.matrix.shape[0],
                report.summary())
    return FullSolution(preset=preset, mesh=mesh, space=space,
                        coefficients=x, report=report, perm=perm,
                        system=system)


@dataclass
class ReducedProblem:
    """One reduced discretization: a mesh, its interface grid, both
    spaces and the system every variant on that mesh shares (bulk SIPG,
    tangential flow and coupling forms, with the full rhs).

    A variant's system is the shared system plus the forms its table row
    adds: :func:`~fracdg.assembly.transport_form` where
    ``gradient_terms_in_transport`` (``I``, ``I-R``), nothing otherwise
    (``II``, ``II-R``).  Build one with :meth:`build`.
    """

    preset: ProblemPreset
    mesh: Mesh
    grid: InterfaceGrid
    bulk_space: DGSpace
    iface_space: DGSpace
    perm: PermeabilityData
    wellposedness: WellposednessReport
    system: SparseSystem
    edge_terms: str

    @classmethod
    def build(cls, preset: ProblemPreset, mesh_mode: str, h: float,
              degrees=1, mu0: float = 10.0, *,
              mu0_gamma: float | None = None,
              edge_terms: str = "consistent") -> "ReducedProblem":
        """Mesh the preset in ``mesh_mode`` ("curved-reduced" or
        "rectified") and assemble the shared system.

        A violated wellposedness bound is logged as a warning and recorded
        on the problem; the bound is sufficient, not necessary, so runs
        beyond it are legitimate experiments.  The :func:`preflight` runs
        before anything is meshed.
        """
        preflight(preset, h, degrees, mode=mesh_mode, mu0=mu0,
                  mu0_gamma=mu0_gamma)
        mesh = build_bulk_mesh(preset.domain, preset.profile, mesh_mode, h,
                               gamma0=preset.gamma0)
        grid = build_interface_grid(mesh)
        k_bulk, k_iface = _degree_pair(degrees)
        bulk_space = DGSpace.bulk(mesh, k_bulk)
        iface_space = DGSpace.interface(grid, k_iface)
        perm = preset.permeability()
        system = assemble_reduced(
            mesh, grid, bulk_space, iface_space, perm,
            preset.q, preset.q_gamma, preset.g, preset.gamma_data(),
            mu0, mu0 if mu0_gamma is None else mu0_gamma,
            edge_terms=edge_terms)
        wp = check_wellposedness(preset.profile, perm)
        if not wp.satisfied:
            logger.warning("wellposedness bound violated (lhs=%.3g >= 16); "
                           "proceeding anyway", wp.lhs)
        return cls(preset=preset, mesh=mesh, grid=grid,
                   bulk_space=bulk_space, iface_space=iface_space, perm=perm,
                   wellposedness=wp, system=system, edge_terms=edge_terms)

    def system_of(self, variant) -> SparseSystem:
        """The system of a variant that may run on this mesh."""
        var = ModelVariant.of(variant)
        resolve_mesh_mode(var, self.mesh.profile, self.mesh.mode)
        if not var.gradient_terms_in_transport:
            return self.system
        return self.system.plus(transport_form(
            self.mesh, self.grid, self.bulk_space, self.iface_space,
            self.perm, self.edge_terms))

    def solve(self, variant, method: str | None = None, tol: float = 1e-10,
              max_iter: int | None = None) -> ReducedSolution:
        """Solve one variant on this mesh."""
        var = ModelVariant.of(variant)
        system = self.system_of(var)
        x, report = solver.solve(system, method=method, tol=tol,
                                 max_iter=max_iter)
        logger.info("variant %s: h=%g dofs=%d %s", var.name,
                    self.mesh.h_target, system.matrix.shape[0],
                    report.summary())
        nb = self.bulk_space.n_dofs
        return ReducedSolution(
            preset=self.preset, variant=var, mesh=self.mesh, grid=self.grid,
            bulk_space=self.bulk_space, iface_space=self.iface_space,
            bulk_coefficients=x[:nb], iface_coefficients=x[nb:],
            report=report, wellposedness=self.wellposedness, perm=self.perm,
            system=system)


def prepare_reduced(preset: ProblemPreset, variant, h: float, degrees=1,
                    mu0: float = 10.0, *, mu0_gamma: float | None = None,
                    mesh_mode: str = "auto", edge_terms: str = "consistent"):
    """The problem on the mesh a reduced variant runs on, and that
    variant's system.  A variant that cannot run on ``mesh_mode`` is
    refused before anything is meshed."""
    problem = ReducedProblem.build(
        preset, resolve_mesh_mode(variant, preset.profile, mesh_mode), h,
        degrees, mu0, mu0_gamma=mu0_gamma, edge_terms=edge_terms)
    return problem, problem.system_of(variant)


def run_reduced(preset: ProblemPreset, variant, h: float, degrees=1,
                mu0: float = 10.0, *, mu0_gamma: float | None = None,
                mesh_mode: str = "auto", edge_terms: str = "consistent",
                method: str | None = None, tol: float = 1e-10,
                max_iter: int | None = None) -> ReducedSolution:
    """Solve one reduced model end to end (:class:`ReducedProblem`); a
    variant that cannot run on ``mesh_mode`` is refused before meshing."""
    problem = ReducedProblem.build(
        preset, resolve_mesh_mode(variant, preset.profile, mesh_mode), h,
        degrees, mu0, mu0_gamma=mu0_gamma, edge_terms=edge_terms)
    return problem.solve(variant, method, tol, max_iter)
