"""End-to-end model runs: geometry, mesh, assembly, solve, evaluation.

The variant table in :mod:`fracdg.assembly` (``ModelVariant``, re-exported
here) is the single source of truth for what distinguishes the reduced
models: whether the bulk domains are rectified onto the midline and
whether the tangential transport equation keeps the wall-slope terms.
The problem presets bundle the data of the benchmark configurations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import solver
from .assembly import MODEL_NAMES, DGSpace, ModelVariant, SparseSystem, \
    _basis_at, _ElementMaps, _iface_local, _wall_points, assemble_full, \
    assemble_reduced, resolve_mesh_mode, seg_basis, seg_basis_deriv
from .geometry import ApertureProfile, FractureFrame, PermeabilityData, \
    WellposednessReport, check_wellposedness
from .mesh import InterfaceGrid, Mesh, build_bulk_mesh, build_interface_grid

logger = logging.getLogger(__name__)

PRESET_NAMES = ("perp-asym", "perp-sym", "tangential", "manufactured",
                "custom")

UNIT_SQUARE = ((0.0, 0.0), (1.0, 1.0))


# ---------------------------------------------------------------------------
# presets

@dataclass(frozen=True)
class ProblemPreset:
    """Data of one benchmark problem.

    ``g`` is the bulk Dirichlet datum (callable on (m, 2) arrays), ``q``
    the bulk source, ``q_gamma`` the interface source and ``g_gamma`` the
    interface Dirichlet datum at the fracture endpoints; ``g_gamma=None``
    uses the trace of ``g`` on the midline, the only choice consistent
    with the full-dimensional reference.  ``exact_pressure`` and
    ``gamma_reference`` carry closed-form references where one exists.
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
    frame: FractureFrame = field(
        default_factory=lambda: FractureFrame.vertical_line(0.5))
    domain: tuple = UNIT_SQUARE
    exact_pressure: Callable | None = None
    gamma_reference: Callable | None = None

    def permeability(self, xi: float | None = None) -> PermeabilityData:
        return PermeabilityData.from_fracture(
            self.k1, self.k2, self.k_f, self.xi if xi is None else xi,
            self.frame)

    def gamma_data(self) -> Callable:
        if self.g_gamma is not None:
            return self.g_gamma
        g, frame = self.g, self.frame

        def trace(t):
            pts = np.atleast_2d(frame.point(np.asarray(t, dtype=float)))
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
    """Element id containing each point (-1 when outside the mesh)."""
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


def _eval_bulk(mesh: Mesh, space: DGSpace, coeffs: np.ndarray,
               maps: _ElementMaps, points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    elems = _locate(mesh, pts)
    if np.any(elems < 0):
        bad = pts[elems < 0][0]
        raise ValueError(f"point {tuple(bad)} lies outside the mesh")
    vals = np.empty(len(pts))
    for i, e in enumerate(elems):
        e = int(e)
        phi = _basis_at(maps, space, e, pts[i:i + 1])
        vals[i] = phi[0] @ coeffs[space.element_dofs(e)]
    return vals


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

    @property
    def variant(self) -> ModelVariant:
        return ModelVariant.of("full")

    def _maps(self) -> _ElementMaps:
        if not hasattr(self, "_maps_cache"):
            self._maps_cache = _ElementMaps.build(self.mesh)
        return self._maps_cache

    def evaluate(self, points) -> np.ndarray:
        """Pressure at arbitrary points of the meshed domain."""
        return _eval_bulk(self.mesh, self.space, self.coefficients,
                          self._maps(), points)


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

    def _maps(self) -> _ElementMaps:
        if not hasattr(self, "_maps_cache"):
            self._maps_cache = _ElementMaps.build(self.mesh)
        return self._maps_cache

    def evaluate_bulk(self, points) -> np.ndarray:
        """Bulk pressure at arbitrary points of the two matrix blocks."""
        return _eval_bulk(self.mesh, self.bulk_space, self.bulk_coefficients,
                          self._maps(), points)

    def evaluate_interface(self, t) -> np.ndarray:
        """Interface pressure at tangential coordinates ``t``."""
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        vals = np.empty(len(tt))
        for i, ti in enumerate(tt):
            e = self.grid.element_of_t(float(ti))
            loc = _iface_local(self.grid, e, np.array([ti]))
            k = int(self.iface_space.degrees[e])
            psi = seg_basis(k, loc)
            vals[i] = psi[0] @ self.iface_coefficients[
                self.iface_space.element_dofs(e)]
        return vals if np.ndim(t) else float(vals[0])

    def interface_derivative(self, t) -> np.ndarray:
        """Tangential derivative of the interface pressure at ``t``."""
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        vals = np.empty(len(tt))
        for i, ti in enumerate(tt):
            e = self.grid.element_of_t(float(ti))
            t0, t1 = self.grid.t_breaks[e], self.grid.t_breaks[e + 1]
            loc = _iface_local(self.grid, e, np.array([ti]))
            k = int(self.iface_space.degrees[e])
            dpsi = seg_basis_deriv(k, loc) / (t1 - t0)
            vals[i] = dpsi[0] @ self.iface_coefficients[
                self.iface_space.element_dofs(e)]
        return vals if np.ndim(t) else float(vals[0])

    def wall_trace(self, side: int, t) -> np.ndarray:
        """Bulk pressure trace on wall 1 or 2 at tangential coordinates
        ``t``, evaluated where the mesh mode puts the traces."""
        if side not in (1, 2):
            raise ValueError("side must be 1 or 2")
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        x = _wall_points(self.mesh, self.preset.profile, tt, side)
        belem = self.grid.belem1 if side == 1 else self.grid.belem2
        maps = self._maps()
        vals = np.empty(len(tt))
        for i, ti in enumerate(tt):
            e = int(belem[self.grid.element_of_t(float(ti))])
            phi = _basis_at(maps, self.bulk_space, e, x[i:i + 1])
            vals[i] = phi[0] @ self.bulk_coefficients[
                self.bulk_space.element_dofs(e)]
        return vals if np.ndim(t) else float(vals[0])


def effective_velocity(solution: ReducedSolution, t) -> np.ndarray:
    """Tangential flow velocity along the fracture at coordinates ``t``.

    Computed from the tangential flux of the aperture-weighted interface
    pressure; the wall-trace slope terms are included exactly when the
    variant keeps them in the transport equation.
    """
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    profile = solution.preset.profile
    pg = np.atleast_1d(solution.evaluate_interface(tt))
    dpg = np.atleast_1d(solution.interface_derivative(tt))
    d1 = np.asarray(profile.d1_fn(tt), dtype=float)
    d2 = np.asarray(profile.d2_fn(tt), dtype=float)
    dd1 = np.asarray(profile.dd1_fn(tt), dtype=float)
    dd2 = np.asarray(profile.dd2_fn(tt), dtype=float)
    total = (dd1 + dd2) * pg + (d1 + d2) * dpg
    if solution.variant.gradient_terms_in_transport:
        p1 = np.atleast_1d(solution.wall_trace(1, tt))
        p2 = np.atleast_1d(solution.wall_trace(2, tt))
        total = total - (p1 * dd1 + p2 * dd2)
    tau = solution.preset.frame.tangents[0]
    ktau = solution.perm.k_gamma @ tau
    u = -np.multiply.outer(total, ktau)
    return u if np.ndim(t) else u[0]


# ---------------------------------------------------------------------------
# run orchestration

def _bulk_degree(degrees) -> int:
    if isinstance(degrees, (tuple, list)):
        return int(degrees[0])
    return int(degrees)


def _iface_degree(degrees) -> int:
    if isinstance(degrees, (tuple, list)):
        if len(degrees) != 2:
            raise ValueError("degrees must be an int or (bulk, interface)")
        return int(degrees[1])
    return int(degrees)


def prepare_full(preset: ProblemPreset, h: float, degrees=1,
                 mu0: float = 10.0, *, fracture_layers: int = 4,
                 h_normal: float | None = None):
    """Mesh, spaces and assembled system of the full-dimensional model."""
    mesh = build_bulk_mesh(preset.domain, preset.profile, "full", h,
                           frame=preset.frame,
                           fracture_layers=fracture_layers,
                           h_target_normal=h_normal)
    space = DGSpace.bulk(mesh, _bulk_degree(degrees))
    perm = preset.permeability()
    system = assemble_full(mesh, space, perm, preset.q, preset.g, mu0)
    return mesh, space, perm, system


def run_full(preset: ProblemPreset, h: float, degrees=1, mu0: float = 10.0,
             *, fracture_layers: int = 4, h_normal: float | None = None,
             method: str | None = None, tol: float = 1e-10,
             max_iter: int | None = None) -> FullSolution:
    """Solve the full-dimensional problem on a fracture-conforming mesh."""
    mesh, space, perm, system = prepare_full(
        preset, h, degrees, mu0, fracture_layers=fracture_layers,
        h_normal=h_normal)
    x, report = solver.solve(system, method=method, tol=tol,
                             max_iter=max_iter)
    logger.info("full run: h=%g dofs=%d %s", h, system.matrix.shape[0],
                report.summary())
    return FullSolution(preset=preset, mesh=mesh, space=space,
                        coefficients=x, report=report, perm=perm,
                        system=system)


def prepare_reduced(preset: ProblemPreset, variant, h: float, degrees=1,
                    mu0: float = 10.0, xi: float | None = None, *,
                    mu0_gamma: float | None = None, mesh_mode: str = "auto",
                    edge_terms: str = "consistent", g_gamma=None):
    """Mesh, grid, spaces and assembled system of a reduced model."""
    var = ModelVariant.of(variant)
    if var.is_full:
        raise ValueError("use run_full for the full-dimensional model")
    mode = resolve_mesh_mode(var, preset.profile, mesh_mode)
    mesh = build_bulk_mesh(preset.domain, preset.profile, mode, h,
                           frame=preset.frame)
    grid = build_interface_grid(mesh)
    bulk_space = DGSpace.bulk(mesh, _bulk_degree(degrees))
    iface_space = DGSpace.interface(grid, _iface_degree(degrees))
    perm = preset.permeability(xi)
    system = assemble_reduced(
        mesh, grid, bulk_space, iface_space, perm, preset.profile,
        preset.q, preset.q_gamma, preset.g,
        preset.gamma_data() if g_gamma is None else g_gamma,
        var.name, mu0, mu0 if mu0_gamma is None else mu0_gamma,
        edge_terms=edge_terms)
    return var, mesh, grid, bulk_space, iface_space, perm, system


def run_reduced(preset: ProblemPreset, variant, h: float, degrees=1,
                mu0: float = 10.0, xi: float | None = None, *,
                mu0_gamma: float | None = None, mesh_mode: str = "auto",
                edge_terms: str = "consistent", g_gamma=None,
                method: str | None = None, tol: float = 1e-10,
                max_iter: int | None = None) -> ReducedSolution:
    """Solve one reduced model end to end.

    A violated wellposedness bound is logged as a warning and recorded on
    the solution; the bound is sufficient, not necessary, so runs beyond
    it are legitimate experiments.
    """
    var, mesh, grid, bulk_space, iface_space, perm, system = \
        prepare_reduced(preset, variant, h, degrees, mu0, xi,
                        mu0_gamma=mu0_gamma, mesh_mode=mesh_mode,
                        edge_terms=edge_terms, g_gamma=g_gamma)
    wp = check_wellposedness(preset.profile, perm)
    if not wp.satisfied:
        logger.warning("wellposedness bound violated (lhs=%.3g >= 16); "
                       "proceeding anyway", wp.lhs)
    x, report = solver.solve(system, method=method, tol=tol,
                             max_iter=max_iter)
    logger.info("variant %s: h=%g dofs=%d %s", var.name, h,
                system.matrix.shape[0], report.summary())
    nb = bulk_space.n_dofs
    return ReducedSolution(preset=preset, variant=var, mesh=mesh, grid=grid,
                           bulk_space=bulk_space, iface_space=iface_space,
                           bulk_coefficients=x[:nb],
                           iface_coefficients=x[nb:], report=report,
                           wellposedness=wp, perm=perm, system=system)
