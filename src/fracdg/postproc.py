"""Comparison quantities: averaged reference pressure, interface errors,
aperture sweeps, and field dumps.

The reference interface pressure is the aperture average of a
full-dimensional solution, taken per transversal line with the analytic
wall positions of its mesh (``Mesh.walls``) as integration endpoints and
the integration split at element boundaries so each piece sees a single
polynomial.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import models, solver
from .assembly import EDGE_TERMS, _aperture, _data_at, check_degree, \
    segment_rule, tri_basis, triangle_rule
from .geometry import refusal
from .mesh import FRACTURE, REDUCED_MESH_MODES, InterfaceGrid, Mesh, \
    _pow2_count, check_aperture_bounds

logger = logging.getLogger(__name__)

DEFAULT_N_QUAD = 16
REFERENCES = ("full", "exact")


# ---------------------------------------------------------------------------
# transversal averaging

def _fracture_block(mesh: Mesh):
    """The lattice of a full mesh and the columns of its fracture block."""
    if mesh.mode != "full":
        raise ValueError("averaging needs a full-dimensional solution")
    lat = mesh.lattices[0]
    cols = np.flatnonzero(lat.col_tags == FRACTURE)
    if len(cols) == 0:
        raise ValueError("mesh has no fracture block")
    return lat, cols


def _transversal_lines(mesh: Mesh, t: np.ndarray):
    """Where the transversal lines at coordinates ``t`` cross the fracture
    block of a full mesh.

    Returns the row ``j`` of each line, its fraction ``s`` of the row
    (shape (n, 1)), the mesh's walls ``w1`` and ``w2``, and the block's
    lattice lines on the row's lower and upper line and on the transversal
    line itself (``lower``, ``upper``, ``edges``, shape (n, ncols + 1)).
    Raises ValueError when a coordinate leaves the block, or when the
    block's outer lines miss the analytic walls by more than half the
    narrowest cell of the line: the mesh does not resolve the aperture
    profile there.
    """
    lat, cols = _fracture_block(mesh)
    ys = lat.ys
    outside = ~((t >= ys[0] - 1e-12) & (t <= ys[-1] + 1e-12))
    if np.any(outside):
        raise ValueError(f"coordinate {t[outside][0]} leaves the "
                         "fracture block")
    j = np.clip(np.searchsorted(ys, t, side="right") - 1, 0, lat.n_rows - 1)
    s = ((t - ys[j]) / (ys[j + 1] - ys[j]))[:, None]
    w1, w2 = mesh.walls(t)

    lines = np.arange(cols[0], cols[-1] + 2)
    lower, upper = lat.xs[j][:, lines], lat.xs[j + 1][:, lines]
    edges = (1.0 - s) * lower + s * upper
    width = np.diff(edges, axis=1).min(axis=1)
    if np.any((np.abs(edges[:, 0] - w1) > 0.5 * width)
              | (np.abs(edges[:, -1] - w2) > 0.5 * width)):
        raise ValueError("transversal segment exits the fracture block; "
                         "the mesh does not match the aperture profile")
    return j, s, w1, w2, lower, upper, edges


def check_wall_fit(mesh: Mesh, h: float) -> None:
    """Raise ValueError when the fracture block of a full mesh cannot be
    averaged where an error table at spacing ``h`` evaluates the average:
    :func:`_transversal_lines` at the ``DEFAULT_N_QUAD`` Gauss points of
    every row of a reduced mesh at ``h``, the elements of its interface
    grid, whatever the rows of ``mesh`` are."""
    ys = mesh.lattices[0].ys
    breaks = np.linspace(ys[0], ys[-1], _pow2_count(ys[-1] - ys[0], h) + 1)
    tq, _ = segment_rule(DEFAULT_N_QUAD)
    _transversal_lines(mesh, (breaks[:-1, None]
                              + tq * np.diff(breaks)[:, None]).ravel())


@dataclass
class GammaAverage:
    """Aperture-averaged pressure of a full-dimensional solution,
    evaluable at tangential coordinates; the walls and the aperture are
    those of the solution's mesh.  The averages at the last coordinates
    asked for are kept: every reduced mesh at one spacing has the same
    interface grid, so the variants of a sweep ask for the same ones."""

    full: models.FullSolution

    def __post_init__(self):
        self._lat, self._cols = _fracture_block(self.full.mesh)
        self._last = (np.empty(0), np.empty(0))

    def _average(self, t: np.ndarray) -> np.ndarray:
        """Averages over the transversal lines at coordinates ``t``.

        Every line is split at the lattice lines and the cell diagonals
        it crosses, 2 * ncols + 1 breakpoints clipped to the walls [a, b],
        so each piece lies in one triangle; pieces shorter than 1e-14
        contribute nothing.  The integral is divided by the profile's
        aperture d1 + d2.
        """
        lat, cols = self._lat, self._cols
        full, mesh = self.full, self.full.mesh
        j, s, a, b, lower, upper, edges = _transversal_lines(mesh, t)

        # diagonal crossings: each cell's lower-left to upper-right split
        diag = (1.0 - s) * lower[:, :-1] + s * upper[:, 1:]
        breaks = np.column_stack([a, edges[:, 1:-1], diag, b])
        breaks = np.sort(np.clip(breaks, a[:, None], b[:, None]), axis=1)
        lo, hi = breaks[:, :-1], breaks[:, 1:]
        size = hi - lo
        mid = 0.5 * (lo + hi)
        col = np.clip((edges[:, None, :] <= mid[..., None]).sum(axis=-1) - 1,
                      0, len(cols) - 1)
        which = (mid <= np.take_along_axis(diag, col, axis=1)).astype(int)
        elems = lat.elem_ids[j[:, None], cols[col], which]

        tq, wq = segment_rule(DEFAULT_N_QUAD)
        xs = lo[..., None] + tq * size[..., None]
        pts = np.stack([xs, np.broadcast_to(t[:, None, None], xs.shape)],
                       axis=-1)
        values = models._field_at(mesh.maps, full.space, full.coefficients,
                                  elems, pts)
        pieces = (values @ wq) * np.where(size < 1e-14, 0.0, size)
        return pieces.sum(axis=1) / _aperture(mesh, t)[0]

    def __call__(self, t) -> np.ndarray:
        at = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.array_equal(at, self._last[0]):
            self._last = (at.copy(), self._average(at))
        out = self._last[1].copy()
        return out if np.ndim(t) else float(out[0])


def average_across_fracture(full: models.FullSolution) -> GammaAverage:
    """Aperture average of the full-dimensional pressure as an interface
    field, across the walls of the solution's mesh."""
    return GammaAverage(full)


# ---------------------------------------------------------------------------
# interface error metric

def _as_gamma_callable(obj) -> Callable:
    if isinstance(obj, models.ReducedSolution):
        return obj.evaluate_interface
    if callable(obj):
        return obj
    value = float(obj)
    return lambda t: np.full_like(np.asarray(t, dtype=float), value)


def l2_error_gamma(field_a, field_b, grid: InterfaceGrid) -> float:
    """L2 norm of the difference of two interface fields over the grid.

    Fields may be callables of the tangential coordinate, reduced
    solutions, or constants.
    """
    fa, fb = _as_gamma_callable(field_a), _as_gamma_callable(field_b)
    tq, wq = segment_rule(DEFAULT_N_QUAD)
    lengths = np.diff(grid.t_breaks)
    ts = (grid.t_breaks[:-1, None] + tq * lengths[:, None]).ravel()
    diff = np.asarray(fa(ts), dtype=float) - np.asarray(fb(ts), dtype=float)
    diff = np.broadcast_to(diff, ts.shape).reshape(len(lengths), len(tq))
    return float(np.sqrt(np.sum((diff**2 @ wq) * lengths)))


def l2_error_bulk(solution, exact: Callable) -> float:
    """L2 norm of (discrete - exact) over the meshed bulk domain, with
    the degree-(k+2) rule for a bulk space of degree k."""
    if isinstance(solution, models.FullSolution):
        space, coeffs = solution.space, solution.coefficients
    else:
        space, coeffs = solution.bulk_space, solution.bulk_coefficients
    maps, k = solution.mesh.maps, space.degree
    elems = np.arange(solution.mesh.n_elements)
    pts, w = triangle_rule(k + 2)
    vals = coeffs[space.dofs(elems)] @ tri_basis(k, pts).T
    diff = vals - _data_at(exact, maps.points(elems, pts))
    return float(np.sqrt((diff**2 @ w) @ np.abs(maps.det)))


# ---------------------------------------------------------------------------
# sweep tables

@dataclass(frozen=True)
class ErrorRow:
    d0: float
    variant: str
    l2_error: float
    bulk_dofs: int
    iface_dofs: int
    residual: float
    note: str = ""


@dataclass
class ErrorTable:
    """Sweep results, one row per (d0, variant)."""

    rows: list = field(default_factory=list)

    HEADER = "d0,variant,l2_error,bulk_dofs,iface_dofs,residual"

    def add(self, row: ErrorRow) -> None:
        if np.isfinite(row.l2_error) and row.l2_error < 0.0:
            raise ValueError("negative error")
        if any(r.d0 == row.d0 and r.variant == row.variant
               for r in self.rows):
            raise ValueError(f"duplicate row ({row.d0}, {row.variant})")
        self.rows.append(row)

    def get(self, d0: float, variant: str) -> ErrorRow:
        for r in self.rows:
            if r.d0 == d0 and r.variant == variant:
                return r
        raise KeyError((d0, variant))

    def errors(self, variant: str) -> np.ndarray:
        return np.array([r.l2_error for r in self.rows
                         if r.variant == variant])

    def to_csv(self) -> str:
        lines = [self.HEADER]
        for r in self.rows:
            lines.append(f"{r.d0:.17g},{r.variant},{r.l2_error:.17g},"
                         f"{r.bulk_dofs},{r.iface_dofs},{r.residual:.17g}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())


def _require_converged(report, tol: float) -> None:
    """Raise when a solve stopped short of its residual target."""
    if not report.converged:
        raise RuntimeError(f"solve did not converge: relative residual "
                           f"{report.relative_residual:.3e} > tol {tol:g}")


def sweep_presets(preset, variants: Sequence[str], d0_list: Sequence[float],
                  h: float, *, degrees=1, mu0: float = 10.0,
                  mu0_gamma: float | None = None, ref_degrees=None,
                  fracture_layers: int = 4, reference: str = "full",
                  ref_method: str | None = "direct-LU",
                  mesh_mode: str = "auto", edge_terms: str = "consistent",
                  method: str | None = None, tol: float = 1e-10,
                  max_iter: int | None = None) -> list:
    """The preset of every d0 of an :func:`aperture_sweep`, once nothing
    fails the whole sweep: a variant or d0 listed twice, a d0 that is not
    positive or cannot make its preset, an unknown ``reference``,
    ``method``, ``ref_method``, ``edge_terms`` or ``mesh_mode``, or what
    the stopping rule and the :func:`~fracdg.models.preflight` of the
    reduced meshes refuse.  The ValueError or MemoryError names the
    parameter as its ``param``."""
    make = preset if callable(preset) else \
        (lambda d0: models.preset_by_name(preset, d0=d0))
    if len(set(variants)) != len(variants):
        raise refusal("variants", "variants listed twice")
    if len(set(d0_list)) != len(d0_list):
        raise refusal("d0_list", "d0 values listed twice")
    for d0 in d0_list:
        if not d0 > 0.0:
            raise refusal("d0_list", f"d0 must be positive, got {d0:g}")
    for name, value, known in (
            ("reference", reference, REFERENCES),
            ("method", method, (None, *solver.METHODS)),
            ("ref_method", ref_method, (None, *solver.METHODS)),
            ("edge_terms", edge_terms, EDGE_TERMS),
            ("mesh_mode", mesh_mode, ("auto", *REDUCED_MESH_MODES))):
        if value not in known:
            raise refusal(name, f"unknown {name} {value!r}, expected one "
                          f"of {known}")
    for k in models._degree_pair(1 if ref_degrees is None else ref_degrees):
        check_degree(k, "ref_degrees")
    solver.check_stopping(tol, max_iter)
    presets = []
    for d0 in d0_list:
        try:
            pset = make(d0)
            models.preflight(pset, h, degrees, mode="auto", mu0=mu0,
                             mu0_gamma=mu0_gamma,
                             fracture_layers=fracture_layers)
            # d0 by the slab bound of its reference, whatever the reference
            check_aperture_bounds(pset.domain, pset.profile, fracture_layers)
        except MemoryError as exc:
            raise refusal("h", f"the reduced meshes at h cannot be "
                          f"assembled (MemoryError: {exc}); coarsen h",
                          MemoryError) from None
        except ValueError as exc:
            if getattr(exc, "param", "profile") != "profile":
                raise
            raise refusal("d0_list", f"d0 = {d0:g}: {exc}") from None
        if reference == "exact" and pset.gamma_reference is None:
            raise refusal("reference", f"preset {pset.name!r} has no "
                          "closed-form interface reference; use reference "
                          "= full")
        presets.append(pset)
    return presets


def reference_mesh(preset, d0: float, h: float, degrees=1, *,
                   ref_h: float | None = None,
                   ref_h_normal: float | None = None,
                   fracture_layers: int = 4) -> Mesh:
    """The full mesh of the reference of one d0 of an error table at
    spacing ``h``, at ``ref_h`` (or ``h``), once the preflight of its run
    at ``degrees`` and :func:`check_wall_fit` pass; a refusal names what
    to change."""
    key = "ref_h" if ref_h is not None else "h"
    size_key = "ref_h_normal" if ref_h_normal is not None else key
    try:
        models.preflight(preset, ref_h or h, degrees, mode="full",
                         fracture_layers=fracture_layers,
                         h_normal=ref_h_normal)
        mesh = models.full_mesh(preset, ref_h or h,
                                fracture_layers=fracture_layers,
                                h_normal=ref_h_normal)
    except ValueError as exc:
        raise refusal("d0_list", f"d0 = {d0:g}: {exc}") from None
    except Exception as exc:
        raise refusal(size_key, f"the reference mesh at d0 = {d0:g} cannot "
                      f"be built ({type(exc).__name__}: {exc}); coarsen "
                      f"{size_key}", MemoryError) from None
    try:
        check_wall_fit(mesh, h)
    except ValueError as exc:
        raise refusal(key, f"the reference mesh at d0 = {d0:g} cannot be "
                      f"averaged ({exc}); refine {key}") from None
    except Exception as exc:
        raise refusal("h", f"the averaging points at h cannot be built "
                      f"({type(exc).__name__}: {exc}); coarsen h",
                      MemoryError) from None
    return mesh


def aperture_sweep(preset, variants: Sequence[str], d0_list: Sequence[float],
                   h: float, *, degrees=1, mu0: float = 10.0,
                   mu0_gamma: float | None = None, ref_h: float | None = None,
                   ref_degrees=None, ref_h_normal: float | None = None,
                   fracture_layers: int = 4, reference: str = "full",
                   ref_method: str = "direct-LU",
                   mesh_mode: str = "auto", edge_terms: str = "consistent",
                   method: str | None = None, tol: float = 1e-10,
                   max_iter: int | None = None,
                   on_solution=None) -> ErrorTable:
    """Error table over an aperture-scale sweep.

    ``preset`` is a preset name or a callable mapping d0 to a
    ProblemPreset.  The preset carries the coupling weight ``xi``: to
    sweep another ``xi``, pass a callable such as
    ``lambda d0: preset_by_name(name, d0, xi)``.  For each d0 one
    full-dimensional reference is solved and averaged
    (``reference="full"``); all variants in that row compare against that
    same reference field.  ``reference="exact"`` uses the preset's
    closed-form interface reference instead and skips the full run.  The
    variants of a d0 that run on the same mesh share one
    :class:`~fracdg.models.ReducedProblem`, built on first use.  Failures
    are recorded per row and leave the rest of the sweep intact: a
    variant that cannot run on ``mesh_mode`` fails its row before anything
    is meshed for it, a solve that misses its residual target ``tol``
    fails its row, a problem that cannot be built every row on its mesh,
    and a failed reference every row of its d0.

    ``on_solution(d0, tag, solution)`` is invoked after every successful
    solve with tag "reference" for the full run and the variant name for
    reduced runs; it can dump fields or matrices without re-solving.
    What :func:`sweep_presets` refuses raises before anything is meshed,
    and a :func:`reference_mesh` refused fails its rows before any solve.
    """
    presets = sweep_presets(preset, variants, d0_list, h, degrees=degrees,
                            mu0=mu0, mu0_gamma=mu0_gamma,
                            ref_degrees=ref_degrees,
                            fracture_layers=fracture_layers,
                            reference=reference, ref_method=ref_method,
                            mesh_mode=mesh_mode, edge_terms=edge_terms,
                            method=method, tol=tol, max_iter=max_iter)
    table = ErrorTable()
    for d0, pset in zip(d0_list, presets):
        # the last d0's reference, problems and solutions die before this
        # one's reference is assembled, so at most one reference is alive
        full = sol = ref = problem = None
        problems = {}  # mesh mode -> ReducedProblem, or why it failed
        ref_note = ""
        if reference == "exact":
            ref = pset.gamma_reference
            logger.info("d0=%g: closed-form interface reference", d0)
        else:
            try:
                full = models.run_full(
                    pset, ref_h or h, ref_degrees or degrees, mu0,
                    fracture_layers=fracture_layers, h_normal=ref_h_normal,
                    method=ref_method, tol=tol, max_iter=max_iter,
                    mesh=reference_mesh(
                        pset, d0, h, ref_degrees or degrees, ref_h=ref_h,
                        ref_h_normal=ref_h_normal,
                        fracture_layers=fracture_layers))
                _require_converged(full.report, tol)
                ref = average_across_fracture(full)
                logger.info("d0=%g: reference %s", d0, full.report.method)
                if on_solution is not None:
                    on_solution(d0, "reference", full)
            except Exception as exc:
                ref_note = f"reference failed: {exc}"
                logger.error("d0=%g: %s", d0, ref_note)
        for variant in variants:
            if ref is None:
                table.add(ErrorRow(d0, str(variant), float("nan"), 0, 0,
                                   float("nan"), note=ref_note))
                continue
            sol = None
            try:
                mode = models.resolve_mesh_mode(variant, pset.profile,
                                                mesh_mode)
                if mode not in problems:
                    try:
                        problems[mode] = models.ReducedProblem.build(
                            pset, mode, h, degrees, mu0,
                            mu0_gamma=mu0_gamma, edge_terms=edge_terms)
                    except Exception as exc:
                        problems[mode] = str(exc)
                problem = problems[mode]
                if isinstance(problem, str):
                    raise RuntimeError(problem)
                sol = problem.solve(variant, method, tol, max_iter)
                _require_converged(sol.report, tol)
                err = l2_error_gamma(sol, ref, sol.grid)
                table.add(ErrorRow(d0, str(variant), err,
                                   sol.bulk_space.n_dofs,
                                   sol.iface_space.n_dofs,
                                   sol.report.relative_residual))
                logger.info(
                    "d0=%g variant %s: err=%.6e wellposedness lhs=%.3g "
                    "(%s)", d0, variant, err, sol.wellposedness.lhs,
                    "ok" if sol.wellposedness.satisfied else "violated")
                if on_solution is not None:
                    on_solution(d0, str(variant), sol)
            except Exception as exc:
                # a solve that ran keeps its dofs and residual in the row
                ran = sol is not None
                table.add(ErrorRow(
                    d0, str(variant), float("nan"),
                    sol.bulk_space.n_dofs if ran else 0,
                    sol.iface_space.n_dofs if ran else 0,
                    sol.report.relative_residual if ran else float("nan"),
                    note=str(exc)))
                logger.error("d0=%g variant %s failed: %s", d0, variant,
                             exc)
    return table


# ---------------------------------------------------------------------------
# field dumps

def _bulk_sample_points(mesh: Mesh) -> np.ndarray:
    """Centroid and the midpoints between centroid and vertices of every
    element, shape (n_elements, 4, 2)."""
    tri = mesh.vertices[mesh.elements]
    cent = tri.mean(axis=1, keepdims=True)
    return np.concatenate([cent, 0.5 * (tri + cent)], axis=1)


def write_fields(solution, prefix) -> list:
    """Dump a solution as plain-text tables.

    Writes ``<prefix>.vertices.txt`` (id x y), ``<prefix>.elements.txt``
    (id v0 v1 v2 subdomain degree), ``<prefix>.coefficients.txt`` (element
    id followed by its coefficients), and ``<prefix>.samples.txt``
    (element id, x, y, value at interior points).  Reduced solutions add
    ``<prefix>.gamma.txt`` with (t, value) rows of the interface pressure.
    Returns the written paths.
    """
    prefix = str(prefix)
    if isinstance(solution, models.FullSolution):
        mesh, space, coeffs = solution.mesh, solution.space, \
            solution.coefficients
        reduced = None
    else:
        mesh, space, coeffs = solution.mesh, solution.bulk_space, \
            solution.bulk_coefficients
        reduced = solution

    paths = []

    def write(suffix, header, lines):
        path = prefix + suffix
        with open(path, "w") as fh:
            fh.write("".join([header, *lines]))
        paths.append(path)

    write(".vertices.txt", "# vertex x y\n",
          (f"{i} {x:.17g} {y:.17g}\n"
           for i, (x, y) in enumerate(mesh.vertices.tolist())))

    write(".elements.txt", "# element v0 v1 v2 subdomain degree\n",
          (f"{e} {v0} {v1} {v2} {sub} {space.degree}\n"
           for e, ((v0, v1, v2), sub) in enumerate(zip(
               mesh.elements.tolist(), mesh.subdomain.tolist()))))

    values = [f"{c:.17g}" for c in coeffs.tolist()]
    ends = space.offsets + space.dim
    write(".coefficients.txt", "# element coefficients...\n",
          (f"{e} {' '.join(values[start:end])}\n" for e, (start, end) in
           enumerate(zip(space.offsets.tolist(), ends.tolist()))))

    # each sample lies in the element it names: no point location
    pts = _bulk_sample_points(mesh).reshape(-1, 2)
    elems = np.repeat(np.arange(mesh.n_elements), 4)
    vals = models._field_at(mesh.maps, space, coeffs, elems,
                            pts[:, None])[:, 0]
    write(".samples.txt", "# element x y value\n",
          (f"{e} {x:.17g} {y:.17g} {v:.17g}\n" for e, (x, y), v in
           zip(elems.tolist(), pts.tolist(), vals.tolist())))

    if reduced is not None:
        grid = reduced.grid
        t0 = grid.t_breaks[:-1, None]
        ts = (t0 + (grid.t_breaks[1:, None] - t0)
              * (np.arange(8) + 0.5) / 8.0).ravel()
        vals = reduced.evaluate_interface(ts)
        write(".gamma.txt", "# t value\n",
              (f"{t:.17g} {v:.17g}\n"
               for t, v in zip(ts.tolist(), vals.tolist())))

    return paths


def read_samples(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a ``.samples.txt`` dump back as (elements, points, values)."""
    data = np.loadtxt(path, comments="#", ndmin=2)
    return data[:, 0].astype(int), data[:, 1:3], data[:, 3]


def read_gamma_curve(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a ``.gamma.txt`` dump back as (t, values)."""
    data = np.loadtxt(path, comments="#", ndmin=2)
    return data[:, 0], data[:, 1]
