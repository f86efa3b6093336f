"""Comparison quantities: averaged reference pressure, interface errors,
aperture sweeps, and field dumps.

The reference interface pressure is the aperture average of a
full-dimensional solution, taken per transversal line with the analytic
wall positions as integration endpoints and the integration split at
element boundaries so each piece sees a single polynomial.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import models
from .assembly import _data_at, segment_rule, tri_basis, triangle_rule
from .geometry import ApertureProfile, FractureFrame
from .mesh import FRACTURE, InterfaceGrid, Mesh, _pow2_count

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


def _transversal_lines(mesh: Mesh, profile: ApertureProfile,
                       frame: FractureFrame, t: np.ndarray):
    """Where the transversal lines at coordinates ``t`` cross the fracture
    block of a full mesh.

    Returns the row ``j`` of each line, its fraction ``s`` of the row
    (shape (n, 1)), the half-apertures ``d1`` and ``d2``, and the block's
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
    gamma0 = frame.offset
    d1 = np.broadcast_to(np.asarray(profile.d1_fn(t), dtype=float), t.shape)
    d2 = np.broadcast_to(np.asarray(profile.d2_fn(t), dtype=float), t.shape)

    lines = np.arange(cols[0], cols[-1] + 2)
    lower, upper = lat.xs[j][:, lines], lat.xs[j + 1][:, lines]
    edges = (1.0 - s) * lower + s * upper
    width = np.diff(edges, axis=1).min(axis=1)
    if np.any((np.abs(edges[:, 0] - (gamma0 - d1)) > 0.5 * width)
              | (np.abs(edges[:, -1] - (gamma0 + d2)) > 0.5 * width)):
        raise ValueError("transversal segment exits the fracture block; "
                         "the mesh does not match the aperture profile")
    return j, s, d1, d2, lower, upper, edges


def check_wall_fit(mesh: Mesh, profile: ApertureProfile,
                   frame: FractureFrame, h: float) -> None:
    """Raise ValueError when the fracture block of a full mesh cannot be
    averaged where an error table at spacing ``h`` evaluates the average:
    :func:`_transversal_lines` at the ``DEFAULT_N_QUAD`` Gauss points of
    every row of a reduced mesh at ``h``, the elements of its interface
    grid, whatever the rows of ``mesh`` are."""
    ys = mesh.lattices[0].ys
    breaks = np.linspace(ys[0], ys[-1], _pow2_count(ys[-1] - ys[0], h) + 1)
    tq, _ = segment_rule(DEFAULT_N_QUAD)
    _transversal_lines(mesh, profile, frame,
                       (breaks[:-1, None] + tq * np.diff(breaks)[:, None])
                       .ravel())


@dataclass
class GammaAverage:
    """Aperture-averaged pressure of a full-dimensional solution,
    evaluable at tangential coordinates."""

    full: models.FullSolution
    profile: ApertureProfile
    frame: FractureFrame

    def __post_init__(self):
        self._lat, self._cols = _fracture_block(self.full.mesh)

    def _average(self, t: np.ndarray) -> np.ndarray:
        """Averages over the transversal lines at coordinates ``t``.

        Every line is split at the lattice lines and the cell diagonals
        it crosses, 2 * ncols + 1 breakpoints clipped to the walls [a, b],
        so each piece lies in one triangle; pieces shorter than 1e-14
        contribute nothing.
        """
        lat, cols = self._lat, self._cols
        j, s, d1, d2, lower, upper, edges = _transversal_lines(
            self.full.mesh, self.profile, self.frame, t)
        a, b = self.frame.offset - d1, self.frame.offset + d2

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
        full = self.full
        values = models._field_at(full.mesh.maps, full.space,
                                  full.coefficients, elems, pts)
        pieces = (values @ wq) * np.where(size < 1e-14, 0.0, size)
        return pieces.sum(axis=1) / (d1 + d2)

    def __call__(self, t) -> np.ndarray:
        out = self._average(np.atleast_1d(np.asarray(t, dtype=float)))
        return out if np.ndim(t) else float(out[0])


def average_across_fracture(full: models.FullSolution,
                            profile: ApertureProfile | None = None,
                            frame: FractureFrame | None = None
                            ) -> GammaAverage:
    """Aperture average of the full-dimensional pressure as an interface
    field.  Profile and frame default to the solution's preset."""
    return GammaAverage(full=full,
                        profile=profile or full.preset.profile,
                        frame=frame or full.preset.frame)


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
    """
    if callable(preset):
        make = preset
    else:
        make = lambda d0: models.preset_by_name(preset, d0=d0)
    if reference not in REFERENCES:
        raise ValueError(f"unknown reference {reference!r}")

    table = ErrorTable()
    for d0 in d0_list:
        # the last d0's reference, problems and solutions die before this
        # one's reference is assembled, so at most one reference is alive
        full = sol = ref = problem = None
        problems = {}  # mesh mode -> ReducedProblem, or why it failed
        pset = make(d0)
        ref_note = ""
        if reference == "exact":
            if pset.gamma_reference is None:
                raise ValueError(f"preset {pset.name!r} has no closed-form "
                                 "interface reference")
            ref = pset.gamma_reference
            logger.info("d0=%g: closed-form interface reference", d0)
        else:
            try:
                full = models.run_full(pset, ref_h or h,
                                       ref_degrees or degrees, mu0,
                                       fracture_layers=fracture_layers,
                                       h_normal=ref_h_normal,
                                       method=ref_method, tol=tol,
                                       max_iter=max_iter)
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
