"""Per-layer spans taken from outside the package.

``Tracer.install`` wraps the public entry points of each ``fracdg``
module where their callers look them up: ``models`` imports the mesh,
assembly and wellposedness functions by name, so those are wrapped in
the ``models`` namespace; ``solver.solve``, the ``postproc`` functions
and ``cli.parse_config`` are called through their modules; evaluation
and averaging are methods on their classes. Each call records a span
(name, start, end, parent) and, after the span closes, the work it did
as counts. Spans stay in memory until ``dump``.

The LU fill is not reported by the package, so the wrapper of
``solver.solve`` factors the same matrix again with ``splu`` after the
solve and records that as its own ``trace.lu_probe`` span; its time is
benchmark overhead, kept out of every layer.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

# span name -> per-layer metric that takes its self time
SELF_TIME_METRIC = {
    "cli.parse_config": "cli.parse_s",
    "geometry.check_wellposedness": "geometry.wellposedness_s",
    "mesh.build_bulk_mesh": "mesh.build_s",
    "mesh.build_interface_grid": "mesh.build_s",
    "assembly.assemble_reduced": "assembly.reduced_s",
    "assembly.assemble_full": "assembly.full_s",
    "solver.solve.iterative": "solver.cg_s",
    "solver.solve.direct": "solver.lu_s",
    "solver.solve": "solver.lu_s",  # a solve that raised has no method
    "models.run_full": "models.run_self_s",
    "models.run_reduced": "models.run_self_s",
    "models.evaluate": "models.evaluate_s",
    "models.evaluate_interface": "models.evaluate_interface_s",
    "postproc.average": "postproc.average_s",
    "postproc.l2_error_gamma": "postproc.l2_gamma_self_s",
    "postproc.l2_error_bulk": "postproc.l2_bulk_s",
    "postproc.write_fields": "postproc.write_fields_self_s",
    "postproc.aperture_sweep": "postproc.sweep_self_s",
    "trace.lu_probe": "trace.probe_s",
}

COUNTS = ("mesh.elements", "assembly.elements", "assembly.dofs",
          "assembly.nnz", "solver.cg_iterations", "solver.lu_fill",
          "solver.max_residual", "solver.unconverged",
          "models.points_evaluated", "postproc.average_lines",
          "postproc.bytes_written")

# unit of every per-layer metric a traced run reports
UNITS = {
    **{name: "s" for name in SELF_TIME_METRIC.values()},
    **{name: "count" for name in COUNTS if name != "assembly.elements"},
    "assembly.elements_per_s": "1/s",
    "solver.max_residual": "1",
    "postproc.bytes_written": "B",
    "postproc.err_drift_rel": "1",
    "trace.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []
        self._patches = []

    # ------------------------------------------------------------------
    # spans

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.monotonic()
        self._stack.pop()

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(index, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # ------------------------------------------------------------------
    # counts, taken after each span closes

    def _after_mesh(self, index, args, mesh):
        self.counts["mesh.elements"] += mesh.n_elements

    def _after_assembly(self, index, args, system):
        self.counts["assembly.elements"] += args[0].n_elements
        self.counts["assembly.dofs"] += system.matrix.shape[0]
        self.counts["assembly.nnz"] += system.matrix.nnz

    def _after_solve(self, index, args, result):
        from scipy.sparse.linalg import splu

        _, report = result
        counts = self.counts
        counts["solver.max_residual"] = max(counts["solver.max_residual"],
                                            report.relative_residual)
        counts["solver.unconverged"] += not report.converged
        if report.method != "direct-LU":
            self.spans[index][0] = "solver.solve.iterative"
            counts["solver.cg_iterations"] += report.iterations
            return
        self.spans[index][0] = "solver.solve.direct"
        probe = self._open("trace.lu_probe")
        lu = splu(args[0].matrix.tocsr().tocsc())
        counts["solver.lu_fill"] += lu.L.nnz + lu.U.nnz
        self._close(probe)

    def _after_evaluate(self, index, args, values):
        self.counts["models.points_evaluated"] += len(values)

    def _after_average(self, index, args, values):
        self.counts["postproc.average_lines"] += int(np.size(values))

    def _after_write(self, index, args, paths):
        self.counts["postproc.bytes_written"] += sum(
            os.path.getsize(p) for p in paths)

    # ------------------------------------------------------------------

    def install(self) -> None:
        from fracdg import cli, models, postproc, solver

        wrap = self._wrap
        wrap(cli, "parse_config", "cli.parse_config")
        wrap(models, "check_wellposedness", "geometry.check_wellposedness")
        wrap(models, "build_bulk_mesh", "mesh.build_bulk_mesh",
             self._after_mesh)
        wrap(models, "build_interface_grid", "mesh.build_interface_grid")
        wrap(models, "assemble_full", "assembly.assemble_full",
             self._after_assembly)
        wrap(models, "assemble_reduced", "assembly.assemble_reduced",
             self._after_assembly)
        wrap(solver, "solve", "solver.solve", self._after_solve)
        wrap(models, "run_full", "models.run_full")
        wrap(models, "run_reduced", "models.run_reduced")
        wrap(models.FullSolution, "evaluate", "models.evaluate",
             self._after_evaluate)
        wrap(models.ReducedSolution, "evaluate_bulk", "models.evaluate",
             self._after_evaluate)
        wrap(models.ReducedSolution, "evaluate_interface",
             "models.evaluate_interface")
        wrap(postproc.GammaAverage, "__call__", "postproc.average",
             self._after_average)
        wrap(postproc, "l2_error_gamma", "postproc.l2_error_gamma")
        wrap(postproc, "l2_error_bulk", "postproc.l2_error_bulk")
        wrap(postproc, "write_fields", "postproc.write_fields",
             self._after_write)
        wrap(postproc, "aperture_sweep", "postproc.aperture_sweep")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(trace: dict, wall: float) -> dict:
    """Per-layer metrics of one traced pass whose wall time is ``wall``.

    Every span's self time lands in exactly one metric, so the layer
    times, ``trace.probe_s`` and ``trace.unattributed_s`` (interpreter
    start, imports and whatever runs outside a wrapped call) add up to
    ``trace.wall_s``.
    """
    spans = trace["spans"]
    metrics = dict.fromkeys(sorted(set(SELF_TIME_METRIC.values())), 0.0)
    for (name, *_), own in zip(spans, self_times(spans)):
        metrics[SELF_TIME_METRIC[name]] += own
    metrics["trace.unattributed_s"] = wall - sum(metrics.values())
    metrics["trace.wall_s"] = wall
    counts = trace["counts"]
    for name in COUNTS:
        if name != "assembly.elements":
            metrics[name] = counts[name]
    assembly_s = metrics["assembly.reduced_s"] + metrics["assembly.full_s"]
    metrics["assembly.elements_per_s"] = (
        counts["assembly.elements"] / assembly_s if assembly_s > 0 else 0.0)
    return metrics
