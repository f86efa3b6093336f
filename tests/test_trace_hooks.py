"""The benchmark's layer tracer must find every hook it wraps.

``perfbench/layertrace.py`` wraps package functions and methods by name
(``owner.__dict__[attr]``), so renaming or moving one of them breaks a
traced benchmark run.  This test installs and removes the hooks on the
package directly, so such a rename fails here first.  The traced sweeps
also pin how many meshes, reduced systems and solves the variants of a
sweep share, as the benchmark's spans see them.
"""

import dataclasses
import importlib.util
import pathlib

import numpy as np

LAYERTRACE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
    / "layertrace.py"
N_HOOKS = 17


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_is_found_and_restored():
    tracer = load_layertrace().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert len(patches) == N_HOOKS
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original


def traced_sweep(preset, **kwargs):
    """Span names of a reduced sweep of all four variants at one d0
    against the closed-form interface reference."""
    from fracdg import postproc

    tracer = load_layertrace().Tracer()
    tracer.install()
    try:
        table = postproc.aperture_sweep(preset, ("I", "I-R", "II", "II-R"),
                                        [0.1], 1 / 8, reference="exact",
                                        **kwargs)
    finally:
        tracer.uninstall()
    assert all(np.isfinite(row.l2_error) for row in table.rows)
    return [name for name, *_ in tracer.spans]


def test_sweep_shares_one_problem_per_mesh():
    # wavy walls: I and II share the wall-conforming mesh, I-R and II-R
    # the rectified one, and each mesh is built and assembled once
    names = traced_sweep("perp-sym")
    for span in ("mesh.build_bulk_mesh", "assembly.assemble_reduced",
                 "geometry.check_wellposedness"):
        assert names.count(span) == 2, span
    assert sum(name.startswith("solver.solve") for name in names) == 4


def test_constant_aperture_sweep_shares_one_problem():
    # under mesh_mode = auto every variant runs on the wall-conforming
    # mesh of a constant aperture
    from fracdg import models

    def preset(d0):
        return dataclasses.replace(
            models.constant_aperture_preset(d0 / 2),
            gamma_reference=lambda t: np.full_like(t, 0.5))

    names = traced_sweep(preset, mesh_mode="auto")
    for span in ("mesh.build_bulk_mesh", "assembly.assemble_reduced",
                 "geometry.check_wellposedness"):
        assert names.count(span) == 1, span
    assert sum(name.startswith("solver.solve") for name in names) == 4
