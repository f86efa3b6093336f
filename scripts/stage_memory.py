"""Peak memory of each stage of a full-model or a reduced solve.

Usage (from the repository root)::

    PYTHONPATH=src python3 scripts/stage_memory.py [--case NAME ...]

The stages of a full-model case are the mesh, the assembly
(``assemble_full``), the two-level preconditioner (``solver._two_level``:
block Jacobi and the coarse factorization), the symmetry check
(``symmetry_defect``), a CG solve and a direct LU solve of the same
system; the CG solve checks the symmetry again before it iterates. A
reduced case has the mesh, the assembly of the shared system
(``ReducedProblem.build``, which meshes again), the system of variant
``I`` (``system_of``: the transport form added with
``SparseSystem.plus``) and a direct LU solve of it. Each case runs
twice, each time in a fresh child process with BLAS pinned to one
thread: once plain, reading the process's peak resident memory
(``ru_maxrss``) after every stage, and once under ``tracemalloc``,
reading the peak of the arrays each stage allocates on top of what it
started with. SuperLU's own storage is outside ``tracemalloc``, so the
LU shows in the RSS only.

Prints one JSON object per case: for every stage its seconds (plain
run), the peak RSS after it and its traced peak, in MB, and the bytes
of the CSR matrix solved last. The ``assembly`` stage also gives the
size preflight's estimate for its mesh (``assembly.bulk_assembly_bytes``
of its triangles, in MB), that estimate over the traced peak, which
stays at 1 or more while the estimate bounds the assembly, and the
traced peak per bulk entry (``bytes_per_entry``, over the 4 *
n_elements * dim**2 entries the estimate counts), the figure
``assembly._BYTES_PER_ENTRY`` must bound. The ``cg``
stage also gives its iteration count and the dimension of the
two-level method's coarse space (the columns of the system's
prolongation, or one per element block).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc

FULL = ("mesh", "assembly", "two_level", "symmetry", "cg", "lu")
REDUCED = ("mesh", "assembly", "plus", "lu")

# (preset, d0, mesh mode, h, degree, stages): the converge study of the
# benchmark, the d0 = 1e-3 reference of its sweep, which is solved by LU
# only, and the sweep's reduced meshes at degree 1 and 3
CASES = {
    "converge-h16": ("manufactured", None, "full", 1 / 16, 3, FULL),
    "converge-h32": ("manufactured", None, "full", 1 / 32, 3, FULL),
    "sweep-reference": ("perp-asym", 1e-3, "full", 1 / 32, 2,
                        ("mesh", "assembly", "lu")),
    "sweep-reduced-k1": ("perp-asym", 1e-1, "curved-reduced", 1 / 32, 1,
                         REDUCED),
    "sweep-reduced-k3": ("perp-asym", 1e-1, "curved-reduced", 1 / 32, 3,
                         REDUCED),
}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_case(name: str, traced: bool) -> dict:
    """Run the stages of one case in this process."""
    from fracdg import assembly, models, solver

    preset_name, d0, mode, h, degree, stages = CASES[name]
    preset = (models.preset_by_name(preset_name) if d0 is None
              else models.preset_by_name(preset_name, d0=d0))
    state: dict = {}

    def mesh():
        state["mesh"] = models.build_bulk_mesh(
            preset.domain, preset.profile, mode, h, gamma0=preset.gamma0)
        state["mesh"].maps, state["mesh"].element_h

    def assemble():
        if mode != "full":
            state["problem"] = models.ReducedProblem.build(preset, mode, h,
                                                           degree)
            state["system"] = state["problem"].system
            return
        space = assembly.DGSpace.bulk(state["mesh"], degree)
        state["system"] = assembly.assemble_full(
            state["mesh"], space, preset.permeability(), preset.q, preset.g,
            10.0)

    def plus():
        state["system"] = state["problem"].system_of("I")

    def two_level():
        system = state["system"]
        solver._two_level(system.matrix, system.block_offsets)

    def solve(method):
        return lambda: solver.solve(state["system"], method=method)

    actions = {"mesh": mesh, "assembly": assemble, "plus": plus,
               "two_level": two_level,
               "symmetry": lambda: state["system"].symmetry_defect(),
               "cg": solve("CG"), "lu": solve("direct-LU")}
    out = {}
    if traced:
        tracemalloc.start()
    for stage in stages:
        if traced:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter()
        result = actions[stage]()
        seconds = time.perf_counter() - start
        if traced:
            peak = tracemalloc.get_traced_memory()[1] - base
            out[stage] = {"traced_peak_mb": peak / 1e6}
            if stage == "assembly":
                mesh = state["problem"].mesh if mode != "full" \
                    else state["mesh"]
                estimate = assembly.bulk_assembly_bytes(mesh.n_elements,
                                                        degree)
                entries = 4 * mesh.n_elements * assembly.tri_dim(degree) ** 2
                out[stage].update(estimate_mb=estimate / 1e6,
                                  estimate_over_peak=estimate / peak,
                                  bytes_per_entry=peak / entries)
        else:
            out[stage] = {"seconds": seconds, "peak_rss_mb": _rss_mb()}
            if stage == "cg":
                system = state["system"]
                out[stage].update(
                    iterations=result[1].iterations,
                    coarse_dofs=len(system.block_offsets)
                    if system.prolongation is None
                    else system.prolongation.shape[1])
    matrix = state["system"].matrix
    out["csr_mb"] = (matrix.data.nbytes + matrix.indices.nbytes
                     + matrix.indptr.nbytes) / 1e6
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--case", nargs="+", choices=sorted(CASES),
                        default=list(CASES))
    parser.add_argument("--child", choices=("plain", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(run_case(args.case[0], args.child == "traced")))
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    for name in args.case:
        runs = {}
        for mode in ("plain", "traced"):
            done = subprocess.run(
                [sys.executable, __file__, "--case", name, "--child", mode],
                env=env, capture_output=True, text=True, check=True)
            runs[mode] = json.loads(done.stdout.strip().splitlines()[-1])
        stages = {stage: {**runs["plain"][stage], **runs["traced"][stage]}
                  for stage in CASES[name][5]}
        print(json.dumps({"case": name, "csr_mb": runs["plain"]["csr_mb"],
                          "stages": stages}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
