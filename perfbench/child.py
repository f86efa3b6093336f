"""One benchmark process: a set-up probe or one pass of a workload.

Usage: ``python3 child.py SPEC.json``. The spec names the mode
(``setup`` or ``pass``), the workload, its input file, the output
directory, whether to trace, and where to write the result JSON. The
exit status is the pass's own: the CLI's status, or 1 when a
convergence-study solve raised.
"""

import json
import sys
import time


def _setup(spec: dict) -> None:
    """Import fracdg and parse the config or build the preset."""
    if spec["workload"] == "converge":
        from fracdg import models
        models.preset_by_name("manufactured")
    else:
        from fracdg import cli
        cli.parse_config(spec["input"])


def _converge(spec: dict, result: dict) -> int:
    from fracdg import models, postproc

    with open(spec["input"], encoding="utf-8") as fh:
        study = json.load(fh)
    preset = models.preset_by_name(study["preset"])
    runs = result["runs"] = []
    for h in study["h"]:
        try:
            sol = models.run_full(preset, h, study["degrees"],
                                  tol=study["tol"])
            err = postproc.l2_error_bulk(sol, preset.exact_pressure)
        except Exception as exc:  # recorded as a failed operation
            print(f"h={h:g}: {exc!r}", file=sys.stderr)
            return 1
        runs.append({"h": h, "dofs": int(sol.space.n_dofs),
                     "l2_error": err,
                     "iterations": sol.report.iterations,
                     "residual": sol.report.relative_residual,
                     "converged": bool(sol.report.converged),
                     "method": sol.report.method})
    return 0


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {}
    tracer = None
    status = 1
    try:
        if spec["mode"] == "setup" or not spec["trace"]:
            # the pass repeats the parse or preset build: a millisecond
            _setup(spec)
            result["setup_end"] = time.monotonic()
            status = 0
        if spec["mode"] == "pass":
            if spec["trace"]:
                import layertrace
                tracer = layertrace.Tracer()
                tracer.install()
            if spec["workload"] == "converge":
                status = _converge(spec, result)
            else:
                from fracdg import cli
                status = cli.main(spec["cli_args"])
    finally:
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.dump()
        result["status"] = status
        with open(spec["result"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
