"""Config-driven experiment runner.

Reads a plain-text config file, sweeps reduced-model variants over a
list of aperture scales against a reference, and writes an error table
(CSV), a run log and optional field or matrix dumps under an output
directory.

Config format
-------------
Line based: blank lines and everything after a ``#`` are ignored,
``[section]`` opens a section, ``key = value`` assigns inside the
current section.  Keys may not repeat, unknown sections and keys are
rejected, and every parse or validation error cites the offending line.
Lists are comma separated; mesh spacings accept fractions like ``1/32``.

Sections and keys (defaults in parentheses)::

  [experiment]
    preset           perp-asym | perp-sym | tangential |
                     manufactured | custom                (required)
    variants         reduced models to run             (I, I-R, II, II-R)
    d0               aperture scales of the sweep      (1e-1, 3e-2, 1e-2)
    h                bulk mesh spacing                         (1/16)
    degrees          polynomial degree, 1 to 4                 (1)
    mu0              bulk penalty scale                        (10.0)
    mu0_gamma        interface penalty scale                   (mu0)
    xi               coupling average weight, > 1/2            (2/3)
    mesh_mode        auto | curved-reduced | rectified         (auto)
    reference        full | exact                              (full)
    ref_h            reference mesh spacing                    (h)
    ref_degrees      reference polynomial degree               (degrees)
    ref_h_normal     reference spacing across the fracture     (unset)
    fracture_layers  element layers across the fracture slab   (4)
    edge_terms       consistent | printed                      (consistent)

  [solver]
    method           auto | direct-LU | CG | BiCGStab          (auto)
    ref_method       solver for the reference runs             (direct-LU)
    tol              relative residual target in (0, 1)        (1e-10)
    max_iter         iteration cap, 0 picks automatically      (0)

  [output]
    directory        output directory                          (out)
    dump_fields      write per-run field dumps                 (false)
    dump_matrices    write per-run system dumps                (false)

  [problem]          custom problem data, only with preset = custom
    g                affine: c0, cx, cy | inflow-bubble |
                     cosine-product                        (required)
    g_gamma          trace | constant: v | affine: c0, ct      (trace)
    q                zero | cosine-product-source              (zero)
    q_gamma          zero | constant: v                        (zero)
    k1, k2           bulk permeability: scalar or diag: a, b   (1.0)
    k_f              fracture permeability, same forms         (1.0)
    profile          sinusoidal | constant                     (sinusoidal)
    frequency        wall oscillation frequency                (8*pi)
    asymmetry        antisymmetric | symmetric            (antisymmetric)
    phase            wall oscillation phase                    (0.0)

Boundary and source data come from the closed set of named functions
above; there is deliberately no general expression parser.
"""

from __future__ import annotations

import argparse
import logging
import math
import pathlib
import resource
import sys
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from . import models, postproc, solver
from .assembly import EDGE_TERMS, MAX_DEGREE, REDUCED_MESH_MODES

logger = logging.getLogger("fracdg.cli")

_LOG_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"


class ConfigError(ValueError):
    """Config file rejected; the message carries file and line info."""


def _err(path, line, message) -> ConfigError:
    where = path if line is None else f"{path}:{line}"
    return ConfigError(f"{where}: {message}")


# ---------------------------------------------------------------------------
# value converters

def _conv_str(text: str) -> str:
    return text


def _conv_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _conv_spacing(text: str) -> float:
    """A float literal or a fraction like ``1/32``."""
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            value = float(num) / float(den)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"expected a spacing like 1/32 or 0.03125, "
                             f"got {text!r}") from None
    else:
        value = _conv_float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite spacing, got {text!r}")
    if not value > 0.0:
        raise ValueError(f"spacing must be positive, got {text!r}")
    return value


def _conv_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _conv_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _conv_float_list(text: str) -> tuple:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError("expected a comma separated list of numbers")
    return tuple(_conv_float(s) for s in items)


def _conv_str_list(text: str) -> tuple:
    items = tuple(s.strip() for s in text.split(",") if s.strip())
    if not items:
        raise ValueError("expected a comma separated list")
    return items


def _choice(*options):
    def conv(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {', '.join(options)}, "
                             f"got {text!r}")
        return text
    return conv


# named functions: the closed set of boundary/source data

_NAMED_BULK = {
    "boundary": {"inflow-bubble": models.inflow_bubble,
                 "cosine-product": models.cosine_product},
    "source": {"zero": None,
               "cosine-product-source": models.cosine_product_source},
}


def _named_bulk_function(text: str, kind: str):
    """``kind`` is "boundary" or "source"; returns a callable on (m,2)."""
    head, _, tail = text.partition(":")
    head = head.strip()
    if kind == "boundary" and head == "affine":
        coeff = _conv_float_list(tail)
        if len(coeff) != 3:
            raise ValueError("affine boundary data needs three "
                             "coefficients: affine: c0, cx, cy")
        c0, cx, cy = coeff
        return lambda x: c0 + cx * x[:, 0] + cy * x[:, 1]
    if head in _NAMED_BULK[kind]:
        return _NAMED_BULK[kind][head]
    names = " | ".join(_NAMED_BULK[kind])
    if kind == "boundary":
        names = "affine: c0, cx, cy | " + names
    raise ValueError(f"unknown {kind} function {text!r}; the named set is "
                     f"{names}")


def _named_gamma_function(text: str, kind: str):
    """Interface data; returns a callable on t, or None for the default."""
    head, _, tail = text.partition(":")
    head = head.strip()
    if kind == "boundary" and head == "trace":
        return None
    if head == "constant":
        (value,) = _conv_float_list(tail) if tail.strip() else (None,)
        if value is None:
            raise ValueError("constant interface data needs a value: "
                             "constant: v")
        return lambda t: np.full_like(np.asarray(t, dtype=float), value)
    if kind == "boundary" and head == "affine":
        coeff = _conv_float_list(tail)
        if len(coeff) != 2:
            raise ValueError("affine interface data needs two "
                             "coefficients: affine: c0, ct")
        c0, ct = coeff
        return lambda t: c0 + ct * np.asarray(t, dtype=float)
    if kind == "source" and head == "zero":
        return None
    names = {"boundary": "trace | constant: v | affine: c0, ct",
             "source": "zero | constant: v"}
    raise ValueError(f"unknown interface {kind} function {text!r}; the "
                     f"named set is {names[kind]}")


def _conv_permeability(text: str) -> np.ndarray:
    head, _, tail = text.partition(":")
    if head.strip() == "diag":
        coeff = _conv_float_list(tail)
        if len(coeff) != 2:
            raise ValueError("diag permeability needs two entries: "
                             "diag: a, b")
        mat = np.diag(coeff)
    else:
        mat = _conv_float(text) * np.eye(2)
    if np.any(np.diag(mat) <= 0.0):
        raise ValueError(f"permeability entries must be positive, "
                         f"got {text!r}")
    return mat


# ---------------------------------------------------------------------------
# schema

_SCHEMA = {
    ("experiment", "preset"): _choice(*models.PRESET_NAMES),
    ("experiment", "variants"): _conv_str_list,
    ("experiment", "d0"): _conv_float_list,
    ("experiment", "h"): _conv_spacing,
    ("experiment", "degrees"): _conv_int,
    ("experiment", "mu0"): _conv_float,
    ("experiment", "mu0_gamma"): _conv_float,
    ("experiment", "xi"): _conv_float,
    ("experiment", "mesh_mode"): _choice("auto", *REDUCED_MESH_MODES),
    ("experiment", "reference"): _choice(*postproc.REFERENCES),
    ("experiment", "ref_h"): _conv_spacing,
    ("experiment", "ref_degrees"): _conv_int,
    ("experiment", "ref_h_normal"): _conv_spacing,
    ("experiment", "fracture_layers"): _conv_int,
    ("experiment", "edge_terms"): _choice(*EDGE_TERMS),
    ("solver", "method"): _choice("auto", *solver.METHODS),
    ("solver", "ref_method"): _choice("auto", *solver.METHODS),
    ("solver", "tol"): _conv_float,
    ("solver", "max_iter"): _conv_int,
    ("output", "directory"): _conv_str,
    ("output", "dump_fields"): _conv_bool,
    ("output", "dump_matrices"): _conv_bool,
    ("problem", "g"): lambda s: _named_bulk_function(s, "boundary"),
    ("problem", "g_gamma"): lambda s: _named_gamma_function(s, "boundary"),
    ("problem", "q"): lambda s: _named_bulk_function(s, "source"),
    ("problem", "q_gamma"): lambda s: _named_gamma_function(s, "source"),
    ("problem", "k1"): _conv_permeability,
    ("problem", "k2"): _conv_permeability,
    ("problem", "k_f"): _conv_permeability,
    ("problem", "profile"): _choice("sinusoidal", "constant"),
    ("problem", "frequency"): _conv_float,
    ("problem", "asymmetry"): _choice("antisymmetric", "symmetric"),
    ("problem", "phase"): _conv_float,
}

_SECTIONS = ("experiment", "solver", "output", "problem")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description with all defaults filled."""

    preset: str
    variants: tuple = models.MODEL_NAMES
    d0_list: tuple = (1e-1, 3e-2, 1e-2)
    h: float = 1.0 / 16.0
    degrees: int = 1
    mu0: float = 10.0
    mu0_gamma: float | None = None
    xi: float = 2.0 / 3.0
    mesh_mode: str = "auto"
    reference: str = "full"
    ref_h: float | None = None
    ref_degrees: int | None = None
    ref_h_normal: float | None = None
    fracture_layers: int = 4
    edge_terms: str = "consistent"
    method: str | None = None
    ref_method: str | None = "direct-LU"
    tol: float = 1e-10
    max_iter: int | None = None
    out_dir: str = "out"
    dump_fields: bool = False
    dump_matrices: bool = False
    problem: dict = field(default_factory=dict)
    source: str = "<defaults>"


# ---------------------------------------------------------------------------
# parsing

def _scan(path: str) -> dict:
    """Raw (section, key) -> (value text, line number) map."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None

    entries: dict = {}
    section = None
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("["):
            if not text.endswith("]"):
                raise _err(path, lineno, f"malformed section header {text!r}")
            section = text[1:-1].strip()
            if section not in _SECTIONS:
                raise _err(path, lineno,
                           f"unknown section [{section}]; expected one of "
                           f"{', '.join(_SECTIONS)}")
            continue
        if "=" not in text:
            raise _err(path, lineno,
                       f"expected 'key = value' or a [section] header, "
                       f"got {text!r}")
        if section is None:
            raise _err(path, lineno,
                       "key assignment before any [section] header")
        key, _, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if (section, key) not in _SCHEMA:
            known = sorted(k for s, k in _SCHEMA if s == section)
            raise _err(path, lineno,
                       f"unknown key {key!r} in [{section}]; known keys: "
                       f"{', '.join(known)}")
        if (section, key) in entries:
            raise _err(path, lineno,
                       f"duplicate key {key!r} in [{section}] (first set "
                       f"on line {entries[(section, key)][1]})")
        if not value:
            raise _err(path, lineno, f"empty value for key {key!r}")
        entries[(section, key)] = (value, lineno)
    return entries


def _validate(config: ExperimentConfig, path: str, lines: dict) -> None:
    def where(section, key):
        return lines.get((section, key))

    def fail(section, key, message):
        raise _err(path, where(section, key), message)

    for name in config.variants:
        if name == "full":
            fail("experiment", "variants",
                 "the full model is the comparison reference, not a sweep "
                 "variant; list reduced models only")
        if name not in models.MODEL_NAMES:
            fail("experiment", "variants",
                 f"unknown variant {name!r}; expected a subset of "
                 f"{', '.join(models.MODEL_NAMES)}")
    if len(set(config.variants)) != len(config.variants):
        fail("experiment", "variants", "variants listed twice")

    if len(set(config.d0_list)) != len(config.d0_list):
        fail("experiment", "d0", "d0 values listed twice")
    for d0 in config.d0_list:
        if not d0 > 0.0:
            fail("experiment", "d0", f"d0 must be positive, got {d0:g}")

    for key in ("degrees", "ref_degrees"):
        value = getattr(config, key)
        if value is not None and not 1 <= value <= MAX_DEGREE:
            fail("experiment", key,
                 f"{key} must lie in 1..{MAX_DEGREE}, got {value}")
    if not config.mu0 > 0.0:
        fail("experiment", "mu0", "mu0 must be positive")
    if config.mu0_gamma is not None and not config.mu0_gamma > 0.0:
        fail("experiment", "mu0_gamma", "mu0_gamma must be positive")
    if config.fracture_layers < 1:
        fail("experiment", "fracture_layers",
             "fracture_layers must be at least 1")

    if not config.xi > 0.5:
        fail("experiment", "xi",
             f"xi = {config.xi:g} rejected: the coupling average weight "
             f"must satisfy xi > 1/2")

    if not 0.0 < config.tol < 1.0:
        fail("solver", "tol", "tol must lie strictly between 0 and 1")
    if config.max_iter is not None and config.max_iter < 0:
        fail("solver", "max_iter", "max_iter cannot be negative")

    if config.preset == "custom":
        if "g" not in config.problem:
            raise _err(path, None,
                       "preset = custom needs a [problem] section with at "
                       "least the boundary data key 'g'")
    else:
        for (section, key), lineno in lines.items():
            if section == "problem":
                raise _err(path, lineno,
                           f"[problem] keys are only read with preset = "
                           f"custom, not {config.preset!r}")

    make = _preset_factory(config)
    presets = []
    for d0 in config.d0_list:
        # scalar bounds, so no wall is evaluated: the walls lie d_min or
        # more apart, and the reference slab has fracture_layers columns
        try:
            preset = make(d0)
            (xmin, _), (xmax, _) = preset.domain
            d_min = preset.profile.d_min
            if not d_min < xmax - xmin:
                raise ValueError("the fracture walls leave the domain")
            if not d_min / config.fracture_layers \
                    > 4.0 * np.spacing(max(abs(xmin), abs(xmax))):
                raise ValueError("the fracture slab is too thin for double "
                                 "precision")
        except ValueError as exc:
            fail("experiment", "d0", f"d0 = {d0:g}: {exc}")
        presets.append(preset)
    trial = presets[0]
    for name in config.variants:
        try:
            models.resolve_mesh_mode(name, trial.profile, config.mesh_mode)
        except ValueError as exc:
            fail("experiment", "mesh_mode", str(exc))
    if config.reference == "exact" and trial.gamma_reference is None:
        fail("experiment", "reference",
             f"preset {config.preset!r} has no closed-form interface "
             f"reference; use reference = full")

    if config.reference == "full":
        # the preflight builds the mesh the reference run builds; a mesh
        # or point set too large to allocate (MemoryError) is a config
        # error too, as it would fail every row of its d0.  ref_h_normal
        # only spaces the matrix blocks, so it can fail the build but not
        # the averaging, which depends on the fracture block and the rows
        key = "ref_h" if config.ref_h is not None else "h"
        size_key = "ref_h_normal" if config.ref_h_normal is not None else key
        for d0, preset in zip(config.d0_list, presets):
            try:
                mesh = models.full_mesh(
                    preset, config.ref_h or config.h,
                    fracture_layers=config.fracture_layers,
                    h_normal=config.ref_h_normal)
            except ValueError as exc:
                fail("experiment", "d0", f"d0 = {d0:g}: {exc}")
            except Exception as exc:
                fail("experiment", size_key,
                     f"the reference mesh at d0 = {d0:g} cannot be built "
                     f"({type(exc).__name__}: {exc}); coarsen {size_key}")
            try:
                postproc.check_wall_fit(mesh, preset.profile, preset.frame,
                                        config.h)
            except ValueError as exc:
                fail("experiment", key,
                     f"the reference mesh at d0 = {d0:g} cannot be "
                     f"averaged ({exc}); refine {key}")
            except Exception as exc:
                fail("experiment", "h",
                     f"the averaging points at h cannot be built "
                     f"({type(exc).__name__}: {exc}); coarsen h")


def parse_config(path: str) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    entries = _scan(path)
    values: dict = {}
    lines: dict = {}
    for (section, key), (text, lineno) in entries.items():
        try:
            values[(section, key)] = _SCHEMA[(section, key)](text)
        except ValueError as exc:
            raise _err(path, lineno, f"bad value for {key!r}: {exc}") \
                from None
        lines[(section, key)] = lineno

    if ("experiment", "preset") not in values:
        raise _err(path, None,
                   "missing required key 'preset' in [experiment]")

    # config keys that name their ExperimentConfig field differently
    renames = {"d0": "d0_list", "directory": "out_dir"}
    fields = {renames.get(key, key): value
              for (section, key), value in values.items()
              if section != "problem"}
    for key in ("method", "ref_method"):
        if fields.get(key) == "auto":
            fields[key] = None
    if fields.get("max_iter") == 0:
        fields["max_iter"] = None
    problem = {key: value for (section, key), value in values.items()
               if section == "problem"}
    config = ExperimentConfig(**fields, problem=problem, source=str(path))
    _validate(config, path, lines)
    return config


# ---------------------------------------------------------------------------
# running

def _preset_factory(config: ExperimentConfig):
    """d0 -> ProblemPreset for the configured problem."""
    if config.preset != "custom":
        return lambda d0: models.preset_by_name(config.preset, d0=d0,
                                                xi=config.xi)

    prob = config.problem

    def make(d0: float) -> models.ProblemPreset:
        if prob.get("profile", "sinusoidal") == "constant":
            profile = models.ApertureProfile.constant(d0 / 2.0, d0 / 2.0)
        else:
            profile = models.ApertureProfile.sinusoidal(
                d0, frequency=prob.get("frequency", 8.0 * math.pi),
                phase=prob.get("phase", 0.0),
                asymmetry=prob.get("asymmetry", "antisymmetric"))
        eye = np.eye(2)
        return models.ProblemPreset(
            name="custom", profile=profile,
            k1=prob.get("k1", eye), k2=prob.get("k2", eye),
            k_f=prob.get("k_f", eye), g=prob["g"],
            q=prob.get("q"), q_gamma=prob.get("q_gamma"),
            g_gamma=prob.get("g_gamma"), xi=config.xi)

    return make


def _dump_callback(config: ExperimentConfig, out: pathlib.Path):
    if not (config.dump_fields or config.dump_matrices):
        return None

    def dump(d0, tag, solution):
        stem = f"d0_{d0:.6g}_{tag}"
        if config.dump_fields:
            fields = out / "fields"
            fields.mkdir(parents=True, exist_ok=True)
            postproc.write_fields(solution, str(fields / stem))
        if config.dump_matrices:
            matrices = out / "matrices"
            matrices.mkdir(parents=True, exist_ok=True)
            # uncompressed: zlib costs ~20x the write for a 2.5x smaller file
            sparse.save_npz(matrices / f"{stem}.matrix.npz",
                            sparse.csr_matrix(solution.system.matrix),
                            compressed=False)
            np.save(matrices / f"{stem}.rhs.npy", solution.system.rhs)

    return dump


def _peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB (ru_maxrss is
    in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run(config: ExperimentConfig) -> int:
    """Execute the configured sweep; returns the process exit status.

    Writes ``errors.csv`` and ``run.log`` (plus optional dumps) under the
    output directory; the log's last line gives the process's peak
    resident memory.  The exit status is 0 when every row succeeded and
    1 otherwise; failed rows carry nan errors and a note in the log.
    """
    out = pathlib.Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    package_logger = logging.getLogger("fracdg")
    handler = logging.FileHandler(out / "run.log", mode="w",
                                  encoding="utf-8")
    handler.setFormatter(logging.Formatter(_LOG_FORMAT))
    handler.setLevel(logging.INFO)
    old_level = package_logger.level
    package_logger.addHandler(handler)
    if package_logger.getEffectiveLevel() > logging.INFO:
        package_logger.setLevel(logging.INFO)
    try:
        logger.info("config %s: preset=%s variants=%s d0=%s h=%g "
                    "degrees=%s reference=%s", config.source, config.preset,
                    ",".join(config.variants),
                    ",".join(f"{d:g}" for d in config.d0_list), config.h,
                    config.degrees, config.reference)
        table = postproc.aperture_sweep(
            _preset_factory(config), config.variants, config.d0_list,
            config.h, degrees=config.degrees, mu0=config.mu0,
            mu0_gamma=config.mu0_gamma, ref_h=config.ref_h,
            ref_degrees=config.ref_degrees,
            ref_h_normal=config.ref_h_normal,
            fracture_layers=config.fracture_layers,
            reference=config.reference, ref_method=config.ref_method,
            mesh_mode=config.mesh_mode, edge_terms=config.edge_terms,
            method=config.method, tol=config.tol,
            max_iter=config.max_iter,
            on_solution=_dump_callback(config, out))
        csv_path = out / "errors.csv"
        table.write_csv(str(csv_path))
        failed = [r for r in table.rows
                  if r.note or not np.isfinite(r.l2_error)]
        logger.info("wrote %s: %d rows, %d failed, peak RSS %.1f MB",
                    csv_path, len(table.rows), len(failed), _peak_rss_mb())
        print(f"wrote {csv_path} ({len(table.rows)} rows"
              + (f", {len(failed)} FAILED" if failed else "") + ")")
        for row in failed:
            print(f"  failed: d0={row.d0:g} variant={row.variant}: "
                  f"{row.note}", file=sys.stderr)
        return 1 if failed else 0
    finally:
        package_logger.removeHandler(handler)
        handler.close()
        package_logger.setLevel(old_level)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracdg",
        description="Run a fracture-model benchmark sweep from a config "
                    "file and write an error table.")
    parser.add_argument("config", help="experiment description file")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (overrides the config)")
    parser.add_argument("--log-level", default="warning",
                        choices=("debug", "info", "warning", "error"),
                        help="console log level (the run log always "
                             "records info and up)")
    parser.add_argument("--dump-fields", action="store_true",
                        help="write field dumps for every run")
    parser.add_argument("--dump-matrices", action="store_true",
                        help="write assembled systems for every run")
    args = parser.parse_args(argv)

    level = args.log_level.upper()
    logging.basicConfig(level=level, format=_LOG_FORMAT)
    for console in logging.getLogger().handlers:
        # run() drops the package logger to INFO for the file log; the
        # console keeps the user-chosen threshold.
        console.setLevel(level)
    try:
        config = parse_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        config = replace(config, out_dir=args.out)
    if args.dump_fields:
        config = replace(config, dump_fields=True)
    if args.dump_matrices:
        config = replace(config, dump_matrices=True)
    try:
        return run(config)
    except Exception as exc:
        logger.error("run failed: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
