"""Tests for the config parser and the experiment runner.

Parse errors are pinned to their line numbers; runner tests use tiny
meshes and check artifact layout, row counts, determinism and exit
codes rather than numerical values (those live with the model tests).
"""

import dataclasses
import math
import re
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from fracdg import assembly, cli, mesh, models, postproc, solver


def write_config(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


def parse(tmp_path, body):
    return cli.parse_config(write_config(tmp_path, body))


class TestParseDefaults:
    def test_minimal_file_fills_defaults(self, tmp_path):
        config = parse(tmp_path, """
            [experiment]
            preset = perp-asym
        """)
        assert config.preset == "perp-asym"
        assert config.variants == ("I", "I-R", "II", "II-R")
        assert config.d0_list == (1e-1, 3e-2, 1e-2)
        assert config.h == pytest.approx(1 / 16)
        assert config.degrees == 1
        assert config.mu0 == 10.0
        assert config.mu0_gamma is None
        assert config.xi == pytest.approx(2 / 3)
        assert config.mesh_mode == "auto"
        assert config.reference == "full"
        assert config.ref_h is None and config.ref_degrees is None
        assert config.method is None
        assert config.ref_method == "direct-LU"
        assert config.tol == 1e-10
        assert config.max_iter is None
        assert config.out_dir == "out"
        assert not config.dump_fields and not config.dump_matrices

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        config = parse(tmp_path, """
            # full line comment

            [experiment]
            preset = perp-sym   # trailing comment
            h = 1/32
        """)
        assert config.preset == "perp-sym"
        assert config.h == pytest.approx(1 / 32)

    def test_overrides_take_effect(self, tmp_path):
        config = parse(tmp_path, """
            [experiment]
            preset = tangential
            variants = II, I
            d0 = 5e-2
            degrees = 2
            mu0 = 20
            mu0_gamma = 5
            xi = 0.75
            ref_h = 1/64
            ref_degrees = 3

            [solver]
            method = CG
            tol = 1e-8
            max_iter = 500

            [output]
            directory = results
            dump_fields = yes
        """)
        assert config.variants == ("II", "I")
        assert config.d0_list == (5e-2,)
        assert config.degrees == 2 and config.ref_degrees == 3
        assert config.mu0 == 20.0 and config.mu0_gamma == 5.0
        assert config.xi == 0.75
        assert config.ref_h == pytest.approx(1 / 64)
        assert config.method == "CG"
        assert config.tol == 1e-8 and config.max_iter == 500
        assert config.out_dir == "results" and config.dump_fields

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="cannot read"):
            cli.parse_config(str(tmp_path / "nope.cfg"))

    def test_missing_preset(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="preset"):
            parse(tmp_path, """
                [experiment]
                h = 1/16
            """)


class TestParseErrors:
    def test_xi_at_half_rejected_with_line(self, tmp_path):
        with pytest.raises(cli.ConfigError,
                           match=r"exp\.cfg:4: .*xi > 1/2"):
            parse(tmp_path, """
                [experiment]
                preset = perp-asym
                xi = 0.5
            """)

    def test_xi_just_above_half_accepted(self, tmp_path):
        config = parse(tmp_path, """
            [experiment]
            preset = perp-asym
            xi = 0.51
        """)
        assert config.xi == 0.51

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(cli.ConfigError,
                           match=r"exp\.cfg:5: duplicate key 'h'.*line 4"):
            parse(tmp_path, """
                [experiment]
                preset = perp-asym
                h = 1/16
                h = 1/8
            """)

    def test_unknown_key(self, tmp_path):
        with pytest.raises(cli.ConfigError, match=r"exp\.cfg:4: unknown key"):
            parse(tmp_path, """
                [experiment]
                preset = perp-asym
                bogus = 1
            """)

    def test_unknown_section(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="unknown section"):
            parse(tmp_path, """
                [experiment]
                preset = perp-asym
                [plotting]
                style = fancy
            """)

    def test_key_before_section(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="before any"):
            parse(tmp_path, """
                preset = perp-asym
            """)

    def test_line_without_assignment(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="key = value"):
            parse(tmp_path, """
                [experiment]
                preset perp-asym
            """)

    def test_type_mismatch_cites_line(self, tmp_path):
        with pytest.raises(cli.ConfigError,
                           match=r"exp\.cfg:4: bad value for 'degrees'"):
            parse(tmp_path, """
                [experiment]
                preset = perp-asym
                degrees = two
            """)

    def test_bad_fraction(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="spacing"):
            parse(tmp_path, """
                [experiment]
                preset = perp-asym
                h = 1/0
            """)

    def test_full_not_a_sweep_variant(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="reference"):
            parse(tmp_path, """
                [experiment]
                preset = perp-asym
                variants = full, I
            """)

    def test_unknown_variant(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="unknown variant"):
            parse(tmp_path, """
                [experiment]
                preset = perp-asym
                variants = I, III
            """)

    def test_duplicate_d0(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="twice"):
            parse(tmp_path, """
                [experiment]
                preset = perp-asym
                d0 = 1e-1, 1e-1
            """)

    def test_nonpositive_d0(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="positive"):
            parse(tmp_path, """
                [experiment]
                preset = perp-asym
                d0 = 1e-1, -2e-2
            """)
        # a d0 too wide for the domain or too thin for double precision is
        # refused at its line from the profile's bounds, before numpy
        # overflows or divides by zero on the walls
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d0, reason in (("1e308", "leave the domain"),
                               ("1e-308", "too thin"), ("1e-16", "too thin")):
                with pytest.raises(cli.ConfigError,
                                   match=rf"exp\.cfg:4: d0 = .*{reason}"):
                    parse(tmp_path, f"""
                        [experiment]
                        preset = perp-asym
                        d0 = {d0}
                    """)
            for d0 in (1e-14, 0.3):
                config = parse(tmp_path, f"""
                    [experiment]
                    preset = perp-asym
                    d0 = {d0!r}
                """)
                assert list(config.d0_list) == [d0]

    def test_degrees_out_of_range(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="1..4"):
            parse(tmp_path, """
                [experiment]
                preset = perp-asym
                degrees = 7
            """)

    @pytest.mark.parametrize("line", ["h = inf", "mu0 = inf", "d0 = nan",
                                      "h = inf/1"])
    def test_nonfinite_number_rejected_with_line(self, tmp_path, line):
        key = line.split()[0]
        with pytest.raises(cli.ConfigError,
                           match=rf"exp\.cfg:4: bad value for '{key}'.*"
                                 "finite"):
            parse(tmp_path, f"""
                [experiment]
                preset = perp-asym
                {line}
            """)

    def test_tol_out_of_range(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="between 0 and 1"):
            parse(tmp_path, """
                [experiment]
                preset = perp-asym

                [solver]
                tol = 2.0
            """)


# spacings stay at or above 1/16 so no example meshes more than a small
# problem; the pools mix valid, malformed and extreme text
_SPACINGS = ("1/4", "1/8", "1/16")
_MALFORMED = ("1/0", "0", "-1/8", "nan", "inf", "abc", "1/", "/8")
_VALUES = (
    "1e308", "-1e308", "1e-308", "nan", "inf", "-inf", "1/0", "0", "-1",
    "1", "2", "0.5", "0.75", "0.1", "1e-3", "0.1, 0.05", "0.1, 0.1", ",",
    "I", "I, I", "I-R, II", "II-R", "full", "III", "auto", "rectified",
    "curved-reduced", "exact", "perp-sym", "CG", "direct-LU", "true",
    "maybe", "diag: 1, 2", "diag: 1", "diag: -1, 2", "affine: 1, 0, 0",
    "affine: 1, 0", "constant: 0.5", "constant:", "trace", "zero",
    "inflow-bubble", "cosine-product", "cosine-product-source",
    "sinusoidal", "constant", "symmetric", "printed", "x = y", "")


def _converts(entry, text):
    try:
        cli._SCHEMA[entry](text)
    except ValueError:
        return False
    return True


def _value_text(entry, clean):
    """Text for a schema entry: a pool value its converter accepts, or
    unless ``clean``, one in four from the malformed or whole pool."""
    key = entry[1]
    if key in ("h", "ref_h"):
        valid, pool = _SPACINGS, _MALFORMED
    elif key == "ref_h_normal":
        valid, pool = _SPACINGS + ("1e308",), _MALFORMED
    elif key == "preset":
        valid, pool = models.PRESET_NAMES, ("tilted",)
    else:
        valid = [text for text in _VALUES if _converts(entry, text)]
        pool = _VALUES
    if clean:
        return st.sampled_from(valid)
    return st.one_of(*[st.sampled_from(valid)] * 3, st.sampled_from(pool))


@st.composite
def _config_text(draw):
    """A config file that names a preset and sets some schema keys; in
    half the files every value converts."""
    clean = draw(st.booleans())
    entries = draw(st.lists(
        st.sampled_from(sorted(set(cli._SCHEMA) - {("experiment", "preset")})),
        unique=True, max_size=6))
    entries = draw(st.permutations(entries + [("experiment", "preset")]))
    return "".join(
        f"[{section}]\n{key} = {draw(_value_text((section, key), clean))}\n"
        for section, key in entries)


class TestConfigFuzz:
    """Any config either parses or raises a ConfigError that cites the
    file and, where the fault sits on a line, that line."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_config_text())
    def test_parses_or_cites_path_and_line(self, tmp_path, text):
        path = tmp_path / "fuzz.cfg"
        path.write_text(text)
        try:
            config = cli.parse_config(str(path))
        except cli.ConfigError as exc:
            message = str(exc)
            cited = re.match(re.escape(str(path)) + r"(?::(\d+))?: ", message)
            assert cited, message
            bad = re.search(r"bad value for '([^']+)'", message)
            if cited.group(1) is None:
                assert bad is None, message
            else:
                line = text.splitlines()[int(cited.group(1)) - 1]
                assert "=" in line, message
                if bad:
                    assert line.partition("=")[0].strip() == bad.group(1)
        else:
            assert isinstance(config, cli.ExperimentConfig)


class TestLibraryChoices:
    """The CLI accepts exactly what the library can run."""

    def parses(self, tmp_path, section, line):
        try:
            return parse(tmp_path, f"""
                [experiment]
                preset = perp-asym
                [{section}]
                {line}
            """)
        except cli.ConfigError:
            return None

    def test_choices_match_library(self, tmp_path):
        assert self.parses(tmp_path, "experiment",
                           "h = 1/16").variants == models.MODEL_NAMES
        for name in models.MODEL_NAMES:
            assert self.parses(tmp_path, "experiment", f"variants = {name}")
        assert not self.parses(tmp_path, "experiment", "variants = full")
        for degree in range(1, assembly.MAX_DEGREE + 1):
            assert self.parses(tmp_path, "experiment", f"degrees = {degree}")
        for degree in (0, assembly.MAX_DEGREE + 1):
            assert not self.parses(tmp_path, "experiment",
                                   f"degrees = {degree}")
        for key in ("method", "ref_method"):
            for method in solver.METHODS:
                config = self.parses(tmp_path, "solver", f"{key} = {method}")
                assert getattr(config, key) == method
            assert getattr(self.parses(tmp_path, "solver", f"{key} = auto"),
                           key) is None
            assert not self.parses(tmp_path, "solver", f"{key} = GMRES")
        for mode in ("auto",) + mesh.REDUCED_MESH_MODES:
            # each mode fits some variant on the wavy walls of perp-asym
            assert any(self.parses(tmp_path, "experiment",
                                   f"mesh_mode = {mode}\nvariants = {name}")
                       for name in models.MODEL_NAMES)
        for mode in set(mesh.MESH_MODES) - set(mesh.REDUCED_MESH_MODES):
            assert not self.parses(tmp_path, "experiment",
                                   f"mesh_mode = {mode}")
        assert not self.parses(tmp_path, "experiment", "mesh_mode = flat")


class TestMeshModeValidation:
    def test_wall_trace_variant_on_rectified_mesh(self, tmp_path):
        with pytest.raises(cli.ConfigError,
                           match="variant I .*rectified"):
            parse(tmp_path, """
                [experiment]
                preset = perp-asym
                variants = I
                mesh_mode = rectified
            """)

    def test_rectified_variant_on_wall_mesh_varying_aperture(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="variant II-R"):
            parse(tmp_path, """
                [experiment]
                preset = perp-asym
                variants = II-R
                mesh_mode = curved-reduced
            """)

    def test_rectified_variant_on_wall_mesh_constant_aperture(self, tmp_path):
        config = parse(tmp_path, """
            [experiment]
            preset = manufactured
            variants = II-R
            mesh_mode = curved-reduced
        """)
        assert config.mesh_mode == "curved-reduced"


class TestCustomProblems:
    def test_problem_section_requires_custom_preset(self, tmp_path):
        with pytest.raises(cli.ConfigError, match=r"\[problem\] keys"):
            parse(tmp_path, """
                [experiment]
                preset = perp-asym

                [problem]
                g = inflow-bubble
            """)

    def test_custom_requires_boundary_data(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="'g'"):
            parse(tmp_path, """
                [experiment]
                preset = custom
            """)

    def test_custom_has_no_exact_reference(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="closed-form"):
            parse(tmp_path, """
                [experiment]
                preset = custom
                reference = exact

                [problem]
                g = inflow-bubble
            """)

    def test_exact_reference_needs_closed_form(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="closed-form"):
            parse(tmp_path, """
                [experiment]
                preset = perp-asym
                reference = exact
            """)
        config = parse(tmp_path, """
            [experiment]
            preset = perp-sym
            reference = exact
        """)
        assert config.reference == "exact"

    def test_unknown_boundary_function(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="named set"):
            parse(tmp_path, """
                [experiment]
                preset = custom

                [problem]
                g = exp(x)
            """)

    def test_affine_needs_three_coefficients(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="three"):
            parse(tmp_path, """
                [experiment]
                preset = custom

                [problem]
                g = affine: 1, -1
            """)

    def test_negative_permeability_rejected(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="positive"):
            parse(tmp_path, """
                [experiment]
                preset = custom

                [problem]
                g = inflow-bubble
                k_f = -0.5
            """)

    def test_indefinite_permeability_names_its_line(self, tmp_path):
        # the library's positive-definite rule, cited at the k1 line
        with pytest.raises(cli.ConfigError,
                           match=r"exp\.cfg:7: k1 must be positive definite"):
            parse(tmp_path, """
                [experiment]
                preset = custom

                [problem]
                g = inflow-bubble
                k1 = diag: 1, -1
            """)

    def test_factory_builds_configured_problem(self, tmp_path):
        config = parse(tmp_path, """
            [experiment]
            preset = custom
            xi = 0.75

            [problem]
            g = affine: 1, -1, 0
            g_gamma = constant: 0.5
            q = cosine-product-source
            k1 = diag: 2, 3
            k_f = 0.5
            profile = sinusoidal
            frequency = 12.566370614359172
            asymmetry = symmetric
            phase = 0.25
        """)
        preset = cli._preset_factory(config)(0.2)
        assert preset.name == "custom"
        assert preset.xi == 0.75
        np.testing.assert_allclose(preset.k1, np.diag([2.0, 3.0]))
        np.testing.assert_allclose(preset.k_f, 0.5 * np.eye(2))
        x = np.array([[0.25, 0.6], [1.0, 0.0]])
        np.testing.assert_allclose(preset.g(x), [0.75, 0.0])
        np.testing.assert_allclose(preset.q(x),
                                   2 * np.pi**2 * np.cos(np.pi * x[:, 0])
                                   * np.cos(np.pi * x[:, 1]))
        np.testing.assert_allclose(preset.gamma_data()(np.array([0.1, 0.9])),
                                   0.5)
        prof = preset.profile
        assert prof.params["frequency"] == pytest.approx(4 * math.pi)
        t = np.linspace(0.0, 1.0, 7)
        np.testing.assert_allclose(prof.d1_fn(t), prof.d2_fn(t))

    def test_constant_profile_splits_d0(self, tmp_path):
        config = parse(tmp_path, """
            [experiment]
            preset = custom

            [problem]
            g = inflow-bubble
            profile = constant
        """)
        preset = cli._preset_factory(config)(0.08)
        np.testing.assert_allclose(preset.profile.d1_fn(0.3), 0.04)
        assert preset.profile.is_constant


SMALL_SWEEP = """
    [experiment]
    preset = perp-asym
    variants = I, II-R
    d0 = 1e-1, 3e-2
    h = 1/16

    [output]
    directory = {out}
"""


class TestRun:
    def test_sweep_artifacts_and_row_count(self, tmp_path):
        out = tmp_path / "res"
        config = cli.parse_config(write_config(
            tmp_path, SMALL_SWEEP.format(out=out)))
        assert cli.run(config) == 0
        csv = (out / "errors.csv").read_text().splitlines()
        assert csv[0] == "d0,variant,l2_error,bulk_dofs,iface_dofs,residual"
        assert len(csv) == 5
        log = (out / "run.log").read_text()
        for d0, variant in ((0.1, "I"), (0.1, "II-R"),
                            (0.03, "I"), (0.03, "II-R")):
            assert f"d0={d0:g} variant {variant}:" in log
            assert "wellposedness lhs=" in log
        assert log.count("reference direct-LU") == 2
        # the closing line carries the peak memory of the run
        match = re.search(r"4 rows, 0 failed, peak RSS (\S+) MB$",
                          log.splitlines()[-1])
        assert match, log.splitlines()[-1]
        assert 0.0 < float(match.group(1)) < math.inf

    def test_run_log_records_each_solve_once(self, tmp_path):
        # the models layer logs every solve with its dofs and residual;
        # the sweep lines carry the error and the reference method only
        out = tmp_path / "res"
        config = cli.parse_config(write_config(
            tmp_path, SMALL_SWEEP.format(out=out)))
        assert cli.run(config) == 0
        log = (out / "run.log").read_text()
        rows = len((out / "errors.csv").read_text().splitlines()) - 1
        solves = rows + len(config.d0_list)
        assert log.count("relative residual") == solves
        assert log.count(" dofs=") == solves

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "res"
        config = cli.parse_config(write_config(
            tmp_path, SMALL_SWEEP.format(out=out)))
        assert cli.run(config) == 0
        first = (out / "errors.csv").read_bytes()
        assert cli.run(config) == 0
        assert (out / "errors.csv").read_bytes() == first

    def test_twelve_row_sweep(self, tmp_path):
        out = tmp_path / "res"
        config = cli.parse_config(write_config(tmp_path, f"""
            [experiment]
            preset = perp-asym
            d0 = 1e-1, 5e-2, 2.5e-2
            h = 1/16

            [output]
            directory = {out}
        """))
        assert cli.run(config) == 0
        rows = (out / "errors.csv").read_text().splitlines()[1:]
        assert len(rows) == 12
        variants = [line.split(",")[1] for line in rows]
        assert variants == ["I", "I-R", "II", "II-R"] * 3

    def test_failed_row_gives_nonzero_exit(self, tmp_path, capsys):
        # h = 1/8 does not resolve the walls and is rejected by the
        # parser; set on a parsed config, it fails the row at run time in
        # the averaging guard
        out = tmp_path / "res"
        config = cli.parse_config(write_config(tmp_path, f"""
            [experiment]
            preset = perp-asym
            variants = I
            d0 = 1e-1
            h = 1/16

            [output]
            directory = {out}
        """))
        config = dataclasses.replace(config, h=1 / 8)
        assert cli.run(config) == 1
        rows = (out / "errors.csv").read_text().splitlines()[1:]
        assert len(rows) == 1 and ",nan," in rows[0]
        assert "failed" in capsys.readouterr().err

    def test_degree_four_runs(self, tmp_path):
        out = tmp_path / "res"
        config = cli.parse_config(write_config(tmp_path, f"""
            [experiment]
            preset = perp-sym
            variants = II-R
            d0 = 1e-1
            h = 1/8
            degrees = 4
            reference = exact

            [output]
            directory = {out}
        """))
        assert cli.run(config) == 0
        (row,) = (out / "errors.csv").read_text().splitlines()[1:]
        assert math.isfinite(float(row.split(",")[2]))

    def test_unconverged_solve_fails_row(self, tmp_path, capsys):
        out = tmp_path / "res"
        config = cli.parse_config(write_config(tmp_path, f"""
            [experiment]
            preset = perp-sym
            variants = II-R
            d0 = 1e-1
            h = 1/8
            reference = exact

            [solver]
            method = BiCGStab
            max_iter = 1

            [output]
            directory = {out}
        """))
        assert cli.run(config) == 1
        (row,) = (out / "errors.csv").read_text().splitlines()[1:]
        assert row.split(",")[2] == "nan"
        err = capsys.readouterr().err
        assert "solve did not converge: relative residual" in err
        assert "> tol 1e-10" in err
        # the row keeps the dofs and the residual of the solve that ran,
        # one BiCGStab step from the coarse solution
        bulk_dofs, iface_dofs, residual = row.split(",")[3:]
        assert int(bulk_dofs) > 0 and int(iface_dofs) > 0
        assert float(residual) == pytest.approx(0.0079, abs=5e-4)

    def test_unconverged_reference_fails_its_rows(self, tmp_path, capsys):
        out = tmp_path / "res"
        config = cli.parse_config(write_config(tmp_path, f"""
            [experiment]
            preset = perp-sym
            variants = II, II-R
            d0 = 1e-1
            h = 1/16

            [solver]
            ref_method = CG
            max_iter = 1

            [output]
            directory = {out}
        """))
        assert cli.run(config) == 1
        rows = (out / "errors.csv").read_text().splitlines()[1:]
        assert [r.split(",")[2] for r in rows] == ["nan", "nan"]
        err = capsys.readouterr().err
        assert err.count("reference failed: solve did not converge") == 2


class TestWallResolution:
    UNRESOLVED = """
        [experiment]
        preset = perp-asym
        d0 = 1e-1
        h = 1/8
        degrees = 3

        [output]
        directory = {out}
    """

    def test_unresolved_reference_rejected_before_any_solve(self, tmp_path,
                                                            capsys):
        # two mesh rows per wall period: the reference mesh cannot be
        # averaged, which the parser finds without solving anything
        out = tmp_path / "res"
        path = write_config(tmp_path, self.UNRESOLVED.format(out=out))
        with pytest.raises(cli.ConfigError, match=r":5: .*cannot be "
                           r"averaged.*exits the fracture block"):
            cli.parse_config(path)
        assert cli.main([path]) == 2
        assert "refine h" in capsys.readouterr().err
        assert not out.exists()

    def test_rejection_cites_ref_h(self, tmp_path):
        body = self.UNRESOLVED.format(out=tmp_path / "res").replace(
            "h = 1/8", "h = 1/16\n        ref_h = 1/8")
        with pytest.raises(cli.ConfigError, match=r":6: .*refine ref_h"):
            parse(tmp_path, body)

    # symmetric walls of frequency 27.5 on a reference mesh at ref_h = 1/16
    # miss the fracture block at the Gauss points of the reference rows,
    # but not at those of the rows at h = 1/8, where the table averages;
    # at frequency 27 it is the other way round for h = 1/32
    CUSTOM = """
        [experiment]
        preset = custom
        variants = I, II-R
        d0 = 1e-1
        h = {h}
        ref_h = 1/16

        [problem]
        g = inflow-bubble
        asymmetry = symmetric
        frequency = {frequency}

        [output]
        directory = {out}
    """

    def test_check_uses_the_rows_of_the_error_table(self, tmp_path):
        out = tmp_path / "res"
        path = write_config(tmp_path, self.CUSTOM.format(
            h="1/8", frequency=27.5, out=out))
        config = cli.parse_config(path)
        preset = cli._preset_factory(config)(1e-1)
        ref_mesh = models.full_mesh(preset, 1 / 16)
        with pytest.raises(ValueError, match="exits the fracture block"):
            postproc.check_wall_fit(ref_mesh, 1 / 16)
        assert cli.main([path]) == 0
        rows = (out / "errors.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(math.isfinite(float(r.split(",")[2])) for r in rows)

    def test_rows_at_h_that_miss_are_rejected(self, tmp_path):
        with pytest.raises(cli.ConfigError, match=r":7: .*cannot be "
                           r"averaged.*refine ref_h"):
            parse(tmp_path, self.CUSTOM.format(
                h="1/32", frequency=27.0, out=tmp_path / "res"))

    def test_unbuildable_reference_exits_2(self, tmp_path, monkeypatch,
                                           capsys):
        # a mesh too large to allocate is a config error, not a traceback
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate")

        out = tmp_path / "res"
        path = write_config(tmp_path, self.UNRESOLVED.format(out=out))
        monkeypatch.setattr(models, "full_mesh", no_memory)
        with pytest.raises(cli.ConfigError, match=r":5: .*MemoryError: "
                           r"Unable to allocate.*coarsen h"):
            cli.parse_config(path)
        assert cli.main([path]) == 2
        assert "cannot be built" in capsys.readouterr().err
        assert not out.exists()

    def test_unbuildable_averaging_points_exit_2(self, tmp_path,
                                                 monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate")

        body = self.CUSTOM.format(h="1/8", frequency=27.5,
                                  out=tmp_path / "res")
        monkeypatch.setattr(postproc, "check_wall_fit", no_memory)
        with pytest.raises(cli.ConfigError, match=r":6: .*averaging "
                           r"points.*MemoryError.*coarsen h"):
            parse(tmp_path, body)

    def test_exact_reference_skips_the_check(self, tmp_path):
        config = parse(tmp_path, """
            [experiment]
            preset = perp-sym
            d0 = 1e-1
            h = 1/8
            reference = exact
        """)
        assert config.h == 1 / 8

    RESOLVED = """
        [experiment]
        preset = perp-asym
        d0 = 1e-1
        h = 1/16
        ref_h_normal = {h_normal}

        [output]
        directory = {out}
    """

    def test_preflight_builds_the_reference_mesh_of_the_run(self, tmp_path,
                                                           monkeypatch):
        calls = []
        full_mesh = models.full_mesh

        def spy(*args, **kwargs):
            calls.append(kwargs.get("h_normal"))
            return full_mesh(*args, **kwargs)

        monkeypatch.setattr(models, "full_mesh", spy)
        parse(tmp_path, self.RESOLVED.format(h_normal="1/32",
                                             out=tmp_path / "res"))
        assert calls == [1 / 32]

    def test_unbuildable_ref_h_normal_exits_2(self, tmp_path, monkeypatch,
                                              capsys):
        # a spacing across the fracture too fine to allocate fails the
        # parse, citing its own line, instead of every row of the run
        full_mesh = models.full_mesh

        def no_memory(*args, h_normal=None, **kwargs):
            if h_normal is not None and h_normal < 1e-6:
                raise MemoryError("Unable to allocate")
            return full_mesh(*args, h_normal=h_normal, **kwargs)

        out = tmp_path / "res"
        path = write_config(tmp_path, self.RESOLVED.format(h_normal="1e-9",
                                                           out=out))
        monkeypatch.setattr(models, "full_mesh", no_memory)
        with pytest.raises(cli.ConfigError, match=r":6: .*MemoryError: "
                           r"Unable to allocate.*coarsen ref_h_normal"):
            cli.parse_config(path)
        assert cli.main([path]) == 2
        assert "cannot be built" in capsys.readouterr().err
        assert not out.exists()


class TestSizePreflight:
    BODY = """
        [experiment]
        preset = perp-sym
        d0 = 1e-1
        h = {h}
        reference = {reference}

        [output]
        directory = {out}
    """

    @pytest.mark.parametrize("reference", ["full", "exact"])
    def test_tiny_h_refused_before_any_mesh(self, tmp_path, monkeypatch,
                                            capsys, reference):
        # 2**41 triangles: the lattice counts alone refuse it
        calls = []

        def no_mesh(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a mesh was built")

        monkeypatch.setattr(models, "build_bulk_mesh", no_mesh)
        monkeypatch.setattr(mesh, "build_bulk_mesh", no_mesh)
        out = tmp_path / "res"
        path = write_config(tmp_path, self.BODY.format(
            h="1/1048576", reference=reference, out=out))
        with pytest.raises(cli.ConfigError, match=r":5: the reduced meshes "
                           r"at h cannot be assembled \(MemoryError: .*"
                           r"2\.2e\+12 elements.*coarsen h"):
            cli.parse_config(path)
        assert cli.main([path]) == 2
        assert "coarsen h" in capsys.readouterr().err
        assert not out.exists()
        assert calls == []

    def test_threshold_is_the_physical_memory(self, tmp_path, monkeypatch):
        # h = 1/16: 16 rows of 8 + 8 columns, two triangles per cell, and
        # the full reference adds its four slab columns
        need = assembly.bulk_assembly_bytes(2 * 16 * (8 + 8 + 4), 1)
        body = self.BODY.format(h="1/16", reference="full",
                                out=tmp_path / "res")
        monkeypatch.setattr(models, "_physical_memory", lambda: need)
        parse(tmp_path, body)
        monkeypatch.setattr(models, "_physical_memory", lambda: need - 1)
        with pytest.raises(cli.ConfigError, match=r":5: the reference mesh "
                           r"at d0 = 0.1 cannot be built \(MemoryError: "
                           r".*coarsen h"):
            parse(tmp_path, body)

    def test_spacing_beyond_a_float_count_is_refused(self, tmp_path):
        with pytest.raises(cli.ConfigError, match=r":5: .*inf elements"):
            parse(tmp_path, self.BODY.format(h="1e-320", reference="exact",
                                             out=tmp_path / "res"))


class TestMain:
    def test_nonfinite_config_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, """
            [experiment]
            preset = perp-asym
            h = inf
        """)
        assert cli.main([path]) == 2
        assert "finite" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, """
            [experiment]
            preset = perp-asym
            xi = 0.4
        """)
        assert cli.main([path]) == 2
        assert "xi" in capsys.readouterr().err

    def test_flags_override_config(self, tmp_path):
        out = tmp_path / "flagged"
        path = write_config(tmp_path, """
            [experiment]
            preset = perp-asym
            variants = I
            d0 = 1e-1
            h = 1/16
        """)
        assert cli.main([path, "--out", str(out), "--dump-fields",
                         "--dump-matrices"]) == 0
        assert (out / "errors.csv").exists()
        fields = sorted(p.name for p in (out / "fields").iterdir())
        assert "d0_0.1_I.gamma.txt" in fields
        assert "d0_0.1_reference.samples.txt" in fields
        matrix = sparse.load_npz(out / "matrices" / "d0_0.1_I.matrix.npz")
        rhs = np.load(out / "matrices" / "d0_0.1_I.rhs.npy")
        assert matrix.shape == (len(rhs), len(rhs))
        reference = sparse.load_npz(
            out / "matrices" / "d0_0.1_reference.matrix.npz")
        assert reference.shape[0] > matrix.shape[0]

    def test_matrix_dump_round_trips_exactly(self, tmp_path):
        config = dataclasses.replace(
            parse(tmp_path, """
                [experiment]
                preset = perp-asym
            """), dump_matrices=True)
        preset = models.preset_by_name("perp-asym", d0=0.1)
        sol = models.run_reduced(preset, "I", 0.125, degrees=2)
        cli._dump_callback(config, tmp_path)(0.1, "I", sol)
        matrix = sparse.load_npz(tmp_path / "matrices"
                                 / "d0_0.1_I.matrix.npz")
        want = sol.system.matrix
        assert matrix.shape == want.shape and matrix.nnz == want.nnz
        assert (matrix != want).nnz == 0
        np.testing.assert_array_equal(
            np.load(tmp_path / "matrices" / "d0_0.1_I.rhs.npy"),
            sol.system.rhs)
