"""File format and command-surface tests."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fastslow
from fastslow import embedding, singularities
from fastslow.errors import AssumptionViolationError, ParseError
from fastslow.cli import execute_command
from fastslow.specfiles import (MapSpecFile, emit_jetvector, emit_mapspec,
                                parse_jetvector, parse_mapspec)
from conftest import (make_contact3d_spec, make_fold_spec,
                      make_quadratic_g_spec, make_transcritical_spec)

FOLD_TEXT = """\
dims 2 1
order 4
base 0 0
[N 1 1]
0 0 : 1
[N 2 1]
0 0 : 0
[f 1]
2 0 : 1
0 1 : -1
[G 1]
0 0 0 : 0
[G 2]
0 0 0 : -1
"""


class TestMapSpecFormat:
    def test_parse_reference_file(self):
        loaded = parse_mapspec(FOLD_TEXT)
        spec = loaded.spec
        assert (spec.n, spec.k, spec.order) == (2, 1, 4)
        # f vanishes on the parabola: f(1, 1) = 0
        assert spec.f[0].evaluate([1.0, 1.0]) == 0.0
        assert spec.G[1].constant_term == -1.0

    def test_zero_lines_dropped(self):
        loaded = parse_mapspec(FOLD_TEXT)
        assert loaded.spec.N[1][0].is_zero()
        assert loaded.spec.G[0].is_zero()

    def test_round_trip_exact(self):
        for spec in (make_fold_spec(), make_quadratic_g_spec(),
                     make_contact3d_spec(), make_transcritical_spec(0.37)):
            src = MapSpecFile(spec=spec, name="case-a", description="spicy",
                              declared_case="Fold")
            text = emit_mapspec(src)
            again = parse_mapspec(text)
            assert again.name == "case-a" and again.declared_case == "Fold"
            assert again.spec.f == spec.f
            assert again.spec.G == spec.G
            assert again.spec.N == spec.N
            assert np.array_equal(again.spec.base_point, spec.base_point)
            # byte-level determinism of emission
            assert emit_mapspec(again) == text

    def test_missing_g_section(self):
        broken = FOLD_TEXT.replace("[G 2]\n0 0 0 : -1\n", "")
        with pytest.raises(ParseError, match="missing section G"):
            parse_mapspec(broken)

    def test_duplicate_term(self):
        broken = FOLD_TEXT.replace("2 0 : 1", "2 0 : 1\n2 0 : 2")
        with pytest.raises(ParseError, match="duplicate term"):
            parse_mapspec(broken)

    def test_malformed_line_reports_number(self):
        broken = FOLD_TEXT.replace("0 1 : -1", "0 1 -1")
        with pytest.raises(ParseError, match="line 10"):
            parse_mapspec(broken)

    def test_wrong_exponent_arity(self):
        broken = FOLD_TEXT.replace("0 0 0 : -1", "0 0 : -1")
        with pytest.raises(ParseError, match="exponents"):
            parse_mapspec(broken)

    def test_rank_violation(self):
        broken = FOLD_TEXT.replace("[N 1 1]\n0 0 : 1", "[N 1 1]")
        with pytest.raises(AssumptionViolationError, match="full column rank"):
            parse_mapspec(broken)

    def test_field_file_round_trip(self):
        from fastslow.jets import Jet, JetVector
        v = JetVector([Jet.from_terms(2, 3, {(1, 0): 0.5, (0, 2): -0.125}),
                       Jet.from_terms(2, 3, {(0, 1): 1.0 / 3.0})])
        text = emit_jetvector(v, comment="test field")
        assert parse_jetvector(text) == v


@pytest.fixture
def fold_file(tmp_path):
    path = tmp_path / "fold.map"
    path.write_text(emit_mapspec(MapSpecFile(spec=make_fold_spec(),
                                             name="fold-canonical")))
    return str(path)


class TestCommands:
    def test_classify(self, fold_file, capsys):
        assert execute_command(["classify", "--spec", fold_file,
                                "--point", "0,0"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "FoldContact unipotent_index=1"

    def test_classify_superstable(self, tmp_path, capsys):
        from conftest import make_superstable_spec
        path = tmp_path / "sq.map"
        path.write_text(emit_mapspec(make_superstable_spec()))
        assert execute_command(["classify", "--spec", str(path),
                                "--point", "0,0"]) == 0
        assert "NH_attracting" in capsys.readouterr().out
        assert execute_command(["classify", "--spec", str(path),
                                "--point", "0,0.2"]) == 0
        assert "superstable" in capsys.readouterr().out

    def test_classify_off_manifold_exit_2(self, fold_file, capsys):
        assert execute_command(["classify", "--spec", fold_file,
                                "--point", "0,0.5"]) == 2
        assert "error[PreconditionError]" in capsys.readouterr().err

    def test_reduce_table(self, fold_file, tmp_path, capsys):
        out = tmp_path / "reduce.csv"
        code = execute_command(["reduce", "--spec", fold_file,
                                "--point=-0.2,0.04", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("# tool: fastslow")
        assert "projection" in text and "reduced_field" in text

    def test_embed_writes_parseable_field(self, fold_file, tmp_path, capsys):
        out = tmp_path / "V.map"
        code = execute_command(["embed", "--spec", fold_file, "--order", "4",
                                "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "residual=" in stdout
        residual = float(stdout.split("residual=")[1].split()[0])
        assert residual <= 1e-9
        field = parse_jetvector(out.read_text())
        assert field.num_vars == 3 and len(field) == 3

    def test_verify_reduced(self, tmp_path, capsys):
        path = tmp_path / "qg.map"
        path.write_text(emit_mapspec(make_quadratic_g_spec()))
        code = execute_command(["verify-reduced", "--spec", str(path),
                                "--point", "0,0", "--order", "4"])
        assert code == 0
        assert "eps01_diff" in capsys.readouterr().out

    def test_fold_exit_table(self, fold_file, tmp_path, capsys):
        out = tmp_path / "exits.csv"
        code = execute_command(["fold-exit", "--spec", fold_file,
                                "--rho", "0.1", "--eps", "1e-3:1e-2:log:5",
                                "--out", str(out)])
        assert code == 0
        text = out.read_text()
        data_rows = [ln for ln in text.splitlines()
                     if ln and not ln.startswith("#") and not ln.startswith("eps")]
        assert len(data_rows) == 5
        assert "# slope:" in text
        assert "slope=" in capsys.readouterr().out

    def test_branch_select(self, tmp_path, capsys):
        path = tmp_path / "tc.map"
        path.write_text(emit_mapspec(make_transcritical_spec(2.0)))
        code = execute_command(["branch-select", "--spec", str(path),
                                "--eps", "1e-3"])
        assert code == 0
        assert "FastEscape" in capsys.readouterr().out

    def test_contact_report(self, tmp_path, capsys):
        path = tmp_path / "c3.map"
        path.write_text(emit_mapspec(make_contact3d_spec()))
        code = execute_command(["contact", "--spec", str(path),
                                "--point", "0,0,0"])
        assert code == 0
        assert "contact" in capsys.readouterr().out

    def test_center_manifold_pipeline(self, tmp_path, capsys):
        path = tmp_path / "c3.map"
        path.write_text(emit_mapspec(make_contact3d_spec()))
        code = execute_command(["center-manifold", "--spec", str(path),
                                "--order", "4"])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_center_manifold_wrong_graph_exit_1(self, tmp_path, capsys, monkeypatch):
        # a graph that misses invariance ends in one error line, not "ok"
        monkeypatch.setattr(singularities, "_finite_series",
                            lambda step, term, coeffs:
                            embedding._finite_series(step, term, coeffs[:1]))
        path = tmp_path / "c3.map"
        path.write_text(emit_mapspec(make_contact3d_spec()))
        assert execute_command(["center-manifold", "--spec", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error[ConvergenceError]: ") and err.count("\n") == 1

    def test_embed_residual_above_band_exit_1(self, fold_file, capsys):
        # the fold embeds with a residual of a few 1e-14; a band of 1e-20
        # refuses it with one error line and no field
        assert execute_command(["embed", "--spec", fold_file,
                                "--tol", "embed_residual=1e-20"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error[ConvergenceError]: ") and err.count("\n") == 1

    def test_embed_nan_residual_exit_1(self, tmp_path, capsys):
        # finite coefficients of 1e200 overflow the Lie series; the NaN
        # residual ends in one error line and no field file
        path = tmp_path / "huge.map"
        path.write_text(FOLD_TEXT.replace("2 0 : 1\n", "2 0 : 1e200\n0 4 : 1e200\n"))
        out = tmp_path / "F.map"
        with np.errstate(over="ignore", invalid="ignore"):
            code = execute_command(["embed", "--spec", str(path), "--out", str(out)])
        assert code == 1 and not out.exists()
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error[ConvergenceError]: ") and err.count("\n") == 1

    def test_selftest(self, capsys):
        assert execute_command(["selftest"]) == 0
        assert "8/8 checks passed" in capsys.readouterr().out

    def test_tol_override(self, fold_file, capsys):
        # widening the unit band absorbs the 1.2 multiplier into the circle
        code = execute_command(["classify", "--spec", fold_file,
                                "--point", "0.1,0.01", "--tol", "unit=0.5"])
        assert code == 0
        assert "FoldContact" in capsys.readouterr().out

    def test_unknown_tol_exit_2(self, fold_file, capsys):
        assert execute_command(["classify", "--spec", fold_file,
                                "--point", "0,0", "--tol", "nope=1"]) == 2

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.map"
        bad.write_text("dims 2\norder 4\n")
        assert execute_command(["classify", "--spec", str(bad),
                                "--point", "0,0"]) == 2
        assert "error[ParseError]" in capsys.readouterr().err

    def test_byte_identical_outputs(self, fold_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            assert execute_command(["fold-exit", "--spec", fold_file,
                                    "--rho", "0.1", "--eps", "1e-3:1e-2:log:4",
                                    "--out", str(target)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_embed_byte_identical_across_processes(self, fold_file, tmp_path):
        # two interpreters with different hash seeds: neither the printed
        # line nor the field file may depend on dict or set order
        src = os.path.dirname(os.path.dirname(fastslow.__file__))
        outputs = []
        for seed in ("1", "2"):
            out = tmp_path / f"V{seed}.map"
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run([sys.executable, "-m", "fastslow.cli", "embed",
                                   "--spec", fold_file, "--out", str(out)],
                                  env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append((proc.stdout, out.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_center_manifold_byte_identical_across_processes(self, tmp_path):
        # the composition matrices are scattered from index tables and
        # multiplied by BLAS: two interpreters with different hash seeds
        # must still print and write the same bytes
        spec = tmp_path / "c3.map"
        spec.write_text(emit_mapspec(make_contact3d_spec()))
        src = os.path.dirname(os.path.dirname(fastslow.__file__))
        outputs = []
        for seed in ("1", "2"):
            out = tmp_path / f"cm{seed}.csv"
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run([sys.executable, "-m", "fastslow.cli", "center-manifold",
                                   "--spec", str(spec), "--out", str(out)],
                                  env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append((proc.stdout, out.read_bytes()))
        assert outputs[0] == outputs[1]


IMPORT_PROBE = """\
import contextlib, io, json, sys
import fastslow.cli
solvers = [m for m in ("scipy.integrate", "scipy.linalg", "scipy.optimize")
           if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [fastslow.cli.execute_command(argv) for argv in (
        ["classify", "--spec", sys.argv[1], "--point", "0,0"],
        ["embed", "--spec", sys.argv[1], "--order", "4"],
        ["selftest"])]
scipy_modules = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"solvers": solvers, "codes": codes, "scipy": scipy_modules}))
"""


def test_cli_import_footprint(fold_file):
    # the CLI and its jet kernel run on numpy alone: neither importing it
    # nor embed and selftest, which build the derivation operator, load any
    # scipy module
    src = os.path.dirname(os.path.dirname(fastslow.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, fold_file],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["solvers"] == []
    assert report["codes"] == [0, 0, 0]
    assert report["scipy"] == []


class TestParserReuse:
    @staticmethod
    def _in_process(argv, capsys):
        try:
            code = execute_command(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    def test_cached_parser_keeps_no_state_between_calls(self, fold_file, capsys):
        # refusals and overrides parsed earlier in the process must leave
        # the plain calls byte-identical to a fresh interpreter's
        classify = ["classify", "--spec", fold_file, "--point", "0,0"]
        reduce = ["reduce", "--spec", fold_file, "--point", "0,0"]
        assert self._in_process(["classify", "--spec", fold_file], capsys)[0] == 2
        assert self._in_process(classify + ["--tol", "unit=1e-9", "--tol",
                                            "eq_zero=1e-12"], capsys)[0] == 0
        assert self._in_process(reduce + ["--tol", "unit=0.5"], capsys)[0] == 0
        assert self._in_process(classify + ["--tol", "nope=1"], capsys)[0] == 2
        src = os.path.dirname(os.path.dirname(fastslow.__file__))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for argv in (classify, reduce):
            code, out, err = self._in_process(argv, capsys)
            proc = subprocess.run([sys.executable, "-m", "fastslow.cli"] + argv,
                                  env=env, capture_output=True, timeout=120)
            assert (code, out.encode(), err.encode()) == \
                (proc.returncode, proc.stdout, proc.stderr)
            assert code == 0


class TestCommandErrorSurface:
    def test_order_out_of_range_exit_2(self, fold_file, capsys):
        assert execute_command(["embed", "--spec", fold_file,
                                "--order", "9"]) == 2
        assert "1..5" in capsys.readouterr().err

    def test_embed_non_unipotent_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c3.map"
        path.write_text(emit_mapspec(make_contact3d_spec()))
        code = execute_command(["embed", "--spec", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "jordan_chevalley_split" in err

    def test_branch_select_zero_eps_exit_2(self, tmp_path, capsys):
        path = tmp_path / "tc.map"
        path.write_text(emit_mapspec(make_transcritical_spec()))
        assert execute_command(["branch-select", "--spec", str(path),
                                "--eps", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[PreconditionError]: ") and len(err.splitlines()) == 1

    def test_fold_exit_negative_rho_exit_2(self, fold_file, capsys):
        # used to exit 0 with a table extrapolated from the first step
        assert execute_command(["fold-exit", "--spec", fold_file, "--rho", "-1",
                                "--eps", "1e-3:1e-2:log:3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[PreconditionError]: ")
        assert len(captured.err.splitlines()) == 1

    def test_center_manifold_order_1_exit_2(self, tmp_path, capsys):
        # order 1 used to exit 1 from the embedding's structure checks
        path = tmp_path / "c3.map"
        path.write_text(emit_mapspec(make_contact3d_spec()))
        assert execute_command(["center-manifold", "--spec", str(path),
                                "--order", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[ParseError]: ") and "2..5" in err
        assert len(err.splitlines()) == 1

    def test_missing_file_exit_2(self, capsys):
        assert execute_command(["classify", "--spec", "/nope/missing.map",
                                "--point", "0,0"]) == 2


class TestReportCells:
    def test_center_manifold_csv_has_plain_floats(self, tmp_path):
        path = tmp_path / "c3.map"
        path.write_text(emit_mapspec(make_contact3d_spec()))
        out = tmp_path / "cm.csv"
        assert execute_command(["center-manifold", "--spec", str(path),
                                "--order", "4", "--out", str(out)]) == 0
        text = out.read_text()
        assert "linear_match," in text
        assert "np." not in text


class TestNonFiniteInput:
    @pytest.mark.parametrize("old,new,line", [
        ("2 0 : 1", "2 0 : nan", 9),
        ("0 0 0 : -1", "0 0 0 : -inf", 14),
        ("base 0 0", "base 0 nan", 3),
        ("2 0 : 1", "5 0 : 1", 9),
    ])
    def test_spec_value_refused_exit_2(self, tmp_path, capsys, old, new, line):
        path = tmp_path / "bad.map"
        path.write_text(FOLD_TEXT.replace(old, new))
        assert execute_command(["classify", "--spec", str(path),
                                "--point", "0,0"]) == 2
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[ParseError]: ")
        assert f"line {line}" in lines[0]
        assert "Traceback" not in err

    def test_point_refused_exit_2(self, fold_file, capsys):
        assert execute_command(["classify", "--spec", fold_file,
                                "--point", "nan,0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[ParseError]: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["fold-exit", "--eps", "1e-4:inf:log:4"],
        ["fold-exit", "--eps", "1e-4:1e-3:log:4", "--rho", "nan"],
        ["branch-select", "--eps", "nan"],
    ])
    def test_option_refused_exit_2(self, tmp_path, capsys, argv):
        spec = make_transcritical_spec() if argv[0] == "branch-select" \
            else make_fold_spec()
        path = tmp_path / "case.map"
        path.write_text(emit_mapspec(MapSpecFile(spec=spec)))
        assert execute_command(argv + ["--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[ParseError]: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("override", ["unit=nan", "unit=-1", "eq_zero=inf"])
    def test_tol_refused_exit_2(self, fold_file, capsys, override):
        assert execute_command(["classify", "--spec", fold_file, "--point", "0,0",
                                "--tol", override]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[ParseError]: ")
        assert repr(override) in lines[0]
        assert captured.out == ""

    def test_field_file_refused(self):
        text = "fieldvars 1\norder 2\n[V 1]\n2 : inf\n"
        with pytest.raises(ParseError, match="line 4"):
            parse_jetvector(text)


class TestMalformedInput:
    def test_spec_order_past_the_basis_cap_exit_2(self, tmp_path, capsys):
        # order 400 in three variables would need tables of gigabytes
        path = tmp_path / "big.map"
        path.write_text(FOLD_TEXT.replace("order 4", "order 400"))
        assert execute_command(["classify", "--spec", str(path),
                                "--point", "0,0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[ParseError]: ") and err.count("\n") == 1

    @pytest.mark.parametrize("order", ["order 2", "order 0"])
    def test_spec_order_refused_exit_2(self, tmp_path, capsys, order):
        path = tmp_path / "bad.map"
        path.write_text(FOLD_TEXT.replace("order 4", order))
        assert execute_command(["classify", "--spec", str(path),
                                "--point", "0,0"]) == 2
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[ParseError]: ")
        assert "order" in lines[0]

    @pytest.mark.parametrize("text,line", [
        ("fieldvars 1\norder 2\n[V x]\n1 : 1\n", 3),
        ("fieldvars 1\norder 2\n[V 0]\n1 : 1\n", 3),
        ("fieldvars 0\norder 2\n", 1),
        ("fieldvars 1\norder 0\n", 2),
        ("fieldvars 1\norder 2\n[V 1]\n3 : 1\n", 4),
        ("fieldvars 1\norder 2\nfieldvars 2\n[V 1]\n1 : 1\n", 3),
        ("fieldvars 1\norder 2\norder 3\n[V 1]\n1 : 1\n", 3),
    ], ids=["index-not-int", "index-0", "fieldvars-0", "order-0",
            "term-above-order", "duplicate-fieldvars", "duplicate-order"])
    def test_field_file_malformed(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}"):
            parse_jetvector(text)
