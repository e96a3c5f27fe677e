"""CLI tests: parsing, output schema, exit codes, selftest."""

import cmath
import json
import math
import random
import shlex
import warnings
from pathlib import Path

import pytest

import gausshyp.cli
import gausshyp.select
from gausshyp import HypParams, MethodId, euler_integral
from gausshyp.cli import build_parser, main, parse_complex
from conftest import MACLAURIN_OVERFLOW, ONEPOINT_OVERFLOW, Z_EXC, rel_err

README = Path(__file__).resolve().parents[1] / "README.md"

#: One eval command line per library error class that maps to exit code 3.
DOMAIN_ERROR_ARGV = {
    "OutsideDomain": "--a 1.2 --b 2.1 --c 3 --z 3 --method maclaurin",
    "BranchCutError": "--a 1.2 --b 2.1 --c 3 --z 3 --method euler-oracle",
    "SingularityError": "--a 1.2 --b 2.1 --c 3 --z 1 --method twopoint",
    "ParamDomainError": "--a 1 --b 2.5 --c 2 --z -1 --method threepoint",
    "NoMethodError": "--a 1 --b 2 --c 1.5 --z 3",
    "DomainError": "--a 1.2 --b 2.1 --c 3 --z -1 --method onepoint-w --w 0",
}


class TestParseComplex:
    def test_plain_real(self):
        assert parse_complex("0.5") == 0.5 + 0j
        assert parse_complex("-5") == -5.0 + 0j
        assert parse_complex("1.5e-3") == 0.0015 + 0j

    def test_cartesian(self):
        assert parse_complex("0.5+0.8660254i") == complex(0.5, 0.8660254)
        assert parse_complex("-1-1i") == complex(-1, -1)
        assert parse_complex("2-3j") == complex(2, -3)
        assert parse_complex("1.5e-3+2e+1i") == complex(0.0015, 20.0)

    def test_pure_imaginary(self):
        assert parse_complex("i") == 1j
        assert parse_complex("-i") == -1j
        assert parse_complex("2.5j") == 2.5j

    def test_bare_sign_imaginary_part(self):
        assert parse_complex("1+i") == complex(1, 1)
        assert parse_complex("1-i") == complex(1, -1)

    def test_exceptional_tokens(self):
        assert parse_complex("exp(i*pi/3)") == cmath.exp(1j * math.pi / 3)
        assert parse_complex("exp(-i*pi/3)") == cmath.exp(-1j * math.pi / 3)

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "infi", "-infi", "1+infi", "nani", "(1+infi)"])
    def test_non_finite_literals_reach_the_library(self, text, capsys):
        # only a trailing i is the unit, so the letters of inf and nan stay whole
        z = parse_complex(text)
        assert not (math.isfinite(z.real) and math.isfinite(z.imag))
        assert main(["eval", "--a", "1.2", "--b", "2.1", "--c", "3", f"--z={text}"]) == 3
        assert "error (DomainError):" in capsys.readouterr().err

    def test_python_complex_literals(self):
        # anything complex() reads once i is written j, beyond the forms above
        assert parse_complex("(1+2i)") == complex(1, 2)
        assert parse_complex("1_0+2i") == complex(10, 2)
        assert parse_complex("2J") == 2j
        assert math.isnan(parse_complex("nani").imag)

    def test_rejects_garbage(self):
        import argparse

        for bad in ("abc", "1+2", "i*pi", "--3"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_complex(bad)


class TestEvalCommand:
    def test_json_schema_and_value(self, capsys):
        code = main(["eval", "--a", "1", "--b", "1", "--c", "2", "--z", "0.5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "value", "method", "terms", "est_error", "converged", "in_region_margin"
        }
        assert abs(payload["value"]["re"] - 2.0 * math.log(2.0)) <= 1e-7
        assert payload["method"] == "maclaurin"
        assert payload["converged"] is True

    def test_json_reports_unconverged_result(self, capsys):
        # integer b - a and c < b at z = 1.5+0.01i: only the 1/z series accepts, at rate 0.67,
        # and it stops short of tol at the default 40 terms
        code = main(["eval", "--a", "1.2", "--b", "2.2", "--c", "2", "--z", "1.5+0.01i"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "connection"
        assert payload["converged"] is False
        assert payload["est_error"] > 1e-12

    def test_connection_json_is_strict(self, capsys):
        argv = ["eval", "--a", "1.2", "--b", "2.2", "--c", "3", "--z", "12+5i", "--method", "connection"]
        assert main(argv) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["method"] == "connection" and payload["converged"] is True
        assert payload["in_region_margin"] == 1.0 - 1.0 / 13.0
        assert abs(complex(payload["value"]["re"], payload["value"]["im"]) - euler_integral(
            HypParams(1.2, 2.2, 3.0), 12 + 5j).value) <= 1e-12

    def test_threepoint_at_exceptional_point(self, capsys):
        code = main(
            [
                "eval",
                "--a", "1.2", "--b", "2.1", "--c", "3",
                "--z", "exp(i*pi/3)",
                "--method", "threepoint",
                "--terms", "20",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        got = complex(payload["value"]["re"], payload["value"]["im"])
        ref = euler_integral(HypParams(1.2, 2.1, 3.0), Z_EXC).value
        assert rel_err(got, ref) <= 1e-12
        assert payload["method"] == "threepoint"
        assert payload["in_region_margin"] > 0

    def test_default_continuation_stops_at_its_tolerance(self, capsys):
        argv = ["eval", "--a", "1.2", "--b", "2.1", "--c", "3", "--z", "-1+1i", "--method", "buhring"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True and payload["terms"] < 40
        # an explicit --terms 40 sums indices 0 .. 40, as the default did before the stop
        assert main([*argv, "--terms", "40", "--format", "text"]) == 0
        assert capsys.readouterr().out == (
            "value      = 0.45092506457617 + 0.2071549534382342i\n"
            "method     = buhring\n"
            "terms      = 40\n"
            "est_error  = 6.381e-14\n"
            "margin     = 1.30278\n"
            "converged  = True\n"
        )

    def test_text_format(self, capsys):
        code = main(["eval", "--a", "1", "--b", "1", "--c", "2", "--z", "0.5", "--format", "text"])
        assert code == 0
        out = capsys.readouterr().out
        assert "method     = maclaurin" in out
        assert "converged  = True" in out

    def test_integer_difference_exit_code(self, capsys):
        code = main(
            ["eval", "--a", "1.2", "--b", "2.2", "--c", "3", "--z", "-5", "--method", "buhring"]
        )
        assert code == 4
        assert "IntegerDifferenceError" in capsys.readouterr().err

    @pytest.mark.parametrize("error", list(DOMAIN_ERROR_ARGV))
    def test_domain_error_exit_code(self, capsys, error):
        assert main(["eval", *DOMAIN_ERROR_ARGV[error].split()]) == 3
        assert f"error ({error}):" in capsys.readouterr().err

    def test_series_overflow_exit_code(self, capsys):
        # threepoint coefficients overflow at this many terms; no NaN JSON
        argv = "--a 1.2 --b 2.1 --c 3 --z exp(i*pi/3) --method threepoint --terms 300"
        assert main(["eval", *argv.split()]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error (RecurrenceBreakdown):" in captured.err

    @pytest.mark.parametrize(
        "argv, where",
        [
            (["--a=-2.41", "--b=1.2", "--c=3", "--z=1e200+1i"], "**2.41 overflows double precision"),
            (["--a=-0.08", "--b=0.77", "--c=175.46", "--z=-0.83-0.18i", "--method=euler-oracle"], "gamma(175.46)"),
            *(
                ([f"--a={p.a!r}", f"--b={p.b!r}", f"--c={p.c!r}", f"--z={z}", "--method=maclaurin"], "term 1934")
                for p, z in (MACLAURIN_OVERFLOW, (MACLAURIN_OVERFLOW[0], MACLAURIN_OVERFLOW[1].conjugate()))
            ),
            *(
                ([f"--a={p.a!r}", f"--b={p.b!r}", f"--c={p.c!r}", f"--z={z}", *method], "or a series weight overflowed")
                for p, z in (ONEPOINT_OVERFLOW,)
                for method in ([], ["--method=onepoint-half"])
            ),
        ],
    )
    def test_overflow_exit_code(self, capsys, argv, where):
        assert main(["eval", *argv]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error (RecurrenceBreakdown): ")
        assert where in err
        assert "Traceback" not in err

    def test_negative_terms_exit_code(self, capsys):
        argv = "--a 1.2 --b 2.1 --c 3 --z exp(i*pi/3) --terms -1"
        assert main(["eval", *argv.split()]) == 2
        assert "n_terms must be >= 0" in capsys.readouterr().err

    def test_non_integer_terms_exit_code(self, capsys):
        argv = "--a 1.2 --b 2.1 --c 3 --z exp(i*pi/3) --terms 2.5"
        assert main(["eval", *argv.split()]) == 2
        assert "argument --terms: invalid int value: '2.5'" in capsys.readouterr().err

    @pytest.mark.parametrize("terms", ["9223372036854775807", "9223372036854775808", "1" + "0" * 400])
    def test_terms_past_the_islice_bound_exit_code(self, capsys, terms):
        # a count islice cannot take raised a bare ValueError from core.sum_series
        argv = f"--a 1.2 --b 2.1 --c 3 --z 0.5+0.5i --terms {terms}"
        assert main(["eval", *argv.split()]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: n_terms must be <= sys.maxsize - 1 = ")

    def test_usage_error_exit_code(self, capsys):
        assert main(["eval", "--a", "1", "--b", "1", "--c", "2", "--z", "nonsense"]) == 2
        assert main(["eval", "--a", "1", "--b", "1", "--c", "2", "--z", "0.5", "--method", "bogus"]) == 2
        assert main(["eval", "--a", "1"]) == 2
        assert main(["bogus"]) == 2

    @pytest.mark.parametrize("w", ["nan", "inf"])
    def test_non_finite_w_exit_code(self, capsys, w):
        argv = ["eval", "--a=1.2", "--b=2.1", "--c=3", "--z=0.3", "--method=onepoint-w", f"--w={w}"]
        assert main(argv) == 3
        assert "error (DomainError):" in capsys.readouterr().err

    @pytest.mark.parametrize("z", ["1e200", "1e103i", "-1e150+1i", "1e308+1e308i", "1.5e308+1.5e308i"])
    def test_huge_z_is_evaluated_or_refused(self, capsys, z):
        # |z|^3, or |z| itself, overflows double precision
        assert main(["eval", "--a", "1.2", "--b", "2.1", "--c", "3", f"--z={z}"]) in (0, 3)

    def test_overflowing_distance_to_z0_is_refused(self, capsys):
        # |z - z0| overflows; the continuation refuses and auto falls through to the oracle
        argv = ["eval", "--a", "1.2", "--b", "2.1", "--c", "3", "--z=1e308+1e308i", "--z0=-0.5e308-0.5e308i"]
        assert main(argv) in (0, 3)
        assert main([*argv, "--method", "buhring"]) == 3
        assert "error (OutsideDomain):" in capsys.readouterr().err

    def test_json_is_strict_where_est_error_is_infinite(self, capsys):
        # the oracle's levels sum to 0 here, so est_error is inf: written as the string "inf"
        argv = ["eval", "--a", "1.2", "--b", "2.1", "--c", "3", "--z=1e308+1e308i", "--z0=-0.5e308-0.5e308i"]
        assert main(argv) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["est_error"] == "inf" and float(payload["est_error"]) == math.inf
        assert payload["converged"] is False
        assert all(isinstance(payload["value"][k], float) for k in ("re", "im"))

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "-inf"])
    def test_tol_must_be_finite_and_positive(self, capsys, tol):
        assert main(["eval", "--a", "1.2", "--b", "2.1", "--c", "3", "--z=0.5+0.5i", f"--tol={tol}"]) == 2
        assert main(["table", "--id", "1", f"--tol={tol}"]) == 2
        assert capsys.readouterr().err.count("tol must be a finite number > 0") == 2

    def test_auto_avoids_the_continuation_cut(self, capsys):
        # z lies on the z0 = 0.5+0.5i continuation's cut, so auto takes the oracle
        argv = ["eval", "--a", "1.2", "--b", "2.1", "--c", "3", "--z=10+0.5i", "--z0=0.5+0.5i"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "euler-oracle"
        assert payload["converged"] is True

    @pytest.mark.parametrize(
        "argv, method",
        [("--b 2.1 --c 1.5 --z exp(i*pi/3)", "buhring"), ("--b 2.2 --c 2 --z=0.7+0.3i", "maclaurin")],
        ids=["buhring", "maclaurin"],
    )
    def test_auto_serves_c_not_above_b(self, capsys, argv, method):
        # c <= b: auto used to pick a rational expansion, which raised ParamDomainError
        assert main(["eval", "--a", "1.2", *argv.split()]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == method

    @pytest.mark.parametrize("extra", ["--z0=nan", "--w=0"])
    def test_auto_rejects_an_unused_bad_z0_or_w(self, capsys, extra):
        assert main(["eval", "--a", "1.2", "--b", "2.1", "--c", "3", "--z=3+1i", extra]) == 3
        assert capsys.readouterr().err.startswith("error (DomainError):")

    @pytest.mark.parametrize(
        "z, method, extra",
        [("exp(i*pi/3)", "threepoint", "--terms 40 --tol 1e-13"), ("0.3+0.35i", "maclaurin", "--terms 5")],
        ids=["defaults", "power-series-disk"],
    )
    def test_output_is_that_of_the_options_it_implies(self, capsys, z, method, extra):
        # --terms and --tol default to core.DEFAULT_TERMS and DEFAULT_TOL; the power series
        # that auto takes at |z| <= 1/2 stops on its own terms and takes no --terms
        argv = ["eval", "--a=1.2", "--b=2.1", "--c=3", f"--z={z}"]
        plain = _run(capsys, argv)
        assert plain[0] == 0 and json.loads(plain[1])["method"] == method
        assert _run(capsys, [*argv, *extra.split()]) == plain

    def test_real_ray_names_each_refusal(self, capsys):
        assert main(["eval", "--a", "1.2", "--b", "2.1", "--c", "3", "--z", "3"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error (NoMethodError): no evaluation method applies at z = (3+0j)")
        assert "euler-oracle: BranchCutError: z = (3+0j) lies on the branch cut [1, inf)" in err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code = main(
            ["eval", "--a", "1", "--b", "1", "--c", "2", "--z", "0.5", "--out", str(target)]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert abs(payload["value"]["re"] - 2.0 * math.log(2.0)) <= 1e-7

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_out_file_matches_stdout(self, tmp_path, capsys, fmt):
        argv = ["eval", "--a=1.2", "--b=2.1", "--c=3", "--z=exp(i*pi/3)", "--format", fmt]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        target = tmp_path / "result.out"
        assert main([*argv, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == stdout.encode("utf-8")


class TestTableCommand:
    def test_csv_stdout(self, capsys):
        assert main(["table", "--id", "1"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "row,method,0,5,10,15,20"
        assert len(lines) == 11

    def test_json_format(self, capsys):
        assert main(["table", "--id", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["table"] == 4
        assert payload["rows"][0]["errors"]["threepoint"]["20"] < 1e-10

    @pytest.mark.parametrize("table_id", ["1", "2", "3", "4"])
    def test_writes_nothing_on_stderr(self, capsys, table_id):
        # a row's unconverged oracle would warn NotConvergedWarning, which a console shows on stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["table", "--id", table_id]) == 0
        assert capsys.readouterr().err == "" and caught == []

    def test_bad_id(self, capsys):
        assert main(["table", "--id", "9"]) == 2

    def test_bad_id_names_the_known_ids(self, capsys):
        assert main(["table", "--id", "9"]) == 2
        assert capsys.readouterr().err == "error: unknown table id 9; known ids are [1, 2, 3, 4, 5]\n"


class TestRegionCommand:
    def test_csv(self, capsys):
        for method, res in [("twopoint", 17), ("threepoint", 9)]:
            code = main(
                [
                    "region", "--method", method,
                    "--xmin", "-4", "--xmax", "4", "--ymin", "-4", "--ymax", "4",
                    "--res", str(res),
                ]
            )
            assert code == 0
            lines = capsys.readouterr().out.strip().split("\n")
            assert lines[0] == "x,y,inside,margin"
            assert len(lines) == 1 + res * res

    def test_connection_csv(self, tmp_path, capsys):
        target = tmp_path / "connection.csv"
        argv = ["region", "--method", "connection", "--xmin=-2", "--xmax=2", "--ymin=-2", "--ymax=2", "--res=5"]
        assert main([*argv, "--out", str(target)]) == 0
        lines = target.read_text().strip().split("\n")
        assert lines[0] == "x,y,inside,margin" and len(lines) == 1 + 5 * 5
        # inside exactly where |z| > 1: all but the five grid points 0, +-1 and +-i
        assert sum(line.split(",")[2] == "1" for line in lines[1:]) == 20

    def test_resolution_guard(self, capsys):
        code = main(
            [
                "region", "--method", "twopoint",
                "--xmin", "-4", "--xmax", "4", "--ymin", "-4", "--ymax", "4",
                "--res", "5000",
            ]
        )
        assert code == 2

    def test_overflowing_span_exit_code(self, capsys):
        argv = ["region", "--method", "twopoint", "--xmin=-1.5e308", "--xmax=1.5e308"]
        argv += ["--ymin=-1.5e308", "--ymax=1.5e308", "--res", "2"]
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("quadrant", [(1, 1), (-1, 1), (-1, -1), (1, -1)], ids=str)
    @pytest.mark.parametrize("method", [m.value for m in MethodId])
    def test_grid_past_the_double_range_exit_code(self, capsys, method, quadrant):
        # each span is finite, but |z| at the far corner is not: abs(z) in a margin raised a bare OverflowError
        (x0, x1), (y0, y1) = (sorted((sign * 1e308, sign * 1.7e308)) for sign in quadrant)
        argv = ["region", "--method", method, "--w=0.5+0.5i", f"--xmin={x0!r}", f"--xmax={x1!r}"]
        argv += [f"--ymin={y0!r}", f"--ymax={y1!r}", "--res=2"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: the grid's farthest corner from 0 must have a finite modulus\n")

    @pytest.mark.parametrize("method", [m.value for m in MethodId])
    def test_seeded_fuzz_ends_in_a_csv_or_an_error_line(self, capsys, method):
        rng = random.Random(33)

        def bound():  # across the double range, half of them in its top decade
            exponent = rng.uniform(307.0, 308.25) if rng.random() < 0.5 else rng.uniform(-2.0, 307.0)
            return rng.choice((-1.0, 1.0)) * 10.0**exponent

        for _ in range(150):
            (x0, x1), (y0, y1) = sorted((bound(), bound())), sorted((bound(), bound()))
            w = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            argv = ["region", "--method", method, f"--w={w!r}", f"--xmin={x0!r}", f"--xmax={x1!r}"]
            argv += [f"--ymin={y0!r}", f"--ymax={y1!r}", f"--res={rng.randint(2, 4)}"]
            code = main(argv)
            out, err = capsys.readouterr()
            if code == 0:
                assert err == "" and out.startswith("x,y,inside,margin\n"), argv
            else:
                assert code in (2, 3) and out == "" and err.startswith("error"), argv

    @pytest.mark.parametrize("w", ["nan", "inf", "-inf", "0", "0+0i"])
    def test_non_finite_w_exit_code(self, capsys, w):
        argv = ["region", "--method", "onepoint-w", f"--w={w}"]
        argv += ["--xmin=-2", "--xmax=2", "--ymin=-2", "--ymax=2", "--res=9"]
        assert main(argv) == 3
        assert capsys.readouterr().out == ""

    def test_auto_is_a_usage_error(self, capsys):
        argv = ["region", "--method", "auto", "--xmin=-2", "--xmax=2", "--ymin=-2", "--ymax=2"]
        argv.append("--res=9")
        assert main(argv) == 2
        assert "invalid choice: 'auto'" in capsys.readouterr().err

    def test_onepoint_w_missing_w(self, capsys):
        code = main(
            [
                "region", "--method", "onepoint-w",
                "--xmin", "-2", "--xmax", "2", "--ymin", "-2", "--ymax", "2",
                "--res", "9",
            ]
        )
        assert code == 2


class TestCommandEntryPoints:
    """perfbench's tracer wraps gausshyp.cli.run_table and gausshyp.cli.raster_to_csv in place."""

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("run_table", ["table", "--id", "4"]),
            ("raster_to_csv", "region --method=twopoint --xmin=-4 --xmax=4 --ymin=-4 --ymax=4 --res=5".split()),
        ],
    )
    def test_wrapper_on_the_module_attribute_sees_the_command(self, capsys, monkeypatch, name, argv):
        real, calls = getattr(gausshyp.cli, name), []

        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(gausshyp.cli, name, wrapper)
        assert main(argv) == 0
        assert main(argv) == 0
        assert len(calls) == 2

    def test_unknown_attribute(self):
        assert not hasattr(gausshyp.cli, "table_to_csv")


class TestUnwritableOut:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--a=1.2", "--b=2.1", "--c=3", "--z=0.3"],
            ["table", "--id", "4"],
            "region --method=twopoint --xmin=-4 --xmax=4 --ymin=-4 --ymax=4 --res=5".split(),
        ],
    )
    def test_usage_error_without_traceback(self, tmp_path, capsys, argv):
        target = tmp_path / "missing" / "x.json"
        assert main([*argv, "--out", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()

    def test_directory_as_out(self, tmp_path, capsys):
        assert main(["eval", "--a=1.2", "--b=2.1", "--c=3", "--z=0.3", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")


class TestRepeatedCalls:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_are_independent(self, capsys):
        eval_w = ["eval", "--a=1.2", "--b=2.1", "--c=3", "--z=0.3", "--method=onepoint-w"]
        assert main([*eval_w, "--w=0.5+0.5i"]) == 0
        assert main(eval_w) == 2
        assert main(["table", "--id", "9"]) == 2
        assert main(["table", "--id", "1"]) == 0

    def test_eval_output_independent_of_earlier_calls(self, capsys):
        argv = ["eval", "--a=1.2", "--b=2.1", "--c=3", "--z=exp(i*pi/3)"]
        build_parser.cache_clear()  # the first call below builds the parser
        assert main(argv) == 0
        first = capsys.readouterr().out
        region = "region --method=twopoint --xmin=-4 --xmax=4 --ymin=-4 --ymax=4 --res=5"
        assert main(region.split()) == 0
        assert main(["table", "--id", "4"]) == 0
        assert main(["eval", "--a", "1", "--z", "nonsense"]) == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.strip().endswith("checks passed")
        checked = {line.split()[1] for line in out.splitlines()}
        assert {m.value for m in MethodId} - checked == {"euler-oracle"}

    def test_perturbed_route_fails(self, capsys, monkeypatch):
        real = gausshyp.select.eval_threepoint

        def perturbed(*args, **kwargs):
            res = real(*args, **kwargs)
            return res._replace(value=res.value * (1.0 + 1e-6))

        monkeypatch.setattr(gausshyp.select, "eval_threepoint", perturbed)
        assert main(["selftest"]) == 4
        fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        # the whole line: a crash in the check would append "(SomeError: ...)"
        assert fails == ["FAIL threepoint vs euler integral at z = exp(i*pi/3)"]


class TestReadme:
    def test_cli_block_runs(self, tmp_path, monkeypatch, capsys):
        # every line of README's CLI block, as written (table --out writes into tmp_path)
        block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
        lines = [line for line in block.splitlines() if line.strip()]
        assert len(lines) >= 5
        monkeypatch.chdir(tmp_path)
        for line in lines:
            argv = shlex.split(line, comments=True)
            assert argv[0] == "gausshyp"
            assert main(argv[1:]) == 0, (line, capsys.readouterr().err)
        assert (tmp_path / "table4.csv").exists()


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestSpacedNegativeValues:
    """A value after a space that starts with '-' but is no plain decimal, like -1+1i or -1e-3.

    argparse took such a token for an option and exited 2 with "expected one
    argument"; each command must now print what its --opt=value form prints.
    """

    EVAL = ["eval", "--a", "1.2", "--b", "2.1", "--c", "3"]
    REGION = ["region", "--method", "twopoint", "--xmin=-4", "--xmax=4", "--ymin=-4", "--ymax=4", "--res=3"]

    @pytest.mark.parametrize(
        "base, option, value",
        [
            # the reproducers: each exits 0
            (EVAL + ["--method", "buhring"], "--z", "-1+1i"),
            (["eval", "--b", "2.1", "--c", "3", "--z", "0.5"], "--a", "-1e-3"),
            (REGION, "--ymin", "-1e1"),
        ],
    )
    def test_reproducers(self, capsys, base, option, value):
        spaced = _run(capsys, [*base, option, value])
        assert spaced[0] == 0, spaced[2]
        assert spaced == _run(capsys, [*base, f"{option}={value}"])

    @pytest.mark.parametrize(
        "base, option, value",
        [
            (["eval", "--b", "2.1", "--c", "3", "--z", "0.5"], "--a", "-12e-1"),
            (["eval", "--a", "1.2", "--c", "3", "--z", "0.5"], "--b", "-21e-1"),
            (["eval", "--a", "1.2", "--b", "2.1", "--z", "0.5"], "--c", "-25e-1"),
            (EVAL, "--z", "-0.5-0.5i"),
            (EVAL + ["--z", "0.5+0.5i", "--method", "onepoint-w"], "--w", "-5e-1+0.5i"),
            (EVAL + ["--z", "0.5+0.5i", "--method", "buhring"], "--z0", "-1e-1+0.5i"),
            (EVAL + ["--z", "0.5+0.5i"], "--tol", "-1e-13"),
            (EVAL + ["--z", "0.5+0.5i"], "--terms", "-4e1"),
            (REGION[:-1], "--res", "-3e0"),
            (REGION[:1] + ["--method", "onepoint-w"] + REGION[3:], "--w", "-5e-1+0.5i"),
            (REGION, "--rho", "-9e-1"),
            (REGION, "--xmin", "-4e0"),
            (REGION, "--xmax", "-1e-1"),
            (REGION, "--ymin", "-4e0"),
            (REGION, "--ymax", "-1e-1"),
            (EVAL + ["--z", "0.5"], "--te", "-4e1"),  # an abbreviation takes its value the same way
        ],
    )
    def test_every_number_option(self, capsys, base, option, value):
        assert _run(capsys, [*base, option, value]) == _run(capsys, [*base, f"{option}={value}"])

    def test_number_options_are_the_parsers(self):
        # the tuple missed --id, so "table --id -0x1" took -0x1 for an option
        typed = {
            action.dest
            for command in build_parser()._subparsers._group_actions[0].choices.values()
            for action in command._actions
            if action.type in (float, int, parse_complex)
        }
        assert typed == set(gausshyp.cli._NUMBER_OPTIONS)

    def test_spaced_negative_table_id(self, capsys):
        spaced = _run(capsys, ["table", "--id", "-0x1"])
        assert spaced == _run(capsys, ["table", "--id=-0x1"])
        assert spaced[0] == 2 and "invalid int value: '-0x1'" in spaced[2]

    def test_an_option_after_an_option_is_still_a_missing_value(self, capsys):
        code, _, err = _run(capsys, ["eval", "--a", "--b", "2.1", "--c", "3", "--z", "0.5"])
        assert code == 2
        assert "argument --a: expected one argument" in err
