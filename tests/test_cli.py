"""CLI tests: parsing, output schema, exit codes, selftest."""

import cmath
import json
import math
import shlex
from pathlib import Path

import pytest

import gausshyp.select
from gausshyp import HypParams, MethodId, euler_integral
from gausshyp.cli import build_parser, main, parse_complex
from conftest import Z_EXC, rel_err

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
        # integer b - a at z = -50: auto takes onepoint-half, which stops
        # well short of tol at the default 40 terms
        code = main(["eval", "--a", "1.2", "--b", "2.2", "--c", "3", "--z", "-50"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "onepoint-half"
        assert payload["converged"] is False
        assert payload["est_error"] > 1e-12

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

    def test_negative_terms_exit_code(self, capsys):
        argv = "--a 1.2 --b 2.1 --c 3 --z exp(i*pi/3) --terms -1"
        assert main(["eval", *argv.split()]) == 2
        assert "n_terms must be >= 0" in capsys.readouterr().err

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

    def test_auto_avoids_the_continuation_cut(self, capsys):
        # z lies on the z0 = 0.5+0.5i continuation's cut, so auto takes the oracle
        argv = ["eval", "--a", "1.2", "--b", "2.1", "--c", "3", "--z=10+0.5i", "--z0=0.5+0.5i"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "euler-oracle"
        assert payload["converged"] is True

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

    def test_bad_id(self, capsys):
        assert main(["table", "--id", "9"]) == 2


class TestRegionCommand:
    def test_csv(self, capsys):
        code = main(
            [
                "region", "--method", "twopoint",
                "--xmin", "-4", "--xmax", "4", "--ymin", "-4", "--ymax", "4",
                "--res", "17",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "x,y,inside,margin"
        assert len(lines) == 1 + 17 * 17

    def test_resolution_guard(self, capsys):
        code = main(
            [
                "region", "--method", "twopoint",
                "--xmin", "-4", "--xmax", "4", "--ymin", "-4", "--ymax", "4",
                "--res", "5000",
            ]
        )
        assert code == 2

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
