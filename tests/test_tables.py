"""Table harness tests: reproduction, formatting, determinism, failure labels."""

import hashlib
import json
import math
import warnings

import pytest

import mpmath

from gausshyp import ConfigError, DomainError, IntegerDifferenceError, MethodId, NotConvergedWarning, evaluate
from gausshyp import run_table, table_to_csv, table_to_json
from gausshyp.buhring import buhring_refusal
from gausshyp.tables import TABLES, TableRow, TableSpec, format_rel_error
from conftest import Z_EXC, within_factor

# reference featured-column values, row 1 of each table (z = exp(i pi/3) for
# tables 1, 2, 4; table 3's exceptional-point row is its third)
REFERENCE = {
    1: {0: 0.290e0, 5: 0.995e-2, 10: 0.431e-3, 15: 0.223e-4, 20: 0.118e-5},
    2: {0: 0.408e0, 5: 0.606e-2, 10: 0.156e-3, 15: 0.476e-5, 20: 0.150e-6},
    3: {0: 0.210e0, 5: 0.142e-3, 10: 0.118e-6, 15: 0.104e-9, 20: 0.936e-13},
    4: {0: 0.330e-1, 5: 0.647e-5, 10: 0.180e-7, 15: 0.196e-11, 20: 0.527e-14},
}
ROW_OF_TABLE = {1: 0, 2: 0, 3: 2, 4: 0}

REFERENCE_BUHRING_T1 = {0: 0.263e2, 5: 0.879e1, 10: 0.103e1, 15: 0.955e-1, 20: 0.803e-2}
REFERENCE_BUHRING_T4 = {0: 0.263e2, 5: 0.177e2, 10: 0.879e1, 15: 0.253e1, 20: 0.103e1}


#: sha256 of (table_to_csv, table_to_json) for each built-in table.  The
#: JSON carries every error to 17 digits, so any change to a summation or
#: to the oracle shows here; one that moves cells on purpose updates these.
TABLE_SHA256 = {
    1: (
        "beceea4a5e19a4981f39e440d4d663bd9f539f426f3e5d618eb2ce75ad276f13",
        "9242f9242d73ae0c725a7be395bb312bea5ad52f2487ab335b24322e38a82725",
    ),
    2: (
        "5880359162207c315d13d930e0c6d030bfc5998389bfc6c17fb4cf8d9792dac8",
        "b63560046260932600ab8e9fe4c0fb7f2f3ddf01663b0aba5f733feca2514b73",
    ),
    3: (
        "80e496478dcf5196b6e807679ffa8f632b99d620d4a8fb5ad1b0fb930addfc4f",
        "fc456082bf14bbcc3a8c1137fcbf6011ed2d1d245518f3e99496a326ef0eb341",
    ),
    4: (
        "453574c31fa57c2b78faad95a3e1f20f0a1390853395acfe9a3138848facc963",
        "b52bbb2a551b0a4f02c16d00591cb14c4eb0589d8f49e6e261fdbe7391999b39",
    ),
    5: (
        "c3a2012ca0ba6bbb514bcdc1001657da68fef92e577e47f9f29ff7e418c9a213",
        "cb56b8f46e1719496acb00d2afec176d951ef030e533a8b609e51b6e29150096",
    ),
}


class TestRunTable:
    @pytest.mark.parametrize("table_id", sorted(TABLE_SHA256))
    def test_table_bytes_pinned(self, table_id):
        result = run_table(table_id)
        texts = (table_to_csv(result), table_to_json(result))
        assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == TABLE_SHA256[table_id]

    def test_featured_columns_track_reference_values(self):
        for table_id, reference in REFERENCE.items():
            result = run_table(table_id)
            row = result.cells[ROW_OF_TABLE[table_id]]
            featured = result.spec.featured.value
            for n, expected in reference.items():
                got = row[featured][n]
                # the double-precision floor can undercut tiny reference values
                if expected < 1e-11:
                    assert got <= 10.0 * expected, (table_id, n, got)
                else:
                    assert within_factor(got, expected), (table_id, n, got, expected)

    def test_buhring_column_table1(self):
        result = run_table(1)
        col = result.cells[0][MethodId.BUHRING.value]
        for n, expected in REFERENCE_BUHRING_T1.items():
            assert within_factor(col[n], expected), (n, col[n], expected)

    def test_table5_integer_b_minus_a_claim(self):
        # the abstract's claim: the continuation degrades as b - a nears an integer,
        # and is undefined at one, while the three-point expansion does not care
        spec = TABLES[5]
        assert spec.featured is MethodId.THREEPOINT
        errors = {"buhring": [], "threepoint": []}
        for row in spec.rows:
            with mpmath.workdps(30):
                want = mpmath.hyp2f1(row.a, row.b, row.c, row.z)
            for method, col in errors.items():
                try:
                    got = evaluate(row.params, row.z, method, n_terms=20)[0].value
                except IntegerDifferenceError:
                    col.append(None)
                    continue
                col.append(float(abs(got - want) / abs(want)))
        deltas = [row.b - row.a - 1.0 for row in spec.rows]
        assert [round(math.log10(d)) for d in deltas[:-1]] == [-1, -3, -5, -7] and abs(deltas[-1]) < 1e-15
        assert max(errors["threepoint"]) <= 1e-14
        buhring = errors["buhring"]
        assert buhring[-1] is None
        for coarse, fine in zip(buhring[:-2], buhring[1:-1]):
            assert fine >= 50.0 * coarse, buhring

    def test_buhring_column_table4_half_indexing(self):
        result = run_table(4)
        col = result.cells[0][MethodId.BUHRING.value]
        for n, expected in REFERENCE_BUHRING_T4.items():
            assert within_factor(col[n], expected), (n, col[n], expected)

    def test_n_zero_cells_positive_finite(self):
        import math

        for table_id in TABLES:
            result = run_table(table_id)
            for row, row_cells in zip(result.spec.rows, result.cells):
                for method, col in row_cells.items():
                    if method == "buhring" and isinstance(buhring_refusal(row.params, row.z), IntegerDifferenceError):
                        assert col[0] == "INTEGER_DIFF", (table_id, row.caption)
                        continue
                    assert isinstance(col[0], float)
                    assert math.isfinite(col[0]) and col[0] > 0.0

    def test_deterministic_output(self):
        a = table_to_csv(run_table(2))
        b = table_to_csv(run_table(2))
        assert a == b
        ja = table_to_json(run_table(3))
        jb = table_to_json(run_table(3))
        assert ja == jb

    def test_unconverged_oracle_warns_per_row(self):
        # the four oracle values reach est_error 3.7e-16 to 1.7e-15, above 1e-17
        with pytest.warns(NotConvergedWarning) as record:
            run_table(4, oracle_tol=1e-17)
        captions = [row.caption for row in TABLES[4].rows]
        assert [str(w.message).split(": est_error")[0] for w in record] == [
            f"oracle did not converge at {caption}" for caption in captions
        ]

    def test_converged_oracle_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_table(4)

    def test_unknown_table_id(self):
        with pytest.raises(ConfigError, match=r"unknown table id 9; known ids are \[1, 2, 3, 4, 5\]"):
            run_table(9)

    def test_id_past_the_int_to_str_limit(self):
        # str() of the id raised a bare ValueError in place of the ConfigError
        with pytest.raises(ConfigError, match=r"unknown table id an int of 16610 bits; known ids are \[1, 2, 3, 4, 5\]"):
            run_table(10**5000)

    @pytest.mark.parametrize("spec", [1.0, "1", None, True], ids=repr)
    def test_non_spec_non_integer_id(self, spec):
        with pytest.raises(ConfigError, match="unknown table id"):
            run_table(spec)

    @pytest.mark.parametrize(
        "featured, extra, error, match",
        [
            (MethodId.MACLAURIN, {}, ConfigError, "a table features one of"),
            (MethodId.EULER, {}, ConfigError, "a table features one of"),
            (MethodId.TWOPOINT, {"index_rule": "bogus"}, ConfigError, "index_rule must be 'identity' or 'half'"),
            (MethodId.ONEPOINT_W, {}, ConfigError, "onepoint-w needs the expansion point w"),
            (MethodId.ONEPOINT_W, {"w": 0}, DomainError, "w must be nonzero"),
        ],
        ids=["maclaurin", "euler-oracle", "bogus-index-rule", "onepoint-w-no-w", "onepoint-w-zero-w"],
    )
    def test_bad_spec_raises_before_any_work(self, monkeypatch, featured, extra, error, match):
        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle ran for a bad spec")

        monkeypatch.setattr("gausshyp.tables.euler_integral", no_oracle)
        spec = TableSpec(9, (TableRow(1.2, 2.1, 3.0, Z_EXC, "x"),), featured, **extra)
        with pytest.raises(error, match=match):
            run_table(spec)

    def test_integer_difference_cells_labeled(self):
        spec = TableSpec(
            table_id=99,
            featured=MethodId.THREEPOINT,
            rows=(TableRow(1.2, 2.2, 3.0, -5.0 + 0j, "-5"),),
        )
        result = run_table(spec)
        buh = result.cells[0][MethodId.BUHRING.value]
        assert all(cell == "INTEGER_DIFF" for cell in buh.values())
        three = result.cells[0][MethodId.THREEPOINT.value]
        assert all(isinstance(cell, float) for cell in three.values())

    def test_breakdown_at_a_later_stop_labels_that_cell_and_the_later_ones(self):
        # threepoint's partial sum overflows to nan after 11 terms, so the stops 0 and 5 that it
        # yielded first keep their errors; the continuation breaks at its gamma prefactor, before any stop
        spec = TableSpec(98, (TableRow(-438.5, 94.6, 95.0, 2.6 - 4.18j, "2.6-4.18i"),), MethodId.THREEPOINT)
        with pytest.warns(NotConvergedWarning, match="oracle did not converge"):
            result = run_table(spec)
        three = result.cells[0][MethodId.THREEPOINT.value]
        assert [isinstance(three[n], float) for n in (0, 5)] == [True, True]
        assert [three[n] for n in (10, 15, 20)] == ["RECURRENCE_BREAKDOWN"] * 3
        buh = result.cells[0][MethodId.BUHRING.value]
        assert set(buh.values()) == {"RECURRENCE_BREAKDOWN"}

    def test_csv_shape(self):
        result = run_table(1)
        text = table_to_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == "row,method,0,5,10,15,20"
        assert len(lines) == 1 + 2 * len(result.spec.rows)
        assert "buhring" in lines[1] and "onepoint-half" in lines[2]

    def test_json_payload(self):
        payload = json.loads(table_to_json(run_table(4)))
        assert payload["table"] == 4
        assert payload["index_rule"] == "half"
        assert payload["featured"] == "threepoint"
        row = payload["rows"][0]
        assert set(row["errors"]) == {"buhring", "threepoint"}
        assert row["errors"]["threepoint"]["20"] < 1e-10


    def test_json_is_strict_for_non_finite_errors(self):
        result = run_table(4)
        cells = result.cells[0]["threepoint"]
        cells.update({0: math.inf, 5: -math.inf, 10: math.nan})

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        errors = json.loads(table_to_json(result), parse_constant=reject)["rows"][0]["errors"]["threepoint"]
        assert [errors[k] for k in ("0", "5", "10")] == ["inf", "-inf", "nan"]
        assert math.isnan(float(errors["10"])) and float(errors["5"]) == -math.inf
        assert isinstance(errors["20"], float)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0, "x"])
    def test_oracle_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ConfigError, match="tol must be a finite number > 0"):
            run_table(1, oracle_tol=tol)

    def test_oracle_tol_past_the_double_range(self):
        # 0 < 10**400 < inf held, and the table ran
        with pytest.raises(ConfigError, match="tol must be a finite number > 0, got an int of 1329 bits"):
            run_table(1, oracle_tol=10**400)


class TestSpecs:
    def test_index_rules(self):
        assert TABLES[1].series_index(20) == 20
        assert TABLES[4].series_index(20) == 10
        assert TABLES[4].series_index(5) == 3
        assert TABLES[4].series_index(0) == 0

    def test_captions(self):
        assert TABLES[1].rows[0].caption == "a=1.2, b=2.1, c=3, z=exp(i*pi/3), z0=1/2"
        assert TABLES[1].rows[4].caption == "a=1.2, b=2.1, c=3.5, z=-5, z0=1/2"


class TestFormatRelError:
    def test_leading_decimal_mantissa(self):
        assert format_rel_error(1.18e-6) == "0.118E-5"
        assert format_rel_error(1.03) == "0.103E+1"
        assert format_rel_error(26.3) == "0.263E+2"
        assert format_rel_error(0.0955) == "0.955E-1"

    def test_zero_and_rounding_edges(self):
        assert format_rel_error(0.0) == "0.000E+0"
        assert format_rel_error(9.9999e-3) == "0.100E-1"
        assert format_rel_error(0.9999) == "0.100E+1"

    def test_non_finite(self):
        assert format_rel_error(math.nan) == "NAN"
        assert format_rel_error(math.inf) == "INF"
        assert format_rel_error(-math.inf) == "INF"

    def test_round_trip_magnitude(self):
        for x in (3.7e-14, 2.22e-3, 9.1e4):
            s = format_rel_error(x)
            mant, exp = s.split("E")
            assert abs(float(mant) * 10.0 ** int(exp) - x) <= 5e-3 * x
