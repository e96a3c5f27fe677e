"""Benchmark tables: relative errors of the continuation vs. each new expansion.

Five built-in tables compare, row by row, the relative error of Buhring's
continuation and of one featured expansion against the quadrature oracle,
at truncation labels n = 0, 5, 10, 15, 20.

Truncation accounting: a label n normally means summation indices
0 .. n inclusive.  Table 4 is the exception: its reference error columns
correspond to series index ceil(n/2) for both methods (verified against
the reference convergence rates and individual cells), so its spec
carries index_rule="half", and run_table maps labels accordingly.
"""

import math
import warnings
from typing import NamedTuple

from .buhring import DEFAULT_Z0
from .core import DEFAULT_TOL, HypParams, is_count, json_value, require_tol
from .errors import ConfigError, GaussHypError, NotConvergedWarning, shown
from .onepoint import require_expansion_point, require_w
from .reference import euler_integral
from .results import MethodId
from .select import ROUTES

# Not called here; perfbench/tracing.py wraps these names in this module.
from .select import buhring_eval, eval_onepoint, eval_threepoint, eval_twopoint

Z_EXC = complex(0.5, math.sqrt(3.0) / 2.0)  # exp(i pi/3)

N_LABELS = (0, 5, 10, 15, 20)

#: The routes a table may feature against the continuation: the paper's new expansions.
FEATURED = (MethodId.ONEPOINT_HALF, MethodId.ONEPOINT_W, MethodId.TWOPOINT, MethodId.THREEPOINT)

#: Cell labels for evaluation failures, keyed by exception class name.
ERROR_LABELS = {
    "IntegerDifferenceError": "INTEGER_DIFF",
    "OutsideDomain": "OUTSIDE_DOMAIN",
    "SingularityError": "SINGULARITY",
    "ParamDomainError": "PARAM_DOMAIN",
    "BranchCutError": "BRANCH_CUT",
    "PoleError": "POLE",
    "RecurrenceBreakdown": "RECURRENCE_BREAKDOWN",
}


class TableRow(NamedTuple):
    a: float
    b: float
    c: float
    z: complex
    z_label: str

    @property
    def params(self) -> HypParams:
        return HypParams(self.a, self.b, self.c)

    @property
    def caption(self) -> str:
        c = self.c if self.c != int(self.c) else int(self.c)
        return f"a={self.a}, b={self.b}, c={c}, z={self.z_label}, z0=1/2"


class TableSpec(NamedTuple):
    table_id: int
    rows: tuple[TableRow, ...]
    featured: MethodId
    w: complex | None = None
    index_rule: str = "identity"  # "identity" or "half" (index = ceil(n/2))

    def series_index(self, n: int) -> int:
        if self.index_rule == "half":
            return (n + 1) // 2
        return n


def _rows(entries) -> tuple[TableRow, ...]:
    return tuple(TableRow(*e) for e in entries)


#: Tables 1 and 2 compare the two one-point expansions on the same rows.
ONEPOINT_ROWS = _rows(
    [
        (1.2, 2.1, 3.0, Z_EXC, "exp(i*pi/3)"),
        (1.2, 2.5, 3.0, Z_EXC, "exp(i*pi/3)"),
        (1.2, 2.1, 3.0, -1.0 + 0j, "-1"),
        (1.2, 2.1, 3.0, -1.0 + 1j, "-1+1i"),
        (1.2, 2.1, 3.5, -5.0 + 0j, "-5"),
    ]
)

TABLES: dict[int, TableSpec] = {
    1: TableSpec(
        table_id=1,
        featured=MethodId.ONEPOINT_HALF,
        rows=ONEPOINT_ROWS,
    ),
    2: TableSpec(
        table_id=2,
        featured=MethodId.ONEPOINT_W,
        w=complex(0.5, 0.5),
        rows=ONEPOINT_ROWS,
    ),
    3: TableSpec(
        table_id=3,
        featured=MethodId.TWOPOINT,
        rows=_rows(
            [
                (1.2, 2.1, 3.0, -1.0 + 0j, "-1"),
                (1.2, 2.5, 3.0, -2.0 + 0j, "-2"),
                (1.2, 2.1, 3.0, Z_EXC, "exp(i*pi/3)"),
                (1.2, 2.5, 3.0, Z_EXC, "exp(i*pi/3)"),
            ]
        ),
    ),
    4: TableSpec(
        table_id=4,
        featured=MethodId.THREEPOINT,
        index_rule="half",
        rows=_rows(
            [
                (1.2, 2.1, 3.0, Z_EXC, "exp(i*pi/3)"),
                (1.2, 2.5, 3.0, Z_EXC, "exp(i*pi/3)"),
                (1.2, 2.1, 3.0, -5.0 + 0j, "-5"),
                (1.2, 2.01, 3.0, -5.0 + 0j, "-5"),
            ]
        ),
    ),
    # b = a + 1 + delta, delta = 1e-1 .. 1e-7 and 0: the continuation degrades as b - a nears an integer
    5: TableSpec(
        table_id=5,
        featured=MethodId.THREEPOINT,
        rows=_rows((1.2, b, 3.5, Z_EXC, "exp(i*pi/3)") for b in (2.3, 2.201, 2.20001, 2.2000001, 2.2)),
    ),
}


class TableResult(NamedTuple):
    spec: TableSpec
    #: cells[row_index][method_value][n_label] -> float | str
    cells: tuple[dict, ...]


def run_table(spec: TableSpec | int, oracle_tol: float = DEFAULT_TOL) -> TableResult:
    """Relative errors of (buhring, featured expansion) against the oracle.

    Each (row, method) is summed once, by its route's stops form; an error labels
    its cell and the later ones.  Warns NotConvergedWarning for each row whose
    oracle value did not reach oracle_tol, which must be a finite number > 0.
    A spec whose featured route is not in FEATURED, whose index_rule is not
    "identity" or "half", or, for onepoint-w, whose w is missing raises
    ConfigError before any work; a w that is zero or not finite, DomainError.
    """
    require_tol(oracle_tol)
    if not isinstance(spec, TableSpec):
        if not is_count(spec) or spec not in TABLES:
            raise ConfigError(f"unknown table id {shown(spec)}; known ids are {sorted(TABLES)}")
        spec = TABLES[spec]
    if spec.featured not in FEATURED:
        raise ConfigError(f"a table features one of {', '.join(map(str, FEATURED))}, got {shown(spec.featured)}")
    if spec.index_rule not in ("identity", "half"):
        raise ConfigError(f"index_rule must be 'identity' or 'half', got {shown(spec.index_rule)}")
    if spec.featured is MethodId.ONEPOINT_W:
        require_expansion_point(require_w(spec.w))
    methods = (MethodId.BUHRING, spec.featured)
    stops = tuple(spec.series_index(n) for n in N_LABELS)
    cells = []
    for row in spec.rows:
        oracle = euler_integral(row.params, row.z, tol=oracle_tol)
        if not oracle.converged:
            msg = f"oracle did not converge at {row.caption}: est_error = {oracle.est_error:.3g}"
            warnings.warn(msg, NotConvergedWarning, stacklevel=2)
        reference = oracle.value
        ref_abs = abs(reference)
        row_cells: dict = {method.value: {} for method in methods}
        for method in methods:
            col = row_cells[method.value]
            try:
                results = ROUTES[method].sums(row.params, row.z, stops, DEFAULT_TOL, spec.w, DEFAULT_Z0)
                for n, res in zip(N_LABELS, results):
                    col[n] = abs(res.value - reference) / ref_abs
            except GaussHypError as exc:
                name = type(exc).__name__
                for n in N_LABELS[len(col):]:
                    col[n] = ERROR_LABELS.get(name, name)
        cells.append(row_cells)
    return TableResult(spec=spec, cells=tuple(cells))


def format_rel_error(x: float, digits: int = 3) -> str:
    """Scientific notation with mantissa in [0.1, 1): 1.18e-6 -> '0.118E-5'."""
    if x == 0.0:
        return "0." + "0" * digits + "E+0"
    if not math.isfinite(x):
        return "NAN" if math.isnan(x) else "INF"
    exp = math.floor(math.log10(abs(x))) + 1
    mant = abs(x) / 10.0**exp
    scaled = round(mant * 10**digits)
    if scaled >= 10**digits:  # rounding pushed the mantissa to 1.000
        scaled //= 10
        exp += 1
    sign = "-" if x < 0 else ""
    return f"{sign}0.{scaled:0{digits}d}E{exp:+d}"


def table_to_csv(result: TableResult) -> str:
    """Deterministic CSV: one line per (row, method), n-labels as columns."""
    header = "row,method," + ",".join(str(n) for n in N_LABELS)
    lines = [header]
    for row, row_cells in zip(result.spec.rows, result.cells):
        for method in (MethodId.BUHRING.value, result.spec.featured.value):
            vals = []
            for n in N_LABELS:
                cell = row_cells[method][n]
                vals.append(format_rel_error(cell) if isinstance(cell, float) else cell)
            lines.append(f'"{row.caption}",{method},' + ",".join(vals))
    return "\n".join(lines) + "\n"


def table_to_json(result: TableResult) -> str:
    """Deterministic strict JSON with raw float errors (or failure labels); a non-finite error is a string."""
    import json

    payload = {
        "table": result.spec.table_id,
        "n_values": list(N_LABELS),
        "featured": result.spec.featured.value,
        "index_rule": result.spec.index_rule,
        "rows": [
            {
                "caption": row.caption,
                "a": row.a,
                "b": row.b,
                "c": row.c,
                "z": {"re": row.z.real, "im": row.z.imag},
                "errors": {
                    method: {str(n): json_value(row_cells[method][n]) for n in N_LABELS}
                    for method in row_cells
                },
            }
            for row, row_cells in zip(result.spec.rows, result.cells)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
