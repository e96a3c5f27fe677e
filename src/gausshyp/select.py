"""Method selection, the route table and the one-call evaluation front end."""

import math
import sys
import warnings
from operator import index
from typing import Callable, Iterator, NamedTuple

from .buhring import DEFAULT_Z0, _buhring_sums, buhring_refusal, exclusion_margin, exclusion_radius
from .connection import _connection_sums, connection_margin, connection_refusal
from .core import DEFAULT_TERMS, DEFAULT_TOL, SERIES_TOL_FLOOR, HypParams, is_count, require_finite_complex
from .core import require_tol
from .errors import ConfigError, GaussHypError, NoMethodError, NotConvergedWarning, RecurrenceBreakdown, shown
# in_region_* are not called here; raster and perfbench/tracing.py take them from this module.
from .onepoint import _onepoint_sums, in_region_onepoint, onepoint_margin, onepoint_refusal
from .onepoint import require_expansion_point, require_w
from .reference import euler_integral, euler_margin, euler_refusal, maclaurin, maclaurin_margin, maclaurin_refusal
from .results import MethodId, SeriesResult
from .threepoint import _threepoint_sums, in_region_threepoint, threepoint_margin, threepoint_refusal
from .twopoint import _twopoint_sums, in_region_twopoint, twopoint_margin, twopoint_refusal

#: |z| below which the plain power series is preferred outright.
MACLAURIN_RADIUS = 0.5


class Route(NamedTuple):
    """One route: its signed region margin, its refusal, its evaluator and, for a series, its summing body and rate."""

    margin: Callable[[complex, complex | None, complex], float]
    # (params, z, w, z0): the error sums (or a non-series run) raises before any work, or None where the route applies
    refusal: Callable[[HypParams, complex, complex | None, complex], GaussHypError | None]
    run: Callable[..., SeriesResult]  # (params, z, n, tol, w, z0), n also None; the refusal is the caller's
    body: Callable[..., Iterator[SeriesResult]] | None = None  # (params, z, stops, tol, w, z0), past the refusal
    rate: Callable[[complex, complex], float] | None = None  # (z, z0): the terms' asymptotic ratio, < 1 iff margin > 0

    def sums(self, params: HypParams, z: complex, stops: tuple[int, ...], tol: float = SERIES_TOL_FLOOR,
             w: complex | None = None, z0: complex = DEFAULT_Z0) -> Iterator[SeriesResult]:
        """A series route truncated at each index in stops, from one lazy pass; raises the route's refusal first."""
        if refusal := self.refusal(params, z, w, z0):
            raise refusal
        return self.body(params, z, stops, tol, w, z0)


def _rate(formula: Callable[[complex, complex], float]) -> Callable[[complex, complex], float]:
    """formula as a route's rate: inf, not a raise or NaN, where it overflows or divides by 0 (margin not > 0)."""
    def rate(z: complex, z0: complex) -> float:
        try:
            return r if (r := formula(z, z0)) == r else math.inf  # r != r: NaN from inf / inf; the margin reads -inf
        except (OverflowError, ZeroDivisionError):
            return math.inf
    return rate


# The run entries resolve this module's globals at call time, so a wrapper
# installed on, e.g., gausshyp.select.eval_threepoint sees every call.
ROUTES: dict[MethodId, Route] = {
    MethodId.MACLAURIN: Route(
        lambda z, w, z0: maclaurin_margin(z),
        lambda p, z, w, z0: maclaurin_refusal(z),
        lambda p, z, n, tol, w, z0: maclaurin(p, z, tol=tol),
    ),
    MethodId.EULER: Route(
        lambda z, w, z0: euler_margin(z),
        lambda p, z, w, z0: euler_refusal(p, z),
        lambda p, z, n, tol, w, z0: euler_integral(p, z, tol=tol),
    ),
    MethodId.BUHRING: Route(
        lambda z, w, z0: exclusion_margin(z, z0),
        lambda p, z, w, z0: buhring_refusal(p, z, z0),
        lambda p, z, n, tol, w, z0: buhring_eval(p, z, z0=z0, n_terms=n, tol=tol),
        _buhring_sums,
        _rate(lambda z, z0: exclusion_radius(z0) / abs(z - z0)),
    ),
    MethodId.ONEPOINT_HALF: Route(
        lambda z, w, z0: onepoint_margin(z, 0.5),
        lambda p, z, w, z0: onepoint_refusal(p, z, 0.5),
        lambda p, z, n, tol, w, z0: eval_onepoint(p, z, w=0.5, n_terms=n, tol=tol),
        lambda p, z, stops, tol, w, z0: _onepoint_sums(p, z, stops, tol, 0.5),
        _rate(lambda z, z0: abs(z) / abs(2.0 - z)),
    ),
    MethodId.ONEPOINT_W: Route(
        lambda z, w, z0: onepoint_margin(z, require_w(w)),
        lambda p, z, w, z0: onepoint_refusal(p, z, w),
        lambda p, z, n, tol, w, z0: eval_onepoint(p, z, n, tol, w),
        _onepoint_sums,
    ),
    MethodId.TWOPOINT: Route(
        lambda z, w, z0: twopoint_margin(z),
        lambda p, z, w, z0: twopoint_refusal(p, z),
        lambda p, z, n, tol, w, z0: eval_twopoint(p, z, n_terms=n, tol=tol),
        _twopoint_sums,
        _rate(lambda z, z0: abs(z) * abs(z) / (4.0 * abs(1.0 - z))),  # as twopoint_margin reads it
    ),
    MethodId.THREEPOINT: Route(
        lambda z, w, z0: threepoint_margin(z),
        lambda p, z, w, z0: threepoint_refusal(p, z),
        lambda p, z, n, tol, w, z0: eval_threepoint(p, z, n_terms=n, tol=tol),
        _threepoint_sums,
        _rate(lambda z, z0: abs(z) ** 3 / (108.0**0.5 * abs((1.0 - z) * (2.0 - z)))),  # 108**0.5 = 6 sqrt(3)
    ),
    MethodId.CONNECTION: Route(
        lambda z, w, z0: connection_margin(z),
        lambda p, z, w, z0: connection_refusal(p, z),
        lambda p, z, n, tol, w, z0: eval_connection(p, z, n_terms=n, tol=tol),
        _connection_sums,
        _rate(lambda z, z0: 1.0 / abs(z)),
    ),
}


class _Cap(int):
    """What n_terms=None reads as: at most 0 .. DEFAULT_TERMS, an int to a reader of n_terms as a count (the
    benchmark's tracer), whose stop buhring and connection pass to core.sum_series."""

    def __new__(cls, stop: float) -> "_Cap":
        (cap := int.__new__(cls, DEFAULT_TERMS)).stop = stop
        return cap


def _one_stop(body: Callable[..., Iterator[SeriesResult]]) -> Callable[..., SeriesResult]:
    """A series body as one call past its caller's refusal, summed 0 .. n_terms (None: at most 0 .. DEFAULT_TERMS,
    with the stop min(tol, DEFAULT_TOL) / 10, so below tol)."""
    def run(params: HypParams, z: complex, n_terms: int | None = None, tol: float = SERIES_TOL_FLOOR,
            w: complex | None = None, z0: complex = DEFAULT_Z0) -> SeriesResult:
        n = _Cap(min(tol, DEFAULT_TOL) / 10) if n_terms is None else n_terms
        (res,) = body(params, z, (index(n),), tol, w, z0, getattr(n, "stop", 0.0))
        return res
    return run


# The names the series run entries of ROUTES call, bound to the bodies past each refusal; the tracer wraps them.
eval_threepoint = _one_stop(_threepoint_sums)
eval_twopoint = _one_stop(_twopoint_sums)
eval_onepoint = _one_stop(_onepoint_sums)  # w = 0.5 for onepoint-half
buhring_eval = _one_stop(_buhring_sums)
eval_connection = _one_stop(_connection_sums)

#: The routes auto asks outside the disk |z| <= MACLAURIN_RADIUS, in order of preference: the
#: three- and two-point expansions (fast convergence, no integer b-a restriction), the half-point
#: expansion, the continuation around z0, the quadrature oracle, the 1/z series at an integer b-a
#: (within RATE_GATE the walk takes it before the deferred oracle), and the power series for |z| < 1.
AUTO_ORDER = (
    MethodId.THREEPOINT, MethodId.TWOPOINT, MethodId.ONEPOINT_HALF, MethodId.BUHRING, MethodId.EULER,
    MethodId.CONNECTION, MethodId.MACLAURIN,
)
_AUTO_ROUTES = tuple((method, ROUTES[method]) for method in AUTO_ORDER)  # no MethodId hash per route asked

RATE_GATE = 0.45  #: the largest rate at which auto sums a series route: 0.45**40 = 1.3e-14 < SERIES_TOL_FLOOR


def _auto_choice(params: HypParams, z: complex, z0: complex) -> MethodId:
    """auto's route for finite z, z0 with |z| > MACLAURIN_RADIUS; defers the refusals of routes past the gate."""
    rest = []  # the routes with a positive margin that the gate passes over, in order
    for method, route in _AUTO_ROUTES:
        if route.margin(z, None, z0) > 0.0:  # the margin first, as it builds no error
            if route.rate is None or route.rate(z, z0) > RATE_GATE:
                rest.append((method, route))
            elif route.refusal(params, z, None, z0) is None:
                return method
    for method, route in rest:
        if route.refusal(params, z, None, z0) is None:
            return method
    refusals = ((method, route.refusal(params, z, None, z0)) for method, route in _AUTO_ROUTES)
    reasons = "; ".join(f"{method}: {type(refusal).__name__}: {refusal}" for method, refusal in refusals)
    raise NoMethodError(f"no evaluation method applies at z = {z} for {params}: {reasons}")


def _first_accepting(params: HypParams, z: complex, z0: complex, method: MethodId) -> MethodId:
    """The first route of AUTO_ORDER to accept finite z where the walk took method: past RATE_GATE, method (every
    route before it refused); within it, asks the refusals the walk deferred, of routes before it past the gate."""
    z, z0 = complex(z), complex(z0)
    if (rate := ROUTES[method].rate) is not None and rate(z, z0) <= RATE_GATE:
        for first, route in _AUTO_ROUTES[:AUTO_ORDER.index(method)]:
            if route.margin(z, None, z0) > 0.0 and (route.rate is None or route.rate(z, z0) > RATE_GATE):
                if route.refusal(params, z, None, z0) is None:
                    return first
    return method


def select_method(params: HypParams, z: complex, z0: complex = DEFAULT_Z0) -> MethodId:
    """Deterministic route choice for a (params, z) pair.

    The power series in the safe disk |z| <= 1/2, else the first route of AUTO_ORDER whose refusal is None,
    unless its rate is past RATE_GATE and a later series route accepts within it.  Raises DomainError for a
    non-finite z or z0, and NoMethodError, naming each route's refusal, when all refuse.
    """
    z = require_finite_complex(z)
    z0 = require_finite_complex(z0, "z0")
    if abs(z) <= MACLAURIN_RADIUS:
        return MethodId.MACLAURIN
    return _auto_choice(params, z, z0)


def method_margin(
    method: MethodId | str,
    z: complex,
    w: complex | None = None,
    z0: complex = DEFAULT_Z0,
) -> float:
    """Signed margin of the method's region predicate at z; non-finite input or w = 0 raises DomainError.

    method is a MethodId or its name, as in evaluate; "auto" names no region and raises ConfigError.
    """
    if method == "auto":
        raise ConfigError("method_margin needs a route, not 'auto'")
    w = None if w is None else require_expansion_point(w)
    margin = ROUTES[MethodId.from_string(method)].margin
    return margin(require_finite_complex(z), w, require_finite_complex(z0, "z0"))


def evaluate(
    params: HypParams,
    z: complex,
    method: MethodId | str = "auto",
    n_terms: int | None = None,
    tol: float = DEFAULT_TOL,
    w: complex | None = None,
    z0: complex = DEFAULT_Z0,
) -> tuple[SeriesResult, MethodId]:
    """Evaluate 2F1(params; z) by the chosen (or auto-selected) route.

    The route comes from ROUTES.  The series routes (buhring, onepoint-*, twopoint, threepoint, connection) sum
    indices 0 .. n_terms and judge converged against max(tol, SERIES_TOL_FLOOR), which evaluate passes to their run
    (ROUTES[m].run and .sums take tol as given).  n_terms=None sums at most 0 .. DEFAULT_TERMS, where buhring and
    connection end early at core.sum_series' stop = tol / 10.  maclaurin (within its own 2,000 terms)
    and euler-oracle take no n_terms and judge converged against tol itself.  A tol that is not a finite number > 0,
    and then an n_terms that is not None or an integer (a bool is not one), negative or past sys.maxsize - 1, raise
    ConfigError.  A non-finite z0, and a given w that is non-finite or zero, raise DomainError before any route is
    chosen, whatever the method.  A series refusal is asked once, by select_method or here.  Where auto's rate gate
    moved the point and its route returns converged=False or raises RecurrenceBreakdown, the first accepting route
    runs instead, with the tol it would take as auto's pick; its result is returned where it is converged, its
    est_error is smaller or the gated route raised.
    """
    require_tol(tol)
    if n_terms is not None and not is_count(n_terms):
        raise ConfigError(f"n_terms must be an integer, got {shown(n_terms)}")
    n = _Cap(tol / 10) if n_terms is None else index(n_terms)  # index: a plain int, so the only stop is tol / 10
    if n < 0:
        raise ConfigError(f"n_terms must be >= 0, got {shown(n_terms)}")
    if n >= sys.maxsize:  # sum_series reads n_terms + 1 terms through islice
        raise ConfigError(f"n_terms must be <= sys.maxsize - 1 = {sys.maxsize - 1}, got a larger count")
    auto = method == "auto"
    z0 = z0 if auto else require_finite_complex(z0, "z0")  # auto: select_method checks it
    if w is not None:
        w = require_expansion_point(w)
    method_id = select_method(params, z, z0) if auto else MethodId.from_string(method)
    route = ROUTES[method_id]
    if route.body is None:  # maclaurin and euler-oracle ask their own refusal, again under auto
        return route.run(params, z, n, tol, w, z0), method_id
    if not auto and (refusal := route.refusal(params, z, w, z0)):
        raise refusal
    res = None
    try:
        res = route.run(params, z, n, max(tol, SERIES_TOL_FLOOR), w, z0)
        if res.converged or not auto or (first := _first_accepting(params, z, z0, method_id)) is method_id:
            return res, method_id
    except RecurrenceBreakdown:
        if not auto or (first := _first_accepting(params, z, z0, method_id)) is method_id:
            raise
    fallback = ROUTES[first]  # the oracle too, past a series route after it: tol as auto's own pick takes it
    alt = fallback.run(params, z, n, tol if fallback.body is None else max(tol, SERIES_TOL_FLOOR), w, z0)
    return (alt, first) if res is None or alt.converged or alt.est_error < res.est_error else (res, method_id)


def hyp2f1(
    a: float,
    b: float,
    c: float,
    z: complex,
    method: MethodId | str = "auto",
    **kwargs,
) -> complex:
    """The value of 2F1(a, b, c; z); warns NotConvergedWarning if the route did not converge."""
    res, method_id = evaluate(HypParams(a, b, c), z, method=method, **kwargs)
    if not res.converged:
        msg = f"{method_id} did not converge at z = {z}: est_error = {res.est_error:.3g}"
        warnings.warn(msg, NotConvergedWarning, stacklevel=2)
    return res.value
