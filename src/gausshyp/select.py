"""Method selection, the route table and the one-call evaluation front end."""

import warnings
from typing import Callable, Iterator, NamedTuple

from .buhring import DEFAULT_Z0, buhring_eval, buhring_refusal, buhring_sums, exclusion_margin
from .core import HypParams, is_count, require_finite_complex
from .errors import ConfigError, NoMethodError, NotConvergedWarning
from .onepoint import eval_onepoint, in_region_onepoint, onepoint_margin, onepoint_sums, require_expansion_point
from .reference import euler_integral, maclaurin
from .results import MethodId, SeriesResult
from .threepoint import eval_threepoint, in_region_threepoint, threepoint_margin, threepoint_sums
from .twopoint import eval_twopoint, in_region_twopoint, twopoint_margin, twopoint_sums

#: |z| below which the plain power series is preferred outright.
MACLAURIN_RADIUS = 0.5

#: Series routes judge converged against max(tol, SERIES_TOL_FLOOR).
SERIES_TOL_FLOOR = 1e-12


class Route(NamedTuple):
    """One evaluation route: its signed region margin, its evaluator and, for a series, its stops form."""

    margin: Callable[[complex, complex | None, complex], float]
    run: Callable[..., SeriesResult]  # (params, z, n, tol, w, z0, max_terms)
    sums: Callable[..., Iterator[SeriesResult]] | None = None  # (params, z, stops, tol, w, z0)


def _series_tol(tol: float) -> float:
    return max(tol, SERIES_TOL_FLOOR)


def _need_w(w: complex | None) -> complex:
    if w is None:
        raise ConfigError("method onepoint-w needs the expansion point w")
    return w


# Entries resolve this module's globals at call time, so a wrapper installed
# on, e.g., gausshyp.select.eval_threepoint sees every call.
ROUTES: dict[MethodId, Route] = {
    MethodId.MACLAURIN: Route(
        lambda z, w, z0: 1.0 - abs(z),
        lambda p, z, n, tol, w, z0, max_terms: maclaurin(p, z, tol=tol, max_terms=max_terms),
    ),
    MethodId.EULER: Route(
        lambda z, w, z0: abs(z.imag) if z.real >= 1.0 else abs(z - 1.0),  # distance from [1, inf)
        lambda p, z, n, tol, w, z0, max_terms: euler_integral(p, z, tol=tol),
    ),
    MethodId.BUHRING: Route(
        lambda z, w, z0: exclusion_margin(z, z0),
        lambda p, z, n, tol, w, z0, _: buhring_eval(p, z, z0=z0, n_terms=n, tol=_series_tol(tol)),
        lambda p, z, stops, tol, w, z0: buhring_sums(p, z, stops, z0, _series_tol(tol)),
    ),
    MethodId.ONEPOINT_HALF: Route(
        lambda z, w, z0: onepoint_margin(z, 0.5),
        lambda p, z, n, tol, w, z0, _: eval_onepoint(p, z, w=0.5, n_terms=n, tol=_series_tol(tol)),
        lambda p, z, stops, tol, w, z0: onepoint_sums(p, z, stops, 0.5, _series_tol(tol)),
    ),
    MethodId.ONEPOINT_W: Route(
        lambda z, w, z0: onepoint_margin(z, _need_w(w)),
        lambda p, z, n, tol, w, z0, _: eval_onepoint(p, z, _need_w(w), n, _series_tol(tol)),
        lambda p, z, stops, tol, w, z0: onepoint_sums(p, z, stops, _need_w(w), _series_tol(tol)),
    ),
    MethodId.TWOPOINT: Route(
        lambda z, w, z0: twopoint_margin(z),
        lambda p, z, n, tol, w, z0, _: eval_twopoint(p, z, n_terms=n, tol=_series_tol(tol)),
        lambda p, z, stops, tol, w, z0: twopoint_sums(p, z, stops, _series_tol(tol)),
    ),
    MethodId.THREEPOINT: Route(
        lambda z, w, z0: threepoint_margin(z),
        lambda p, z, n, tol, w, z0, _: eval_threepoint(p, z, n_terms=n, tol=_series_tol(tol)),
        lambda p, z, stops, tol, w, z0: threepoint_sums(p, z, stops, _series_tol(tol)),
    ),
}


def select_method(params: HypParams, z: complex, z0: complex = DEFAULT_Z0) -> MethodId:
    """Deterministic route choice for a (params, z) pair.

    Preference order: power series in the safe disk |z| <= 1/2, then the
    three-point and two-point expansions (fast convergence, no integer
    b-a restriction), then the half-point expansion, then the continuation
    around z0, and finally the quadrature oracle, each only where its own
    gate accepts z.  Raises NoMethodError when every predicate fails.
    """
    z = complex(z)
    if abs(z) <= MACLAURIN_RADIUS:
        return MethodId.MACLAURIN
    if in_region_threepoint(z).inside:
        return MethodId.THREEPOINT
    if in_region_twopoint(z).inside:
        return MethodId.TWOPOINT
    if in_region_onepoint(z).inside:
        return MethodId.ONEPOINT_HALF
    if buhring_refusal(params, z, z0) is None:
        return MethodId.BUHRING
    if params.euler_valid:
        return MethodId.EULER
    raise NoMethodError(f"no evaluation method applies at z = {z} for {params}")


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
    n_terms: int = 40,
    tol: float = 1e-13,
    w: complex | None = None,
    z0: complex = DEFAULT_Z0,
    max_terms: int = 2000,
) -> tuple[SeriesResult, MethodId]:
    """Evaluate 2F1(params; z) by the chosen (or auto-selected) route.

    The route comes from ROUTES.  maclaurin and euler-oracle judge
    converged against tol itself; the series routes (buhring, onepoint-*,
    twopoint, threepoint) sum indices 0 .. n_terms and judge it against
    max(tol, SERIES_TOL_FLOOR) = max(tol, 1e-12).  An n_terms that is not
    an integer (a bool is not one), or is negative, raises ConfigError.
    """
    if not is_count(n_terms):
        raise ConfigError(f"n_terms must be an integer, got {n_terms!r}")
    if n_terms < 0:
        raise ConfigError(f"n_terms must be >= 0, got {n_terms}")
    z = complex(z)
    method_id = select_method(params, z, z0) if method == "auto" else MethodId.from_string(method)
    return ROUTES[method_id].run(params, z, n_terms, tol, w, z0, max_terms), method_id


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
