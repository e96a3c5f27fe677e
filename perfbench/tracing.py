"""In-memory span recorder and the timing wrappers it installs in gausshyp.

A span is one call through a wrapped name: its name, start, end, the time
spent inside it ("busy"; equal to end - start except for generators), its
parent span and the id of the evaluated point it belongs to.  Spans are
kept in flat integer arrays so that a traced run of a few hundred thousand
calls stays small, and are written out once at the end.

Wrappers are installed at the names that callers resolve at call time, for
example ``gausshyp.select.eval_threepoint`` (looked up by ``evaluate``) and
``gausshyp.threepoint.phi3_sequence`` (looked up by ``eval_threepoint``).
Nothing in the package itself is edited.
"""

import gzip
import importlib
import json
import time
from array import array
from types import GeneratorType

#: Layers reported in the self-time table, in the order of the data flow.
MODULES = (
    "import", "core", "select", "onepoint", "twopoint", "threepoint",
    "buhring", "reference", "raster", "tables", "cli",
)


def _moment_key(n_max, b, c, *rest, **kw):
    # phi3_sequence(n_max, b, c, ...), phi_half_sequence(n_max, b, c),
    # phi_w_sequence(n_max, b, c, w); flat floats so the key survives JSON.
    key = (float(b), float(c), int(n_max))
    if rest and not isinstance(rest[0], str):
        w = complex(rest[0])
        key += (w.real, w.imag)
    return key


def _terms(result):
    return result.terms_used


def _buhring_args(params, z, z0=0.5, n_terms=20, tol=None):
    z0 = complex(z0)
    return (params.a, params.b, params.c, z0.real, z0.imag, int(n_terms))


#: (module, attribute, span name, key function, result function).  The key
#: function records the arguments that decide repeat_share; the result
#: function records a count taken from the returned value.
TARGETS = (
    ("gausshyp.select", "select_method", "select.select_method", None, None),
    ("gausshyp.select", "in_region_threepoint", "threepoint.in_region_threepoint", None, None),
    ("gausshyp.select", "in_region_twopoint", "twopoint.in_region_twopoint", None, None),
    ("gausshyp.select", "in_region_onepoint", "onepoint.in_region_onepoint", None, None),
    ("gausshyp.select", "maclaurin", "reference.maclaurin", None, None),
    ("gausshyp.select", "euler_integral", "reference.euler_integral", None, _terms),
    ("gausshyp.select", "buhring_eval", "buhring.buhring_eval", _buhring_args, None),
    ("gausshyp.select", "eval_onepoint", "onepoint.eval_onepoint", None, None),
    ("gausshyp.select", "eval_twopoint", "twopoint.eval_twopoint", None, None),
    ("gausshyp.select", "eval_threepoint", "threepoint.eval_threepoint", None, None),
    ("gausshyp.threepoint", "in_region_threepoint", "threepoint.in_region_threepoint", None, None),
    ("gausshyp.threepoint", "threepoint_coeffs", "threepoint.threepoint_coeffs", None, None),
    ("gausshyp.threepoint", "phi3_sequence", "threepoint.phi3_sequence", _moment_key, None),
    ("gausshyp.twopoint", "in_region_twopoint", "twopoint.in_region_twopoint", None, None),
    ("gausshyp.twopoint", "twopoint_coeffs_recursive", "twopoint.twopoint_coeffs_recursive", None, None),
    ("gausshyp.onepoint", "in_region_onepoint", "onepoint.in_region_onepoint", None, None),
    ("gausshyp.onepoint", "phi_half_sequence", "onepoint.phi_half_sequence", _moment_key, None),
    ("gausshyp.onepoint", "phi_w_sequence", "onepoint.phi_w_sequence", _moment_key, None),
    ("gausshyp.raster", "in_region_threepoint", "threepoint.in_region_threepoint", None, None),
    ("gausshyp.raster", "in_region_twopoint", "twopoint.in_region_twopoint", None, None),
    ("gausshyp.raster", "in_region_onepoint", "onepoint.in_region_onepoint", None, None),
    ("gausshyp.raster", "region_moduli", "reference.region_moduli", None, None),
    ("gausshyp.raster", "method_margin", "select.method_margin", None, None),
    ("gausshyp.raster", "region_raster", "raster.region_raster", None, None),
    ("gausshyp.tables", "HypParams", "core.HypParams", None, None),
    ("gausshyp.tables", "euler_integral", "reference.euler_integral", None, _terms),
    ("gausshyp.tables", "buhring_eval", "buhring.buhring_eval", _buhring_args, None),
    ("gausshyp.tables", "eval_onepoint", "onepoint.eval_onepoint", None, None),
    ("gausshyp.tables", "eval_twopoint", "twopoint.eval_twopoint", None, None),
    ("gausshyp.tables", "eval_threepoint", "threepoint.eval_threepoint", None, None),
    ("gausshyp.cli", "HypParams", "core.HypParams", None, None),
    ("gausshyp.cli", "evaluate", "select.evaluate", None, None),
    ("gausshyp.cli", "method_margin", "select.method_margin", None, None),
    ("gausshyp.cli", "run_table", "tables.run_table", None, None),
    ("gausshyp.cli", "raster_to_csv", "raster.raster_to_csv", None, None),
)


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.busy = array("q")
        self.parent = array("i")
        self.point = array("i")
        self.info: dict[int, object] = {}
        self.errors: dict[int, str] = {}
        self.current_point = -1
        self.overhead_ns = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def calibrate(self, calls: int = 2000) -> int:
        """Median busy ns a wrapper reports around a no-op call.

        Subtracted from every span's busy time in summary(), so per-call
        times of small functions are not dominated by the clock reads.
        """
        probe = Tracer()
        noop = probe.wrap("noop", lambda: None)
        for _ in range(calls):
            noop()
        self.overhead_ns = sorted(probe.busy)[calls // 2]
        return self.overhead_ns

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.point.append(self.current_point)
        self.start.append(0)
        self.end.append(0)
        self.busy.append(0)
        self._stack.append(idx)
        return idx

    def wrap(self, name: str, fn, key=None, result_fn=None):
        nid = self._id(name)
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[idx] = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                self.busy[idx] = t1 - t0
            if isinstance(out, GeneratorType):
                return self._wrap_generator(idx, out)
            if key is not None:
                self.info[idx] = key(*args, **kwargs)
            elif result_fn is not None:
                self.info[idx] = result_fn(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, idx: int, gen):
        """Charge only the time spent inside next() to the generator's span.

        The span runs from the call to the last step; its busy time is the
        sum of the steps, so the caller's work between steps stays the
        caller's self time.
        """
        clock = time.perf_counter_ns
        stack = self._stack
        while True:
            stack.append(idx)
            t0 = clock()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                t1 = clock()
                stack.pop()
                self.busy[idx] += t1 - t0
                self.end[idx] = t1
            yield item

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn as a root span (a call made by the benchmark itself)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        if self._saved:
            return
        for mod_name, attr, name, key, result_fn in TARGETS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, key, result_fn))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def add_external(self, name: str, t0: int, t1: int, parent: int = -1, point: int = -1) -> int:
        """Append a finished span measured elsewhere (e.g. in a child process)."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(parent)
        self.point.append(point)
        self.start.append(t0)
        self.end.append(t1)
        self.busy.append(t1 - t0)
        return idx

    def merge(self, dump: dict, point: int) -> None:
        """Append the spans of a child process's dump(), remapping parents."""
        base = len(self.start)
        for nid, t0, t1, busy, parent in zip(
            dump["name_id"], dump["start"], dump["end"], dump["busy"], dump["parent"]
        ):
            idx = self.add_external(dump["names"][nid], t0, t1, base + parent if parent >= 0 else -1, point)
            self.busy[idx] = busy
        for i, value in dump["info"].items():
            self.info[base + int(i)] = value
        for i, value in dump["errors"].items():
            self.errors[base + int(i)] = value

    def dump(self) -> dict:
        info = {}
        for i, value in self.info.items():
            info[i] = list(value) if isinstance(value, tuple) else value
        return {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "busy": self.busy.tolist(),
            "parent": self.parent.tolist(),
            "point": self.point.tolist(),
            "info": info,
            "errors": self.errors,
        }

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(self.dump(), fh, separators=(",", ":"))

    # ---- aggregation -------------------------------------------------

    def net_busy(self) -> list[int]:
        """Busy time of each span less the calibrated wrapper cost."""
        c = self.overhead_ns
        return [max(0, b - c) for b in self.busy]

    def self_times(self) -> list[int]:
        """Net busy time of each span minus the net busy time of its direct children."""
        busy = self.net_busy()
        own = list(busy)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= busy[idx]
        return own

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total busy ns, total self ns, repeat count, infos."""
        own = self.self_times()
        busy = self.net_busy()
        out: dict[str, dict] = {}
        seen: dict[str, set] = {}
        for idx, nid in enumerate(self.name_id):
            name = self.names[nid]
            row = out.get(name)
            if row is None:
                row = out[name] = {"calls": 0, "busy_ns": 0, "self_ns": 0, "repeats": 0, "infos": []}
                seen[name] = set()
            row["calls"] += 1
            row["busy_ns"] += busy[idx]
            row["self_ns"] += own[idx]
            value = self.info.get(idx)
            if value is not None:
                if isinstance(value, list):
                    value = tuple(value)
                if isinstance(value, tuple):
                    if value in seen[name]:
                        row["repeats"] += 1
                    seen[name].add(value)
                else:
                    row["infos"].append(value)
        return out

    def module_self_ns(self) -> dict[str, int]:
        own = self.self_times()
        totals = dict.fromkeys(MODULES, 0)
        for idx, nid in enumerate(self.name_id):
            module = self.names[nid].split(".", 1)[0]
            totals[module] = totals.get(module, 0) + own[idx]
        return totals

    def root_busy_ns(self) -> int:
        """Busy time of the spans that have no parent (raw, wrapper cost included)."""
        return sum(b for b, p in zip(self.busy, self.parent) if p < 0)
