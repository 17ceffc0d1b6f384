"""Spans around the public functions of thetatwist, taken from outside.

The tracer wraps every function the package exports (plus ``cli.main``) and
rebinds the wrapper in every thetatwist module that holds the function: a
name imported with ``from .x import y`` is a separate binding in each
importing module, so rebinding it only where it is defined would miss the
calls other layers make.  Spans stay in memory until the run ends.
"""

import json
import sys
import time

from workloads import primes_upto

LAYERS = ("qseries", "twist", "polyverify", "galrep", "ffield", "cli")

#: verify_record report counts kept as per-layer counters
_REPORT_COUNTS = ("skipped_ramified", "skipped_ell", "ambiguous_pass", "match", "fail")


def _observe_series_mul(counters, args, result):
    counters["qseries.series_mul.terms"] += result.precision


def _observe_check_twist(counters, args, certificate):
    counters["twist.primes_checked"] += len(certificate.prime_checks)


def _observe_twist_mismatch(counters, args, exc):
    # A mismatch at p means every prime below p (except ell) was checked too.
    p = getattr(exc, "p", None)
    if p is not None:
        counters["twist.primes_checked"] += len(primes_upto(p)) - (args[0].ell <= p)


def _observe_verify_record(counters, args, report):
    counters["polyverify.primes_scanned"] += len(report.outcomes)
    for key in _REPORT_COUNTS:
        counters[f"polyverify.{key}"] += report.counts.get(key, 0)


#: counters updated from a traced call's result, or from the exception it raised
_ON_RETURN = {
    "qseries.series_mul": _observe_series_mul,
    "twist.check_twist": _observe_check_twist,
    "polyverify.verify_record": _observe_verify_record,
}
_ON_RAISE = {"twist.check_twist": _observe_twist_mismatch}


def public_functions(package, cli):
    """Map each traced function object to its span name ``layer.function``."""
    found = {cli.main: "cli.main"}
    for attr, obj in vars(package).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        layer = getattr(obj, "__module__", "").rpartition(".")[2]
        if layer in LAYERS:
            found[obj] = f"{layer}.{attr}"
    return found


class Tracer:
    """Records (name, start, end, parent) for every call of a traced function."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.counters = dict.fromkeys(
            ["qseries.series_mul.terms", "twist.primes_checked", "polyverify.primes_scanned"]
            + [f"polyverify.{key}" for key in _REPORT_COUNTS],
            0,
        )
        self._stack = []
        self._bindings = []

    def install(self):
        import thetatwist
        import thetatwist.cli

        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == "thetatwist" or name.startswith("thetatwist.")
        ]
        for fn, name in public_functions(thetatwist, thetatwist.cli).items():
            wrapper = self._wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._bindings.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, fn in reversed(self._bindings):
            setattr(module, attr, fn)
        self._bindings.clear()

    def _wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        on_return, on_raise = _ON_RETURN.get(name), _ON_RAISE.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_raise is not None:
                    on_raise(counters, args, exc)
                raise
            finally:
                spans[slot] = (index, start, clock(), parent)
                stack.pop()
            if on_return is not None:
                on_return(counters, args, result)
            return result

        return traced

    def summary(self, wall):
        """Per-name calls, inclusive and self seconds, counters and coverage.

        Inclusive time counts only a name's outermost spans, so a function
        that reaches itself again is not counted twice.  Coverage is the
        share of ``wall`` spent inside top-level spans.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        per = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        top = 0.0
        for i, (index, start, end, parent) in enumerate(spans):
            entry = per[self.names[index]]
            entry["calls"] += 1
            entry["self_s"] += end - start - child[i]
            up = parent
            while up >= 0 and spans[up][0] != index:
                up = spans[up][3]
            if up < 0:
                entry["s"] += end - start
            if parent < 0:
                top += end - start
        return {"functions": per, "counters": dict(self.counters), "coverage": top / wall}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
