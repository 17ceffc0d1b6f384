"""One workload execution in a fresh interpreter, driven by run.py.

Reads a job from stdin, imports thetatwist from the checkout's ``src``, runs
each argument list through ``thetatwist.cli.main`` with its output captured,
and prints one JSON document: elapsed seconds from the first call to the end
of the last, peak RSS, and each call's exit code, stdout and stderr.  A
``setup`` job instead times the import of the package and the loading of the
bundled records, which is why a run's elapsed time leaves the import out.
A setup job, and a run job with ``probe``, samples the host's speed while it
works (probe.py) and adds the time the samples took and the mean speed they
found.  A job with ``spans_path`` runs under the tracer and adds per-layer
figures.
"""

import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from layers import Tracer
from probe import SpeedProbe


def _import_checked(src):
    sys.path.insert(0, src)
    import thetatwist

    if Path(thetatwist.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit(f"thetatwist was imported from {thetatwist.__file__}, not {src}")


def _setup(job):
    probe = SpeedProbe()
    start = time.perf_counter()
    probe.start()
    _import_checked(job["src"])
    from thetatwist.polyverify import bundled_record

    for k, ell in job["labels"]:
        bundled_record(k, ell)
    probe.stop()
    return {"elapsed": time.perf_counter() - start, "probe_s": probe.spent, "speed": probe.speed()}


def _run(job):
    spans_path = job.get("spans_path")
    _import_checked(job["src"])
    import thetatwist.cli as cli

    tracer = probe = None
    if spans_path:
        tracer = Tracer()
        tracer.install()
    elif job.get("probe"):
        probe = SpeedProbe()
    start = time.perf_counter()
    if probe is not None:
        probe.start()
    results = []
    for argv in job["argvs"]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed output, not a failed benchmark
                code = f"{type(exc).__name__}: {exc}"
        results.append([code, out.getvalue(), err.getvalue()])
    if probe is not None:
        probe.stop()
    elapsed = time.perf_counter() - start
    doc = {
        "elapsed": elapsed,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
    }
    if probe is not None:
        doc["probe_s"] = probe.spent
        doc["speed"] = probe.speed()
        doc["samples"] = len(probe.ratios)
    if tracer is not None:
        tracer.uninstall()
        doc["layers"] = tracer.summary(elapsed)
        tracer.write(spans_path)
    return doc


def main():
    job = json.load(sys.stdin)
    doc = _setup(job) if job["mode"] == "setup" else _run(job)
    json.dump(doc, sys.stdout)


if __name__ == "__main__":
    main()
