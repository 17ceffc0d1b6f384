"""Benchmark of the thetatwist CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Every execution of a workload runs in a fresh interpreter (child.py), so the
series caches start cold as they do for a CLI user.  Executions run one at a
time from this single process: the package is single-threaded, and a second
execution alongside would only compete with the first for cores and caches.

--trace 0 times set-up in fresh interpreters, then executes the workload
until --seconds have passed (at least MIN_EXECUTIONS times) and reports the
end-to-end metrics.  The speed of a core of a shared host swings by up to
2x in spells of seconds to minutes, so wall_s is each execution's time at a
fixed reference speed: probe.py samples the host's speed during the
execution, and its own time is scaled by the share of the reference speed
it ran at.  wall_s and setup_s are medians over the run's executions and
set-up samples; the raw times are printed beside them.

--trace 1 alternates untraced and traced executions, without speed samples,
and reports the per-layer metrics, the tracing overhead and the share of
traced time that top-level spans cover; the spans go to perfbench/out/.

Every output is checked outside the timed region, and each check must reject
corrupted copies of real outputs.  The last line of stdout is the result.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_EXECUTIONS = 2
COVERAGE_FLOOR = 0.95
#: no execution starts after this many seconds, and none may outlive
#: BUDGET_S, so a run ends well within three minutes
START_BY_S = 120
BUDGET_S = 165
SETUP_JOB = {"mode": "setup", "labels": workloads.TABLE_PAIRS}


def _since(start):
    return time.perf_counter() - start


def _child(job, start):
    job = dict(job, src=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=max(1.0, BUDGET_S - _since(start)),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def _repeat(step, seconds, minimum, start):
    """Call step() at least `minimum` times and until `seconds` have passed,
    overrunning them by at most about half a call."""
    first = time.perf_counter()
    done = []
    while True:
        done.append(step())
        spent = _since(first)
        estimate = spent / len(done)
        if _since(start) + estimate > START_BY_S:
            return done
        if len(done) >= minimum and spent + estimate / 2 > seconds:
            return done


def _verdicts(workload, argvs, runs):
    """Per-output check verdicts for each run; identical outputs are checked once."""
    memo = {}
    out = []
    for run in runs:
        key = json.dumps(run["results"])
        if key not in memo:
            memo[key] = workloads.check(workload, argvs, run["results"])
        out.append(memo[key])
    return out


def _self_test(workload, argvs, results, seed):
    ok = True
    for description, damaged in workloads.corruptions(workload, argvs, results, seed):
        rejected = not all(workloads.check(workload, argvs, damaged))
        print(f"self-test  {description}: {'rejected' if rejected else 'NOT REJECTED'}")
        ok = ok and rejected
    return ok


def _tail(samples):
    """The highest percentile with at least ten samples above it, as text."""
    n = len(samples)
    if n < 11:
        return f"no percentile has 10 of {n} samples above it"
    return f"p{100 * (n - 10) // n} = {sorted(samples)[n - 11]:.4f} s (10 of {n} samples above)"


def _at_reference(doc):
    """A child's time without its speed samples, scaled to the reference speed."""
    return (doc["elapsed"] - doc["probe_s"]) * doc["speed"]


def _end_to_end(workload, argvs, seconds, start):
    setups = []

    def execute():
        # one set-up sample before each execution, so they spread over the run
        setups.append(_child(SETUP_JOB, start))
        return _child({"mode": "run", "argvs": argvs, "probe": True}, start)

    runs = _repeat(execute, seconds, MIN_EXECUTIONS, start)
    walls = [_at_reference(r) for r in runs]
    raw = [r["elapsed"] - r["probe_s"] for r in runs]
    speeds = [r["speed"] for r in runs]
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(_at_reference(r) for r in setups),
        "peak_rss_mb": statistics.median(r["maxrss_kib"] / 1024 for r in runs),
    }
    print(f"wall_s      median of {len(walls)} executions at reference speed; {_tail(walls)}")
    print(f"raw wall    median {statistics.median(raw):.4f} s, fastest {min(raw):.4f} s; speed median "
          f"{statistics.median(speeds):.3f} of reference, {min(speeds):.3f}..{max(speeds):.3f}, "
          f"{sum(r['samples'] for r in runs) / len(runs):.0f} samples per execution")
    print(f"setup_s     median of {len(setups)} fresh interpreters at reference speed; raw median "
          f"{statistics.median(r['elapsed'] - r['probe_s'] for r in setups):.4f} s")
    verdicts = _verdicts(workload, argvs, runs)
    return values, verdicts, runs[0]["results"]


def _layer_values(layers):
    """Per-layer metric values of one traced execution, and absent functions."""
    functions, counters = layers["functions"], layers["counters"]
    missing = set()

    def field(name):
        head, _, key = name.rpartition(".")
        if head not in functions:
            missing.add(head)
            return 0
        return functions[head][key]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name, _, _ in spec.PER_LAYER:
        if name in counters:
            values[name] = counters[name]
        elif name == "polyverify.ddf_per_prime":
            classified = sum(counters[f"polyverify.{k}"] for k in ("match", "ambiguous_pass", "fail"))
            values[name] = ratio(field("polyverify.ddf.calls"), classified)
        elif name == "polyverify.sqfree_per_prime":
            tested = counters["polyverify.primes_scanned"] - counters["polyverify.skipped_ell"]
            values[name] = ratio(field("polyverify.is_squarefree_mod.calls"), tested)
        elif name == "trace.coverage":
            values[name] = layers["coverage"]
        elif not name.startswith("trace."):
            values[name] = field(name)
    return values, missing


def _per_layer(workload, argvs, seconds, seed, start):
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    plain_job = {"mode": "run", "argvs": argvs}
    traced_job = dict(plain_job, spans_path=str(spans_path))
    pairs = _repeat(lambda: (_child(plain_job, start), _child(traced_job, start)), seconds, 1, start)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    samples = [_layer_values(t["layers"]) for t in traced]
    values = {
        # counts repeat exactly, so they stay whole numbers
        name: (statistics.median_low if unit == "count" else statistics.median)(s[0][name] for s in samples)
        for name, unit, _ in spec.PER_LAYER
        if name in samples[0][0]
    }
    plain_wall = min(p["elapsed"] for p in plain)
    traced_wall = min(t["elapsed"] for t in traced)
    values["trace.overhead_s"] = traced_wall - plain_wall
    missing = set().union(*(s[1] for s in samples))
    print(f"traced      {len(pairs)} untraced/traced pairs; spans in {spans_path.relative_to(ROOT)}")
    print(f"overhead    fastest traced wall {traced_wall:.4f} s - fastest untraced {plain_wall:.4f} s = {values['trace.overhead_s']:.4f} s")
    if missing:
        print(f"missing     no public function {', '.join(sorted(missing))}; its metrics read 0")
    loaded = spec.LOADED[workload]
    share = statistics.median(v[loaded] / t["elapsed"] for (v, _), t in zip(samples, traced))
    print(f"load        {loaded} is {share:.1%} of traced wall (median over traced executions)")
    coverage_ok = values["trace.coverage"] >= COVERAGE_FLOOR
    print(f"coverage    top-level spans cover {values['trace.coverage']:.2%} of traced wall (floor {COVERAGE_FLOOR:.0%})")
    # A traced output must pass its check, and the traced execution must
    # print exactly what the untraced one printed.
    verdicts = []
    for (p, t), vp, vt in zip(pairs, _verdicts(workload, argvs, plain), _verdicts(workload, argvs, traced)):
        identical = p["results"] == t["results"]
        verdicts += [vp, [ok and identical for ok in vt]]
    return values, verdicts, plain[0]["results"], coverage_ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[name for name, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "thetatwist" / "__init__.py").is_file():
        print(f"error: no thetatwist sources under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    argvs = workloads.inputs(args.workload, args.seed)
    print(f"workload    {args.workload}, seed {args.seed}: {len(argvs)} CLI call(s) per execution")
    try:
        _child(SETUP_JOB, start)  # writes the bytecode caches; not a sample
        if args.trace:
            values, verdicts, sample, coverage_ok = _per_layer(args.workload, argvs, args.seconds, args.seed, start)
            metrics = [(name, unit) for name, unit, _ in spec.PER_LAYER]
        else:
            values, verdicts, sample = _end_to_end(args.workload, argvs, args.seconds, start)
            coverage_ok = True
            metrics = [(name, unit) for name, unit, _, _ in spec.END_TO_END]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(v) for v in verdicts)
    failed = sum(v.count(False) for v in verdicts)
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4f} ratio")
    self_test_ok = failed == 0 and _self_test(args.workload, argvs, sample, args.seed)
    for name, unit in metrics:
        print(f"{name:<40} {values[name]:.6g} {unit}")
    result = {
        "correct": failed == 0 and self_test_ok and coverage_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
