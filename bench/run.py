"""Record per-prime kernel times and whole-run times of one or more source trees.

    python bench/run.py --src parent=../parent --src change=. --rounds 5 --out BENCH_25.json

Each --src names a checkout, as label=path or as a bare path labelled by its
directory name, whose src/ holds the thetatwist package.  For every tree it
records:

  - kernels_us: the per-prime costs of the Frobenius pattern check for a
    random monic f of degree n mod p, n in NS and p in PS: the _frobenius
    set-up, given u = 1/rev(f) mod x^n reduced mod p as verify_record
    gives it, one step of the Frobenius walk, one mulmod of two random
    polynomials of degree below n and one _gcd of f with a random
    polynomial of degree n - 1, in microseconds per call; and, as the cases
    "ladder n=..,p=..", the set-up for each (n, p) in LADDER, where the
    square and multiply ladder for x^p is a large share of it or where p
    lies just below or above n;
  - cli_main_us: the in-process time of one `thetatwist.cli.main` call for each
    of CLI_CALLS, with warm series caches and stdout captured;
  - verify_us_per_prime: verify_record over the six bundled records at
    pmax VERIFY_PER_PRIME_PMAX with warm series, through the public API
    only, divided by the number of primes tested (every p <= pmax but ell);
  - rev_inverse_us: the cost of u = 1/rev(f) mod x^n for each of
    U_RECORDS, a bundled record and a random monic record of degree 200
    with 64-bit coefficients: the reduction of the integer u at each p of
    U_PS ("reduce_us", what each prime pays) and, once per record, the
    integer u itself ("integer_us");
  - wrong_records_us: the in-process cost of two calls that factor wrong
    or unchecked records, where the DDF's degree loop runs: acceptance
    criterion 4, verify_record with fail_fast on its 120 single +-1
    mutations of the bundled records at pmax MUTATION_PMAX, and _ddf on the
    _frobenius set-up at every prime p <= DDF_PMAX of each bundled record,
    u given, a reduction that is not squarefree counted as a call too;
  - series_us: for each n in SERIES_NS, a cold delta_k(26, SERIES_ELL, n)
    (the series cache emptied before each call, so E4, E6 and the six
    products of its chain are built), a cold delta_k(12, SERIES_ELL, n)
    ("delta12_cold_us", Delta alone, however the tree builds it) and a
    warm series_mul of E4 by E6 mod SERIES_ELL to precision n, all through
    the public API only;
  - twist_us: a warm twist_search of each of the six bundled pairs at
    extended TWIST_EXTENDED, all six in one call, and a warm twist_search
    of TWIST_LARGE at the same extended, whose search rejects ten
    candidates over a twist bound of 39,848 coefficients;
  - screen_us: a cold screen_exceptional (the series cache emptied before
    each call) of each pair of SCREEN_PAIRS at each bound of SCREEN_BOUNDS,
    and of SCREEN_LARGE; a warm one (the series cache kept) of each pair of
    SCREEN_WARM at bound SCREEN_SWEEP_BOUND, where the per-prime tests are
    all of the cost; and one sweep, every weight at every prime
    5 <= ell < SCREEN_SWEEP_BELOW at bound SCREEN_SWEEP_BOUND with the
    series cache emptied once per ell; all through the public API only;
  - runs_s, each a fresh process: the default `thetatwist tables`, as text
    and as JSON, `tables` at perfbench's sizes (PERFBENCH_TABLES), the
    `screen` call of CLI_CALLS, `thetatwist verify-poly --pmax 10000` for
    each bundled record, and `import thetatwist` with the six bundled
    records loaded, run with and without -S (no site module, so nothing
    the package imports is loaded in advance);
  - src_lines: the line count of each module in src/thetatwist/*.py, as
    wc -l counts it, and their total.

Every measurement runs in a fresh interpreter with the tree's src/ first on
the path.  The in-process figures are timed under perfbench's SpeedProbe:
each is the median over REPEATS runs of about 50 ms of the time per call at
perfbench's reference speed, with the probe's own samples taken out, so the
host's speed swings do not show as kernel changes.  A fresh-process run
goes through bench/probed.py, which times the import and the call under
perfbench's SpeedProbe too: runs_s keeps the raw wall
time of the whole process (median, samples) and, beside it, the probed time
at perfbench's reference speed (reference_median, reference_samples), which
leaves out the interpreter's start-up and the host's speed swings.  Each
round measures every tree once, in an order that alternates from round to
round, so that drift in the host's speed falls on all trees alike.  A figure is the median over the rounds, kept beside its samples.
Each whole run also records a digest of its stdout, so trees that print
different bytes show, and a JSON run the digest of its document in one
canonical layout beside it, so a change of layout shows apart from a change
of content.  A tree with a src/thetatwist/__pycache__ is refused,
and no run writes one, so every tree compiles its modules from source alike.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from probe import SpeedProbe  # noqa: E402

NS = (12, 14, 18, 20, 24)
PS = (31, 97, 997, 9973)
#: (n, p) of the set-up cases that time the x^p ladder: p just below and
#: just above n = 24, and large p at small n, where the ladder is most of it
LADDER = ((24, 23), (24, 29), (12, 876706517), (4, 2**61 - 1))
REPEATS = 5
PROBED = Path(__file__).resolve().parent / "probed.py"
RECORDS = ((16, 13), (20, 17), (22, 11), (22, 19), (26, 13), (26, 23))
VERIFY_PMAX = 10000
VERIFY_PER_PRIME_PMAX = 1000
#: pmax of the criterion 4 mutation case, and the largest p of the
#: _ddf case, of wrong_records_us
MUTATION_PMAX = 200
DDF_PMAX = 1000
#: the records of rev_inverse_us, (name, label): a bundled (k, ell) label, or
#: None for a random monic record of degree 200 with 64-bit coefficients
U_RECORDS = (("bundled k=26,ell=23", (26, 23)), ("random n=200,64-bit", None))
U_PS = (97, 9973)
#: the modulus and precisions of series_us, and the extended terms of twist_us
SERIES_ELL = 691
SERIES_NS = (1000, 4000, 20000)
TWIST_EXTENDED = 1000
TWIST_LARGE = (26, 691)
#: the pairs and bounds of screen_us: (16, 13) and (26, 691) are
#: unexceptional, (12, 691) reducible, (16, 59) of projective image S_4 and
#: (12, 23) dihedral; and one unexceptional screen at a large bound
SCREEN_PAIRS = ((16, 13), (26, 691), (12, 691), (16, 59), (12, 23))
SCREEN_BOUNDS = (200, 2000)
SCREEN_LARGE = (26, 691, 10**4)
#: the warm pairs of screen_us, at ell near 10^6, and the sweep's bounds
SCREEN_WARM = ((26, 1000003), (16, 999983))
SCREEN_SWEEP_BELOW = 10**4
SCREEN_SWEEP_BOUND = 200
#: `tables` at the sizes of perfbench's tables workload
PERFBENCH_TABLES = ["tables", "--pmax", "100", "--pbound", "100", "--extended", "150",
                    "--format", "json"]
#: calls whose cost outside the maths is mostly the CLI's own: a screen at
#: its default bound and a long series, both printed as JSON
CLI_CALLS = {
    "screen k=16,ell=13": [
        "screen", "--weight", "16", "--ell", "13", "--pbound", "200", "--format", "json",
    ],
    "qexp k=26,ell=691": [
        "qexp", "--weight", "26", "--ell", "691", "--terms", "700", "--format", "json",
    ],
}


def _per_call_us(call):
    """Median over REPEATS runs of about 50 ms each of the time per call, in
    us at perfbench's reference speed."""
    number = max(1, int(0.05 / timeit.timeit(call, number=1)))
    timer = timeit.Timer(call)
    samples = []
    for _ in range(REPEATS):
        probe = SpeedProbe()
        start = time.perf_counter()
        probe.start()
        timer.timeit(number)
        probe.stop()
        elapsed = time.perf_counter() - start
        samples.append((elapsed - probe.spent) * probe.speed() / number * 1e6)
    return statistics.median(samples)


def kernels():
    """Per-prime kernel times of the thetatwist on sys.path, as a dict."""
    from thetatwist import polyverify

    rng = random.Random(9)
    out = {}
    for n in NS:
        for p in PS:
            f = [rng.randrange(p) for _ in range(n)] + [1]
            h = [rng.randrange(p) for _ in range(n - 1)] + [1 + rng.randrange(p - 1)]
            # the mulmod operands have a generator of their own, so f and h
            # stay the cases earlier BENCH files timed
            factors = random.Random(n * p)
            a, b = ([factors.randrange(p) for _ in range(n)] for _ in range(2))
            u = [c % p for c in polyverify._rev_inverse(f)]
            frobenius, mulmod = polyverify._frobenius(f, p, u)[1:3]
            out[f"n={n},p={p}"] = {
                "setup_us": _per_call_us(lambda: polyverify._frobenius(f, p, u)),
                "walk_step_us": _per_call_us(lambda: frobenius(h)),
                "mulmod_us": _per_call_us(lambda: mulmod(a, b)),
                "gcd_us": _per_call_us(lambda: polyverify._gcd(f, h, p)),
            }
    for n, p in LADDER:
        f = [rng.randrange(p) for _ in range(n)] + [1]
        u = [c % p for c in polyverify._rev_inverse(f)]
        out[f"ladder n={n},p={p}"] = {
            "setup_us": _per_call_us(lambda: polyverify._frobenius(f, p, u)),
        }
    return out


def cli_main():
    """In-process `cli.main` times of CLI_CALLS on the thetatwist on sys.path."""
    from thetatwist import cli

    def call(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"thetatwist {' '.join(argv)} failed")

    out = {}
    for name, argv in CLI_CALLS.items():
        call(argv)  # fill the series caches, as a warm caller has them
        out[name] = {"main_us": _per_call_us(lambda: call(argv))}
    return out


def verify_per_prime():
    """verify_record's time per tested prime over the six bundled records."""
    from thetatwist import bundled_record, verify_record

    jobs = [(bundled_record(k, ell), k, ell) for k, ell in RECORDS]

    def call():
        return [verify_record(record, k, ell, VERIFY_PER_PRIME_PMAX) for record, k, ell in jobs]

    tested = sum(len(rep.outcomes) - rep.counts["skipped_ell"] for rep in call())
    name = f"six records, pmax={VERIFY_PER_PRIME_PMAX}"
    return {name: {"per_prime_us": _per_call_us(call) / tested, "primes": tested}}


def rev_inverse_us():
    """The cost of u = 1/rev(f) mod x^n per record and prime, as a dict."""
    from thetatwist import bundled_record
    from thetatwist.polyverify import _rev_inverse as rev_inverse

    rng = random.Random(14)
    out = {}
    for name, label in U_RECORDS:
        if label is None:
            f = [rng.randrange(-(2**63), 2**63) for _ in range(200)] + [1]
        else:
            f = list(bundled_record(*label).coeffs)
        u = rev_inverse(f)
        out[name] = {"integer_us": _per_call_us(lambda: rev_inverse(f))}
        for p in U_PS:
            out[f"{name},p={p}"] = {"reduce_us": _per_call_us(lambda: [c % p for c in u])}
    return out


def wrong_records_us():
    """The cost of the two wrong_records_us calls on the thetatwist on sys.path."""
    from thetatwist import ProjPolyRecord, bundled_record, primes_upto, verify_record
    from thetatwist.polyverify import _ddf, _frobenius, _rev_inverse

    rng = random.Random(20250811)  # tests/test_acceptance.py's mutations, in its order
    mutations = []
    for k, ell in RECORDS:
        record = bundled_record(k, ell)
        for _ in range(20):
            coeffs = list(record.coeffs)
            coeffs[rng.randrange(record.degree)] += rng.choice((1, -1))
            mutations.append((ProjPolyRecord(tuple(coeffs), k=k, ell=ell), k, ell))

    def criterion_4():
        for mutated, k, ell in mutations:
            if verify_record(mutated, k, ell, MUTATION_PMAX, fail_fast=True).counts["fail"] < 1:
                raise RuntimeError(f"a mutation of ({k}, {ell}) was not caught")

    polys = []
    for k, ell in RECORDS:
        coeffs = bundled_record(k, ell).coeffs
        u = _rev_inverse(coeffs)
        polys += [([c % p for c in coeffs], p, [c % p for c in u]) for p in primes_upto(DDF_PMAX)]

    def ddf():
        for fp, p, up in polys:
            _ddf(_frobenius(fp, p, up), p)

    return {
        f"criterion 4, {len(mutations)} mutations, pmax={MUTATION_PMAX}": {
            "call_us": _per_call_us(criterion_4),
        },
        f"_ddf on its set-up, six records, p<={DDF_PMAX}": {
            "call_us": _per_call_us(ddf), "calls": len(polys),
        },
    }


def series_us():
    """Cold delta_k and warm series_mul times on the thetatwist on sys.path."""
    from thetatwist import delta_k, eisenstein, series_mul

    def cold(k, n):
        delta_k.cache_clear()
        return delta_k(k, SERIES_ELL, n)

    out = {}
    for n in SERIES_NS:
        e4, e6 = eisenstein(4, SERIES_ELL, n), eisenstein(6, SERIES_ELL, n)
        out[f"n={n}"] = {
            "delta_k_cold_us": _per_call_us(lambda: cold(26, n)),
            "delta12_cold_us": _per_call_us(lambda: cold(12, n)),
            "series_mul_us": _per_call_us(lambda: series_mul(e4, e6)),
        }
    return out


def twist_us():
    """Warm twist_search times on the thetatwist on sys.path."""
    from thetatwist import twist_search

    def call():
        return [twist_search(k, ell, TWIST_EXTENDED) for k, ell in RECORDS]

    def large():
        return twist_search(*TWIST_LARGE, TWIST_EXTENDED)

    call()  # fill the series caches
    large()
    k, ell = TWIST_LARGE
    return {
        f"six pairs, extended={TWIST_EXTENDED}": {"call_us": _per_call_us(call)},
        f"k={k},ell={ell}, extended={TWIST_EXTENDED}": {"call_us": _per_call_us(large)},
    }


def screen_us():
    """Cold, warm and sweep screen_exceptional times on the thetatwist on sys.path."""
    from thetatwist import SUPPORTED_WEIGHTS, delta_k, primes_upto, screen_exceptional

    def cold(k, ell, bound):
        delta_k.cache_clear()
        return screen_exceptional(k, ell, bound)

    def sweep():
        for ell in primes_upto(SCREEN_SWEEP_BELOW - 1)[2:]:
            for k in SUPPORTED_WEIGHTS:
                screen_exceptional(k, ell, SCREEN_SWEEP_BOUND)
            delta_k.cache_clear()

    cases = [(k, ell, bound) for bound in SCREEN_BOUNDS for k, ell in SCREEN_PAIRS]
    out = {
        f"k={k},ell={ell},pbound={bound}": {"cold_us": _per_call_us(lambda: cold(k, ell, bound))}
        for k, ell, bound in cases + [SCREEN_LARGE]
    }
    for k, ell in SCREEN_WARM:
        screen_exceptional(k, ell, SCREEN_SWEEP_BOUND)  # fill the series cache
        out[f"k={k},ell={ell},pbound={SCREEN_SWEEP_BOUND}"] = {"warm_us": _per_call_us(
            lambda: screen_exceptional(k, ell, SCREEN_SWEEP_BOUND))}
    out[f"sweep ell<{SCREEN_SWEEP_BELOW},pbound={SCREEN_SWEEP_BOUND}"] = {
        "sweep_us": _per_call_us(sweep)}
    return out


def _env(tree):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _kernels_of(tree):
    proc = subprocess.run(
        [sys.executable, __file__, "--kernels"],
        env=_env(tree), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _fresh_run(tree, flags, args):
    """(wall seconds, seconds at reference speed, stdout digests) of one fresh
    `python <flags> bench/probed.py <args>` process: the digest of the raw
    stdout and, for a JSON run, of its document in the canonical layout
    json.dumps(doc, indent=2, sort_keys=True) + "\n", so that trees which
    lay out the same document differently show the same content digest."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, str(PROBED), *args],
        env=_env(tree), capture_output=True, check=True,
    )
    wall = time.perf_counter() - start
    probed = json.loads(proc.stderr.splitlines()[-1])
    at_reference = (probed["elapsed"] - probed["probe_s"]) * probed["speed"]
    digests = {"stdout_sha256": _sha256(proc.stdout)}
    if "json" in args:
        canonical = json.dumps(json.loads(proc.stdout), indent=2, sort_keys=True) + "\n"
        digests["canonical_sha256"] = _sha256(canonical.encode())
    return wall, at_reference, digests


def _runs():
    """The whole-run jobs of one round: (name, interpreter flags, probed.py arguments)."""
    yield "tables", [], ["cli", "tables"]
    yield "tables --format json", [], ["cli", "tables", "--format", "json"]
    yield "tables pmax=100,pbound=100,extended=150", [], ["cli", *PERFBENCH_TABLES]
    yield "screen k=16,ell=13", [], ["cli", *CLI_CALLS["screen k=16,ell=13"]]
    for k, ell in RECORDS:
        argv = ["verify-poly", "--weight", str(k), "--ell", str(ell),
                "--pmax", str(VERIFY_PMAX), "--format", "json"]
        yield f"verify_poly k={k},ell={ell}", [], ["cli", *argv]
    yield "import", [], ["import"]
    yield "import -S", ["-S"], ["import"]


def _summary(samples):
    return {"median": statistics.median(samples), "samples": samples}


def _case_summaries(samples):
    """{case: {metric: summary}} of samples, a list of {case: {metric: value}}."""
    return {
        case: {metric: _summary([s[case][metric] for s in samples]) for metric in metrics}
        for case, metrics in samples[0].items()
    }


def measure(trees, rounds):
    kernel_samples = {label: [] for label in trees}
    run_samples = {label: {} for label in trees}
    reference_samples = {label: {} for label in trees}
    digests = {label: {} for label in trees}
    labels = list(trees)
    for r in range(rounds):
        for label in labels if r % 2 == 0 else labels[::-1]:
            tree = trees[label]
            kernel_samples[label].append(_kernels_of(tree))
            for name, flags, args in _runs():
                wall, at_reference, digest = _fresh_run(tree, flags, args)
                run_samples[label].setdefault(name, []).append(wall)
                reference_samples[label].setdefault(name, []).append(at_reference)
                if digests[label].setdefault(name, digest) != digest:
                    raise RuntimeError(f"{label}: {name} printed different bytes across rounds")
            print(f"round {r + 1}/{rounds}: {label} done", file=sys.stderr)
    out = {}
    for label in labels:
        samples = kernel_samples[label]
        out[label] = {
            section: _case_summaries([s[section] for s in samples])
            for section in samples[0]
        }
        out[label]["runs_s"] = {
            name: dict(
                _summary(walls),
                reference_median=statistics.median(reference_samples[label][name]),
                reference_samples=reference_samples[label][name],
                **digests[label][name],
            )
            for name, walls in run_samples[label].items()
        }
        out[label]["src_lines"] = _src_lines(trees[label])
    return out


def _src_lines(tree):
    """{module file name: line count} of the tree's src/thetatwist/*.py, and "total"."""
    lines = {path.name: path.read_bytes().count(b"\n")
             for path in sorted((tree / "src" / "thetatwist").glob("*.py"))}
    return dict(lines, total=sum(lines.values()))


def _tree(spec):
    label, sep, path = spec.partition("=")
    path = Path(path if sep else label).resolve()
    if not (path / "src" / "thetatwist" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"no src/thetatwist under {path}")
    if (path / "src" / "thetatwist" / "__pycache__").exists():
        raise argparse.ArgumentTypeError(f"remove {path}/src/thetatwist/__pycache__ first")
    return (label if sep else path.name), path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=_tree, action="append", help="label=path of a checkout")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--out", type=Path, help="write the JSON here instead of stdout")
    parser.add_argument("--kernels", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.kernels:
        print(json.dumps({
            "kernels_us": kernels(),
            "cli_main_us": cli_main(),
            "verify_us_per_prime": verify_per_prime(),
            "rev_inverse_us": rev_inverse_us(),
            "wrong_records_us": wrong_records_us(),
            "series_us": series_us(),
            "twist_us": twist_us(),
            "screen_us": screen_us(),
        }))
        return 0
    if not args.src:
        parser.error("give at least one --src")
    trees = dict(args.src)
    doc = {
        "command": "python bench/run.py " + " ".join(f"--src {label}=<path>" for label in trees)
        + f" --rounds {args.rounds}",
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "rounds": args.rounds,
        "kernel_cases": {
            "n": list(NS), "p": list(PS), "ladder": [list(c) for c in LADDER], "repeats": REPEATS,
        },
        "cli_calls": CLI_CALLS,
        "verify_pmax": VERIFY_PMAX,
        "verify_per_prime_pmax": VERIFY_PER_PRIME_PMAX,
        "rev_inverse_cases": {"records": [name for name, _ in U_RECORDS], "p": list(U_PS)},
        "wrong_records_cases": {"mutation_pmax": MUTATION_PMAX, "ddf_pmax": DDF_PMAX},
        "series_cases": {"ell": SERIES_ELL, "n": list(SERIES_NS)},
        "twist_extended": TWIST_EXTENDED,
        "twist_large": list(TWIST_LARGE),
        "screen_cases": {
            "pairs": [list(pair) for pair in SCREEN_PAIRS], "pbound": list(SCREEN_BOUNDS),
            "large": list(SCREEN_LARGE), "warm": [list(pair) for pair in SCREEN_WARM],
            "sweep_below": SCREEN_SWEEP_BELOW, "sweep_pbound": SCREEN_SWEEP_BOUND,
        },
        "trees": measure(trees, args.rounds),
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
