"""Workload inputs made from a seed, and the checks of their outputs.

Nothing here imports thetatwist: every output is judged by arithmetic done
in this file, from the CLI's JSON alone.  ``check`` returns one verdict per
output (18 per tables run, 6 per series run, 54 per screen-sweep run), and
``corruptions`` yields damaged copies of real outputs that each check must
reject, so that no check can pass vacuously.
"""

import json
import random
from operator import mul

WEIGHTS = (12, 16, 18, 20, 22, 26)

#: the six bundled records, in the order ``tables`` reports them
TABLE_PAIRS = ((16, 13), (20, 17), (22, 11), (22, 19), (26, 13), (26, 23))

#: (i, k') each pair reduces to.  (22, 11) is printed as (1, 12) in the
#: published table, which breaks the weight congruence, so the CLI reports
#: (0, 12) with a warning.
TWISTS = {
    (16, 13): (2, 12),
    (20, 17): (2, 16),
    (22, 11): (0, 12),
    (22, 19): (2, 18),
    (26, 13): (1, 12),
    (26, 23): (2, 22),
}
WARNED = {(22, 11)}

#: verify-poly counts at TABLES_PMAX: match, ambiguous_pass,
#: skipped_ramified, skipped_ell, fail
VERIFY_COUNTS = {
    (16, 13): (23, 0, 1, 1, 0),
    (20, 17): (22, 1, 1, 1, 0),
    (22, 11): (18, 3, 3, 1, 0),
    (22, 19): (22, 2, 0, 1, 0),
    (26, 13): (23, 0, 1, 1, 0),
    (26, 23): (23, 0, 1, 1, 0),
}
_COUNT_KEYS = ("match", "ambiguous_pass", "skipped_ramified", "skipped_ell", "fail")

# One execution of each workload takes a few tenths of a second, so that a
# run holds tens of executions.  The sizes are scaled down from the CLI
# defaults (tables: pmax 1000, pbound 200, extended 1000; series: 4000
# terms; screen-sweep: every prime up to 300) with the same layer mix.
TABLES_PMAX = 100
TABLES_PBOUND = 100
TABLES_EXTENDED = 150

SERIES_TERMS = 700
#: Below 257 every coefficient is one of CPython's cached small ints, which
#: drops peak RSS by about 1 MiB; primes above 256 keep it within about 3 %.
SERIES_ELL_RANGE = (257, 1000)

SCREEN_PBOUND = 200
SCREEN_ELL_RANGE = (5, 300)
#: An execution screens every SCREEN_STRIDE-th prime of the range, the same
#: primes for every seed: the cost of a screen depends on ell in no simple
#: way, and different primes per seed made seeds differ by up to 12 %.  The
#: seed shuffles the order of the calls.  The first prime, 5, is exceptional
#: for every weight.
SCREEN_STRIDE = 7

#: the classical exceptional primes of delta_k up to 300
EXCEPTIONAL = {
    12: {5, 7, 23},
    16: {5, 7, 11, 31, 59},
    18: {5, 7, 11, 13},
    20: {5, 7, 11, 13, 283},
    22: {5, 7, 13, 17, 131},
    26: {5, 7, 11, 17, 19},
}

#: k: (base, j) with delta_k = delta_base * E_j.  delta_12 itself is checked
#: with theta(delta) = E2 * delta, where theta = q d/dq.
DERIVATION = {16: (12, 4), 18: (12, 6), 20: (16, 4), 22: (16, 6), 26: (22, 4)}
_EISENSTEIN = {2: (-24, 1), 4: (240, 3), 6: (-504, 5)}


def primes_upto(n):
    mark = bytearray([1]) * (n + 1)
    mark[0:2] = b"\0\0"
    for p in range(2, int(n**0.5) + 1):
        if mark[p]:
            mark[p * p :: p] = bytearray(len(mark[p * p :: p]))
    return [i for i in range(n + 1) if mark[i]]


def inputs(workload, seed):
    """The CLI argument lists of one execution of the workload."""
    rng = random.Random(seed)
    if workload == "tables":
        return [
            [
                "tables", "--pmax", str(TABLES_PMAX), "--pbound", str(TABLES_PBOUND),
                "--extended", str(TABLES_EXTENDED), "--format", "json",
            ]
        ]
    if workload == "series":
        lo, hi = SERIES_ELL_RANGE
        ell = rng.choice([p for p in primes_upto(hi) if p >= lo])
        return [
            ["qexp", "--weight", str(k), "--ell", str(ell), "--terms", str(SERIES_TERMS), "--format", "json"]
            for k in WEIGHTS
        ]
    lo, hi = SCREEN_ELL_RANGE
    ells = [p for p in primes_upto(hi) if p >= lo][::SCREEN_STRIDE]
    calls = [
        ["screen", "--weight", str(k), "--ell", str(ell), "--pbound", str(SCREEN_PBOUND), "--format", "json"]
        for k in WEIGHTS
        for ell in ells
    ]
    rng.shuffle(calls)
    return calls


def _arg(argv, flag):
    return int(argv[argv.index(flag) + 1])


def _parse(result):
    """The JSON document of a call that exited 0 and wrote nothing to stderr."""
    code, out, err = result
    if code != 0 or err:
        return None
    try:
        return json.loads(out)
    except ValueError:
        return None


# -- tables --


def _screen_ok(doc, k, ell, bound, exceptional):
    flags = [doc.get(key) for key in ("reducible_candidate", "dihedral_candidate", "small_image_candidate")]
    if not all(isinstance(f, bool) for f in flags):
        return False
    verdict = "possibly exceptional" if exceptional else "likely unexceptional"
    return (
        (doc.get("k"), doc.get("ell"), doc.get("bound")) == (k, ell, bound)
        and doc.get("verdict") == verdict
        and any(flags) == exceptional
    )


def _twist_ok(doc, k, ell):
    i, kp = TWISTS[(k, ell)]
    if (doc.get("k"), doc.get("ell"), doc.get("i"), doc.get("k_prime")) != (k, ell, i, kp):
        return False
    if bool(doc.get("warning")) != ((k, ell) in WARNED):
        return False
    cert = doc.get("certificate") or {}
    bound = ell * (ell + 1) // 12
    head = (cert.get("ell"), cert.get("k1"), cert.get("k2"), cert.get("i"), cert.get("bound"))
    if head != (ell, k, kp, i, bound) or cert.get("extended_terms") != TABLES_EXTENDED:
        return False
    checks = cert.get("checks") or []
    if [c[0] for c in checks] != [p for p in primes_upto(bound) if p != ell]:
        return False
    return all(c[1] == c[2] and 0 <= c[1] < ell for c in checks)


def _verify_ok(doc, k, ell):
    counts = doc.get("counts") or {}
    return (
        (doc.get("k"), doc.get("ell"), doc.get("pmax")) == (k, ell, TABLES_PMAX)
        and tuple(counts.get(key) for key in _COUNT_KEYS) == VERIFY_COUNTS[(k, ell)]
        and doc.get("failures") == []
    )


def _check_tables(argvs, results):
    doc = _parse(results[0])
    n = 3 * len(TABLE_PAIRS)
    if not isinstance(doc, dict) or doc.get("all_passed") is not True:
        return [False] * n
    sections = [doc.get(key) for key in ("screening", "twists", "verification")]
    if any(not isinstance(s, list) or len(s) != len(TABLE_PAIRS) for s in sections):
        return [False] * n
    screens, twists, verifies = sections
    out = [_screen_ok(s, k, ell, TABLES_PBOUND, False) for s, (k, ell) in zip(screens, TABLE_PAIRS)]
    out += [_twist_ok(t, k, ell) for t, (k, ell) in zip(twists, TABLE_PAIRS)]
    out += [_verify_ok(v, k, ell) for v, (k, ell) in zip(verifies, TABLE_PAIRS)]
    return out


# -- series --


def _eisenstein(j, n, ell):
    const, power = _EISENSTEIN[j]
    sigma = [0] * (n + 1)
    for d in range(1, n + 1):
        dp = pow(d, power, ell)
        for m in range(d, n + 1, d):
            sigma[m] += dp
    return [1] + [const * s % ell for s in sigma[1:]]


def _hecke_ok(a, k, ell):
    """a_mn = a_m a_n for coprime m, n and the prime-power recursion."""
    n = len(a) - 1
    spf = list(range(n + 1))
    for p in range(2, int(n**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, n + 1, p):
                if spf[m] == m:
                    spf[m] = p
    for m in range(2, n + 1):
        p = spf[m]
        rest = m
        while rest % p == 0:
            rest //= p
        if rest > 1:
            if a[m] != a[m // rest] * a[rest] % ell:
                return False
        elif m != p and a[m] != (a[p] * a[m // p] - pow(p, k - 1, ell) * a[m // p // p]) % ell:
            return False
    return True


def _identity_ok(a, k, base, eis, ell):
    """The identities of DERIVATION at every prime index.

    The Hecke relations fix every a_n from the a_p, but nothing ties a_p to
    the other coefficients once 2p exceeds the precision; these do.
    """
    for p in primes_upto(len(a) - 1):
        if k == 12:
            lhs = (p - 1) * a[p]
            rhs = sum(map(mul, eis[2][1:p], a[p - 1 : 0 : -1]))
        else:
            lhs = a[p]
            rhs = sum(map(mul, base[1 : p + 1], eis[DERIVATION[k][1]][p - 1 :: -1]))
        if (lhs - rhs) % ell:
            return False
    return True


def _check_series(argvs, results):
    coeffs, ells = {}, set()
    for argv, result in zip(argvs, results):
        k, ell = _arg(argv, "--weight"), _arg(argv, "--ell")
        ells.add(ell)
        doc = _parse(result)
        a = doc.get("coeffs") if isinstance(doc, dict) else None
        shape_ok = (
            isinstance(a, list)
            and len(a) == _arg(argv, "--terms") + 1
            and (doc.get("ell"), doc.get("k")) == (ell, k)
            and all(type(c) is int and 0 <= c < ell for c in a)
            and a[:2] == [0, 1]
        )
        coeffs[k] = a if shape_ok else None
    (ell,) = ells
    eis = {j: _eisenstein(j, _arg(argvs[0], "--terms"), ell) for j in _EISENSTEIN}
    good = {}
    for k in sorted(coeffs):  # each base weight sorts before the weights built on it
        a = coeffs[k]
        base = None
        if k in DERIVATION and good[DERIVATION[k][0]]:
            base = coeffs[DERIVATION[k][0]]
        good[k] = (
            a is not None
            and (k == 12 or base is not None)
            and _hecke_ok(a, k, ell)
            and _identity_ok(a, k, base, eis, ell)
        )
    return [good[_arg(argv, "--weight")] for argv in argvs]


# -- screen-sweep --


def _check_screen(argvs, results):
    out = []
    for argv, result in zip(argvs, results):
        k, ell = _arg(argv, "--weight"), _arg(argv, "--ell")
        doc = _parse(result)
        out.append(isinstance(doc, dict) and _screen_ok(doc, k, ell, SCREEN_PBOUND, ell in EXCEPTIONAL[k]))
    return out


_CHECKS = {"tables": _check_tables, "series": _check_series, "screen-sweep": _check_screen}


def check(workload, argvs, results):
    """One True/False per output of one execution."""
    return _CHECKS[workload](argvs, results)


# -- corrupted outputs --


def _edit(result, change):
    code, out, err = result
    doc = json.loads(out)
    change(doc)
    return [code, json.dumps(doc, indent=2, sort_keys=True), err]


def corruptions(workload, argvs, results, seed):
    """(description, damaged results) pairs; the check must reject each."""
    rng = random.Random(seed)
    cases = []

    def damage(description, index, change):
        damaged = list(results)
        damaged[index] = _edit(results[index], change)
        cases.append((description, damaged))

    if workload == "tables":
        row = rng.randrange(len(TABLE_PAIRS))

        def twist_i(d):
            d["twists"][row]["i"] += 1

        def count(d):
            d["verification"][row]["counts"]["match"] -= 1

        def verdict(d):
            d["screening"][row]["verdict"] = "possibly exceptional"

        def warning(d):
            d["twists"][TABLE_PAIRS.index((22, 11))]["warning"] = None

        damage("twist exponent i off by one", 0, twist_i)
        damage("verification match count off by one", 0, count)
        damage("screening verdict flipped", 0, verdict)
        damage("(22, 11) warning dropped", 0, warning)
    elif workload == "series":
        index = rng.randrange(len(argvs))
        ell = _arg(argvs[index], "--ell")
        n = _arg(argvs[index], "--terms")
        top_prime = primes_upto(n)[-1]

        def bump(m):
            def change(d):
                d["coeffs"][m] = (d["coeffs"][m] + 1) % ell

            return change

        damage(f"a_{top_prime} changed (no Hecke relation reaches it)", index, bump(top_prime))
        damage("a_6 changed (breaks a_6 = a_2 a_3)", index, bump(6))
        damage("a_1 changed (normalization)", index, bump(1))
    else:
        exceptional = [i for i, argv in enumerate(argvs) if _arg(argv, "--ell") in EXCEPTIONAL[_arg(argv, "--weight")]]
        ordinary = [i for i in range(len(argvs)) if i not in exceptional]

        def flip(d):
            d["verdict"] = "likely unexceptional" if d["verdict"] == "possibly exceptional" else "possibly exceptional"

        damage("verdict flipped at an exceptional prime", rng.choice(exceptional), flip)
        damage("verdict flipped at an ordinary prime", rng.choice(ordinary), flip)
    return cases
