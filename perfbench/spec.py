"""What the benchmark measures: workloads, metrics, bounds and predictions.

This module is the one source of these names.  ``record.py`` writes them to
``BENCHMARK.json``; ``run.py`` emits exactly these metrics.
"""

RUN_SECONDS = 30

#: Workloads in the order ``record.py`` runs them, each with why it was chosen.
WORKLOADS = (
    (
        "tables",
        "thetatwist tables for the paper's six pairs at pmax 100, pbound 100, extended "
        "150: the reproduction run scaled down, about 85 % polyverify.ddf",
    ),
    (
        "series",
        "qexp --terms 700 for all six weights at one seeded prime above 256: pure "
        "qseries, where a faster series product shows",
    ),
    (
        "screen-sweep",
        "screen --pbound 200 for six weights x every 7th prime in 5..300, in seeded order: "
        "galrep and ffield classification over many distinct cache keys",
    ),
)

#: The per-layer time each workload was chosen to load; the traced run prints
#: its share of traced wall time.
LOADED = {
    "tables": "polyverify.ddf.s",
    "series": "qseries.delta_k.s",
    "screen-sweep": "galrep.frobenius_class.s",
}

#: (name, unit, better, bound): metrics a user of the CLI sees.
END_TO_END = (
    ("wall_s", "s", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)

#: (name, unit, better): metrics of single layers, from the traced run.
#: ``<layer>.<function>.{calls,s,self_s}`` come from spans around that public
#: function; the other names are counters or ratios taken at the same calls.
PER_LAYER = (
    ("qseries.delta_k.calls", "count", "lower"),
    ("qseries.delta_k.s", "s", "lower"),
    ("qseries.delta_k.self_s", "s", "lower"),
    ("qseries.eisenstein.calls", "count", "lower"),
    ("qseries.eisenstein.s", "s", "lower"),
    ("qseries.series_mul.calls", "count", "lower"),
    ("qseries.series_mul.s", "s", "lower"),
    ("qseries.series_mul.terms", "count", "lower"),
    ("twist.twist_search.calls", "count", "lower"),
    ("twist.twist_search.s", "s", "lower"),
    ("twist.twist_search.self_s", "s", "lower"),
    ("twist.check_twist.calls", "count", "lower"),
    ("twist.check_twist.s", "s", "lower"),
    ("twist.primes_checked", "count", "lower"),
    ("polyverify.verify_record.s", "s", "lower"),
    ("polyverify.verify_record.self_s", "s", "lower"),
    ("polyverify.reduce_mod.s", "s", "lower"),
    ("polyverify.is_squarefree_mod.calls", "count", "lower"),
    ("polyverify.is_squarefree_mod.s", "s", "lower"),
    ("polyverify.ddf.calls", "count", "lower"),
    ("polyverify.ddf.s", "s", "lower"),
    ("polyverify.ddf.self_s", "s", "lower"),
    ("polyverify.bundled_record.s", "s", "lower"),
    ("polyverify.primes_scanned", "count", "higher"),
    ("polyverify.skipped_ramified", "count", "lower"),
    ("polyverify.ambiguous_pass", "count", "lower"),
    ("polyverify.fail", "count", "lower"),
    ("polyverify.ddf_per_prime", "ratio", "lower"),
    ("polyverify.sqfree_per_prime", "ratio", "lower"),
    ("galrep.screen_exceptional.calls", "count", "lower"),
    ("galrep.screen_exceptional.s", "s", "lower"),
    ("galrep.screen_exceptional.self_s", "s", "lower"),
    ("galrep.frobenius_class.calls", "count", "lower"),
    ("galrep.frobenius_class.s", "s", "lower"),
    ("galrep.frobenius_class.self_s", "s", "lower"),
    ("galrep.charpol_data.s", "s", "lower"),
    ("ffield.primes_upto.calls", "count", "lower"),
    ("ffield.primes_upto.s", "s", "lower"),
    ("ffield.sqrt_mod.calls", "count", "lower"),
    ("ffield.sqrt_mod.s", "s", "lower"),
    ("ffield.mult_order.calls", "count", "lower"),
    ("ffield.mult_order.s", "s", "lower"),
    ("ffield.quad_mult_order.calls", "count", "lower"),
    ("ffield.quad_mult_order.s", "s", "lower"),
    ("ffield.legendre.calls", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
)

#: Which per-layer metrics should move which end-to-end metric on which
#: workload, with the share of wall_s the layer held when the benchmark was
#: defined.  A workload absent from "moves" is predicted not to change.
PREDICTIONS = (
    {
        "layer": "qseries",
        "per_layer": [
            "qseries.delta_k.s",
            "qseries.delta_k.self_s",
            "qseries.series_mul.s",
            "qseries.series_mul.terms",
            "qseries.eisenstein.s",
        ],
        "end_to_end": "wall_s",
        "moves": {"series": "about 96 %", "screen-sweep": "about 28 %", "tables": "about 7 %"},
        "also": "peak_rss_mb on screen-sweep, where many distinct (k, ell) keys fill the series caches",
    },
    {
        "layer": "twist",
        "per_layer": [
            "twist.twist_search.s",
            "twist.twist_search.self_s",
            "twist.check_twist.s",
            "twist.primes_checked",
        ],
        "end_to_end": "wall_s",
        "moves": {"tables": "twist_search time, almost all of it delta_k"},
    },
    {
        "layer": "polyverify",
        "per_layer": [
            "polyverify.verify_record.s",
            "polyverify.verify_record.self_s",
            "polyverify.ddf.s",
            "polyverify.ddf.self_s",
            "polyverify.ddf_per_prime",
            "polyverify.sqfree_per_prime",
            "polyverify.is_squarefree_mod.s",
        ],
        "end_to_end": "wall_s",
        "moves": {"tables": "about 84 % in polyverify.ddf"},
        "also": "a pattern memo lowers polyverify.ddf_per_prime below 1 on tables; "
        "dropping the repeated gcd(f, f') brings polyverify.sqfree_per_prime from about 2 to about 1",
    },
    {
        "layer": "galrep",
        "per_layer": [
            "galrep.screen_exceptional.s",
            "galrep.screen_exceptional.self_s",
            "galrep.frobenius_class.s",
            "galrep.frobenius_class.self_s",
            "galrep.charpol_data.s",
        ],
        "end_to_end": "wall_s",
        "moves": {"screen-sweep": "about 58 % in galrep.frobenius_class", "tables": "about 5 %"},
    },
    {
        "layer": "ffield",
        "per_layer": [
            "ffield.sqrt_mod.s",
            "ffield.mult_order.s",
            "ffield.quad_mult_order.s",
            "ffield.legendre.calls",
            "ffield.primes_upto.s",
        ],
        "end_to_end": "wall_s",
        "moves": {"screen-sweep": "children of galrep.frobenius_class"},
    },
    {
        "layer": "cli",
        "per_layer": ["cli.main.self_s"],
        "end_to_end": "wall_s",
        "moves": {"screen-sweep": "argument parsing and JSON rendering of 54 calls"},
    },
)
