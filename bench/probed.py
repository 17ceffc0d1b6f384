"""One fresh-process run of thetatwist, timed at perfbench's reference speed.

    PYTHONPATH=src python bench/probed.py cli tables
    PYTHONPATH=src python -S bench/probed.py import

With `cli ARGS...` it imports thetatwist.cli and calls main(ARGS), which
prints to this process's stdout as the installed command does, and exits
with its code.  With `import` it imports thetatwist, loads the six bundled
records and prints the label and degree of each.  Either way the work runs
under perfbench's SpeedProbe, and the last line of stderr is JSON:
{"elapsed": seconds from starting the probe to stopping it, "probe_s": the
time its samples took, "speed": the mean share of the reference speed they
found}.  (elapsed - probe_s) * speed is the run's time at reference speed.

Nothing is imported ahead of the probe but sys and the probe itself, whose
signal module brings enum, functools and collections along, so under -S
those are loaded before the timed region starts.  The interpreter's own
start-up is outside it too; the caller's wall clock covers both.
"""

import sys
import time

sys.path.insert(0, __file__.rpartition("/")[0] + "/../perfbench")
from probe import SpeedProbe  # noqa: E402


def _import_records():
    import thetatwist

    for k, ell in thetatwist.BUNDLED_LABELS:
        record = thetatwist.bundled_record(k, ell)
        print(k, ell, record.degree)
    return 0


def _cli(argv):
    from thetatwist.cli import main

    return main(argv)


def run(argv):
    if not argv or argv[0] not in ("cli", "import"):
        sys.exit("usage: probed.py cli ARGS... | probed.py import")
    mode, args = argv[0], argv[1:]
    probe = SpeedProbe()
    start = time.perf_counter()
    probe.start()
    code = _import_records() if mode == "import" else _cli(args)
    sys.stdout.flush()
    probe.stop()
    elapsed = time.perf_counter() - start
    # formatted by hand: importing json would add re to the raw wall time
    print(
        '{"elapsed": %r, "probe_s": %r, "speed": %r}' % (elapsed, probe.spent, probe.speed()),
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
