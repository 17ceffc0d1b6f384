"""Command-line front door: qexp, twist-search, verify-poly, screen, tables.

Exit codes are a stable contract: 0 success, 2 usage or unsupported input
(including a scan with no prime to check), 3 search found nothing, 4 I/O
problems, 5 verification failure.  All output is deterministic.  Each
--format json document reads back through a from_json_dict: qexp's through
QExpansion's, screen's ScreeningReport's, verify-poly's VerificationReport's
and twist-search's "certificate" TwistCertificate's; tables lists such rows
under "screening", "twists" and "verification".  A command that fails
prints one "error: ..." line on stderr.  The one warning, the
published-table note on the (22, 11) twist, is output: a "warning: ..."
line on stdout in text, the "warning" key in JSON.  Each JSON document is
json.dumps(doc, sort_keys=True): one line, keys sorted, non-ASCII escaped.

Each call of main builds one parser, for the invoked command only, when the
command name comes first; the full tree of build_parser() is built only for
top-level help and errors, where argparse prints the same bytes either way.
Each command's arguments are declared once, in the _COMMANDS table.
"""

import argparse
import json
import sys

from .errors import NotFound, ThetaTwistError
from .galrep import screen_exceptional
from .polyverify import BUNDLED_LABELS, bundled_record, load_poly_file, verify_record
from .qseries import delta_k
from .twist import published_discrepancy, twist_search

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_FOUND = 3
EXIT_IO = 4
EXIT_VERIFY_FAIL = 5


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:  # argparse would name this function in its message
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not positive")
    return value


def _add_common(p, labelled=True):
    if labelled:
        p.add_argument("--weight", type=int, required=True, help="form weight k")
        p.add_argument("--ell", type=int, required=True, help="prime modulus")
    p.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _qexp_arguments(p):
    _add_common(p)
    p.add_argument("--terms", type=_positive_int, default=100, help="last coefficient index")


def _twist_search_arguments(p):
    _add_common(p)
    p.add_argument(
        "--extended",
        type=_positive_int,
        default=1000,
        help="terms of full series equality to confirm beyond the prime bound",
    )


def _verify_poly_arguments(p):
    _add_common(p)
    p.add_argument("--poly-file", help="polynomial expression file (default: bundled)")
    p.add_argument("--pmax", type=_positive_int, default=1000, help="largest prime to test")
    p.add_argument("--full", action="store_true", help="include per-prime outcomes")
    p.add_argument("--data-dir", help="override the bundled data directory")


def _screen_arguments(p):
    _add_common(p)
    p.add_argument("--pbound", type=_positive_int, default=200, help="prime scan bound")


def _tables_arguments(p):
    _add_common(p, labelled=False)
    p.add_argument("--pmax", type=_positive_int, default=1000, help="verify-poly prime bound")
    p.add_argument("--pbound", type=_positive_int, default=200, help="screening prime bound")
    p.add_argument("--extended", type=_positive_int, default=1000, help="twist equality terms")
    p.add_argument("--full", action="store_true", help="include per-prime outcomes")
    p.add_argument("--data-dir", help="override the bundled data directory")


def build_parser():
    """The full parser: every command as a subparser of `thetatwist`."""
    parser = argparse.ArgumentParser(
        prog="thetatwist",
        description=(
            "mod-ell q-expansions of the level-1 eigenforms, theta-twist "
            "search, and Frobenius-pattern verification of projective "
            "polynomials"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _parse(argv):
    """(command name, namespace) of argv, exiting as argparse does on errors.

    When argv starts with a command name, only that command's parser is
    built.  It is the subparser build_parser() would hand the rest of argv
    to, with the same prog, so help and errors print the same bytes.  All
    else, including arguments left over, which the full parser rejects with
    its own usage line, goes to the full parser.
    """
    if argv and argv[0] in _COMMANDS:
        name = argv[0]
        parser = argparse.ArgumentParser(prog=f"thetatwist {name}")
        _COMMANDS[name][2](parser)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return name, args
    args = build_parser().parse_args(argv)
    return args.command, args


def cmd_qexp(args):
    series = delta_k(args.weight, args.ell, args.terms)
    if args.format == "json":
        print(json.dumps(series.to_json_dict(), sort_keys=True))
    else:
        print(", ".join(map(str, series.coeffs[1:])))
    return EXIT_OK


def _twist_result_doc(k, ell, i, kp, cert, note):
    return {
        "k": k,
        "ell": ell,
        "i": i,
        "k_prime": kp,
        "certificate": cert.to_json_dict(),
        "warning": note,
    }


def cmd_twist_search(args):
    k, ell = args.weight, args.ell
    i, kp, cert = twist_search(k, ell, args.extended)
    note = published_discrepancy(k, ell, i, kp)
    if args.format == "json":
        print(json.dumps(_twist_result_doc(k, ell, i, kp, cert, note), sort_keys=True))
    else:
        print(f"delta_{k} = theta^{i} delta_{kp} (mod {ell})")
        print(
            f"checked primes p <= {cert.bound} (p != {ell}) and "
            f"full series equality to {cert.extended_terms} terms"
        )
        if note:
            print(f"warning: {note}")
    return EXIT_OK


def _render_verify_text(report):
    c = report.counts
    verdict = "consistent" if report.ok else "INCONSISTENT"
    print(
        f"({report.k}, {report.ell}) pmax={report.pmax}: {verdict} -- "
        f"{c['match']} match, {c['ambiguous_pass']} ambiguous-pass, "
        f"{c['skipped_ramified']} ramified skips, {c['skipped_ell']} ell skip, "
        f"{c['fail']} FAIL"
    )
    if report.failures:
        print(f"  failing primes: {', '.join(str(p) for p in report.failures)}")


def cmd_verify_poly(args):
    k, ell = args.weight, args.ell
    if args.poly_file:
        record = load_poly_file(args.poly_file, k=k, ell=ell)
    else:
        record = bundled_record(k, ell, args.data_dir)
    report = verify_record(record, k, ell, args.pmax)
    if args.format == "json":
        print(json.dumps(report.to_json_dict(full=args.full), sort_keys=True))
    else:
        _render_verify_text(report)
        if args.full:
            for p, status, obs, pred in report.outcomes:
                print(f"  p={p}: {status} observed={obs} predicted={pred}")
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL


def _render_screen_text(rep):
    print(
        f"({rep.k}, {rep.ell}) primes to {rep.bound}: {rep.verdict} "
        f"[reducible={rep.reducible_candidate} (j={rep.reducible_j}), "
        f"dihedral={rep.dihedral_candidate}, "
        f"small-image={rep.small_image_candidate}]"
    )


def cmd_screen(args):
    rep = screen_exceptional(args.weight, args.ell, args.pbound)
    if args.format == "json":
        print(json.dumps(rep.to_json_dict(), sort_keys=True))
    else:
        _render_screen_text(rep)
        print("  (heuristic congruence screen; bounded scan, not a proof)")
    return EXIT_OK


def cmd_tables(args):
    screens = []
    twists = []
    verifies = []
    verified = {}
    for k, ell in BUNDLED_LABELS:
        # the twist certificate asks for delta_k at the largest precision
        # first, so the screen and the verification read truncations of it
        i, kp, cert = twist_search(k, ell, args.extended)
        twists.append((k, ell, i, kp, cert, published_discrepancy(k, ell, i, kp)))
        screens.append(screen_exceptional(k, ell, args.pbound))
        record = bundled_record(k, ell, args.data_dir)
        # The certificate proves delta_k = theta^i delta_k' mod ell, so
        # a_p(delta_k) = p^i a_p(delta_k') and p^(k-1) = p^(2i) p^(k'-1): at
        # every p != ell, t^2/d is unchanged and t^2 - 4d gains the square
        # p^(2i), so the Frobenius class, the predicted pattern and each
        # outcome are unchanged too.
        # A record already verified for the same (ell, k') and coefficients
        # is not scanned again; its report is relabelled with k.
        key = (ell, kp, record.coeffs)
        if key not in verified:
            verified[key] = verify_record(record, k, ell, args.pmax)
        verifies.append(verified[key]._replace(k=k))
    ok = all(r.verdict == "likely unexceptional" for r in screens) and all(r.ok for r in verifies)

    if args.format == "json":
        doc = {
            "screening": [rep.to_json_dict() for rep in screens],
            "twists": [
                _twist_result_doc(k, ell, i, kp, cert, note)
                for k, ell, i, kp, cert, note in twists
            ],
            "verification": [rep.to_json_dict(full=args.full) for rep in verifies],
            "all_passed": ok,
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"== exceptional-prime screening (primes to {args.pbound}) ==")
        for rep in screens:
            _render_screen_text(rep)
        print("== theta-twist relations ==")
        for k, ell, i, kp, cert, note in twists:
            line = f"({k}, {ell}): delta_{k} = theta^{i} delta_{kp} (mod {ell})"
            print(line)
            if note:
                print(f"  warning: {note}")
        print(f"== polynomial verification (pmax={args.pmax}) ==")
        for rep in verifies:
            _render_verify_text(rep)
        print("all checks passed" if ok else "SOME CHECKS FAILED")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


#: name: (help line, handler, function that adds the command's arguments)
_COMMANDS = {
    "qexp": ("print coefficients of delta_k mod ell", cmd_qexp, _qexp_arguments),
    "twist-search": (
        "find (i, k') with delta_k = theta^i delta_k'",
        cmd_twist_search,
        _twist_search_arguments,
    ),
    "verify-poly": (
        "check a polynomial against Frobenius patterns",
        cmd_verify_poly,
        _verify_poly_arguments,
    ),
    "screen": ("heuristic exceptional-prime screening", cmd_screen, _screen_arguments),
    "tables": (
        "reproduce the screening/twist/polynomial tables",
        cmd_tables,
        _tables_arguments,
    ),
}


def main(argv=None):
    name, args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return _COMMANDS[name][1](args)
    except NotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ThetaTwistError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
