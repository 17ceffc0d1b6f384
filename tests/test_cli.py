import argparse
import hashlib
import json
import shutil
import sys
import tracemalloc

import pytest

from thetatwist import cli
from thetatwist.cli import main
from thetatwist.polyverify import (
    BUNDLED_LABELS,
    VerificationReport,
    bundled_record,
    data_path,
    verify_record,
)
from thetatwist.qseries import QExpansion, delta_k
from thetatwist.galrep import ScreeningReport, screen_exceptional
from thetatwist.twist import TwistCertificate, twist_search


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qexp_text(capsys):
    code, out, _ = run(capsys, "qexp", "--weight", "12", "--ell", "13", "--terms", "5")
    assert code == 0
    assert out.strip() == "1, 2, 5, 10, 7"


def test_qexp_single_term(capsys):
    code, out, _ = run(capsys, "qexp", "--weight", "12", "--ell", "13", "--terms", "1")
    assert code == 0
    assert out.strip() == "1"


def test_qexp_json(capsys):
    code, out, _ = run(
        capsys, "qexp", "--weight", "16", "--ell", "13", "--terms", "4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ell"] == 13 and doc["k"] == 16 and doc["N"] == 1
    assert doc["coeffs"][:3] == [0, 1, 8]


def test_qexp_unsupported_weight_exits_2(capsys):
    code, _, err = run(capsys, "qexp", "--weight", "14", "--ell", "13")
    assert code == 2
    assert "weight" in err


def test_twist_search_text(capsys):
    code, out, _ = run(
        capsys, "twist-search", "--weight", "20", "--ell", "17", "--extended", "100"
    )
    assert code == 0
    assert "theta^2 delta_16" in out
    assert "warning" not in out


def test_twist_search_discrepancy_warning(capsys):
    code, out, _ = run(
        capsys, "twist-search", "--weight", "22", "--ell", "11", "--extended", "100"
    )
    assert code == 0
    assert "theta^0 delta_12" in out
    assert "warning" in out and "published" in out


def test_twist_search_json_roundtrip(capsys):
    code, out, _ = run(
        capsys,
        "twist-search", "--weight", "16", "--ell", "13",
        "--extended", "100", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["i"], doc["k_prime"]) == (2, 12)
    cert = TwistCertificate.from_json_dict(doc["certificate"])
    # validate re-proves what was read back, rebuilding both series cold
    delta_k.cache_clear()
    cert.validate()


def test_twist_search_not_found_exits_3(capsys):
    code, _, err = run(capsys, "twist-search", "--weight", "16", "--ell", "7")
    assert code == 3
    assert "no twist pair" in err


def test_verify_poly_bundled(capsys):
    code, out, _ = run(
        capsys, "verify-poly", "--weight", "22", "--ell", "19", "--pmax", "100"
    )
    assert code == 0
    assert "consistent" in out and "0 FAIL" in out


def test_verify_poly_full_text_prints_one_line_per_prime(capsys):
    code, out, _ = run(
        capsys, "verify-poly", "--weight", "16", "--ell", "13", "--pmax", "30", "--full"
    )
    assert code == 0
    summary, *lines = out.splitlines()
    assert summary.startswith("(16, 13) pmax=30: consistent")
    assert lines[0] == "  p=2: match observed=(14,) predicted=(14,)"
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert [line.split(":")[0] for line in lines] == [f"  p={p}" for p in primes]
    assert all(" observed=" in line and " predicted=" in line for line in lines)


def test_verify_poly_json_roundtrip(capsys):
    code, out, _ = run(
        capsys,
        "verify-poly", "--weight", "16", "--ell", "13",
        "--pmax", "60", "--format", "json", "--full",
    )
    assert code == 0
    rep = VerificationReport.from_json_dict(json.loads(out))
    assert rep.ok and rep.pmax == 60


def test_verify_poly_mutated_file_exits_5(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    # bundled (22, 11) with the constant term changed by 1
    bad.write_text(
        "x^{12}-4*x^{11}+55*x^{9}-165*x^{8}+264*x^{7}-341*x^{6}"
        "+330*x^{5}-165*x^{4}-55*x^{3}+99*x^{2}-41*x-110"
    )
    code, out, _ = run(
        capsys,
        "verify-poly", "--weight", "22", "--ell", "11",
        "--pmax", "60", "--poly-file", str(bad),
    )
    assert code == 5
    assert "INCONSISTENT" in out


def test_verify_poly_empty_scan_exits_2(capsys):
    # no prime <= 1, so nothing was compared: no verdict, a usage error
    code, out, err = run(
        capsys, "verify-poly", "--weight", "16", "--ell", "13", "--pmax", "1"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "p <= 1" in err


def test_verify_poly_nonmonic_file_warns_readably(capsys, tmp_path):
    bad = tmp_path / "nonmonic.txt"
    bad.write_text("2*x^{14}+x+1")
    code, out, err = run(
        capsys,
        "verify-poly", "--weight", "16", "--ell", "13",
        "--pmax", "20", "--poly-file", str(bad),
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: labeled records must be monic"]


def test_verify_poly_missing_data_dir_exits_4(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "verify-poly", "--weight", "16", "--ell", "13",
        "--pmax", "10", "--data-dir", str(tmp_path),
    )
    assert code == 4
    assert "pk16_l13.txt" in err


def test_verify_poly_unbundled_label_exits_2(capsys):
    code, out, err = run(
        capsys, "verify-poly", "--weight", "12", "--ell", "5", "--pmax", "20"
    )
    assert code == 2
    assert out == ""
    assert "(12, 5)" in err and "(22, 11)" in err and "Errno" not in err


def test_screen_text(capsys):
    code, out, _ = run(
        capsys, "screen", "--weight", "12", "--ell", "691", "--pbound", "60"
    )
    assert code == 0
    assert "reducible=True" in out and "j=0" in out


def test_screen_empty_scan_exits_2(capsys):
    code, out, err = run(
        capsys, "screen", "--weight", "12", "--ell", "691", "--pbound", "1"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "p <= 1" in err


def test_screen_json_roundtrip(capsys):
    code, out, _ = run(
        capsys,
        "screen", "--weight", "26", "--ell", "23",
        "--pbound", "60", "--format", "json",
    )
    assert code == 0
    rep = ScreeningReport.from_json_dict(json.loads(out))
    assert rep.verdict == "likely unexceptional"


def test_tables_small_run(capsys):
    argv = ["tables", "--pmax", "60", "--pbound", "60", "--extended", "60"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.count("likely unexceptional") == 6
    assert out.count("consistent") == 6
    assert "all checks passed" in out
    # byte-identical across runs
    code2, out2, _ = run(capsys, *argv)
    assert code2 == 0 and out2 == out


def test_tables_json(capsys):
    code, out, _ = run(
        capsys,
        "tables", "--pmax", "40", "--pbound", "40",
        "--extended", "40", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert len(doc["screening"]) == len(doc["twists"]) == len(doc["verification"]) == 6
    found = {(t["k"], t["ell"]): (t["i"], t["k_prime"]) for t in doc["twists"]}
    assert found[(22, 11)] == (0, 12)
    warnings = [t["warning"] for t in doc["twists"] if t["warning"]]
    assert len(warnings) == 1


def _tables_rows(doc):
    """(read back, built in-process) for each screening, certificate and
    verification row of a tables document at pmax, pbound and extended 60."""
    rows = list(zip(BUNDLED_LABELS, doc["screening"], doc["twists"], doc["verification"]))
    assert len(rows) == len(BUNDLED_LABELS)
    for (k, ell), screening, twist, verification in rows:
        yield ScreeningReport.from_json_dict(screening), screen_exceptional(k, ell, 60)
        yield TwistCertificate.from_json_dict(twist["certificate"]), twist_search(k, ell, 60)[2]
        record = bundled_record(k, ell)
        yield VerificationReport.from_json_dict(verification), verify_record(record, k, ell, 60)


@pytest.mark.parametrize(
    "argv, pairs",
    [
        (
            ["qexp", "--weight", "16", "--ell", "13", "--terms", "30"],
            lambda doc: [(QExpansion.from_json_dict(doc), delta_k(16, 13, 30))],
        ),
        (
            ["twist-search", "--weight", "22", "--ell", "11", "--extended", "60"],
            lambda doc: [
                (TwistCertificate.from_json_dict(doc["certificate"]), twist_search(22, 11, 60)[2])
            ],
        ),
        (
            ["verify-poly", "--weight", "22", "--ell", "11", "--pmax", "60", "--full"],
            lambda doc: [
                (VerificationReport.from_json_dict(doc),
                 verify_record(bundled_record(22, 11), 22, 11, 60))
            ],
        ),
        (
            ["screen", "--weight", "26", "--ell", "23", "--pbound", "60"],
            lambda doc: [(ScreeningReport.from_json_dict(doc), screen_exceptional(26, 23, 60))],
        ),
        (
            ["tables", "--pmax", "60", "--pbound", "60", "--extended", "60", "--full"],
            lambda doc: list(_tables_rows(doc)),
        ),
    ],
    ids=["qexp", "twist-search", "verify-poly --full", "screen", "tables --full"],
)
def test_every_json_document_reads_back_as_the_object_built_in_process(argv, pairs, capsys):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    for read, built in pairs(json.loads(out)):
        assert type(read) is type(built) and read == built


def _sha256s(out):
    """sha256 of the bytes written, and of the document re-serialised as
    json.dumps(doc, indent=2, sort_keys=True) + "\n", the layout the tool
    wrote before its documents were one line; the second pins the content."""
    canonical = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in (out, canonical))


@pytest.mark.parametrize(
    "argv, sha256, canonical_sha256",
    [
        (
            ["tables"],
            "7b688684afcf6ae6e1367a1304e0eaaa1d6de59721ba2bfbf54e35ee0fe428fe",
            "4b146e9147a43e967c2efef917cee6fce9f1db92bcfee9e548b95a8a92c0afd3",
        ),
        (
            ["tables", "--pmax", "100", "--pbound", "100", "--extended", "150"],
            "9ed2854150dc08faced504b26fcbda82abe40b8cc17c2e7b2bbe2feae529d988",
            "a7cecc2d43f256f2f72d1daeba778efe0cb96b8c703abd06445c4be502629e56",
        ),
        (
            ["qexp", "--weight", "26", "--ell", "691", "--terms", "700"],
            "efbd37030974e2944465afabb0a23f422eb4ca9e8fe7a0f550da48beb438c2df",
            "75a1af325c3ab663ab26ea72e1e9415bef22b30f33185c423ae29953f78b7eee",
        ),
        (
            ["screen", "--weight", "16", "--ell", "13"],
            "b27bf3e327f1654ad68e516e249452e81d8f4d95bec2e58b8863c2d6e2dbcb3f",
            "6de50b33f940a513142a24a8016d178c60fb809463ca61e4e123b31890b1b8e8",
        ),
        (
            ["twist-search", "--weight", "26", "--ell", "23"],
            "a93c42216ca2e2905e24cedff54efed328c9def356e23f919e6e509bf27d49e6",
            "57a88d9cfaad1d311be63d1b02fcbdbeee40f45fd686e787b37254218ee5a15f",
        ),
    ],
    ids=["defaults", "perfbench sizes", "qexp 26 691", "screen 16 13", "twist-search 26 23"],
)
def test_tables_json_bytes_are_pinned(argv, sha256, canonical_sha256, capsys):
    # cold, then with every series cached at the largest precision asked
    delta_k.cache_clear()
    for _ in range(2):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0 and err == ""
        assert _sha256s(out) == (sha256, canonical_sha256)
    delta_k.cache_clear()


def _mutated_22_11(tmp_path):
    """The bundled (22, 11) record with c_3 raised by 1, written as a poly file."""
    coeffs = list(bundled_record(22, 11).coeffs)
    coeffs[3] += 1
    path = tmp_path / "pk22_l11_c3.txt"
    path.write_text("".join(f"{c:+}*x^{e}" for e, c in enumerate(coeffs) if c))
    return path


@pytest.mark.parametrize(
    "mutated, code, sha256, canonical_sha256",
    [
        # all four non-FAIL statuses, 16 ambiguous passes carrying pattern pairs
        (
            False,
            0,
            "3ee603dc2bc191a9cb783878bda7dbacf0846eb34a88726625e04da829dc7d0b",
            "c3aa7dfba4f22b5f1023ae30a90c4a4e17d5036294be0735288881365749d615",
        ),
        # 40 FAIL rows with their observed patterns
        (
            True,
            5,
            "7ea29857f0fea140984fb54b89304fe04cbd9d832a6630575054bad1415e049a",
            "0f5a1f4f0ece4d02aa5e56de5be9aa7d751497b21e5a74030fcc5a1641344564",
        ),
    ],
    ids=["bundled", "c3 + 1"],
)
def test_verify_poly_full_json_bytes_are_pinned(
    mutated, code, sha256, canonical_sha256, capsys, tmp_path
):
    argv = ["verify-poly", "--weight", "22", "--ell", "11", "--full", "--format", "json"]
    if mutated:
        argv += ["--pmax", "200", "--poly-file", str(_mutated_22_11(tmp_path))]
    got, out, err = run(capsys, *argv)
    assert (got, err) == (code, "")
    assert _sha256s(out) == (sha256, canonical_sha256)
    outcomes = json.loads(out)["outcomes"]
    statuses = [status for _, status, _, _ in outcomes]
    if mutated:
        assert statuses.count("FAIL") == 40
        assert all(obs is not None for _, status, obs, _ in outcomes if status == "FAIL")
    else:
        assert set(statuses) == {"match", "ambiguous-pass", "skipped-ramified", "skipped-ell"}
        pairs = [pred for _, status, _, pred in outcomes if status == "ambiguous-pass"]
        assert len(pairs) == 16 and all(isinstance(pred[0], list) for pred in pairs)


def test_tables_missing_data_exits_4(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "tables", "--pmax", "40", "--pbound", "40",
        "--extended", "40", "--data-dir", str(tmp_path),
    )
    assert code == 4
    assert err.startswith("error:")


def test_tables_scans_a_twin_record_whose_coefficients_differ(capsys, tmp_path):
    # (26, 13) twists to the same delta_12 mod 13 as (16, 13); with its own
    # coefficients changed it must be scanned, not given the (16, 13) report
    for k, ell in BUNDLED_LABELS:
        shutil.copy(data_path(k, ell), tmp_path)
    twin = tmp_path / "pk26_l13.txt"
    text = twin.read_text()
    assert text.count("-215") == 1  # the constant term
    twin.write_text(text.replace("-215", "-214"))
    code, out, err = run(
        capsys,
        "tables", "--pmax", "100", "--pbound", "100", "--extended", "150",
        "--data-dir", str(tmp_path), "--format", "json",
    )
    assert code == 5 and err == ""
    doc = json.loads(out)
    assert doc["all_passed"] is False
    rows = {(row["k"], row["ell"]): row for row in doc["verification"]}
    assert rows[(26, 13)]["failures"] and rows[(26, 13)]["counts"]["fail"] > 0
    assert rows[(16, 13)]["failures"] == [] and rows[(16, 13)]["counts"]["fail"] == 0


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["qexp", "--weight", "12"])  # missing --ell
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["qexp", "--weight", "12", "--ell", "13", "--terms", "0"])
    assert exc.value.code == 2


def test_composite_ell_exits_2(capsys):
    code, _, err = run(capsys, "qexp", "--weight", "12", "--ell", "15")
    assert code == 2
    assert "not prime" in err


@pytest.mark.parametrize(
    "ell, message",
    [
        # psi_12 = 399165290221 * 798330580441 passes the bases 2..37
        (318665857834031151167461, "is not prime"),
        # psi_13 passes the bases 2..41 too: nothing is proved from it up
        (3317044064679887385961981, "is not below 3317044064679887385961981"),
    ],
    ids=["psi_12", "psi_13"],
)
def test_strong_pseudoprime_ell_exits_2(ell, message, capsys):
    code, out, err = run(capsys, "qexp", "--weight", "12", "--ell", str(ell), "--terms", "5")
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith("error: ") and message in line


def test_twist_search_reports_the_weight_before_the_modulus(capsys):
    # delta_k checks the weight first, then proves ell prime
    code, _, err = run(capsys, "twist-search", "--weight", "14", "--ell", "15")
    assert code == 2
    assert "weight 14" in err and "not prime" not in err
    code, _, err = run(capsys, "twist-search", "--weight", "16", "--ell", "15")
    assert code == 2
    assert "15 is not prime" in err


@pytest.mark.parametrize(
    "argv",
    [
        # the twist bound of ell = 1000003 is about 8.3e10 terms
        ["twist-search", "--weight", "16", "--ell", "1000003"],
        ["qexp", "--weight", "12", "--ell", "13", "--terms", str(10**12)],
    ],
)
def test_precision_beyond_memory_exits_2(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: precision ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        "x^99999999999999999999",  # no list of that length can be built
        "x^20000000",  # a list of that length takes about 305 MiB
    ],
)
def test_exponent_beyond_the_label_exits_2(text, capsys, tmp_path):
    poly = tmp_path / "huge.txt"
    poly.write_text(text)
    tracemalloc.start()
    try:
        code, out, err = run(
            capsys, "verify-poly", "--weight", "16", "--ell", "13", "--poly-file", str(poly)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("error: exponent ") and err.count("\n") == 1
    assert "ell + 1 = 14" in err and "Traceback" not in err
    assert peak < 2**20  # refused before a coefficient list is built


def test_repeated_calls_print_the_same_bytes(capsys):
    screen = ["screen", "--weight", "16", "--ell", "13", "--pbound", "100"]
    code, first, _ = run(capsys, *screen)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["qexp", "--help"])
    assert exc.value.code == 0
    assert "--terms" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["screen", "--pbound", "0"])
    assert exc.value.code == 2
    assert "not positive" in capsys.readouterr().err
    code, out, _ = run(capsys, "tables", "--pmax", "30", "--pbound", "30", "--extended", "30")
    assert code == 0 and "all checks passed" in out
    code, again, _ = run(capsys, *screen)
    assert code == 0 and again == first


# One well-formed call per command, spelled in the ways argparse accepts:
# an abbreviated option, --opt=value, flags and choices.
_CALLS = [
    ["qexp", "--wei", "12", "--ell", "13", "--terms", "5"],
    ["twist-search", "--weight", "20", "--ell", "17", "--extended", "100"],
    ["verify-poly", "--weight=16", "--ell=13", "--pmax", "60", "--full", "--format", "json"],
    ["screen", "--weight", "16", "--ell", "13", "--pbound", "100"],
    ["tables", "--pmax", "30", "--pbound", "30", "--extended", "30"],
]

_HELP = [
    ["-h"],
    ["--help"],
    ["-h", "qexp"],
    ["qexp", "-h"],
    ["twist-search", "-h"],
    ["verify-poly", "--help"],
    ["screen", "-h"],
    ["tables", "-h"],
    ["qexp", "--weight", "12", "--bogus", "-h"],
]

_ERRORS = [
    [],
    ["qex"],
    ["bogus"],
    ["--bogus"],
    ["--", "qexp", "--weight", "12", "--ell", "13"],
    ["qexp", "--weight", "12"],
    ["qexp", "--weight"],
    ["qexp", "--weight", "12", "--ell", "13", "--terms", "0"],
    ["qexp", "--weight", "x", "--ell", "13"],
    ["screen", "--weight", "16", "--ell", "13", "--pbound", "-3"],
    ["twist-search", "--weight", "16", "--ell", "13", "--extended"],
    ["tables", "--format", "yaml"],
    ["tables", "--p", "10"],
    ["verify-poly", "--weight", "16", "--ell", "13", "--full=yes"],
    ["qexp", "--weight", "12", "--ell", "13", "--bogus"],
    ["screen", "--weight", "16", "--ell", "13", "extra"],
    ["qexp", "--weight", "12", "--ell", "13", "--", "5"],
    ["qexp", "qexp"],
    ["qexp", "--weight", "12", "--ell", "13", "--terms", "abc"],
    ["tables", "--pmax", "x"],
]


def _exit_of(call, capsys):
    with pytest.raises(SystemExit) as exc:
        call()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, code", [(argv, 0) for argv in _HELP] + [(argv, 2) for argv in _ERRORS]
)
def test_main_prints_what_the_full_parser_prints(argv, code, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    ours = _exit_of(lambda: main(argv), capsys)
    full = _exit_of(lambda: cli.build_parser().parse_args(argv), capsys)
    assert ours == full
    assert ours[0] == code
    assert ours[1 if code == 0 else 2].startswith("usage: thetatwist")
    assert "_positive_int" not in ours[2]


@pytest.mark.parametrize("argv", _CALLS)
def test_main_hands_over_the_full_parsers_namespace(argv, monkeypatch):
    seen = []
    name = argv[0]
    help_text, _, add_arguments = cli._COMMANDS[name]
    monkeypatch.setitem(
        cli._COMMANDS, name, (help_text, lambda args: seen.append(args) or 0, add_arguments)
    )
    assert main(argv) == 0
    full = vars(cli.build_parser().parse_args(argv))
    assert full.pop("command") == name
    assert [vars(args) for args in seen] == [full]


def test_each_command_builds_one_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in _CALLS:
        built.clear()
        assert main(argv) == 0
        assert built == [f"thetatwist {argv[0]}"]
    capsys.readouterr()


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    argv = ["qexp", "--weight", "12", "--ell", "13", "--terms", "5"]
    expected = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["thetatwist", *argv])
    code = main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected
    assert expected == (0, "1, 2, 5, 10, 7\n", "")
