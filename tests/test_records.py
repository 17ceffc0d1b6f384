"""Value semantics of the four record classes, and the package's import graph."""

import json
import os
import subprocess
import sys

import pytest

from thetatwist import (
    BUNDLED_LABELS,
    ProjPolyRecord,
    ScreeningReport,
    TwistCertificate,
    VerificationReport,
    bundled_record,
    screen_exceptional,
    twist_search,
    verify_record,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: modules that cost tens of ms to import in a clean interpreter, none of
#: which the package needs
HEAVY = {"dataclasses", "inspect", "typing", "importlib.resources", "pathlib"}


def _reports():
    record = bundled_record(16, 13)
    return {
        ScreeningReport: screen_exceptional(16, 13, 50),
        VerificationReport: verify_record(record, 16, 13, 50),
        TwistCertificate: twist_search(16, 13, extended=50)[2],
    }


def _records():
    """One instance of each of the four classes, with the name of a field."""
    reports = _reports()
    return [
        (bundled_record(16, 13), "coeffs"),
        (reports[ScreeningReport], "verdict"),
        (reports[VerificationReport], "counts"),
        (reports[TwistCertificate], "checks"),
    ]


def test_import_and_bundled_records_load_no_heavy_modules():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import thetatwist\n"
        f"for k, ell in {BUNDLED_LABELS!r}:\n"
        "    thetatwist.bundled_record(k, ell)\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert "thetatwist.polyverify" in loaded
    assert not loaded & HEAVY


RECORDS = _records()
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, field", RECORDS, ids=IDS)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record, field", RECORDS, ids=IDS)
def test_records_are_named_tuples(record, field):
    assert record == tuple(record)
    assert record[record._fields.index(field)] is getattr(record, field)
    assert record._replace(**record._asdict()) == record


def test_records_keep_their_repr_and_defaults():
    record = ProjPolyRecord((1, 0, 1))
    assert repr(record) == "ProjPolyRecord(coeffs=(1, 0, 1), k=None, ell=None)"
    assert (record.k, record.ell, record.degree) == (None, None, 2)


@pytest.mark.parametrize("cls", [ScreeningReport, VerificationReport, TwistCertificate])
def test_reports_round_trip_through_json_text(cls):
    report = _reports()[cls]
    again = cls.from_json_dict(json.loads(json.dumps(report.to_json_dict())))
    assert type(again) is cls
    if cls is VerificationReport:  # the per-prime outcomes travel only in full
        assert again.outcomes == () and again.counts == report.counts
        again = cls.from_json_dict(json.loads(json.dumps(report.to_json_dict(full=True))))
    assert again == report

