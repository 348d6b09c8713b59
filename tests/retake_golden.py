"""Rewrite the golden record files ``tests/golden/*.txt`` from the code on the path.

    PYTHONPATH=src python tests/retake_golden.py

Run it only for a change meant to move golden records.  It prints each record
that moved (file, index, label, old -> new outcome) and both new digests, to
paste into ``test_cli.TestGoldenReports.DIGEST`` and ``test_golden_values.DIGEST``.
"""

import os

import test_cli
import test_golden_values
from helpers import golden_digest, write_golden

os.environ.pop("WPROJ_CENSUS_LIMIT", None)
for name, records, owner in (
    ("reports.txt", test_cli.TestGoldenReports.records(), "test_cli.TestGoldenReports.DIGEST"),
    ("values.txt", test_golden_values.records(), "test_golden_values.DIGEST"),
):
    for line in write_golden(name, records):
        print(f"{name} {line}")
    print(f"{owner} = {golden_digest(records)!r}")
