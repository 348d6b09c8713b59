"""Rewrite the golden record files ``tests/golden/*.txt`` from the code on the path.

    PYTHONPATH=src python tests/retake_golden.py

Run it only for a change meant to move golden records.  ``git diff tests/golden``
then names each record that moved; re-take the matching ``DIGEST`` with it.
"""

import os

import test_cli
import test_golden_values
from helpers import write_golden

os.environ.pop("WPROJ_CENSUS_LIMIT", None)
write_golden("reports.txt", test_cli.TestGoldenReports.records())
write_golden("values.txt", test_golden_values.records())
