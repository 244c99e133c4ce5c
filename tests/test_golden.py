"""Byte gate for the pairing sweeps, the tracked spectrum and the catalog.

Runs seed-0 jobs of the benchmark workloads (``bench/jobs.py``) and compares
the sha256 of every report and CSV with ``bench/golden.json``.  B13 of
``sweep-monomial`` is the seed-0 pairing that ends uncertified, so its bytes
pin that path too.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import jobs  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload, name", [
    ("sweep-monomial", "B0"),
    ("sweep-monomial", "B13"),
    ("sweep-wedge", "B0"),
    ("spectrum-tracked", "B0"),
    # the catalog's jobs are the CLI defaults of five commands
    ("catalog", "deficiency"),
    ("catalog", "boundary-matrix"),
    ("catalog", "spectrum"),
    ("catalog", "verify-ksum"),
    ("catalog", "pair"),
])
def test_seed_zero_artifacts_match_golden(tmp_path, workload, name):
    job = next(j for j in jobs.workload_jobs(workload, 0) if j.name == name)
    outcome = jobs.run_job(job, str(tmp_path))
    assert jobs.golden_mismatch(GOLDEN[workload][name], outcome) is None
