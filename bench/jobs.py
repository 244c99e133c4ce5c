"""Workloads of the extlab benchmark: seeded job lists, the in-process job
runner, and the checks every job's output must pass.

A workload is a list of jobs.  A job is one ``extlab`` CLI invocation,
``cli.main(argv)`` in this process, with a generated JSON config; a
``spectrum-tracked`` job additionally runs the finite-difference oracle on the
extension it reported.  The seed goes only into the configs.  The sweeps and
``spectrum-tracked`` run one CLI call per Haar boundary matrix, drawn as the
first ``haar_unitary`` of ``default_rng(1000 * seed + i)``, so that a run holds
many short reports; ``catalog`` at seed 0 runs the CLI's default configs (the
``seed`` key is omitted, the CLI default being 0).
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from extlab import cli, spectral, vonneumann
from extlab.analysis import Partition

WORKLOADS = ("sweep-monomial", "sweep-wedge", "spectrum-tracked", "catalog")

SWEEP_MONOMIAL_B = 20        # one report per B, each pairing z^-3 .. z^3
SWEEP_MONOMIAL_LOOPS = 7
SWEEP_WEDGE_B = 10           # one report per B, each pairing 25 wedge loops
SWEEP_WEDGE_LOOPS = 25

TRACKED_PARTITION = [0.0, 0.3, 0.55, 1.0]
TRACKED_WINDOW = [-60.0, 60.0]
TRACKED_B = 3
FD_N = 2048
FD_WINDOW = (-30.0, 30.0)
FD_TOL = 2.0 * math.pi * 0.02        # acceptance criterion 8's lattice bound

KSUM_CHECKS = 604
CERTIFIED_METHODS = ("finite-section", "symbol-winding", "extension-independence")


@dataclass(frozen=True)
class Job:
    name: str        # unique within its workload
    kind: str        # what its output is checked as
    argv: tuple      # CLI words before --config/--out
    config: dict
    items: int = 1   # operations it attempts: pairings, or 1


def _seeded(config: dict, seed: int) -> dict:
    out = dict(config)
    if seed:
        out["seed"] = seed
    return out


def b_seed(seed: int, i: int) -> int:
    """The seed of the i-th Haar boundary matrix of a workload at ``seed``."""
    return 1000 * seed + i


def workload_jobs(workload: str, seed: int):
    """The job list one pass of ``workload`` runs at ``seed``."""
    if workload == "sweep-monomial":
        return [Job(f"B{i}", "extension-independence", ("verify", "extension-independence"),
                    {"suite": {"count": 1, "extension_seed": b_seed(seed, i)}},
                    SWEEP_MONOMIAL_LOOPS)
                for i in range(SWEEP_MONOMIAL_B)]
    if workload == "sweep-wedge":
        return [Job(f"B{i}", "addition-dirac", ("verify", "addition-dirac"),
                    {"suite": {"count": 1, "extension_seed": b_seed(seed, i)}},
                    SWEEP_WEDGE_LOOPS)
                for i in range(SWEEP_WEDGE_B)]
    if workload == "spectrum-tracked":
        return [Job(f"B{i}", "spectrum-tracked", ("spectrum",), {
                    "partition": TRACKED_PARTITION,
                    "extensions": [{"random": {"count": 1, "seed": b_seed(seed, i)}}],
                    "window": TRACKED_WINDOW,
                }) for i in range(TRACKED_B)]
    if workload == "catalog":
        return [
            Job("deficiency", "deficiency", ("deficiency",), _seeded({}, seed)),
            Job("boundary-matrix", "boundary-matrix", ("boundary-matrix",), _seeded({}, seed)),
            Job("spectrum", "spectrum", ("spectrum",), _seeded({}, seed)),
            Job("verify-ksum", "verify-ksum", ("verify", "ksum"), _seeded({}, seed)),
            Job("pair", "pair", ("pair",), _seeded({"loop": {"monomial": 2}}, seed)),
        ]
    raise ValueError(f"unknown workload {workload!r} (one of {', '.join(WORKLOADS)})")


# ---------------------------------------------------------------------------
# running a job
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one job produced, and whether it passed its checks."""

    job: Job
    seconds: float
    code: int = None
    stdout: str = ""
    artifacts: dict = field(default_factory=dict)    # file name -> text
    certified: int = 0     # operations with a certified, correct answer
    started: float = None      # perf_counter() at the start of the timed span
    cost: float = None         # the timed span in reference-kernel times (``ref``)
    errors: list = field(default_factory=list)   # no certified answer
    wrong: list = field(default_factory=list)    # an answer or its bytes wrong
    _digests: dict = field(default=None, repr=False)

    @property
    def failed(self) -> bool:
        return bool(self.errors or self.wrong)

    @property
    def failed_items(self) -> int:
        """Operations of the job without a certified, correct answer."""
        return self.job.items - self.certified

    def digests(self) -> dict:
        if self._digests is not None:
            return self._digests
        return {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
                for name, text in sorted(self.artifacts.items())}

    def release(self):
        """Drop the artifact texts once checked; the digests stay."""
        self._digests = self.digests()
        self.stdout, self.artifacts = "", {}


def run_job(job: Job, workdir: str, extra_argv=()) -> Outcome:
    """Run one job in this process and check its output.

    The timed span is the CLI call plus, for ``spectrum-tracked``, the
    finite-difference oracle; writing the config and reading the artifacts
    back are outside it.  A job whose answers are not counted one by one
    (every kind but the pairing sweeps) certifies its one operation when it
    passes every check.
    """
    out_dir = os.path.join(workdir, job.name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    config_path = os.path.join(workdir, job.name + ".json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(job.config, fh)
    argv = [*job.argv, "--config", config_path, "--out", out_dir, *extra_argv]

    stdout, stderr = io.StringIO(), io.StringIO()
    code, error, fd_spectra = None, None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
            if job.kind == "spectrum-tracked" and code == 0:
                fd_spectra = _fd_oracle(job.config)
    except SystemExit as exc:                  # argparse rejects the flags
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:                   # an uncaught error is a failed job
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0

    outcome = Outcome(job, seconds, code, stdout.getvalue(), started=t0)
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as fh:
            outcome.artifacts[name] = fh.read()
    if error is not None:
        outcome.errors.append("uncaught exception: " + error)
        return outcome
    if code != 0:
        tail = stderr.getvalue().strip().splitlines()
        outcome.errors.append(f"exit code {code}" + (f": {tail[-1]}" if tail else ""))
    if "report.json" in outcome.artifacts:
        _check(outcome, fd_spectra)
    if job.kind not in PAIRING_SWEEPS:
        outcome.certified = 0 if outcome.failed else job.items
    return outcome


def _fd_oracle(config: dict):
    """Finite-difference spectrum of the extension the tracked job reported.

    The CLI draws it as ``haar_unitary(default_rng(seed), n)`` and labels it
    ``seed<seed>-0``.
    """
    spec = vonneumann.OperatorSpec(Partition(tuple(config["partition"])))
    seed = config["extensions"][0]["random"]["seed"]
    u = vonneumann.haar_unitary(np.random.default_rng(seed), spec.deficiency_index)
    ext = vonneumann.build_extension(spec, u)
    return {f"seed{seed}-0": spectral.fd_spectrum(ext, FD_N, FD_WINDOW).eigenvalues}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _csv_rows(text: str):
    return list(csv.DictReader(io.StringIO(text)))


def _check(outcome: Outcome, fd_spectra):
    """Check the report of a job that wrote one.

    A pairing or spectrum the program declined to certify is an error; an
    answer that disagrees with the expected value or with the oracle is wrong.
    """
    wrong = outcome.wrong
    report_text = outcome.artifacts["report.json"]
    if outcome.stdout != report_text:
        wrong.append("stdout differs from report.json")
    report = json.loads(report_text)
    if report.get("status") != "pass":
        outcome.errors.append(f"report status {report.get('status')!r}")
    result = report.get("result", {})
    kind = outcome.job.kind
    if kind in PAIRING_SWEEPS:
        outcome.certified = _check_pairings(
            outcome, outcome.artifacts.get(f"verify-{kind}.csv", ""),
            outcome.job.items, PAIRING_SWEEPS[kind])
    elif kind == "spectrum-tracked":
        if fd_spectra is not None:
            _check_fd(wrong, outcome.artifacts.get("spectrum.csv", ""), fd_spectra)
    elif kind == "deficiency":
        if result.get("indices") != [2, 2]:
            wrong.append(f"defect indices {result.get('indices')}")
    elif kind == "verify-ksum":
        if result.get("checks") != KSUM_CHECKS or result.get("failures"):
            wrong.append(f"ksum: {result.get('checks')} checks, "
                         f"{len(result.get('failures', []))} failures")
    elif kind == "pair":
        _check_pairings(outcome, outcome.artifacts.get("pair.csv", ""), 1, _expected_monomial)
    elif kind not in ("boundary-matrix", "spectrum"):
        wrong.append(f"no check for job kind {kind!r}")


def _expected_monomial(loop_label: str) -> int:
    return -int(loop_label[len("z^"):])          # "z^n"


def _expected_wedge(loop_label: str) -> int:
    n1, n2 = loop_label[len("wedge(z^"):-1].split("|z^")   # "wedge(z^a|z^b)"
    return -(int(n1) + int(n2))


PAIRING_SWEEPS = {"extension-independence": _expected_monomial,
                  "addition-dirac": _expected_wedge}


def _check_pairings(outcome, csv_text, expected_rows, expected_index) -> int:
    """Every row certified, with index == expected == -winding."""
    rows = _csv_rows(csv_text)
    if len(rows) != expected_rows:
        outcome.wrong.append(f"{len(rows)} pairing rows, expected {expected_rows}")
    certified = 0
    for row in rows:
        expect = expected_index(row["loop"])
        if row["method"] not in CERTIFIED_METHODS:
            outcome.errors.append(f"uncertified pairing {row['loop']} x {row['B-seed']}")
        elif row["index"] != str(expect) or row["winding"] != str(-expect):
            outcome.wrong.append(f"wrong pairing {row['loop']} x {row['B-seed']}: "
                                 f"index {row['index']}, expected {expect}")
        else:
            certified += 1
    return certified


def _check_fd(wrong, csv_text, fd_spectra) -> int:
    """Count match and lattice error < FD_TOL, the way criterion 8 checks.

    A characteristic eigenvalue within FD_TOL of a window edge may fall on
    either side of it in the finite-difference spectrum, so the count must lie
    between the strictly-inner and the widened counts.
    """
    lo, hi = FD_WINDOW
    exact = {}
    for row in _csv_rows(csv_text):
        exact.setdefault(row["B-label"], []).extend(
            [float(row["lambda"])] * int(row["multiplicity"]))
    passed = 0
    for label, fd in sorted(fd_spectra.items()):
        ex = np.asarray(exact.get(label, []))
        inner = ex[(ex >= lo + FD_TOL) & (ex <= hi - FD_TOL)]
        widened = ex[(ex >= lo - FD_TOL) & (ex <= hi + FD_TOL)]
        if not len(fd) or not len(inner) <= len(fd) <= len(widened):
            wrong.append(f"{label}: {len(fd)} finite-difference eigenvalues, "
                         f"expected {len(inner)}..{len(widened)}")
            continue
        err = max([float(np.min(np.abs(fd - lam))) for lam in inner]
                  + [float(np.min(np.abs(ex - mu))) for mu in fd])
        if err >= FD_TOL:
            wrong.append(f"{label}: lattice error {err:.3g} >= {FD_TOL:.3g}")
            continue
        passed += 1
    if passed != len(fd_spectra) and not wrong:
        wrong.append(f"{passed} of {len(fd_spectra)} spectra cross-checked")
    return passed


def fail_frac(outcomes) -> float:
    """Failed operations / attempted operations."""
    return sum(o.failed_items for o in outcomes) / sum(o.job.items for o in outcomes)


# ---------------------------------------------------------------------------
# byte identity
# ---------------------------------------------------------------------------

def golden_mismatch(expected: dict, outcome: Outcome):
    """None if the artifact digests equal ``expected``, else a description."""
    got = outcome.digests()
    if got == expected:
        return None
    names = sorted(set(got) | set(expected))
    bad = [n for n in names if got.get(n) != expected.get(n)]
    return "artifact bytes differ: " + ", ".join(bad)
