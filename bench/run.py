"""extlab benchmark: run one seeded workload and print its metrics.

    python3 bench/run.py --workload sweep-monomial --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; extlab is imported from ``src/``.
With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
The lines before it give every metric with its unit and sample count, and the
environment.  Spans, the full result and the job artifacts are written under
``.bench_out/``.  ``--record-golden`` rewrites ``bench/golden.json`` from one
seed-0 pass of every workload.  See ``bench/README.md``.
"""

import argparse
import bisect
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"

SETUP_REPEATS = 15
SETUP_CODE = (
    "import extlab, extlab.cli, scipy.sparse, scipy.sparse.linalg\n"
    "print(extlab.__file__, flush=True)\n"
)
REFERENCE_EVERY_S = 0.25     # the reference kernel runs between jobs this often
PROBE_EVERY_S = 0.1          # and inside a job this often
WARMUP_S = 1.0

END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower"},
    {"name": "reports_per_kref", "unit": "1/kref", "better": "higher"},
    {"name": "report_ref.p50", "unit": "ref", "better": "lower"},
    {"name": "report_ref.p90", "unit": "ref", "better": "lower"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds() -> float:
    """Fresh interpreter until extlab and its lazy scipy.sparse imports are in."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("a fresh interpreter did not exit after importing extlab")
    if proc.returncode != 0 or not Path(line.strip()).resolve().is_relative_to(SRC):
        raise BenchError(f"cannot import extlab from {SRC}: {err.strip() or line.strip()}")
    return seconds


# ---------------------------------------------------------------------------
# the reference kernel
# ---------------------------------------------------------------------------

class Reference:
    """A fixed computation, timed between jobs and inside them.

    The machine's speed can change by half within a second and stay changed
    for tens of seconds, and job times follow it.  The kernel is read between
    jobs and, every PROBE_EVERY_S, from a timer signal inside a job.  Each
    stretch of a job between two readings is divided by their mean, and the
    sum is the job's cost in ``ref``: how many reference kernels would run in
    the same time.  The time of readings inside a job is not the job's.

    The kernel mixes what extlab spends its time on: small complex SVDs with
    interpreted Python between them, a larger SVD, and vectorised complex
    exponentials on arrays bigger than the L2 cache.  A slowdown does not hit
    these equally, and the mix follows the jobs better than any one of them.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        self._large = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))
        self._phases = 1j * rng.standard_normal(100_000)
        self._svd = np.linalg.svd       # the original, also while a tracer patches numpy
        self._exp = np.exp

    def seconds(self) -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            self._svd(self._small)
            sum(i * i for i in range(1500))
        self._svd(self._large)
        self._exp(self._phases)
        return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

class Runner:
    """Runs a workload's jobs round-robin and keeps every outcome.

    Each outcome's artifact bytes are compared with the golden digests at
    seed 0 and with the first outcome of the same job in this run.
    """

    def __init__(self, workload, seed, golden=None, extra_argv=()):
        import jobs
        self.jobs_module = jobs
        self.workload = workload
        self.jobs = jobs.workload_jobs(workload, seed)
        self.seed = seed
        self.golden = golden            # job name -> artifact digests, or None
        self.extra_argv = tuple(extra_argv)
        self.workdir = OUT / "work" / workload
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.reference = Reference()
        self.first = {}
        self.outcomes = []
        self.next_job = 0               # round-robin position
        self._readings = []             # (start, end, seconds), in time order
        self._uncosted = []

    def _read(self):
        t0 = time.perf_counter()
        seconds = self.reference.seconds()
        self._readings.append((t0, time.perf_counter(), seconds))

    def _read_between(self):
        self._read()
        for outcome in self._uncosted:
            self._cost(outcome)
        self._uncosted = []

    def _cost(self, outcome):
        outcome.seconds, outcome.cost = job_cost(
            self._readings, outcome.started, outcome.started + outcome.seconds)

    def _run(self, job, tag=None):
        if not self._readings or time.perf_counter() - self._readings[-1][1] >= REFERENCE_EVERY_S:
            self._read_between()
        if tag is not None:
            tag(job)
        handler = signal.signal(signal.SIGALRM, lambda signum, frame: self._read())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            outcome = self.jobs_module.run_job(job, str(self.workdir), self.extra_argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
        self._check_bytes(outcome)
        outcome.release()       # keep digests only, so memory stays the program's
        self.outcomes.append(outcome)
        self._uncosted.append(outcome)
        return outcome

    def settle(self):
        """Read the reference once more, so every outcome has a reading after it."""
        if self._uncosted:
            self._read_between()

    def run_next(self, tag=None):
        job = self.jobs[self.next_job % len(self.jobs)]
        self.next_job += 1
        return self._run(job, tag)

    def warm_up(self):
        """The first jobs of a pass, untimed, until WARMUP_S has gone by; the
        round-robin still starts at the first job.  First-call costs are paid
        here."""
        t0 = time.perf_counter()
        for job in self.jobs:
            self._run(job)
            if time.perf_counter() - t0 >= WARMUP_S:
                break

    def run_for(self, seconds, between=None):
        """Jobs round-robin for ``seconds``, and at least one whole pass.

        A job starts only if, at the mean job time so far, it ends in time.
        ``between(progress)`` runs before each job; its time is not counted.
        """
        start = len(self.outcomes)
        t0 = time.perf_counter()
        paused = 0.0
        while True:
            if between is not None:
                p0 = time.perf_counter()
                between((p0 - t0 - paused) / seconds)
                paused += time.perf_counter() - p0
            done = self.outcomes[start:]
            elapsed = time.perf_counter() - t0 - paused
            if (self.next_job >= len(self.jobs) and done
                    and elapsed + statistics.fmean(o.seconds for o in done) > seconds):
                break
            self.run_next()
        self.settle()
        return self.outcomes[start:]

    def run_pass(self):
        """The next len(jobs) jobs; a whole pass when the round-robin is at its start."""
        start = len(self.outcomes)
        for _ in self.jobs:
            self.run_next()
        self.settle()
        return self.outcomes[start:]

    def _check_bytes(self, outcome):
        name = outcome.job.name
        bad = []
        if self.golden is not None:
            if name not in self.golden:
                bad.append(f"no golden digests for {self.workload}/{name}")
            else:
                mismatch = self.jobs_module.golden_mismatch(self.golden[name], outcome)
                if mismatch:
                    bad.append("golden " + mismatch)
        if name not in self.first:
            self.first[name] = outcome.digests()
        else:
            mismatch = self.jobs_module.golden_mismatch(self.first[name], outcome)
            if mismatch:
                bad.append("repeat " + mismatch)
        if bad:
            outcome.wrong.extend(bad)
            outcome.certified = 0



def job_cost(readings, start, end):
    """(busy seconds, cost in ref) of a job timed from ``start`` to ``end``.

    ``readings`` are the reference readings ``(start, end, seconds)`` in time
    order, with one before the job and one after it.  The span is split at
    the readings inside it, whose time is left out; each stretch costs its
    length over the mean of the readings on either side of it.
    """
    starts = [r[0] for r in readings]
    first = bisect.bisect_left(starts, start)
    after = bisect.bisect_left(starts, end)
    marks = readings[first - 1:after + 1]    # the last one before .. the first after
    busy = cost = 0.0
    stretch_start = start
    for left, right in zip(marks, marks[1:]):
        length = min(right[0], end) - stretch_start
        busy += length
        cost += length / ((left[2] + right[2]) / 2.0)
        stretch_start = right[1]
    return busy, cost


def accounting(outcomes):
    """(attempted, failed) operations of the distinct jobs among ``outcomes``.

    A repeat must give its first run's bytes, so each job's operations count
    once, failed if any run of the job failed them; the numbers depend on the
    workload and seed only, not on how many passes fit in a run.
    """
    failed = {}
    for o in outcomes:
        failed[o.job.name] = max(failed.get(o.job.name, 0), o.failed_items)
    items = {o.job.name: o.job.items for o in outcomes}
    return sum(items.values()), sum(failed.values())


def _quantile(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end_run(runner, seconds):
    import_seconds()                      # compiles src/ to bytecode once
    setup_samples = []

    def sample_setup(progress):
        """Set-up samples spread evenly over the run."""
        if len(setup_samples) < SETUP_REPEATS and progress >= len(setup_samples) / SETUP_REPEATS:
            setup_samples.append(import_seconds())

    runner.warm_up()
    measured = runner.run_for(seconds, sample_setup)
    while len(setup_samples) < SETUP_REPEATS:
        setup_samples.append(import_seconds())
    costs = [o.cost for o in measured]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "reports_per_kref": 1000.0 * len(costs) / sum(costs),
        "report_ref.p50": statistics.median(costs),
        "report_ref.p90": _quantile(costs, 0.9),
        "peak_rss_mb": _peak_rss_mb(),
    }
    samples = {"setup_s": len(setup_samples), "reports_per_kref": len(costs),
               "report_ref.p50": len(costs), "report_ref.p90": len(costs),
               "peak_rss_mb": 1}
    units = {m["name"]: m["unit"] for m in END_TO_END}
    # wall-clock figures and ratios, for the report lines only
    latencies_ms = [o.seconds * 1e3 for o in measured]
    references_ms = [o.seconds / o.cost * 1e3 for o in measured]
    items = sum(o.job.items for o in measured)
    info = {
        "fail_frac": (runner.jobs_module.fail_frac(measured), "ratio", items),
        "report_ms.p50": (statistics.median(latencies_ms), "ms", len(measured)),
        "report_ms.p90": (_quantile(latencies_ms, 0.9), "ms", len(measured)),
        "reference_ms.p50": (statistics.median(references_ms), "ms", len(measured)),
        "operations_per_s": (items / sum(o.seconds for o in measured), "1/s", items),
    }
    detail = {"setup_samples_s": setup_samples, "report_ms": latencies_ms,
              "reference_ms": references_ms, "report_ref": costs}
    return metrics, units, samples, info, detail


def traced_run(runner, seconds):
    """Whole untraced passes for about half of ``seconds`` (at least one),
    then as many traced ones."""
    import tracer as tracing

    runner.warm_up()
    t0 = time.perf_counter()
    untraced = runner.run_pass()
    passes = max(1, int(seconds / 2.0 / (time.perf_counter() - t0)))
    for _ in range(passes - 1):
        untraced += runner.run_pass()
    untraced_digests = {o.job.name: o.digests() for o in untraced}
    tracer = tracing.Tracer()
    traced = []
    reference = runner.reference
    # a reading inside a traced job is a child span, so no layer's self time holds it
    runner.reference = types.SimpleNamespace(
        seconds=tracer.wrap("bench.reference", reference.seconds))
    with tracer.patched():
        for i in range(len(untraced)):
            def tag(job, i=i):
                tracer.job = f"{job.name}#{i}"
            traced.append(runner.run_next(tag))
        runner.settle()
    runner.reference = reference
    for outcome in traced:
        if outcome.digests() != untraced_digests[outcome.job.name]:
            outcome.wrong.append("traced bytes differ from untraced bytes")
            outcome.certified = 0
    passes = len(traced) // len(runner.jobs)
    overhead = sum(o.cost for o in traced) / sum(o.cost for o in untraced) - 1.0
    metrics = tracing.layer_metrics(tracer.spans, passes, overhead)
    spans_path = OUT / f"spans-{runner.workload}-seed{runner.seed}.jsonl"
    tracer.write(spans_path)
    units = {m["name"]: m["unit"] for m in tracing.PER_LAYER}
    samples = {name: passes for name in metrics}
    samples["trace.overhead_frac"] = len(traced)
    detail = {"untraced_ref": [o.cost for o in untraced],
              "traced_ref": [o.cost for o in traced],
              "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, units, samples, {}, detail


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _blas():
    import numpy as np
    deps = np.__config__.CONFIG.get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment(cli_module):
    import numpy
    import scipy
    parser = cli_module._build_parser()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "cli_default_jobs": parser.parse_args(["deficiency"]).jobs,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cli-jobs", type=int, default=None, metavar="N",
                   help="pass --jobs N to every CLI call (workloads pass none)")
    p.add_argument("--record-golden", action="store_true",
                   help="rewrite bench/golden.json from seed-0 passes")
    args = p.parse_args(argv)
    if not args.record_golden and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _prepare():
    if not (SRC / "extlab" / "__init__.py").is_file():
        raise BenchError(f"no extlab sources under {SRC}; run from a source checkout")
    # One process with one BLAS thread, set before numpy loads: a second
    # OpenBLAS thread on these small matrices makes run times erratic under
    # load.  An explicit setting in the environment wins.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)


def record_golden():
    """Digests of one seed-0 pass of every workload.

    They are today's bytes, also of a job that fails its checks; such jobs
    are named, so a recording that changes a pass/fail state shows.
    """
    import jobs
    golden = {}
    for workload in jobs.WORKLOADS:
        runner = Runner(workload, 0)
        outcomes = runner.run_pass()
        golden[workload] = {o.job.name: o.digests() for o in outcomes}
        print(f"recorded {workload}: {len(outcomes)} jobs")
        for o in outcomes:
            if o.failed:
                print(f"  {o.job.name} fails: {'; '.join((o.errors + o.wrong)[:3])}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None):
    args = _parse(argv)
    try:
        _prepare()
        if args.record_golden:
            record_golden()
            return 0
        import jobs
        from extlab import cli
        if args.workload not in jobs.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}")
        extra = ("--jobs", str(args.cli_jobs)) if args.cli_jobs else ()
        golden = None
        if args.seed == 0:
            golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(args.workload, {})
        runner = Runner(args.workload, args.seed, golden, extra)
        if args.trace:
            metrics, units, samples, info, detail = traced_run(runner, args.seconds)
        else:
            metrics, units, samples, info, detail = end_to_end_run(runner, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    outcomes = runner.outcomes
    failed = [o for o in outcomes if o.failed]
    wrong = [o for o in outcomes if o.wrong]
    attempted, failed_items = accounting(outcomes)
    env = environment(cli)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs run {len(outcomes)}  failed {len(failed)}  wrong {len(wrong)}  "
          f"operations {attempted}  failed {failed_items}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]:10s} n={samples[name]}")
    for name, (value, unit, n) in info.items():
        print(f"  {name:44s} {value:14.6g} {unit:10s} n={n}")
    for o in failed[:10]:
        print(f"  FAILED {o.job.name}: {'; '.join((o.errors + o.wrong)[:3])}")

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed_items,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    full = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                samples=samples, info={k: v[0] for k, v in info.items()},
                environment=env, detail=detail,
                failures=[{"job": o.job.name, "errors": o.errors, "wrong": o.wrong}
                          for o in failed])
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
