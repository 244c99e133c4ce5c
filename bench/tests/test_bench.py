"""Tests of the benchmark itself: configs, golden bytes, failure accounting
and the tracer.  They run the short catalog jobs only."""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import jobs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from extlab import cli  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


def test_configs_are_deterministic_per_seed():
    for workload in jobs.WORKLOADS:
        for seed in (0, 1, 7):
            assert jobs.workload_jobs(workload, seed) == jobs.workload_jobs(workload, seed)
        assert jobs.workload_jobs(workload, 1) != jobs.workload_jobs(workload, 2)
        names = [job.name for job in jobs.workload_jobs(workload, 0)]
        assert len(names) == len(set(names))


def _without_b_seeds(workload, seed):
    workload_jobs = jobs.workload_jobs(workload, seed)
    text = json.dumps([job.config for job in workload_jobs])
    for i in range(len(workload_jobs)):
        text = text.replace(f": {jobs.b_seed(seed, i)}}}", ": SEED}")
    return text


def test_the_seed_goes_only_into_the_boundary_matrix_seeds():
    for workload in ("sweep-monomial", "sweep-wedge", "spectrum-tracked"):
        assert "SEED" in _without_b_seeds(workload, 4)
        assert (_without_b_seeds(workload, 0) == _without_b_seeds(workload, 4)
                == _without_b_seeds(workload, 9))


def test_seed_zero_catalog_is_the_cli_defaults():
    for job in jobs.workload_jobs("catalog", 0):
        assert "seed" not in job.config
        assert job.config == ({"loop": {"monomial": 2}} if job.name == "pair" else {})


def test_seed_zero_matches_cli_default_bytes(tmp_path):
    for job in jobs.workload_jobs("catalog", 0):
        outcome = jobs.run_job(job, str(tmp_path))
        assert not outcome.failed, outcome.errors + outcome.wrong
        assert outcome.digests() == GOLDEN["catalog"][job.name]
        if job.config:
            continue                     # pair has no config-free default
        out_dir = tmp_path / ("default-" + job.name)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main([*job.argv, "--out", str(out_dir)]) == 0
        assert stdout.getvalue() == outcome.stdout
        for name, text in outcome.artifacts.items():
            assert (out_dir / name).read_text(encoding="utf-8") == text


def test_golden_checker_rejects_a_one_byte_change(tmp_path):
    job = jobs.workload_jobs("catalog", 0)[0]
    outcome = jobs.run_job(job, str(tmp_path))
    expected = GOLDEN["catalog"][job.name]
    assert jobs.golden_mismatch(expected, outcome) is None
    text = outcome.artifacts["report.json"]
    i = text.index("2")
    outcome.artifacts["report.json"] = text[:i] + "3" + text[i + 1:]
    assert "report.json" in jobs.golden_mismatch(expected, outcome)
    outcome.artifacts["report.json"] = text
    outcome.artifacts["extra.csv"] = ""
    assert "extra.csv" in jobs.golden_mismatch(expected, outcome)


def test_forced_nonzero_exit_raises_fail_frac(tmp_path):
    good = jobs.run_job(jobs.Job("deficiency", "deficiency", ("deficiency",), {}),
                        str(tmp_path))
    bad = jobs.run_job(jobs.Job("deficiency", "deficiency", ("deficiency",),
                                {"no-such-key": 1}), str(tmp_path))
    assert good.code == 0 and not good.failed
    assert bad.code == 2 and bad.failed
    assert jobs.fail_frac([good]) == 0.0
    assert jobs.fail_frac([good, bad]) == 0.5
    assert run.accounting([good, bad]) == (1, 1)         # one job, run twice
    assert run.accounting([good, good]) == (1, 0)


def test_cost_divides_each_stretch_by_the_readings_around_it():
    readings = [(0.0, 1.0, 1.0), (5.0, 6.0, 3.0), (11.0, 12.0, 1.0)]
    busy, cost = run.job_cost(readings, 2.0, 10.0)
    assert busy == 7.0                         # the reading inside is left out
    assert cost == 3.0 / 2.0 + 4.0 / 2.0
    assert run.job_cost(readings, 1.5, 4.5) == (3.0, 3.0 / 2.0)


def test_wrong_answers_are_told_apart_from_declined_ones():
    outcome = jobs.Outcome(jobs.Job("pair", "pair", ("pair",), {}), 0.0)
    rows = ("loop,B-seed,index,winding,plateau,method\n"
            "z^2,swap,-2,2,,finite-section\n"
            "z^2,swap,-1,2,,symbol-winding\n"
            "z^2,swap,,2,,uncertified\n")
    assert jobs._check_pairings(outcome, rows, 3, jobs._expected_monomial) == 1
    assert len(outcome.wrong) == 1 and len(outcome.errors) == 1
    assert jobs._expected_wedge("wedge(z^-2|z^1)") == 1


def _bindings():
    """Every extlab module attribute and numpy.linalg.svd, by identity."""
    bound = {("numpy.linalg", "svd"): id(np.linalg.svd)}
    for module in tracing._extlab_modules():
        for attr, value in vars(module).items():
            if callable(value):
                bound[(module.__name__, attr)] = id(value)
    return bound


def test_wrappers_record_spans_and_restore_the_originals(tmp_path):
    before = _bindings()
    original_pair = cli.pair
    tracer = tracing.Tracer()
    job = jobs.Job("pair", "pair", ("pair",), {"loop": {"monomial": 2}})
    with tracer.patched():
        assert cli.pair is not original_pair and cli.pair.__wrapped__ is original_pair
        tracer.job = "pair#0"
        outcome = jobs.run_job(job, str(tmp_path))
    assert _bindings() == before
    assert not outcome.failed
    metrics = tracing.layer_metrics(tracer.spans, 1, 0.0)
    assert metrics["pairing.pair.calls"] == 1
    assert metrics["pairing.compression_matrix.per_pair"] == 8
    assert metrics["pairing.symbol_index.per_pair"] == 2
    assert metrics["spectral.eigenbasis.per_pair"] == 1
    assert metrics["linalg.svd.in_pairing.calls"] == 8
    assert set(metrics) == {stat["name"] for stat in tracing.PER_LAYER}

    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer().patched():
            1 / 0
    assert _bindings() == before


def test_self_time_subtracts_child_spans():
    spans = [
        [0, None, "j", "pairing.pair", 0.0, 10.0, {"route": "symbol-winding"}],
        [1, 0, "j", "pairing.symbol_index", 1.0, 4.0, {"grid_points": 8192}],
        [2, 1, "j", "linalg.svd.in_pairing", 2.0, 3.0, {"flops": 8}],
    ]
    metrics = tracing.layer_metrics(spans, 1, 0.25)
    assert metrics["pairing.pair.self_s"] == 7.0
    assert metrics["pairing.symbol_index.self_s"] == 2.0
    assert metrics["linalg.svd.in_pairing.flops_computed"] == 8
    assert metrics["pairing.pair.route.symbol_winding"] == 1
    assert metrics["pairing.finite_section.resolved_frac"] == 0.0
    assert metrics["trace.overhead_frac"] == 0.25


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (m["name"], m["unit"], m["better"]) for m in run.END_TO_END]
    assert spec["per_layer"] == list(tracing.PER_LAYER)
