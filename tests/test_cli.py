"""End-to-end checks of the command-line interface via subprocesses:
exit codes, JSON/CSV/SVG artifacts, determinism, and tolerance plumbing."""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

CMD = [sys.executable, "-m", "extlab"]


def run_cli(*args, config=None, tmp_path=None, env_extra=None):
    argv = list(CMD) + list(args)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    env = dict(os.environ)
    env.pop("EXTLAB_TOL", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(argv, capture_output=True, text=True, env=env)


def report_of(proc):
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# deficiency


def test_deficiency_default(tmp_path):
    proc = run_cli("deficiency", "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    rep = report_of(proc)
    assert rep["command"] == "deficiency"
    assert rep["status"] == "pass"
    assert rep["seed"] == 0
    assert len(rep["config_sha256"]) == 64
    res = rep["result"]
    assert res["indices"] == [2, 2]
    # stdout floats are %.12g, so the round-trip is exact to ~1e-12
    assert abs(res["omega0"] - 1.0788667265879752) < 1e-11
    assert res["gram_residual"]["minus"] < 1e-10
    assert res["gram_residual"]["plus"] < 1e-10
    # twelve-significant-digit float rendering
    assert "1.07886672659" in proc.stdout
    # report written under --out matches stdout byte for byte
    disk = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
    assert disk == proc.stdout


def test_deficiency_released_interior_knot(tmp_path):
    cfg = {"knot_constraints": [0.0, 1.0]}
    proc = run_cli("deficiency", config=cfg, tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert report_of(proc)["result"]["indices"] == [1, 1]


def test_deficiency_four_knots(tmp_path):
    cfg = {"partition": [0.0, 0.25, 0.5, 1.0]}
    proc = run_cli("deficiency", config=cfg, tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert report_of(proc)["result"]["indices"] == [3, 3]


# ---------------------------------------------------------------------------
# validation failures -> exit 2


def test_malformed_partition_is_a_validation_error(tmp_path):
    proc = run_cli("deficiency", config={"partition": [0.5, 1.0]}, tmp_path=tmp_path)
    assert proc.returncode == 2
    assert "error (validation)" in proc.stderr


def test_unknown_config_key(tmp_path):
    proc = run_cli("deficiency", config={"partitions": [0, 1]}, tmp_path=tmp_path)
    assert proc.returncode == 2
    assert "unknown config keys" in proc.stderr


def test_config_not_json(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    proc = run_cli("deficiency", "--config", str(bad))
    assert proc.returncode == 2
    assert "not valid JSON" in proc.stderr


def test_unknown_verify_suite_is_rejected_by_the_parser():
    proc = run_cli("verify", "no-such-suite")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


_PARTITION_COMMANDS = [("deficiency",), ("boundary-matrix",), ("spectrum",), ("pair",),
                       ("verify", "extension-independence"), ("verify", "addition-dirac")]


@pytest.mark.parametrize("argv, config, env", [
    pytest.param(("spectrum",), {"window": [math.nan, 5]}, None, id="nan-window"),
    pytest.param(("pair",), {"loop": {"monomial": 1}, "cutoffs": [10, math.inf]}, None,
                 id="infinite-cutoff"),
    pytest.param(("pair",), {"loop": {"monomial": "x"}}, None, id="string-monomial"),
    pytest.param(("deficiency",), {"tolerance": math.nan}, None, id="nan-tolerance"),
    pytest.param(("deficiency",), {}, {"EXTLAB_TOL": "nan"}, id="nan-env-tolerance"),
] + [pytest.param(argv, {"partition": [0, "a", 1], "loop": {"monomial": 1}}, None,
                  id="string-knot-" + "-".join(argv))
     for argv in _PARTITION_COMMANDS])
def test_malformed_config_numbers_exit_2(tmp_path, argv, config, env):
    # json.dumps writes math.nan and math.inf as the literals NaN and Infinity
    proc = run_cli(*argv, config=config, tmp_path=tmp_path, env_extra=env)
    assert proc.returncode == 2, proc.stderr
    assert "error (validation)" in proc.stderr
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# spectrum


def _csv_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_spectrum_default_anchors(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("spectrum", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rep = report_of(proc)
    counts = {s["label"]: s["count"] for s in rep["result"]["spectra"]}
    assert counts == {"swap": 9, "identity": 10}
    header, rows = _csv_rows(out / "spectrum.csv")
    assert header == ["B-label", "lambda", "multiplicity", "residual"]
    swap_rows = [r for r in rows if r[0] == "swap"]
    ident_rows = [r for r in rows if r[0] == "identity"]
    assert len(swap_rows) == 9 and len(ident_rows) == 5
    for r, m in zip(swap_rows, range(-4, 5)):
        assert abs(float(r[1]) - 2.0 * math.pi * m) < 1e-8
        assert r[2] == "1"
    for r, m in zip(ident_rows, range(-2, 3)):
        assert abs(float(r[1]) - 4.0 * math.pi * m) < 1e-8
        assert r[2] == "2"


def test_spectrum_empty_window(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("spectrum", "--out", str(out), config={"window": [5.0, -5.0]},
                   tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rep = report_of(proc)
    assert all(s["count"] == 0 for s in rep["result"]["spectra"])
    text = (out / "spectrum.csv").read_text(encoding="utf-8")
    assert text == "B-label,lambda,multiplicity,residual\n"


def test_spectrum_svg(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("spectrum", "--svg", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    svg = (out / "spectrum.svg").read_text(encoding="utf-8")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    ticks = [el for el in root.iter() if el.tag.endswith("line")]
    # 9 swap ticks + 2 x 5 identity ticks, plus axes
    assert len(ticks) >= 19
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert any("swap" in (t or "") for t in texts)
    assert any("identity" in (t or "") for t in texts)


def test_spectrum_svg_refuses_crowded_plots(tmp_path):
    cfg = {"extensions": [{"random": {"count": 5}}]}
    proc = run_cli("spectrum", "--svg", config=cfg, tmp_path=tmp_path)
    assert proc.returncode == 2
    assert "at most 4" in proc.stderr


def test_environment_tolerance_escalates(tmp_path):
    proc = run_cli("spectrum", env_extra={"EXTLAB_TOL": "1e-20"})
    assert proc.returncode == 3
    assert report_of(proc)["status"] == "unstable"


def test_config_tolerance_beats_environment(tmp_path):
    cfg = {"tolerance": 1e-6}
    proc = run_cli("spectrum", config=cfg, tmp_path=tmp_path,
                   env_extra={"EXTLAB_TOL": "1e-20"})
    assert proc.returncode == 0, proc.stderr
    assert report_of(proc)["tolerance"] == 1e-6


# ---------------------------------------------------------------------------
# boundary-matrix


def test_boundary_matrix_swap_anchor_is_exact(tmp_path):
    out = tmp_path / "out"
    cfg = {"suite": {"numeric": False}}
    proc = run_cli("boundary-matrix", "--out", str(out), config=cfg, tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rep = report_of(proc)
    assert rep["result"]["max_deviation"] < 1e-12
    entry = rep["result"]["matrices"][0]
    assert entry["label"] == "swap"
    assert entry["boundary"] == [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    header, rows = _csv_rows(out / "boundary-matrix.csv")
    assert header == ["label", "row", "col", "real", "imag"]
    assert ["swap", "0", "1", "1", "0"] in rows


def test_boundary_matrix_includes_numeric_route_by_default(tmp_path):
    proc = run_cli("boundary-matrix", tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    entry = report_of(proc)["result"]["matrices"][0]
    assert entry["deviation_numeric"] < 1e-8


def test_boundary_matrix_explicit_boundary_roundtrip(tmp_path):
    cfg = {
        "extension": {"boundary": [[0, 1], [1, 0]]},
        "suite": {"numeric": False},
    }
    proc = run_cli("boundary-matrix", config=cfg, tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    entry = report_of(proc)["result"]["matrices"][0]
    assert entry["label"] == "explicit-B"
    assert entry["deviation_general"] < 1e-10


def test_seed_flag_controls_random_extensions(tmp_path):
    cfg = {"extension": {"random": {"count": 1}}, "suite": {"numeric": False}}
    p1 = run_cli("boundary-matrix", "--seed", "1", config=cfg, tmp_path=tmp_path)
    p1b = run_cli("boundary-matrix", "--seed", "1", config=cfg, tmp_path=tmp_path)
    p2 = run_cli("boundary-matrix", "--seed", "2", config=cfg, tmp_path=tmp_path)
    assert p1.returncode == p2.returncode == 0
    assert p1.stdout == p1b.stdout  # same seed: byte-identical
    r1, r2 = report_of(p1), report_of(p2)
    assert r1["seed"] == 1 and r2["seed"] == 2
    assert r1["result"]["matrices"][0]["label"] == "seed1-0"
    assert r2["result"]["matrices"][0]["label"] == "seed2-0"
    assert r1["result"]["matrices"][0]["boundary"] != r2["result"]["matrices"][0]["boundary"]


# ---------------------------------------------------------------------------
# pair


def test_pair_monomial_with_swap_anchor(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("pair", "--out", str(out), config={"loop": {"monomial": 1}},
                   tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    pairing = report_of(proc)["result"]["pairings"][0]
    assert pairing == {
        "loop": "z^1",
        "extension": "swap",
        "index": -1,
        "winding": 1,
        "stable": True,
        "error": None,
    }
    header, rows = _csv_rows(out / "pair.csv")
    assert header == ["loop", "B-seed", "index", "winding", "plateau", "method"]
    assert rows[0][0] == "z^1" and rows[0][2] == "-1"
    assert "pi:" in rows[0][4]


def test_pair_wedge_loop(tmp_path):
    cfg = {"loop": {"wedge": [{"monomial": 1}, {"monomial": 1}]}}
    proc = run_cli("pair", config=cfg, tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    pairing = report_of(proc)["result"]["pairings"][0]
    assert pairing["loop"] == "wedge(z^1|z^1)"
    assert pairing["index"] == -2 and pairing["winding"] == 2


def test_pair_jobs_do_not_change_bytes(tmp_path):
    cfg = {
        "loop": {"monomial": -1},
        "extensions": [{"anchor": "swap"}, {"random": {"count": 3, "seed": 9}}],
    }
    outs = []
    for jobs, tag in (("1", "a"), ("3", "b")):
        out = tmp_path / tag
        proc = run_cli("pair", "--jobs", jobs, "--out", str(out), config=cfg,
                       tmp_path=tmp_path)
        assert proc.returncode == 0, proc.stderr
        outs.append((proc.stdout, (out / "report.json").read_bytes(),
                     (out / "pair.csv").read_bytes()))
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# verify


def test_verify_ksum(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("verify", "ksum", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rep = report_of(proc)
    assert rep["result"]["checks"] == 604
    assert rep["result"]["failures"] == []
    lines = (out / "verify-ksum.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 605
    assert all(line.endswith(",ok") for line in lines[1:])


def test_ksum_alias_with_genus_bound(tmp_path):
    cfg = {"suite": {"genus_bound": 2}}
    proc = run_cli("ksum", config=cfg, tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rep = report_of(proc)
    # 2 global + 2 per genus (3 values) + 12 per ordered pair (9 pairs)
    assert rep["result"]["checks"] == 2 + 6 + 108


def test_verify_extension_independence_small(tmp_path):
    out = tmp_path / "out"
    cfg = {"suite": {"count": 2, "powers": [-1, 1]}}
    proc = run_cli("verify", "extension-independence", "--out", str(out),
                   config=cfg, tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rep = report_of(proc)
    assert rep["status"] == "pass"
    assert rep["result"]["pairings"] == 6
    assert rep["result"]["failures"] == []
    header, rows = _csv_rows(out / "verify-extension-independence.csv")
    assert len(rows) == 6
    for row in rows:
        assert int(row[2]) == -int(row[3])  # index == -winding


def test_verify_addition_dirac_small(tmp_path):
    cfg = {"suite": {"count": 1, "max_power": 1}}
    proc = run_cli("verify", "addition-dirac", config=cfg, tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rep = report_of(proc)
    assert rep["status"] == "pass"
    assert rep["result"]["pairings"] == 9
    assert rep["result"]["failures"] == []
