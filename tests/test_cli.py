"""End-to-end checks of the command-line interface via subprocesses:
exit codes, JSON/CSV/SVG artifacts, determinism, and tolerance plumbing."""

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

CMD = [sys.executable, "-m", "extlab"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, config=None, tmp_path=None, env_extra=None):
    argv = list(CMD) + list(args)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    env = dict(os.environ)
    env.pop("EXTLAB_TOL", None)
    # the child finds the package without an install
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
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


@pytest.mark.parametrize("argv", [("deficiency",), ("boundary-matrix",), ("spectrum",),
                                  ("pair",)])
def test_a_piece_too_short_to_normalize_exits_2(tmp_path, argv):
    # found by the exit-contract property test: e^{2 theta} takes one float
    # value on a piece this short, and the normalizer divided by zero
    # (ZeroDivisionError out of `cli.main`)
    config = {"partition": [0.0, 3.9596822655897583e-166, 1.0]}
    if argv == ("pair",):
        config["loop"] = 1
    proc = run_cli(*argv, config=config, tmp_path=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "too short to normalize" in proc.stderr and "Traceback" not in proc.stderr


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


@pytest.mark.parametrize("argv", [
    pytest.param(["verify"], id="verify-without-suite"),
    pytest.param(["deficiency", "ksum"], id="suite-on-another-command"),
    pytest.param(["ksum", "ksum"], id="suite-on-the-alias"),
    pytest.param(["no-such-command"], id="unknown-command"),
    pytest.param(["deficiency", "--no-such-flag"], id="unknown-flag"),
])
def test_the_parser_refuses_a_misplaced_suite_or_command(argv, capsys):
    from extlab import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "usage: extlab" in capsys.readouterr().err


def test_flags_may_sit_between_verify_and_its_suite(tmp_path, capsys):
    from extlab import cli

    assert cli.main(["verify", "--out", str(tmp_path), "ksum"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["checks"] == 604


def test_jobs_outside_the_cap_exit_2(capsys):
    # refused while reading the flags, before any pool or thread exists; 0
    # used to run as 1
    from extlab import cli

    for jobs in (0, -1, cli.MAX_JOBS + 1):
        assert cli.main(["deficiency", "--jobs", str(jobs)]) == 2
        assert f"--jobs must be in [1, {cli.MAX_JOBS}], got {jobs}" in capsys.readouterr().err


def test_csv_text_bytes_of_a_plain_table():
    from extlab.cli import csv_text

    assert csv_text(("a", "b"), [("1", "x y"), ("", "-2.5")]) == "a,b\n1,x y\n,-2.5\n"
    assert csv_text(("a",), []) == "a\n"


@pytest.mark.parametrize("cell", ["1,5", 'say "hi"', "two\nlines"])
def test_csv_text_refuses_a_cell_that_needs_quoting(cell):
    from extlab.cli import csv_text
    from extlab.errors import StructuralError

    with pytest.raises(StructuralError) as exc:
        csv_text(("a", "b", "c"), [("1", "2", "3"), ("ok", cell, "ok")])
    assert str(exc.value) == f"CSV cell needs quoting, refusing: {cell!r}"


@pytest.mark.parametrize("cell", [1.5, None, 3])
def test_csv_text_refuses_a_cell_that_is_no_string(cell):
    from extlab.cli import csv_text
    from extlab.errors import StructuralError

    with pytest.raises(StructuralError, match="CSV cells must be preformatted strings"):
        csv_text(("a", "b"), [("1", "2"), ("ok", cell)])


# each outcome recorded on the code before csv_text checked a whole text at
# once, which read the rows one by one: the same exception and message, or
# the same text
@pytest.mark.parametrize("rows, outcome", [
    pytest.param([("ok", "1,5")], "CSV cell needs quoting, refusing: '1,5'", id="comma"),
    pytest.param([("ok", 'say "hi"')], "CSV cell needs quoting, refusing: 'say \"hi\"'",
                 id="quote"),
    pytest.param([("ok", "two\nlines")], "CSV cell needs quoting, refusing: 'two\\nlines'",
                 id="newline"),
    pytest.param([("ok", 3)], "CSV cells must be preformatted strings", id="int"),
    pytest.param([("ok", None)], "CSV cells must be preformatted strings", id="none"),
    pytest.param([("1", "2"), ()], ("ok", "a,b\n1,2\n\n"), id="empty-tuple-row"),
    pytest.param([[], ("1", "2")], ("ok", "a,b\n\n1,2\n"), id="empty-list-row"),
    pytest.param([["1", "2"], ("3", "4")], ("ok", "a,b\n1,2\n3,4\n"), id="list-row"),
    # the first bad cell of the first bad row is named, and a row's types are
    # checked before its cells' characters
    pytest.param([("a,b", 'c"d')], "CSV cell needs quoting, refusing: 'a,b'",
                 id="first-of-two-bad-cells"),
    pytest.param([("1", "2"), ("3", "x,y")], "CSV cell needs quoting, refusing: 'x,y'",
                 id="bad-cell-in-a-later-row"),
    pytest.param([("a,b",), (3,)], "CSV cell needs quoting, refusing: 'a,b'",
                 id="bad-cell-before-a-bad-type"),
    pytest.param([("a,b", 3)], "CSV cells must be preformatted strings",
                 id="bad-type-in-a-row-with-a-bad-cell"),
    pytest.param([("", "")], ("ok", "a,b\n,\n"), id="empty-cells"),
])
def test_csv_text_refuses_what_the_row_by_row_check_refused(rows, outcome):
    from extlab.cli import csv_text
    from extlab.errors import StructuralError

    if isinstance(outcome, tuple):
        assert csv_text(("a", "b"), rows) == outcome[1]
    else:
        with pytest.raises(StructuralError) as exc:
            csv_text(("a", "b"), rows)
        assert str(exc.value) == outcome


# ---------------------------------------------------------------------------
# the parser kept between in-process calls

# (exit code, sha256 of stdout, sha256 of stderr) of each argv, recorded with a
# parser built per call, before the parser was kept; every one ends in argparse
# (help or a usage error), whose wording differs between Python releases, so
# the digests hold on the release they were recorded on
_PARSER_PINS_PYTHON = (3, 11)
_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
_PARSER_PINS = {
    ("--help",): (0, "f56ead89eec3a007d97e0c623403ebc7bca3f04d63a0a1cc812f97905153d919",
                  _EMPTY),
    ("verify",): (2, _EMPTY,
                  "546e6b50ee1e000ccfa771a05564187785209a3a66043e0856aa9db0f499604f"),
    ("deficiency", "ksum"): (2, _EMPTY,
                             "45d75417c3968df91e8454dcda3339dc9badd41a65807b0f29434bc1eb74042a"),
    ("nosuch",): (2, _EMPTY,
                  "8001e82d49539788e54b73b35ca2d9dd6d92bc27c4b78d7a8798ce4b0a5ede87"),
    ("verify", "ksum", "--jobs", "x"): (
        2, _EMPTY, "9ac0e174164cd7bdf01150d5ba20a63c7a8f2c5920a63c93e7655a6a593a1202"),
}


def _sha256(text):
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _argparse_outcome(parse, argv):
    """(exit code, stdout, stderr) of ``parse(argv)``, which must end in
    ``SystemExit``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


def _parse_with_a_new_parser(argv):
    # what main did before the parser was kept
    from extlab import cli

    parser = cli._build_parser()
    args = parser.parse_intermixed_args(argv)
    if (args.command == "verify") != (args.suite is not None):
        parser.error(f"verify needs a suite ({'|'.join(cli._SUITES)})"
                     if args.suite is None else f"{args.command} takes no suite")


@pytest.mark.parametrize("argv", sorted(_PARSER_PINS), ids=" ".join)
def test_the_kept_parser_prints_the_bytes_of_a_new_one(argv):
    from extlab import cli

    # twice: the first call may build the kept parser, the second reuses it
    got = [_argparse_outcome(cli.main, list(argv)) for _ in range(2)]
    proc = run_cli(*argv)
    got.append((proc.returncode, proc.stdout, proc.stderr))
    assert got == [_argparse_outcome(_parse_with_a_new_parser, list(argv))] * 3
    if sys.version_info[:2] == _PARSER_PINS_PYTHON:
        code, out, err = got[0]
        assert (code, _sha256(out), _sha256(err)) == _PARSER_PINS[argv]


# sha256 of the stdout report and verify-ksum.csv of the default `verify ksum`,
# recorded with a parser built per call
_VERIFY_KSUM_DIGESTS = (
    "a0063cb25a6b703c11ada6f3a13a4e2839f38b2ac6fff3e9ff38d6db9525ed18",
    "0518741f49bb69eb936ff915ac45c90f96b43f7bfe7495e216e2254fa254b46f",
)


def test_a_call_after_a_usage_error_and_a_refused_config_gives_the_same_bytes(tmp_path,
                                                                             capsys):
    from extlab import cli

    with pytest.raises(SystemExit):
        cli.main(["nosuch"])
    with pytest.raises(SystemExit):
        cli.main(["verify", "ksum", "--jobs", "x"])
    assert cli.main(["deficiency", "--jobs", "0"]) == 2
    capsys.readouterr()
    assert cli.main(["verify", "ksum", "--out", str(tmp_path)]) == 0
    got = (_sha256(capsys.readouterr().out),
           _sha256((tmp_path / "verify-ksum.csv").read_text(encoding="utf-8")))
    assert got == _VERIFY_KSUM_DIGESTS


def test_main_parses_with_the_lock_held(monkeypatch, capsys):
    from extlab import cli

    with cli._PARSE_LOCK:
        parser = cli._parser()
    held = []
    parse = parser.parse_intermixed_args

    def parse_intermixed_args(argv):
        held.append(cli._PARSE_LOCK.locked())
        return parse(argv)

    monkeypatch.setattr(parser, "parse_intermixed_args", parse_intermixed_args)
    assert cli.main(["deficiency"]) == 0
    assert held == [True]
    assert not cli._PARSE_LOCK.locked()


def test_threads_calling_main_get_the_bytes_of_sequential_calls(tmp_path, capsys):
    import threading

    from extlab import cli

    calls = [("deficiency",), ("pair",)] * 5
    pair_cfg = tmp_path / "pair.json"
    pair_cfg.write_text(json.dumps({"loop": {"monomial": 2}}), encoding="utf-8")

    def run(tag, codes):
        for i, argv in enumerate(calls):
            extra = ["--config", str(pair_cfg)] if argv == ("pair",) else []
            codes.append(cli.main([*argv, *extra, "--out", str(tmp_path / tag / str(i))]))

    def artifacts(tag):
        root = tmp_path / tag
        return [sorted((p.name, p.read_bytes()) for p in (root / str(i)).iterdir())
                for i in range(len(calls))]

    sequential = []
    run("seq", sequential)
    # switch threads as often as the interpreter allows, so two parses
    # overlap unless main keeps them apart; three rounds, since an overlap
    # is likely, not certain
    tags = [f"{round_}{side}" for round_ in range(3) for side in "ab"]
    codes = {tag: [] for tag in tags}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for pair in zip(tags[::2], tags[1::2]):
            threads = [threading.Thread(target=run, args=(tag, codes[tag])) for tag in pair]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
    finally:
        sys.setswitchinterval(interval)
    capsys.readouterr()
    assert sequential == [0] * len(calls)
    assert codes == dict.fromkeys(tags, sequential)
    expected = artifacts("seq")
    assert all(artifacts(tag) == expected for tag in tags)


_PARTITION_COMMANDS = [("deficiency",), ("boundary-matrix",), ("spectrum",), ("pair",),
                       ("verify", "extension-independence"), ("verify", "addition-dirac")]


def test_spectrum_window_bound_names_the_limit(tmp_path):
    proc = run_cli("spectrum", config={"window": [0, 13000]}, tmp_path=tmp_path)
    assert proc.returncode == 2
    assert "window width 13000 exceeds 12868" in proc.stderr


@pytest.mark.parametrize("argv", [("spectrum",), ("deficiency",)], ids=["spectrum", "deficiency"])
def test_partition_piece_bound_names_the_limit(tmp_path, argv):
    proc = run_cli(*argv, config={"partition": [k / 65 for k in range(66)]}, tmp_path=tmp_path)
    assert proc.returncode == 2
    assert "partition has 65 pieces, above the limit of 64" in proc.stderr


def test_a_partition_at_the_piece_bound_is_accepted(tmp_path):
    # equal pieces take the closed form: swap has 32 eigenvalues in the
    # window and the identity its 64-fold eigenvalue 0
    proc = run_cli("spectrum", config={"partition": [k / 64 for k in range(65)],
                                       "window": [-5, 5]}, tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    spectra = report_of(proc)["result"]["spectra"]
    assert [(s["label"], s["count"]) for s in spectra] == [("swap", 32), ("identity", 64)]


@pytest.mark.parametrize("argv, config, limit", [
    pytest.param(("verify", "extension-independence"), {"suite": {"powers": [-10 ** 8, 10 ** 8]}},
                 "exceeds 12868", id="powers"),
    pytest.param(("verify", "addition-dirac"), {"suite": {"max_power": 1000}},
                 "exceeds 12868", id="max-power"),
    pytest.param(("verify", "ksum"), {"suite": {"genus_bound": 65}},
                 "genus_bound must be in [0, 64]", id="genus-bound"),
    # inside the basis window, past the loop count: 1025 and 33^2 = 1089 loops
    pytest.param(("verify", "extension-independence"), {"suite": {"powers": [-512, 512]}},
                 "suite has 1025 loops, above the limit of 1024", id="powers-loops"),
    pytest.param(("verify", "addition-dirac"), {"suite": {"max_power": 16}},
                 "suite has 1089 loops, above the limit of 1024", id="max-power-loops"),
])
def test_suite_size_bounds_name_the_limit(tmp_path, argv, config, limit):
    # refused before any loop or surface is built
    proc = run_cli(*argv, config=config, tmp_path=tmp_path)
    assert proc.returncode == 2
    assert limit in proc.stderr


@pytest.mark.parametrize("argv, config, env", [
    pytest.param(("spectrum",), {"window": [math.nan, 5]}, None, id="nan-window"),
    pytest.param(("pair",), {"loop": {"monomial": 1}, "cutoffs": [10, math.inf]}, None,
                 id="infinite-cutoff"),
    pytest.param(("pair",), {"loop": {"monomial": "x"}}, None, id="string-monomial"),
    pytest.param(("deficiency",), {"tolerance": math.nan}, None, id="nan-tolerance"),
    pytest.param(("deficiency",), {}, {"EXTLAB_TOL": "nan"}, id="nan-env-tolerance"),
    # problem-size bounds: eigenbasis windows past 4096 pi, random counts past 1000
    pytest.param(("pair",), {"loop": {"monomial": 1}, "cutoffs": [10, 20, 30, 20000]}, None,
                 id="cutoff-window-too-wide"),
    pytest.param(("pair",), {"loop": {"monomial": 2000}}, None, id="loop-reach-too-wide"),
    pytest.param(("verify", "addition-dirac"), {"cutoffs": [10, 20, 30, 20000]}, None,
                 id="sweep-window-too-wide"),
    pytest.param(("pair",), {"loop": {"monomial": 1},
                             "extensions": [{"random": {"count": 1001}}]}, None,
                 id="random-count-too-large"),
    pytest.param(("verify", "extension-independence"), {"suite": {"count": 10 ** 9}}, None,
                 id="sweep-count-too-large"),
    # spectrum windows wider than the same 4096 pi
    pytest.param(("spectrum",), {"window": [-1e7, 1e7]}, None, id="spectrum-window-too-wide"),
    pytest.param(("spectrum",), {"partition": [0, 0.3, 1], "window": [-6500, 6500]}, None,
                 id="tracked-spectrum-window-too-wide"),
    # suites that would run empty, and integers past the float range
    pytest.param(("verify", "extension-independence"), {"suite": {"powers": [3, -3]}}, None,
                 id="sweep-powers-reversed"),
    pytest.param(("verify", "addition-dirac"), {"suite": {"max_power": -1}}, None,
                 id="sweep-max-power-negative"),
    pytest.param(("verify", "ksum"), {"suite": {"genus_bound": -3}}, None,
                 id="ksum-genus-bound-negative"),
    pytest.param(("verify", "extension-independence"), {"suite": {"powers": [0, 10 ** 400]}},
                 None, id="sweep-power-past-float-range"),
    pytest.param(("pair",), {"loop": {"monomial": 10 ** 400}}, None,
                 id="monomial-past-float-range"),
    # int() would truncate these, and a boolean is an int to Python
    pytest.param(("pair",), {"loop": {"monomial": 1.5}}, None, id="fractional-monomial"),
    pytest.param(("verify", "extension-independence"), {"suite": {"powers": [-1.7, 1.7]}},
                 None, id="fractional-sweep-powers"),
    pytest.param(("pair",), {"loop": True}, None, id="boolean-loop"),
    # loops the constructor refuses: |u| <= MARGIN at a point k / 4096
    pytest.param(("pair",), {"loop": {"fourier": {"0": 0.0625}}}, None, id="loop-below-margin"),
    pytest.param(("pair",), {"loop": {"fourier": {"0": 1.0, "1": 0.95}}}, None,
                 id="loop-dipping-below-margin"),
    pytest.param(("pair",), {"loop": {"wedge": [{"fourier": {"0": 1.0, "1": 0.95}},
                                                {"monomial": 0}]}}, None,
                 id="wedge-component-below-margin"),
    pytest.param(("deficiency",), {"seed": True}, None, id="boolean-seed"),
    pytest.param(("spectrum",), {"window": [True, 5]}, None, id="boolean-window"),
    # flags must be JSON booleans, and suite options ones a command reads
    pytest.param(("boundary-matrix",), {"suite": {"numeric": "false"}}, None,
                 id="string-numeric-flag"),
    pytest.param(("spectrum",), {"svg": "no"}, None, id="string-svg-flag"),
    pytest.param(("verify", "extension-independence"), {"suite": {"power": [-1, 1], "count": 1}},
                 None, id="unknown-suite-key"),
    # a suite key another command reads is no key of this one
    pytest.param(("verify", "addition-dirac"), {"suite": {"powers": [-1, 1]}}, None,
                 id="powers-on-addition-dirac"),
    pytest.param(("verify", "extension-independence"), {"suite": {"max_power": 1, "count": 1}},
                 None, id="max-power-on-extension-independence"),
    pytest.param(("verify", "ksum"), {"suite": {"count": 1}}, None, id="count-on-verify-ksum"),
    pytest.param(("ksum",), {"suite": {"extension_seed": 3}}, None, id="extension-seed-on-ksum"),
    pytest.param(("verify", "addition-dirac"), {"suite": {"genus_bound": 2}}, None,
                 id="genus-bound-on-a-sweep"),
    pytest.param(("boundary-matrix",), {"suite": {"count": 1}}, None,
                 id="count-on-boundary-matrix"),
    pytest.param(("pair",), {"loop": {"monomial": 1}, "suite": {"numeric": False}}, None,
                 id="numeric-on-pair"),
    pytest.param(("spectrum",), {"suite": {"max_power": 1}}, None, id="max-power-on-spectrum"),
    pytest.param(("deficiency",), {"suite": {"numeric": True}}, None, id="numeric-on-deficiency"),
    # a one-term loop's modulus is |c| everywhere: 0.1 is not above MARGIN
    pytest.param(("pair",), {"loop": {"fourier": {"0": 0.1}}}, None, id="one-term-loop-at-margin"),
] + [pytest.param(argv, {"partition": [0, "a", 1], "loop": {"monomial": 1}}, None,
                  id="string-knot-" + "-".join(argv))
     for argv in _PARTITION_COMMANDS])
def test_malformed_config_numbers_exit_2(tmp_path, argv, config, env):
    # json.dumps writes math.nan and math.inf as the literals NaN and Infinity
    proc = run_cli(*argv, config=config, tmp_path=tmp_path, env_extra=env)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "error (validation)" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, key, name", [
    (("verify", "addition-dirac"), "powers", "verify addition-dirac"),
    (("verify", "extension-independence"), "genus_bound", "verify extension-independence"),
    (("ksum",), "numeric", "ksum"),
    (("pair",), "count", "pair"),
])
def test_a_suite_key_the_command_does_not_read_is_named(tmp_path, capsys, argv, key, name):
    from extlab import cli

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"loop": {"monomial": 1}, "suite": {key: 1}}), encoding="utf-8")
    assert cli.main([*argv, "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"suite keys ['{key}'] are not read by {name}" in err


_UNREAD_BY_KSUM = {
    "extension": "swap",
    "extensions": ["swap"],
    "cutoffs": [10, 20, 30],
    "partition": [0, 0.5, 1],
    "knot_constraints": [1, 1],
    "loop": {"monomial": 1},
    "window": [-5, 5],
    "svg": True,
}


@pytest.mark.parametrize("argv", [("verify", "ksum"), ("ksum",)], ids=" ".join)
@pytest.mark.parametrize("key", sorted(_UNREAD_BY_KSUM))
def test_a_config_key_ksum_does_not_read_is_named(tmp_path, capsys, argv, key):
    from extlab import cli

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, key: _UNREAD_BY_KSUM[key]}), encoding="utf-8")
    assert cli.main([*argv, "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"config keys ['{key}'] are not read by {' '.join(argv)}" in err


def test_ksum_reads_its_suite_seed_and_tolerance(tmp_path, capsys):
    code, report, *_ = _verify_ksum_in_process(
        tmp_path, capsys, {"suite": {"genus_bound": 1}, "seed": 5, "tolerance": 1e-6})
    assert code == 0
    assert (report["seed"], report["tolerance"], report["result"]["checks"]) == (5, 1e-6, 54)


@pytest.mark.parametrize("argv, config, unread", [
    pytest.param(("spectrum",), {"loop": {"monomial": 1}}, ["loop"], id="spectrum-loop"),
    pytest.param(("spectrum",), {"cutoffs": [10, 20, 30]}, ["cutoffs"], id="spectrum-cutoffs"),
    pytest.param(("deficiency",), {"window": [-5, 5], "loop": {"monomial": 1}},
                 ["loop", "window"], id="deficiency-window-loop"),
    pytest.param(("pair",), {"loop": {"monomial": 1}, "window": [-5, 5], "svg": True},
                 ["svg", "window"], id="pair-window-svg"),
    pytest.param(("deficiency",), {"extension": "swap"}, ["extension"], id="deficiency-extension"),
    # none of the three reads a suite option, so an empty suite is refused too
    pytest.param(("deficiency",), {"suite": {}}, ["suite"], id="deficiency-suite"),
    pytest.param(("spectrum",), {"suite": {}}, ["suite"], id="spectrum-suite"),
    pytest.param(("pair",), {"loop": 1, "suite": {}}, ["suite"], id="pair-suite"),
])
def test_a_config_key_the_command_does_not_read_is_named(tmp_path, capsys, argv, config, unread):
    from extlab import cli

    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 3, **config}), encoding="utf-8")
    assert cli.main([*argv, "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"config keys {unread} are not read by {argv[0]}" in err


@pytest.mark.parametrize("argv, config", [
    pytest.param(("deficiency",), {"partition": [0, 0.5, 1], "knot_constraints": [0.0, 1.0],
                                   "seed": 3, "tolerance": 1e-9}, id="deficiency"),
    pytest.param(("spectrum",), {"partition": [0, 0.5, 1], "knot_constraints": [0.0, 1.0],
                                 "extensions": ["swap"], "window": [-5, 5], "seed": 3,
                                 "tolerance": 1e-8, "svg": True}, id="spectrum-extensions"),
    pytest.param(("spectrum",), {"extension": "identity"}, id="spectrum-extension"),
    pytest.param(("pair",), {"partition": [0, 0.5, 1], "knot_constraints": [0.0, 1.0],
                             "extension": "swap", "loop": 1, "cutoffs": [40, 80, 160],
                             "seed": 3, "tolerance": 1e-8}, id="pair-extension"),
    pytest.param(("pair",), {"extensions": ["swap"], "loop": -1}, id="pair-extensions"),
])
def test_every_key_a_command_reads_is_admitted(tmp_path, capsys, argv, config):
    from extlab import cli

    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main([*argv, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_every_benchmark_config_holds_only_keys_its_command_reads(monkeypatch):
    from extlab import cli

    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(SRC), "bench"))
    import jobs

    for workload in jobs.WORKLOADS:
        for seed in (0, 1, 7):
            for job in jobs.workload_jobs(workload, seed):
                command = job.argv[-1]
                assert set(job.config) <= cli._COMMAND_KEYS.get(command, cli._ALLOWED_KEYS)


@pytest.mark.parametrize("config, message", [
    pytest.param({"extension": {"random": {"seed": 1, "cnt": 5}}},
                 "random extension keys ['cnt'] are not read (seed, count)", id="random-typo"),
    pytest.param({"extension": {"anchor": "swap", "matrix": [[0, 1], [1, 0]]}},
                 "extension entry needs exactly one of: anchor, matrix, boundary, random; "
                 "got ['anchor', 'matrix']", id="anchor-and-matrix"),
    pytest.param({"extensions": [{"anchor": "swap", "seed": 3}]},
                 "extension entry needs exactly one of: anchor, matrix, boundary, random; "
                 "got ['anchor', 'seed']", id="extension-stray-key"),
    pytest.param({"extension": {}}, "extension entry needs exactly one of", id="extension-empty"),
    pytest.param({"loop": {"monomial": 1, "fourier": {"3": 1.0}}},
                 "loop spec needs exactly one of: monomial, fourier, wedge; "
                 "got ['fourier', 'monomial']", id="monomial-and-fourier"),
    pytest.param({"loop": {"monomial": 1, "bogus": 2}}, "got ['bogus', 'monomial']",
                 id="loop-stray-key"),
    pytest.param({"loop": {"wedge": [{"monomial": 1, "power": 2}, {"monomial": 1}]}},
                 "got ['monomial', 'power']", id="wedge-component-stray-key"),
])
def test_an_entry_with_a_key_it_does_not_read_exits_2(tmp_path, capsys, config, message):
    # an extension entry and a loop spec hold exactly one alternative, and
    # `random` reads only seed and count: anything else is named, not ignored
    from extlab import cli

    path = tmp_path / "config.json"
    path.write_text(json.dumps({"loop": {"monomial": 1}, **config}), encoding="utf-8")
    assert cli.main(["pair", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_a_one_term_loop_just_above_the_margin_pairs(tmp_path, capsys):
    from extlab import cli

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"loop": {"fourier": {"0": 0.1000001}}}), encoding="utf-8")
    assert cli.main(["pair", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["pairings"][0]["index"] == 0


@pytest.mark.parametrize("argv, config, size, index", [
    pytest.param(("pair",), {"loop": 1, "extension": {"boundary": [[1]]}}, 1, 2,
                 id="pair-boundary"),
    pytest.param(("spectrum",), {"extension": {"boundary": [[1]]}}, 1, 2, id="spectrum-boundary"),
    pytest.param(("spectrum",), {"extension": {"matrix": [[1]]}}, 1, 2, id="spectrum-matrix"),
] + [pytest.param((command,), {"partition": [0, 0.3, 0.6, 1], "extension": {key: [[0, 1], [1, 0]]}},
                  2, 3, id=f"three-pieces-{command}-{key}")
     for command in ("spectrum", "boundary-matrix") for key in ("matrix", "boundary")])
def test_an_extension_of_the_wrong_size_exits_2(tmp_path, argv, config, size, index):
    proc = run_cli(*argv, config=config, tmp_path=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"is {size}x{size}, but the deficiency index is {index}" in proc.stderr


@pytest.mark.parametrize("big, code", [(1e308, 2), (1e200, 2), (1e150, 0)])
def test_loop_coefficients_past_the_bound_are_refused(tmp_path, big, code):
    # past the bound |u|^2 overflows, and neither the kernel SVD nor the
    # symbol winding can finish
    proc = run_cli("pair", config={"loop": {"fourier": {"1": 1, "2": big}}}, tmp_path=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 2:
        assert "the limit is 1e+150" in proc.stderr
    else:
        assert report_of(proc)["result"]["pairings"][0]["index"] == -2


@pytest.mark.parametrize("value, kind", [(1.5, int), (-1.7, int), (True, int), (True, float),
                                         (False, float)])
def test_numbers_refuse_fractions_and_booleans_by_field(value, kind):
    from extlab import cli
    from extlab.errors import ValidationError

    with pytest.raises(ValidationError, match="^the field must be"):
        cli._number(value, "the field", kind)


def test_integral_float_powers_are_accepted(tmp_path):
    from extlab import cli

    power = cli._number(2.0, "power", int)
    assert power == 2 and type(power) is int
    proc = run_cli("pair", config={"loop": {"monomial": 2.0}}, tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert report_of(proc)["result"]["pairings"][0]["loop"] == "z^2"


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


@pytest.mark.parametrize("delta", [1e-9, 3e-9, 1e-7])
def test_spectrum_counts_a_near_double_eigenvalue_once(tmp_path, capsys, delta):
    # B = Q diag(e^{0.3i}, e^{(0.3 + delta)i}) Q* on halves has 4 eigenvalues
    # in [0, 30]; an SVD threshold of 1e-8 counted 8 at delta 1e-9 and 3e-9
    from extlab import cli
    from extlab.vonneumann import haar_unitary

    Q = haar_unitary(np.random.default_rng(0), 2).matrix
    B = (Q * np.exp(1j * np.array([0.3, 0.3 + delta]))) @ Q.conj().T
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "extension": {"boundary": [[[z.real, z.imag] for z in row] for row in B.tolist()]},
        "window": [0.0, 30.0]}), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", str(config), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["spectra"][0]["count"] == 4
    _header, rows = _csv_rows(out / "spectrum.csv")
    assert sum(int(r[2]) for r in rows) == 4


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


def test_boundary_matrix_numeric_route_on_64_unequal_pieces(tmp_path):
    # the most pieces a config may ask for: 64 unequal pieces (knots drawn
    # with rng seed 102) and 3 random extensions, each recovered by the
    # sampled least squares within the report's tolerance
    knots = np.sort(np.random.default_rng(102).uniform(0.0, 1.0, 63))
    cfg = {"partition": [0.0, *knots.tolist(), 1.0],
           "extensions": [{"random": {"seed": 102, "count": 3}}]}
    proc = run_cli("boundary-matrix", config=cfg, tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rep = report_of(proc)
    entries = rep["result"]["matrices"]
    assert [e["label"] for e in entries] == ["seed102-0", "seed102-1", "seed102-2"]
    assert all(e["deviation_numeric"] < rep["tolerance"] for e in entries)


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


def test_a_section_of_rounding_error_reads_as_a_kernel(tmp_path):
    # below 2 pi the one column is the constant eigenfunction, which zbar maps
    # out of the rows: A(zbar) is 6 x 1 with one singular value of rounding
    # error, a kernel that makes coker A(z) = 1 at every cutoff
    cfg = {"loop": {"monomial": 1}, "cutoffs": [0.001, 0.002, 0.003]}
    out = tmp_path / "out"
    proc = run_cli("pair", "--out", str(out), config=cfg, tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    pairing = report_of(proc)["result"]["pairings"][0]
    assert (pairing["index"], pairing["stable"], pairing["error"]) == (-1, True, None)
    _header, rows = _csv_rows(out / "pair.csv")
    assert rows[0][4].count(":0/1") == 3
    # nothing retained in A(zbar): the section does not certify, the symbol does
    assert rows[0][5] == "symbol-winding"


def test_pair_withholds_a_plateau_that_contradicts_the_winding(tmp_path):
    # three unequal pieces, no symbol route: a short schedule settles on
    # index 0 for z^-1, whose index is 1
    cfg = {"partition": [0, 0.2, 0.55, 1], "loop": {"monomial": -1},
           "extensions": [{"random": {"seed": 8, "count": 1}}],
           "cutoffs": [4 * math.pi, 8 * math.pi, 16 * math.pi]}
    out = tmp_path / "out"
    proc = run_cli("pair", "--out", str(out), config=cfg, tmp_path=tmp_path)
    assert proc.returncode == 3, proc.stderr
    rep = report_of(proc)
    assert rep["status"] == "unstable"
    assert rep["result"]["pairings"] == [{
        "loop": "z^-1",
        "extension": "seed8-0",
        "index": None,
        "winding": -1,
        "stable": False,
        "error": "finite-section index 0 disagrees with -winding 1",
    }]
    _header, rows = _csv_rows(out / "pair.csv")
    assert rows == [["z^-1", "seed8-0", "", "-1", "", "uncertified"]]


@pytest.mark.parametrize("n", [700, 1000, 1900])
def test_pair_certifies_a_high_reach_monomial(tmp_path, n):
    # the symbol grid grows with the reach (16384 points at z^700, 65536 at
    # z^1900), where a fixed 8192-point grid was too coarse to unwind
    out = tmp_path / "out"
    proc = run_cli("pair", "--out", str(out), config={"loop": {"monomial": n}},
                   tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    pairing = report_of(proc)["result"]["pairings"][0]
    assert (pairing["index"], pairing["winding"], pairing["stable"]) == (-n, n, True)
    _header, rows = _csv_rows(out / "pair.csv")
    assert rows[0][5] == "symbol-winding"


def test_a_loop_past_the_largest_grid_reports_its_pairings(tmp_path):
    # no grid within 2^18 points proves this loop's unwinding, so `winding`
    # raises: the error is the pairing's, in a printed report with no winding
    loop = {"fourier": {"-746": [11.37, 4.22], "-627": [-0.072, 0.044],
                        "-1038": [0.474, -5.05], "-1890": [-4.01, -14.33]}}
    out = tmp_path / "out"
    proc = run_cli("pair", "--out", str(out), config={"loop": loop, "extension": "swap"},
                   tmp_path=tmp_path)
    assert proc.returncode == 3, proc.stderr
    label = "fourier[-1890;-1038;-746;-627]"
    assert report_of(proc)["result"]["pairings"] == [{
        "loop": label,
        "extension": "swap",
        "index": None,
        "winding": None,
        "stable": False,
        "error": "symbol grid too coarse for safe unwinding",
    }]
    _header, rows = _csv_rows(out / "pair.csv")
    assert rows == [[label, "swap", "", "", "", "uncertified"]]


@pytest.mark.parametrize("loop, message", [
    pytest.param({"fourier": {"0": 1.0, "2000": 0.895}}, "eigenbasis window 13395.8 exceeds 12868",
                 id="two-term"),
    pytest.param({"monomial": 1917}, "eigenbasis window 12874.2 exceeds 12868", id="monomial"),
])
def test_pair_refuses_a_too_wide_window_before_unwinding(tmp_path, monkeypatch, capsys,
                                                         loop, message):
    # each B's eigenbasis, and so the window check, comes before any loop
    # work: the two-term loop's grid would fail (exit 3) if it were sized first
    from extlab import cli, pairing

    def unwinding_grid(loop):
        raise AssertionError("the loop was unwound before the window check")

    monkeypatch.setattr(pairing, "unwinding_grid", unwinding_grid)
    monkeypatch.setattr(cli, "unwinding_grid", unwinding_grid)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"loop": loop}), encoding="utf-8")
    assert cli.main(["pair", "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error (validation): {message}" in err


_COEFFICIENT = st.builds(lambda r, phi: [r * math.cos(phi), r * math.sin(phi)],
                         st.floats(1e-3, 1e6), st.floats(0.0, 2 * math.pi))
_LOOPS = st.one_of(
    st.builds(lambda n: {"monomial": n}, st.integers(-2000, 2000)),
    st.builds(lambda terms: {"fourier": terms},
              st.dictionaries(st.integers(-2000, 2000).map(str), _COEFFICIENT,
                              min_size=1, max_size=4)),
    st.builds(lambda a, b: {"wedge": [{"monomial": a}, {"monomial": b}]},
              st.integers(-5, 5), st.integers(-5, 5)),
)
_EXTENSIONS = st.one_of(st.sampled_from(["swap", "identity"]),
                        st.builds(lambda seed: {"random": {"seed": seed, "count": 1}},
                                  st.integers(0, 2 ** 32)))


@settings(max_examples=30, deadline=None)
@given(_LOOPS, st.lists(st.floats(1e-3, 256 * math.pi), min_size=1, max_size=5, unique=True),
       _EXTENSIONS)
def test_pair_keeps_the_exit_contract_on_any_loop(loop, cutoffs, extension):
    # the inputs the symbol grid's sizing reads: reach, coefficient sizes and
    # the loop's minimum modulus; any of them exits 0, 2 or 3, never raises
    # out of the CLI, and prints a report for 0 and 3
    from extlab import cli

    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"loop": loop, "cutoffs": sorted(cutoffs), "extension": extension}, fh)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["pair", "--config", config])
    assert code in (0, 2, 3)
    if code != 2:
        report = json.loads(stdout.getvalue())
        assert report["command"] == "pair"
        assert report["status"] == ("pass" if code == 0 else "unstable")


#: the suite options each sweep reads; a key of the other sweep is refused
_SWEEP_KEYS = {"extension-independence": "powers", "addition-dirac": "max_power"}


@st.composite
def _sweep_configs(draw):
    """(suite, config, foreign) for either sweep: `count` of 1 or 2 B,
    `extension_seed`, its own `powers` or `max_power` over small ranges, and
    cutoffs up to 64 pi, with at most one flaw: a count, seed or range that
    is invalid (a reversed `powers`, a negative `max_power`), or the other
    sweep's key, when `foreign`."""
    suite = draw(st.sampled_from(sorted(_SWEEP_KEYS)))
    flaw = draw(st.sampled_from([None, None, None, None, "count", "seed", "range", "foreign"]))
    own = _SWEEP_KEYS[suite]
    options = {"count": draw(st.sampled_from([0, -1, 1.5, True]) if flaw == "count"
                             else st.integers(1, 2))}
    if flaw == "seed" or draw(st.booleans()):
        options["extension_seed"] = -1 if flaw == "seed" else draw(st.integers(0, 2 ** 63))
    ranges = {"powers": st.builds(lambda lo, step: [lo, lo + step], st.integers(-4, 4),
                                  st.integers(-1, 3) if flaw == "range" else st.integers(0, 3)),
              "max_power": st.integers(-1 if flaw == "range" else 0, 2)}
    if flaw == "range" or draw(st.booleans()):
        options[own] = draw(ranges[own])
    if flaw == "foreign":
        options[next(key for key in ranges if key != own)] = 0
    config = {"suite": options}
    if draw(st.booleans()):
        config["cutoffs"] = sorted(draw(st.lists(st.floats(1e-3, 64 * math.pi), min_size=1,
                                                 max_size=4, unique=True)))
    return suite, config, flaw == "foreign"


@settings(max_examples=40, deadline=None)
@given(_sweep_configs())
def test_the_sweeps_keep_the_exit_contract(suite_config):
    # no input escapes `cli.main`; it exits 0-3, the other sweep's key exits
    # 2, and exit 1 comes only with status fail and the failures named
    from extlab import cli

    suite, config, foreign = suite_config
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify", suite, "--config", path, "--out", os.path.join(tmp, "o")])
    assert code in (0, 1, 2, 3)
    if foreign:
        assert code == 2
    if code == 2:
        assert stdout.getvalue() == ""
        return
    report = json.loads(stdout.getvalue())
    assert report["command"] == "verify" and report["result"]["suite"] == suite
    assert report["status"] == {0: "pass", 1: "fail", 3: "unstable"}[code]
    assert bool(report["result"]["failures"]) == (code == 1)


def test_a_sweep_samples_each_paired_loop_once(tmp_path, monkeypatch, capsys):
    # each of the 5 paired wedge loops is sampled once on 8N points (N = 64
    # for all), beside its `unwinding_grid` sizing grids; no symbol call and
    # no pairing samples a grid of its own
    from extlab import cli, pairing

    grids = []
    original = pairing._grid_values

    def counted(pieces, npoints, offset=0.0):
        grids.append((pieces, npoints, offset))
        return original(pieces, npoints, offset)

    monkeypatch.setattr(pairing, "_grid_values", counted)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suite": {"count": 2, "max_power": 1}}), encoding="utf-8")
    assert cli.main(["verify", "addition-dirac", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["pairings"] == 18
    samplings = [pieces for pieces, npoints, offset in grids if npoints == 8 * 64]
    assert len(samplings) == len(set(samplings)) == 5
    assert all(offset == 0.0 and npoints in (64, 512) for _pieces, npoints, offset in grids)


# sha256 of report.json and pair.csv of `_UNEQUAL_PAIR`, recorded when each
# loop was sampled on 8N points on every partition
_UNEQUAL_PAIR = {"partition": [0, 0.3, 0.55, 1], "loop": {"fourier": {"0": 1.0, "3": 0.25}},
                 "extensions": [{"random": {"count": 2, "seed": 1}}, "swap"]}
_UNEQUAL_PAIR_DIGESTS = (
    "66b9c3499c3b374ea1045123d4f6a8dd410099572f8295de388862b275cb0d9d",
    "ae872d55b80a3fd5ad7ed684381a4c270230ae0669c2255a17709f41c27f949d",
)


@pytest.mark.parametrize("partition, per_point", [([0, 0.3, 0.55, 1], 1), ([0, 0.5, 1], 8)],
                         ids=["unequal", "halves"])
def test_pair_samples_a_loop_on_the_grid_its_partition_reads(tmp_path, monkeypatch, capsys,
                                                            partition, per_point):
    # off two equal pieces `pair` reads only the winding's N-point grid, so
    # the loop is sampled on N points there; on two equal pieces the symbol
    # calls read the 8N points
    import hashlib

    from extlab import cli, pairing

    lengths = []
    original = cli.pair

    def recorded(*args, samples=None, **kwargs):
        lengths.append(len(samples))
        return original(*args, samples=samples, **kwargs)

    monkeypatch.setattr(cli, "pair", recorded)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**_UNEQUAL_PAIR, "partition": partition}), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["pair", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    ngrid = pairing.unwinding_grid(cli._resolve_loop(_UNEQUAL_PAIR["loop"])[1])[0]
    assert lengths == [per_point * ngrid] * 3
    if per_point == 1:
        assert tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                     for name in ("report.json", "pair.csv")) == _UNEQUAL_PAIR_DIGESTS


#: above this many pieces `boundary-matrix` runs without its numeric route;
#: `_operator_configs` draws at most `cli.MAX_PIECES` = 64 pieces, so the
#: route is fuzzed at every admitted size (about 0.1 s an extension at 64)
_NUMERIC_PIECES = 64

_MATRIX_ENTRY = st.one_of(
    # a filled square or an identity of any size: against the deficiency
    # index that is the wrong size, not unitary, or a valid extension
    st.builds(lambda key, n, value: {key: [[value] * n] * n},
              st.sampled_from(["matrix", "boundary"]), st.integers(0, 4),
              st.one_of(st.floats(-2.0, 2.0), st.just([0.0, 1.0]))),
    st.builds(lambda key, n: {key: np.eye(n).tolist()},
              st.sampled_from(["matrix", "boundary"]), st.integers(1, 4)),
    st.sampled_from(["nosuch", {"random": {"count": 0}}]),
)
_VALID_ENTRY = st.one_of(
    st.sampled_from(["swap", "identity"]),
    st.builds(lambda seed, count: {"random": {"seed": seed, "count": count}},
              st.integers(0, 2 ** 32), st.integers(1, 2)),
)


@st.composite
def _operator_configs(draw):
    """(command, config) for `deficiency` or `boundary-matrix`: partitions of
    up to 64 pieces, some with knots 1e-15..1e-6 apart or far below that,
    a quarter of them unsorted or repeated; released knots or stray
    constraints; explicit extension matrices of any size; windows, which
    neither command reads."""
    # the size drawn first: a plain list strategy rarely draws long lists
    size = draw(st.integers(0, 61))
    interior = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                             min_size=size, max_size=size))
    offsets = draw(st.lists(st.floats(1e-15, 1e-6), max_size=2))
    interior += [interior[i % len(interior)] + d for i, d in enumerate(offsets) if interior]
    knots = [0.0, *(interior if draw(st.integers(0, 3)) == 0 else sorted(set(interior))), 1.0]
    entries = draw(st.lists(_VALID_ENTRY, min_size=1, max_size=2))
    if draw(st.integers(0, 2)) == 0:
        entries.insert(draw(st.integers(0, len(entries))), draw(_MATRIX_ENTRY))
    config = {"partition": knots, "extensions": entries}
    constraints = draw(st.sampled_from(["all", "released", "stray"]))
    if constraints == "released":
        released = draw(st.lists(st.booleans(), min_size=len(knots), max_size=len(knots)))
        config["knot_constraints"] = [0.0, *(t for t, free in zip(knots[1:-1], released)
                                             if not free), 1.0]
    elif constraints == "stray":
        config["knot_constraints"] = draw(st.lists(st.floats(0.0, 1.0), max_size=4))
    if draw(st.booleans()):
        config["window"] = draw(st.lists(st.floats(-1e3, 1e3), max_size=3))
    command = draw(st.sampled_from(["deficiency", "boundary-matrix"]))
    if command == "boundary-matrix":
        numeric = len(knots) - 1 <= _NUMERIC_PIECES and draw(st.booleans())
        config["suite"] = {"numeric": numeric}
    return command, config


@settings(max_examples=60, deadline=None)
@given(_operator_configs())
def test_deficiency_and_boundary_matrix_keep_the_exit_contract(command_config):
    # no input escapes `cli.main`; it exits 0, 2 or 3, never 1 (these
    # commands check no property), and prints a report for 0 and 3
    from extlab import cli

    command, config = command_config
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, "--config", path])
    assert code in (0, 2, 3)
    if code != 2:
        report = json.loads(stdout.getvalue())
        assert report["command"] == command
        assert report["status"] == ("pass" if code == 0 else "unstable")


@pytest.mark.parametrize("argv, cfg, csv_name", [
    pytest.param(("pair",), {"loop": {"monomial": -1},
                             "extensions": [{"anchor": "swap"},
                                            {"random": {"count": 3, "seed": 9}}]},
                 "pair.csv", id="pair"),
    # the sweeps share one eigenbasis per B between the pool's threads
    pytest.param(("verify", "extension-independence"), {"suite": {"count": 3}},
                 "verify-extension-independence.csv", id="verify-extension-independence"),
    pytest.param(("verify", "addition-dirac"), {"suite": {"count": 3}},
                 "verify-addition-dirac.csv", id="verify-addition-dirac"),
])
def test_pair_jobs_do_not_change_bytes(tmp_path, argv, cfg, csv_name):
    outs = []
    for jobs, tag in (("1", "a"), ("3", "b")):
        out = tmp_path / tag
        proc = run_cli(*argv, "--jobs", jobs, "--out", str(out), config=cfg,
                       tmp_path=tmp_path)
        assert proc.returncode == 0, proc.stderr
        outs.append((proc.stdout, (out / "report.json").read_bytes(),
                     (out / csv_name).read_bytes()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("jobs", ["1", "3"])
def test_a_failed_eigenbasis_leaves_only_its_pairings_uncertified(
        tmp_path, monkeypatch, capsys, jobs):
    from extlab import cli, pairing
    from extlab.errors import NumericalError
    from extlab.vonneumann import boundary_array, boundary_matrix_closed_form, haar_unitary

    rng = np.random.default_rng(5)
    bad = [boundary_matrix_closed_form(haar_unitary(rng)).matrix for _ in range(3)][1]
    original = pairing.eigenbasis

    def eigenbasis(B, *args, **kwargs):
        if np.array_equal(boundary_array(B), bad):
            raise NumericalError("injected eigenbasis failure")
        return original(B, *args, **kwargs)

    monkeypatch.setattr(pairing, "eigenbasis", eigenbasis)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suite": {"count": 3, "extension_seed": 5,
                                            "powers": [-1, 1]}}), encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main(["verify", "extension-independence", "--jobs", jobs,
                     "--config", str(config), "--out", str(out)])
    assert code == 3
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "unstable" and rep["result"]["failures"] == []
    assert rep["result"]["unstable"] == [{"loop": f"z^{n}", "extension": "seed5-1"}
                                         for n in (-1, 0, 1)]
    assert rep == json.loads((out / "report.json").read_text(encoding="utf-8"))
    _header, rows = _csv_rows(out / "verify-extension-independence.csv")
    assert len(rows) == 9
    for row in rows:
        assert (row[-1] == "uncertified") == (row[1] == "seed5-1")


def _count_pairing_kernels(monkeypatch):
    """Counters of `compression_matrix` calls (sections), of the strip
    assemblies behind them and of SVDs called from the pairing module (the kernel SVDs;
    the eigenbasis SVDs run in spectral)."""
    from extlab import pairing

    counts = {"compression": 0, "assembly": 0, "svd": 0}
    compression, assembly = pairing.compression_matrix, pairing.multiplication_matrix
    svd = np.linalg.svd

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    def counted_svd(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "extlab.pairing":
            counts["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(pairing, "compression_matrix", counted("compression", compression))
    monkeypatch.setattr(pairing, "multiplication_matrix", counted("assembly", assembly))
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return counts


@pytest.mark.parametrize("argv, cfg, calls, assemblies", [
    # z^-3..z^3 against one B: z^-3..z^-1 are paired, 8 sections each, z^0 is
    # its own conjugate (4), and z^1..z^3 are read off their conjugates; on
    # the default knots each paired loop assembles one table, its window's
    # rows against each ladder's first and last eigenfunction, and gathers
    # the real strips whose blocks are all its sections
    pytest.param(("verify", "extension-independence"), {"suite": {"count": 1}}, 28, 4,
                 id="sweep"),
    # a single pairing has no shared basis: A(u) and A(ubar) at each cutoff,
    # only A(u) when the loop is its own conjugate
    pytest.param(("pair",), {"loop": {"monomial": 2}}, 8, 1, id="pair"),
    pytest.param(("pair",), {"loop": {"monomial": 0}}, 4, 1, id="pair-self-conjugate"),
])
def test_sweeps_compress_and_decompose_each_loop_once(
        tmp_path, monkeypatch, capsys, argv, cfg, calls, assemblies):
    from extlab import cli

    counts = _count_pairing_kernels(monkeypatch)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main([*argv, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert counts == {"compression": calls, "assembly": assemblies, "svd": calls}


def _count_pairing_stages(monkeypatch):
    """Call lists of the stages a pairing shares: B's decomposition (its
    `_unitary_eigenbasis`, which B's eigenbasis and its seam share), the
    loop's `unwinding_grid`, wherever each is called from, and
    `symbol_index`.  Lists, so threads may append."""
    from extlab import cli, pairing, spectral

    calls = {"seam": [], "grid": [], "symbol": []}
    seam, grid, symbol = (pairing._unitary_eigenbasis, pairing.unwinding_grid,
                          pairing.symbol_index)

    def counted(key, fn):
        def call(*args, **kwargs):
            calls[key].append(args[0])
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(pairing, "_unitary_eigenbasis", counted("seam", seam))
    monkeypatch.setattr(spectral, "_unitary_eigenbasis", pairing._unitary_eigenbasis)
    monkeypatch.setattr(pairing, "unwinding_grid", counted("grid", grid))
    monkeypatch.setattr(cli, "unwinding_grid", pairing.unwinding_grid)
    monkeypatch.setattr(pairing, "symbol_index", counted("symbol", symbol))
    return calls


@pytest.mark.parametrize("jobs", ["1", "3"])
@pytest.mark.parametrize("argv, cfg, extensions, paired", [
    # z^-3..z^0 are paired with each of 3 B; z^1..z^3 are read off them
    pytest.param(("verify", "extension-independence"), {"suite": {"count": 3}}, 3, 4,
                 id="monomials"),
    # 5 of the 9 wedge pullbacks of max_power 1 are paired with each of 2 B
    pytest.param(("verify", "addition-dirac"), {"suite": {"count": 2, "max_power": 1}}, 2, 5,
                 id="wedge"),
    # one loop against 3 B: `pair` takes the sweeps' driver, one seam basis a B
    pytest.param(("pair",), {"loop": {"monomial": -1},
                             "extensions": [{"anchor": "swap"},
                                            {"random": {"count": 2, "seed": 9}}]}, 3, 1,
                 id="pair"),
])
def test_a_report_builds_each_shared_stage_once(tmp_path, monkeypatch, capsys,
                                                argv, cfg, extensions, paired, jobs):
    from extlab import cli

    calls = _count_pairing_stages(monkeypatch)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    # the pool's threads share each B's seam basis and each loop's N:
    # switch between them often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert cli.main([*argv, "--jobs", jobs, "--config", str(config),
                         "--out", str(tmp_path / "out")]) == 0
    finally:
        sys.setswitchinterval(interval)
    capsys.readouterr()
    # B decomposed once per B, for its eigenbasis and its seam, the
    # unwinding grid once per paired loop, and still two symbol calls (at N
    # and 2N) per pairing
    assert len(calls["seam"]) == len({B.tobytes() for B in calls["seam"]}) == extensions
    assert len(calls["grid"]) == len({id(loop) for loop in calls["grid"]}) == paired
    assert len(calls["symbol"]) == 2 * paired * extensions
    assert {id(loop) for loop in calls["symbol"]} == {id(loop) for loop in calls["grid"]}


@pytest.mark.parametrize("seed", [0, 7, 19])
@pytest.mark.parametrize("suite", ["extension-independence", "addition-dirac"])
def test_a_sweep_reads_the_same_bytes_with_or_without_the_table(tmp_path, monkeypatch, capsys,
                                                                suite, seed):
    # one B: stdout and every artifact (report.json and the sweep's CSV) are
    # the same with the ladder table, without it (every real strip gauged
    # from its assembled strip), and with three CLI threads; the basis is
    # built once, on the main thread, before the pool starts, and labels
    # the two pieces' ladders
    import threading

    from extlab import cli, pairing

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suite": {"count": 1, "extension_seed": seed}}),
                      encoding="utf-8")
    labelled, eigen_arrays = [], cli.eigen_arrays

    def counted(*args):
        basis = eigen_arrays(*args)
        labelled.append((threading.current_thread() is threading.main_thread(), basis[2]))
        return basis

    monkeypatch.setattr(cli, "eigen_arrays", counted)

    def run(name, jobs="1"):
        out = tmp_path / name
        code = cli.main(["verify", suite, "--jobs", jobs, "--config", str(config),
                         "--out", str(out)])
        return code, capsys.readouterr().out, {f.name: f.read_bytes() for f in out.iterdir()}

    table = run("table")
    threads = run("threads", "3")
    assert labelled == [(True, 2), (True, 2)]
    monkeypatch.setattr(pairing._SectionWindow, "table", None)
    assert table == run("no-table") == threads
    assert sorted(table[2]) == ["report.json", f"verify-{suite}.csv"]


def test_a_sweep_takes_each_winding_once(tmp_path, monkeypatch, capsys):
    from extlab import cli

    wound = []
    original = cli.winding

    def winding(loop, *args, **kwargs):
        wound.append(loop)
        return original(loop, *args, **kwargs)

    monkeypatch.setattr(cli, "winding", winding)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suite": {"count": 2, "extension_seed": 0,
                                            "powers": [-2, 2]}}), encoding="utf-8")
    assert cli.main(["verify", "extension-independence", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["pairings"] == 10
    # z^1 and z^2 take minus the windings of z^-1 and z^-2
    assert len(wound) == 3 and len({id(loop) for loop in wound}) == 3
    _header, rows = _csv_rows(tmp_path / "out" / "verify-extension-independence.csv")
    assert [int(row[3]) for row in rows] == [n for n in range(-2, 3) for _ in range(2)]


@pytest.mark.parametrize("jobs", ["1", "3"])
def test_a_failed_winding_leaves_only_its_loops_pairings_uncertified(
        tmp_path, monkeypatch, capsys, jobs):
    from extlab import cli
    from extlab.errors import NumericalError
    from extlab.pairing import UnitaryLoop

    original = cli.winding

    def winding(loop, *args):
        if loop.pieces == UnitaryLoop.monomial(-2).pieces:
            raise NumericalError("symbol grid too coarse for safe unwinding")
        return original(loop, *args)

    monkeypatch.setattr(cli, "winding", winding)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suite": {"count": 2, "extension_seed": 0,
                                            "powers": [-2, 2]}}), encoding="utf-8")
    assert cli.main(["verify", "extension-independence", "--config", str(config),
                     "--jobs", jobs, "--out", str(tmp_path / "out")]) == 3
    rep = json.loads(capsys.readouterr().out)
    # z^2 is read off z^-2, so it shares the error
    assert rep["result"]["unstable"] == [{"loop": loop, "extension": ext}
                                         for loop in ("z^-2", "z^2")
                                         for ext in ("seed0-0", "seed0-1")]
    assert rep["result"]["failures"] == []
    _header, rows = _csv_rows(tmp_path / "out" / "verify-extension-independence.csv")
    assert [row[2:4] for row in rows] == [
        ["", ""], ["", ""], ["1", "-1"], ["1", "-1"], ["0", "0"], ["0", "0"],
        ["-1", "1"], ["-1", "1"], ["", ""], ["", ""]]


@pytest.mark.parametrize("suite, options, paired", [
    # z^-3..z^0; z^1..z^3 are their conjugates
    pytest.param("extension-independence", {}, 4, id="monomials"),
    # wedge(z^a|z^b) for |a|, |b| <= 1: the four loops before wedge(z^0|z^0),
    # then that self-conjugate one; the other four are their conjugates
    pytest.param("addition-dirac", {"max_power": 1}, 5, id="wedge"),
])
def test_a_sweep_pairs_each_conjugate_pair_once(tmp_path, monkeypatch, capsys,
                                                suite, options, paired):
    from extlab import cli

    loops = []
    original = cli.pair

    def pair(loop, *args, **kwargs):
        loops.append(loop)
        return original(loop, *args, **kwargs)

    monkeypatch.setattr(cli, "pair", pair)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suite": dict(options, count=1)}), encoding="utf-8")
    assert cli.main(["verify", suite, "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["pairings"] == rep["result"]["loops"] > len(loops) == paired
    assert all(u.conjugate().pieces != v.pieces for u, v in itertools.combinations(loops, 2))


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


def _verify_ksum_in_process(tmp_path, capsys, cfg=None):
    """(exit code, report, CSV header and rows) of `verify ksum` run through
    `cli.main`."""
    from extlab import cli

    argv = ["verify", "ksum", "--out", str(tmp_path / "out")]
    if cfg is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        argv += ["--config", str(config)]
    code = cli.main(argv)
    report = json.loads(capsys.readouterr().out)
    return (code, report, *_csv_rows(tmp_path / "out" / "verify-ksum.csv"))


# sha256 of report.json and verify-ksum.csv, recorded before the identity grid
# stopped re-validating derived classes; bench/golden.json covers bound 6 only
_KSUM_DIGESTS = {
    0: ("10cdf43f49f9c2fd639ecae3d5359e9e78f0491133a3d879c09e0726a924b534",
        "986f2d070e77a4216cf9aae1488375f7baac0d616cef7ed33d69c0f05fda4360"),
    1: ("858e640601af1d212dad6da7a1adf89ae7aa28c04b3f570f8acdb2a80116fe27",
        "13e625b61bb3b0c4cd53da6272a3121c29486bb7f3eeff9648af9826ba48937e"),
    12: ("b8d304e2611afaea02c20a6af919083ed9d25eb7d29889aa0ad18b01a1ee08fe",
         "ccb165f9454972b8f448f32bfeb0b6a1e331d9d12b66effea627760fbafdf246"),
    64: ("c88471287a2ca34d8cfffa3cf93ddf4ffb3f69701a723a45115742a4b43689c1",
         "55d7548816096e6e9f839784c74a94d44943da75be2a80d198b9b9e8a70c665b"),
}


@pytest.mark.parametrize("bound", sorted(_KSUM_DIGESTS))
def test_verify_ksum_bytes_beyond_the_golden_bound(tmp_path, capsys, bound):
    import hashlib

    code, *_ = _verify_ksum_in_process(tmp_path, capsys, {"suite": {"genus_bound": bound}})
    assert code == 0
    out = tmp_path / "out"
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("report.json", "verify-ksum.csv"))
    assert got == _KSUM_DIGESTS[bound]


def _broken_crunch(source, target):
    # keeps the right factor's fundamental class instead of the left's
    return ((1,),), ((0, 1),), None


def _broken_natural_pinch(source, target):
    # sends the handle surface's fundamental class to the left surface's only
    return ((1,),), ((1,), (0,)), None


@pytest.mark.parametrize("kind, broken, constructor, failing", [
    # the crunched pinch still sends both wedge fundamental classes' sum to
    # the one surface class, so only the two single-factor crunches fail;
    # crunch-pinch-functoriality holds for any linear q
    pytest.param("q_crunch", _broken_crunch, "crunch",
                 {"crunch-left-dolbeault", "crunch-right-dolbeault"}, id="crunch"),
    pytest.param("p_pinch_natural_sum", _broken_natural_pinch, "pinch_natural_sum",
                 {"dolbeault-natural-sum-addition", "natural-sum-fundamental-class"},
                 id="natural-sum-pinch"),
])
def test_a_broken_map_fails_only_the_identities_that_read_it(tmp_path, monkeypatch, capsys,
                                                             kind, broken, constructor, failing):
    from extlab import ksum

    # the map kind's one matrix definition, which the grid and the scalar
    # constructor both read
    monkeypatch.setitem(ksum._MATRICES, kind, broken)
    scalar = getattr(ksum, constructor)(2, 3)
    assert (scalar.h0, scalar.h2, scalar.h1) == broken(None, None)
    code, report, header, body = _verify_ksum_in_process(tmp_path, capsys)
    assert code == 1
    assert report["status"] == "fail"
    assert report["result"]["checks"] == 604
    failed = {line.split()[1] for line in report["result"]["failures"]}
    assert failed == failing
    assert header[-1] == "status" and len(body) == 604
    mismatched = [row for row in body if row[-1] == "mismatch"]
    assert len(mismatched) == len(report["result"]["failures"]) == 2 * 7 * 7
    assert {row[0] for row in mismatched} == failed
    assert all(row[-1] == "ok" for row in body if row[0] not in failed)


def _first_h0_entry_plus_one(kind):
    """`kind`'s matrices with their first H0 entry one larger."""
    from extlab import ksum

    original = ksum._MATRICES[kind]

    def broken(source, target):
        h0, h2, h1 = original(source, target)
        return ((h0[0][0] + 1, *h0[0][1:]), *h0[1:]), h2, h1

    return broken


#: every kind of `ksum._MATRICES`
_KSUM_MAP_KINDS = ("iota_basepoint", "j_disjoint_to_union", "j_disjoint_to_wedge",
                   "p_pinch_connected_sum", "p_pinch_natural_sum", "q0_constant", "q_crunch")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 20), st.sampled_from([None, *_KSUM_MAP_KINDS]))
def test_the_block_formatter_writes_the_per_check_csv(bound, kind):
    # the CLI formats each identity block in one pass and interleaves the
    # blocks; the oracle formats the report's checks one at a time
    from extlab import cli, ksum
    from oracles import ksum_rows

    assert sorted(ksum._MATRICES) == list(_KSUM_MAP_KINDS)
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        if kind is not None:
            patch.setitem(ksum._MATRICES, kind, _first_h0_entry_plus_one(kind))
        report = ksum.verify_identities(bound)
        config = os.path.join(tmp, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"suite": {"genus_bound": bound}}, fh)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["verify", "ksum", "--config", config, "--out", tmp])
        with open(os.path.join(tmp, "verify-ksum.csv"), encoding="utf-8") as fh:
            written = fh.read()
    checks = report.checks
    assert written == cli.csv_text(cli._KSUM_CSV_HEADER, ksum_rows(checks))
    failed = [c for c in checks if not c.ok]
    assert list(report.failures) == failed
    assert (code, report.passed, len(report)) == (1 if failed else 0, not failed, len(checks))
    result = json.loads(stdout.getvalue())["result"]
    assert result["checks"] == len(checks)
    assert result["failures"] == [c.describe() for c in failed]
    assert all(line.startswith("MISMATCH ") for line in result["failures"])
    mismatched = [line for line in written.splitlines() if line.endswith(",mismatch")]
    assert mismatched == [",".join(row) for row in ksum_rows(failed)]
    assert bool(failed) == (kind is not None)


def test_the_ksum_alias_writes_the_verify_ksum_bytes(tmp_path):
    verify, alias = tmp_path / "verify", tmp_path / "alias"
    procs = [run_cli("verify", "ksum", "--out", str(verify)),
             run_cli("ksum", "--out", str(alias))]
    assert [p.returncode for p in procs] == [0, 0]
    assert (verify / "verify-ksum.csv").read_bytes() == (alias / "verify-ksum.csv").read_bytes()
    # the reports differ only in the command they name
    reports = [report_of(p) for p in procs]
    assert [r.pop("command") for r in reports] == ["verify", "ksum"]
    assert reports[0] == reports[1]


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


def test_a_sweep_builds_each_wedge_loop_once(tmp_path, monkeypatch, capsys):
    from extlab import cli
    from extlab.pairing import UnitaryLoop

    original = UnitaryLoop.wedge_pair
    built = []

    def wedge_pair(cls, u1, u2):
        built.append(original(u1, u2))
        return built[-1]

    monkeypatch.setattr(UnitaryLoop, "wedge_pair", classmethod(wedge_pair))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suite": {"count": 2, "max_power": 1}}), encoding="utf-8")
    code = cli.main(["verify", "addition-dirac", "--config", str(config),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["pairings"] == 18
    # 9 wedge loops, 2 extensions: each loop is built once, as its pullback,
    # and shared by both B
    assert len(built) == 9
    _header, rows = _csv_rows(tmp_path / "out" / "verify-addition-dirac.csv")
    assert rows[0][0] == "wedge(z^-1|z^-1)"
