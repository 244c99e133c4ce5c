"""Batch front end: JSON-configured experiments with reproducible reports.

Commands
--------
deficiency        defect indices and orthonormal defect bases
boundary-matrix   closed-form boundary matrices cross-checked numerically
spectrum          eigenvalue tables (CSV) with an optional SVG tick plot
pair              index pairing of one loop against chosen extensions
verify SUITE      property sweeps: extension-independence, addition-dirac, ksum
ksum              the exact integer identity suite on its own

Every report embeds the sha256 of the canonicalized configuration, the
effective seed, and the package version.  Floats are rendered with 12
significant digits everywhere, so identical configurations produce
byte-identical stdout, CSV and SVG bytes.

Exit codes: 0 success, 1 property failure, 2 invalid configuration or
arguments, 3 numerical instability (uncertified pairing, residual
overflow, or closed/numeric route divergence).
"""

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import ksum as ksum_calculus
from .analysis import Partition
from .errors import (
    ExtlabError,
    NumericalError,
    PropertyFailure,
    StructuralError,
    ValidationError,
)
from .pairing import (
    DEFAULT_CUTOFFS,
    MAX_BASIS_WINDOW,
    TWO_PI,
    UnitaryLoop,
    basis_window,
    eigen_arrays,
    pair,
    pullback_loop,
    winding,
)
from .spectral import RESIDUAL_TOL, eigenphases
from .vonneumann import (
    BoundaryMatrix,
    ExtensionUnitary,
    OperatorSpec,
    boundary_matrix_closed_form,
    boundary_matrix_general,
    boundary_matrix_numeric,
    build_extension,
    compute_deficiency,
    haar_unitary,
    identity_unitary,
    swap_unitary,
    unitary_from_boundary,
)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

#: the most random extensions one config entry may ask for
MAX_RANDOM_COUNT = 1000

#: the largest `verify ksum` genus bound; the identity grid grows with its square
MAX_GENUS_BOUND = 64

#: the most loops one `verify` sweep may build; every loop is paired with every
#: extension, and building one takes about 2 ms and 1.4 KB
MAX_SUITE_LOOPS = 1024

_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def fmt(x) -> str:
    """Canonical 12-significant-digit rendering used in every artifact."""
    v = float(x)
    if math.isnan(v) or math.isinf(v):
        raise NumericalError(f"non-finite value in report: {v}")
    s = "%.12g" % v
    return "0" if s == "-0" else s


def canonical_json(obj) -> str:
    """Sorted-key JSON with %.12g floats; the basis of config hashing and
    byte-identical reports."""
    out = []
    _emit_json(obj, out)
    return "".join(out)


def _emit_json(obj, out):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        _emit_json([float(obj.real), float(obj.imag)], out)
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ValidationError("JSON object keys must be strings")
            if i:
                out.append(", ")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(": ")
            _emit_json(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, item in enumerate(seq):
            if i:
                out.append(", ")
            _emit_json(item, out)
        out.append("]")
    else:
        raise StructuralError(f"cannot serialize {type(obj).__name__} into a report")


def config_sha256(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def csv_text(header, rows) -> str:
    """CSV with a header row, LF endings; all cells must be strings already."""
    lines = [",".join(header)]
    for row in rows:
        for cell in row:
            if not isinstance(cell, str):
                raise StructuralError("CSV cells must be preformatted strings")
            if any(ch in cell for ch in ",\"\n"):
                raise StructuralError(f"CSV cell needs quoting, refusing: {cell!r}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def spectrum_svg(entries, window) -> str:
    """Standalone SVG with one row of eigenvalue ticks per boundary matrix.

    ``entries`` is a list of (label, [(eigenvalue, multiplicity), ...]);
    multiplicity m is drawn as m closely spaced ticks.
    """
    lo, hi = float(window[0]), float(window[1])
    if hi <= lo:
        raise ValidationError("cannot plot an empty spectral window")
    width, margin, row_h = 840, 48.0, 46.0
    height = 2 * margin + row_h * max(len(entries), 1)

    def xpos(lam):
        return margin + (lam - lo) / (hi - lo) * (width - 2 * margin)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{fmt(height)}" viewBox="0 0 {width} {fmt(height)}">',
        f'<rect width="{width}" height="{fmt(height)}" fill="white"/>',
        f'<text x="{fmt(margin)}" y="{fmt(margin - 20)}" font-family="monospace" '
        f'font-size="12" fill="#333">window [{fmt(lo)}, {fmt(hi)}]</text>',
    ]
    for i, (label, ticks) in enumerate(entries):
        base = margin + row_h * (i + 0.5)
        color = _SVG_PALETTE[i % len(_SVG_PALETTE)]
        parts.append(
            f'<line x1="{fmt(margin)}" y1="{fmt(base)}" x2="{fmt(width - margin)}" '
            f'y2="{fmt(base)}" stroke="#bbb" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{fmt(margin)}" y="{fmt(base - 14)}" font-family="monospace" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
        for lam, mult in ticks:
            for k in range(int(mult)):
                x = xpos(lam) + 2.0 * k
                parts.append(
                    f'<line x1="{fmt(x)}" y1="{fmt(base - 9)}" x2="{fmt(x)}" '
                    f'y2="{fmt(base + 9)}" stroke="{color}" stroke-width="1.5"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_ALLOWED_KEYS = {
    "partition",
    "knot_constraints",
    "extension",
    "extensions",
    "loop",
    "window",
    "cutoffs",
    "tolerance",
    "seed",
    "svg",
    "suite",
}


def _number(value, what: str, kind=float):
    """``kind(value)`` for a config entry, kind being float or int.

    A value the conversion refuses, a non-finite float, or an integer past
    the float range is invalid input.
    """
    try:
        out = kind(value)
        # an integer past the float range overflows here: no size or power
        # that large can be computed with
        finite = math.isfinite(out)
    except OverflowError:
        finite = False
    except (TypeError, ValueError) as exc:
        noun = "an integer" if kind is int else "a number"
        raise ValidationError(f"{what} must be {noun}, got {value!r}") from exc
    if not finite:
        raise ValidationError(f"{what} must be finite, got {value!r}")
    return out


def _numbers(value, what: str, kind=float) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{what} must be a list")
    return tuple(_number(v, what + " entry", kind) for v in value)


def _json_number(text: str) -> float:
    """JSON float and constant hook: NaN, Infinity and overflow are refused."""
    return _number(text, "config number")


@dataclass
class ExperimentConfig:
    """A validated experiment description plus flag overrides."""

    command: str
    raw: dict
    seed: int
    tolerance: float
    out_dir: str = None
    jobs: int = 1
    svg: bool = False

    @classmethod
    def from_args(cls, args, default_tol: float) -> "ExperimentConfig":
        raw = {}
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    raw = json.load(fh, parse_float=_json_number, parse_constant=_json_number)
            except OSError as exc:
                raise ValidationError(f"cannot read config: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ValidationError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValidationError("config root must be a JSON object")
        unknown = set(raw) - _ALLOWED_KEYS
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        if not isinstance(raw.get("suite", {}), dict):
            raise ValidationError("suite must be an object")

        tol = default_tol
        env_tol = os.environ.get("EXTLAB_TOL")
        if env_tol is not None:
            tol = _number(env_tol, "EXTLAB_TOL")
        if "tolerance" in raw:
            tol = _number(raw["tolerance"], "tolerance")
        if tol <= 0:
            raise ValidationError("tolerance must be positive")

        seed = raw.get("seed", 0)
        if args.seed is not None:
            seed = args.seed
        if not isinstance(seed, int) or seed < 0:
            raise ValidationError("seed must be a non-negative integer")

        jobs = args.jobs if args.jobs else 1
        if jobs < 1:
            raise ValidationError("--jobs must be at least 1")

        return cls(
            command=args.command,
            raw=raw,
            seed=int(seed),
            tolerance=tol,
            out_dir=args.out,
            jobs=jobs,
            svg=bool(getattr(args, "svg", False) or raw.get("svg", False)),
        )

    # -- domain resolution ---------------------------------------------------

    def operator_spec(self) -> OperatorSpec:
        part = Partition(_numbers(self.raw.get("partition", [0.0, 0.5, 1.0]), "partition"))
        constraints = self.raw.get("knot_constraints")
        if constraints is not None:
            constraints = _numbers(constraints, "knot_constraints")
        return OperatorSpec(part, constraints)

    def window(self, default=(-30.0, 30.0)):
        win = _numbers(self.raw.get("window", list(default)), "window")
        if len(win) != 2:
            raise ValidationError("window must be [lo, hi]")
        if win[1] - win[0] > MAX_BASIS_WINDOW:
            raise ValidationError(
                f"window width {win[1] - win[0]:.6g} exceeds {MAX_BASIS_WINDOW:.6g}"
            )
        return win

    def cutoffs(self):
        cut = self.raw.get("cutoffs")
        if cut is None:
            return DEFAULT_CUTOFFS
        cut = _numbers(cut, "cutoffs")
        if (not cut or any(c <= 0 for c in cut)
                or any(b <= a for a, b in zip(cut, cut[1:]))):
            raise ValidationError("cutoffs must be positive and increasing")
        return cut

    def extensions(self, spec: OperatorSpec, default: list):
        """Resolve the extension spec to [(label, u, B)] in config order."""
        entries = self.raw.get("extensions")
        if entries is None:
            single = self.raw.get("extension")
            entries = default if single is None else [single]
        if not isinstance(entries, list):
            raise ValidationError("extensions must be a list")
        resolved = []
        for entry in entries:
            resolved.extend(self._resolve_extension(entry, spec))
        if not resolved:
            raise ValidationError("extension spec resolved to nothing")
        return resolved

    def _resolve_extension(self, entry, spec: OperatorSpec):
        if isinstance(entry, str):
            entry = {"anchor": entry}
        if not isinstance(entry, dict):
            raise ValidationError("extension entries must be objects or anchor names")
        n = spec.deficiency_index
        if "anchor" in entry:
            name = entry["anchor"]
            if name == "swap":
                u = swap_unitary(n)
            elif name == "identity":
                u = identity_unitary(n)
            else:
                raise ValidationError(f"unknown anchor {name!r} (swap|identity)")
            return [(name, u, self._to_boundary(spec, u))]
        if "matrix" in entry:
            u = ExtensionUnitary(_parse_complex_matrix(entry["matrix"]))
            return [("explicit-u", u, self._to_boundary(spec, u))]
        if "boundary" in entry:
            B = BoundaryMatrix(_parse_complex_matrix(entry["boundary"]))
            return [("explicit-B", unitary_from_boundary(spec, B), B)]
        if "random" in entry:
            opts = entry["random"]
            if not isinstance(opts, dict):
                raise ValidationError("random extension options must be an object")
            seed = _number(opts.get("seed", self.seed), "random extension seed", int)
            count = _number(opts.get("count", 1), "random extension count", int)
            if seed < 0 or not 1 <= count <= MAX_RANDOM_COUNT:
                raise ValidationError("random extensions need a seed >= 0 and a count "
                                      f"in [1, {MAX_RANDOM_COUNT}]")
            rng = np.random.default_rng(seed)
            out = []
            for i in range(count):
                u = haar_unitary(rng, n)
                out.append((f"seed{seed}-{i}", u, self._to_boundary(spec, u)))
            return out
        raise ValidationError(
            "extension entry needs one of: anchor, matrix, boundary, random"
        )

    @staticmethod
    def _to_boundary(spec: OperatorSpec, u: ExtensionUnitary) -> BoundaryMatrix:
        part = spec.effective_partition
        if part.npieces == 2 and abs(part.lengths[0] - 0.5) < 1e-12:
            return boundary_matrix_closed_form(u)
        return boundary_matrix_general(spec, u)

    def loop(self):
        """Resolve the loop spec to (label, UnitaryLoop)."""
        entry = self.raw.get("loop")
        if entry is None:
            raise ValidationError("a loop spec is required")
        return _resolve_loop(entry)


def _resolve_loop(entry):
    if isinstance(entry, int):
        return f"z^{entry}", UnitaryLoop.monomial(entry)
    if not isinstance(entry, dict):
        raise ValidationError("loop spec must be an object or an integer power")
    if "monomial" in entry:
        n = _number(entry["monomial"], "monomial power", int)
        return f"z^{n}", UnitaryLoop.monomial(n)
    if "fourier" in entry:
        if not isinstance(entry["fourier"], dict):
            raise ValidationError("fourier loop spec must map frequencies to coefficients")
        coeffs = {}
        for key, val in entry["fourier"].items():
            coeffs[_number(key, "fourier frequency", int)] = _parse_complex(val)
        label = "fourier[" + ";".join(str(m) for m in sorted(coeffs)) + "]"
        return label, UnitaryLoop.from_fourier(coeffs)
    if "wedge" in entry:
        parts = entry["wedge"]
        if not isinstance(parts, (list, tuple)) or len(parts) != 2:
            raise ValidationError("wedge loop spec must list two component loops")
        lab1, u1 = _resolve_loop(parts[0])
        lab2, u2 = _resolve_loop(parts[1])
        return f"wedge({lab1}|{lab2})", UnitaryLoop.wedge_pair(u1, u2)
    raise ValidationError("loop spec needs one of: monomial, fourier, wedge")


def _parse_complex(val):
    if isinstance(val, (int, float)):
        return complex(_number(val, "complex value"))
    if isinstance(val, (list, tuple)) and len(val) == 2:
        return complex(_number(val[0], "real part"), _number(val[1], "imaginary part"))
    raise ValidationError(f"complex values must be numbers or [re, im]: {val!r}")


def _parse_complex_matrix(rows):
    if (not isinstance(rows, (list, tuple)) or not rows
            or any(not isinstance(row, (list, tuple)) or len(row) != len(rows[0])
                   for row in rows)):
        raise ValidationError("matrix must be a list of rows of equal length")
    return np.array([[_parse_complex(v) for v in row] for row in rows], dtype=complex)


def _matrix_payload(m: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

@dataclass
class Artifacts:
    """Collects the stdout report and any files to be written under --out."""

    report: dict
    files: dict = field(default_factory=dict)

    def emit(self, out_dir):
        text = canonical_json(self.report) + "\n"
        sys.stdout.write(text)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            _write_text(os.path.join(out_dir, "report.json"), text)
            for name, content in self.files.items():
                _write_text(os.path.join(out_dir, name), content)


def _base_report(cfg: ExperimentConfig, result: dict, status: str) -> dict:
    return {
        "command": cfg.command,
        "config_sha256": config_sha256(cfg.raw),
        "seed": cfg.seed,
        "version": __version__,
        "tolerance": cfg.tolerance,
        "status": status,
        "result": result,
    }


def _plateau_str(plateau) -> str:
    return ";".join(f"{fmt(c / math.pi)}pi:{k}/{ck}" for c, k, ck in plateau)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_deficiency(cfg: ExperimentConfig) -> int:
    spec = cfg.operator_spec()
    result = {"indices": [], "bases": {}, "gram_residual": {}, "partition": list(spec.effective_partition.endpoints)}
    worst = 0.0
    for sign, name in (("-", "minus"), ("+", "plus")):
        space = compute_deficiency(spec, sign)
        gram = space.gram()
        residual = float(np.max(np.abs(gram - np.eye(space.index))))
        worst = max(worst, residual)
        vectors = []
        for vec in space.basis:
            vectors.append(
                [
                    {
                        "piece": atom.piece,
                        "coefficient": [atom.coefficient.real, atom.coefficient.imag],
                        "exponent": [atom.exponent.real, atom.exponent.imag],
                    }
                    for atom in vec.atoms
                ]
            )
        result["indices"].append(space.index)
        result["bases"][name] = vectors
        result["gram_residual"][name] = residual
    # the first plus-basis normalizer; equals sqrt(2/(e-1)) on the default
    # two-piece operator
    first = compute_deficiency(spec, "+").basis[0].atoms[0]
    result["omega0"] = float(first.coefficient.real)

    ok = worst < cfg.tolerance
    report = _base_report(cfg, result, "pass" if ok else "unstable")
    Artifacts(report).emit(cfg.out_dir)
    return EXIT_OK if ok else EXIT_NUMERICAL


def cmd_boundary_matrix(cfg: ExperimentConfig) -> int:
    spec = cfg.operator_spec()
    run_numeric = bool(cfg.raw.get("suite", {}).get("numeric", True))
    entries = cfg.extensions(spec, default=[{"anchor": "swap"}])

    rows = []
    table = []
    worst = 0.0
    for label, u, B in entries:
        general = boundary_matrix_general(spec, u)
        dev_general = float(np.max(np.abs(B.matrix - general.matrix)))
        item = {
            "label": label,
            "boundary": _matrix_payload(B.matrix),
            "deviation_general": dev_general,
        }
        worst = max(worst, dev_general)
        if run_numeric:
            ext = build_extension(spec, u)
            numeric = boundary_matrix_numeric(ext)
            dev_numeric = float(np.max(np.abs(B.matrix - numeric.matrix)))
            item["deviation_numeric"] = dev_numeric
            worst = max(worst, dev_numeric)
        rows.append(item)
        for r in range(B.size):
            for c in range(B.size):
                table.append(
                    (label, str(r), str(c), fmt(B.matrix[r, c].real), fmt(B.matrix[r, c].imag))
                )

    ok = worst < cfg.tolerance
    report = _base_report(
        cfg, {"matrices": rows, "max_deviation": worst}, "pass" if ok else "unstable"
    )
    art = Artifacts(report)
    art.files["boundary-matrix.csv"] = csv_text(
        ("label", "row", "col", "real", "imag"), table
    )
    art.emit(cfg.out_dir)
    return EXIT_OK if ok else EXIT_NUMERICAL


def cmd_spectrum(cfg: ExperimentConfig) -> int:
    spec = cfg.operator_spec()
    part = spec.effective_partition
    lo, hi = cfg.window()
    entries = cfg.extensions(
        spec, default=[{"anchor": "swap"}, {"anchor": "identity"}]
    )
    if cfg.svg and len(entries) > 4:
        raise ValidationError("the tick plot overlays at most 4 boundary matrices")

    table = []
    svg_entries = []
    summary = []
    worst = 0.0
    for label, _u, B in entries:
        if hi <= lo:
            svg_entries.append((label, []))
            summary.append({"label": label, "count": 0})
            continue
        sp = eigenphases(B, part, (lo, hi))
        groups = sp.grouped()
        ticks = []
        idx = 0
        for lam, mult in groups:
            residual = float(np.max(sp.residuals[idx : idx + mult])) if len(sp) else 0.0
            idx += mult
            table.append((label, fmt(lam), str(mult), fmt(residual)))
            ticks.append((lam, mult))
            worst = max(worst, residual)
        svg_entries.append((label, ticks))
        summary.append({"label": label, "count": len(sp)})

    ok = worst < cfg.tolerance
    report = _base_report(
        cfg,
        {"window": [lo, hi], "spectra": summary, "max_residual": worst},
        "pass" if ok else "unstable",
    )
    art = Artifacts(report)
    art.files["spectrum.csv"] = csv_text(
        ("B-label", "lambda", "multiplicity", "residual"), table
    )
    if cfg.svg and hi > lo:
        art.files["spectrum.svg"] = spectrum_svg(svg_entries, (lo, hi))
    art.emit(cfg.out_dir)
    return EXIT_OK if ok else EXIT_NUMERICAL


def _pair_task(loop_label, loop, ext_label, B, cutoffs, partition, basis=None):
    """One pairing work item; returns a CSV-ready row and certification.

    `basis` is a shared `eigen_arrays` result, or the NumericalError that
    building it raised, which leaves this pairing uncertified like any other.
    A wedge loop is pulled back once here, for the winding and the pairing.
    """
    if loop.is_wedge:
        loop = pullback_loop(loop)
    wind = winding(loop)
    error = basis if isinstance(basis, NumericalError) else None
    if error is None:
        try:
            res = pair(loop, B, cutoffs=cutoffs, partition=partition, basis=basis)
        except NumericalError as exc:
            error = exc
    if error is not None:
        return {
            "row": (loop_label, ext_label, "", str(wind), "", "uncertified"),
            "stable": False,
            "index": None,
            "winding": wind,
            "error": str(error),
        }
    return {
        "row": (
            loop_label,
            ext_label,
            str(res.index),
            str(wind),
            _plateau_str(res.plateau),
            res.method,
        ),
        "stable": res.stable,
        "index": res.index,
        "winding": wind,
        "error": None,
    }


def _run_pairings(tasks, jobs):
    """Run `_pair_task` argument tuples, preserving order."""
    if jobs <= 1:
        return [_pair_task(*t) for t in tasks]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda t: _pair_task(*t), tasks))


_PAIR_CSV_HEADER = ("loop", "B-seed", "index", "winding", "plateau", "method")


def cmd_pair(cfg: ExperimentConfig) -> int:
    spec = cfg.operator_spec()
    part = spec.effective_partition
    loop_label, loop = cfg.loop()
    cutoffs = cfg.cutoffs()
    entries = cfg.extensions(spec, default=[{"anchor": "swap"}])

    tasks = [
        (loop_label, loop, label, B, cutoffs, part) for label, _u, B in entries
    ]
    outcomes = _run_pairings(tasks, cfg.jobs)

    pairs = []
    all_stable = True
    for (label, _u, _B), outcome in zip(entries, outcomes):
        all_stable = all_stable and outcome["stable"]
        pairs.append(
            {
                "loop": loop_label,
                "extension": label,
                "index": outcome["index"],
                "winding": outcome["winding"],
                "stable": outcome["stable"],
                "error": outcome["error"],
            }
        )

    report = _base_report(
        cfg, {"pairings": pairs}, "pass" if all_stable else "unstable"
    )
    art = Artifacts(report)
    art.files["pair.csv"] = csv_text(_PAIR_CSV_HEADER, [o["row"] for o in outcomes])
    art.emit(cfg.out_dir)
    return EXIT_OK if all_stable else EXIT_NUMERICAL


def _shared_basis(B, partition, cutoffs, reach):
    """`eigen_arrays`, or the NumericalError it raised (each pairing reports it)."""
    try:
        return eigen_arrays(B, partition, cutoffs, reach)
    except NumericalError as exc:
        return exc


def _sweep(cfg: ExperimentConfig, loops, default_count: int):
    """Pair each (label, loop, expected index) with seeded Haar extensions.

    A certified pairing fails unless index == expected == -winding.
    """
    suite = cfg.raw.get("suite", {})
    spec = cfg.operator_spec()
    part = spec.effective_partition
    cutoffs = cfg.cutoffs()
    exts = cfg._resolve_extension({"random": {"seed": suite.get("extension_seed", cfg.seed),
                                              "count": suite.get("count", default_count)}},
                                  spec)

    # each wedge loop is pulled back once; the label keeps the wedge text
    loops = [(label, pullback_loop(loop) if loop.is_wedge else loop, expect)
             for label, loop, expect in loops]
    # one eigenbasis per B, at the widest window any loop needs, shared by
    # every pairing with that B
    reach = max(loop.frequency_reach for _label, loop, _expect in loops)
    bases = [_shared_basis(B, part, cutoffs, reach) for _label, _u, B in exts]

    tasks = []
    expected = []
    for loop_label, loop, expect in loops:
        for (ext_label, _u, B), basis in zip(exts, bases):
            tasks.append((loop_label, loop, ext_label, B, cutoffs, part, basis))
            expected.append(expect)
    outcomes = _run_pairings(tasks, cfg.jobs)

    failures = []
    unstable = []
    for (task, expect, outcome) in zip(tasks, expected, outcomes):
        if not outcome["stable"]:
            unstable.append({"loop": task[0], "extension": task[2]})
        elif outcome["index"] != expect or outcome["index"] != -outcome["winding"]:
            failures.append(
                {
                    "loop": task[0],
                    "extension": task[2],
                    "index": outcome["index"],
                    "expected": expect,
                }
            )
    rows = [o["row"] for o in outcomes]
    return rows, failures, unstable, {"loops": len(loops), "extensions": len(exts)}


def _ksum_rows(report):
    rows = []
    for check in report.checks:
        rows.append(
            (
                check.name,
                "" if check.g1 is None else str(check.g1),
                "" if check.g2 is None else str(check.g2),
                " ".join(str(v) for v in check.lhs),
                " ".join(str(v) for v in check.rhs),
                "equal" if check.expect_equal else "unequal",
                "ok" if check.ok else "mismatch",
            )
        )
    return rows


_KSUM_CSV_HEADER = ("identity", "g1", "g2", "lhs", "rhs", "expected", "status")


def _check_suite_size(nloops: int):
    if nloops > MAX_SUITE_LOOPS:
        raise ValidationError(f"suite has {nloops} loops, above the limit of {MAX_SUITE_LOOPS}")


def cmd_verify(cfg: ExperimentConfig, suite: str) -> int:
    options = cfg.raw.get("suite", {})
    if suite == "ksum":
        bound = _number(options.get("genus_bound", 6), "suite genus_bound", int)
        if not 0 <= bound <= MAX_GENUS_BOUND:
            raise ValidationError(f"suite genus_bound must be in [0, {MAX_GENUS_BOUND}]")
        rep = ksum_calculus.verify_identities(bound)
        result = {
            "suite": suite,
            "checks": len(rep.checks),
            "failures": [c.describe() for c in rep.failures],
        }
        report = _base_report(cfg, result, "pass" if rep.passed else "fail")
        art = Artifacts(report)
        art.files["verify-ksum.csv"] = csv_text(_KSUM_CSV_HEADER, _ksum_rows(rep))
        art.emit(cfg.out_dir)
        return EXIT_OK if rep.passed else EXIT_PROPERTY

    if suite == "extension-independence":
        powers = _numbers(options.get("powers", [-3, 3]), "suite powers", int)
        if len(powers) != 2 or powers[0] > powers[1]:
            raise ValidationError("suite powers must be [lo, hi] with lo <= hi")
        # z^n reaches 2 pi |n|; refuse the schedule before building any loop
        basis_window(cfg.cutoffs(), TWO_PI * max(abs(powers[0]), abs(powers[1])))
        _check_suite_size(powers[1] - powers[0] + 1)
        loops = [(f"z^{n}", UnitaryLoop.monomial(n), -n)
                 for n in range(powers[0], powers[1] + 1)]
        rows, failures, unstable, info = _sweep(cfg, loops, 20)
    elif suite == "addition-dirac":
        max_power = _number(options.get("max_power", 2), "suite max_power", int)
        if max_power < 0:
            raise ValidationError("suite max_power must be >= 0")
        # the pullback doubles the frequency: wedge(z^n1|z^n2) reaches 4 pi max|n|
        basis_window(cfg.cutoffs(), 2 * TWO_PI * max_power)
        _check_suite_size((2 * max_power + 1) ** 2)
        ns = range(-max_power, max_power + 1)
        # the pullback of wedge(z^n1|z^n2) winds n1 + n2
        loops = [(f"wedge(z^{n1}|z^{n2})",
                  UnitaryLoop.wedge_pair(UnitaryLoop.monomial(n1), UnitaryLoop.monomial(n2)),
                  -(n1 + n2)) for n1 in ns for n2 in ns]
        rows, failures, unstable, info = _sweep(cfg, loops, 5)
    else:
        raise ValidationError(
            f"unknown suite {suite!r} "
            "(extension-independence|addition-dirac|ksum)"
        )

    status = "pass"
    code = EXIT_OK
    if unstable:
        status, code = "unstable", EXIT_NUMERICAL
    if failures:
        status, code = "fail", EXIT_PROPERTY
    result = dict(info)
    result.update(
        {
            "suite": suite,
            "pairings": len(rows),
            "failures": failures,
            "unstable": unstable,
        }
    )
    report = _base_report(cfg, result, status)
    art = Artifacts(report)
    art.files[f"verify-{suite}.csv"] = csv_text(_PAIR_CSV_HEADER, rows)
    art.emit(cfg.out_dir)
    return code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extlab",
        description="self-adjoint extension laboratory: spectra, index pairings, "
        "and exact K-class identities",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON experiment config")
    common.add_argument("--out", metavar="DIR", help="directory for report artifacts")
    common.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel worker bound (deterministic merge)")
    common.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="override the experiment seed")
    common.add_argument("--svg", action="store_true",
                        help="emit an SVG plot where supported")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("deficiency", parents=[common],
                   help="defect indices and orthonormal bases")
    sub.add_parser("boundary-matrix", parents=[common],
                   help="closed-form vs numerical boundary matrices")
    sub.add_parser("spectrum", parents=[common],
                   help="eigenvalue tables and tick plots")
    sub.add_parser("pair", parents=[common],
                   help="index pairing of a loop with extensions")
    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a property suite")
    p_verify.add_argument(
        "suite", choices=("extension-independence", "addition-dirac", "ksum")
    )
    sub.add_parser("ksum", parents=[common],
                   help="exact integer identity suite")
    return parser


_DEFAULT_TOLS = {
    "deficiency": 1e-10,
    "boundary-matrix": 1e-8,
    "spectrum": RESIDUAL_TOL,
    "pair": 1e-8,
    "verify": 1e-8,
    "ksum": 1e-8,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.from_args(args, _DEFAULT_TOLS[args.command])
        if args.command == "deficiency":
            return cmd_deficiency(cfg)
        if args.command == "boundary-matrix":
            return cmd_boundary_matrix(cfg)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "pair":
            return cmd_pair(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite)
        if args.command == "ksum":
            return cmd_verify(cfg, "ksum")
        raise ValidationError(f"unknown command {args.command!r}")
    except ValidationError as exc:
        print(f"error (validation): {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StructuralError as exc:
        print(f"error (structure): {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PropertyFailure as exc:
        print(f"error (property): {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except NumericalError as exc:
        print(f"error (numerical): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ExtlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
