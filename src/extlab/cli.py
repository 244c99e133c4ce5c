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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import chain, repeat
from json.encoder import encode_basestring

import numpy as np

from . import __version__
from . import ksum as ksum_calculus
from .analysis import Partition
from .errors import (
    ExtlabError,
    IllConditionedLoopError,
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
    _two_equal_pieces,
    adjoint,
    basis_window,
    eigen_arrays,
    pair,
    seam_basis,
    unwinding_grid,
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

#: the most pieces a partition may have: tracking a spectrum on unequal pieces
#: costs about n^3 per evaluated grid row, and its root count grows with n
MAX_PIECES = 64

#: the most `--jobs` threads: the pool starts one thread per pairing up to this
#: count, and more than a few per core only adds switching
MAX_JOBS = 64

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
        out.append(encode_basestring(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ValidationError("JSON object keys must be strings")
            if i:
                out.append(", ")
            out.append(encode_basestring(key))
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
    """CSV with a header row, LF endings; all cells must be strings already.

    The whole text is checked at once: the joins add len(row) - 1 commas per
    non-empty row and one newline per line, so any other comma or newline,
    and any quote, is in a cell; a cell that is no string fails the join.
    Only when that check fails are the rows read one by one, to name the
    first bad cell.
    """
    head = ",".join(header)
    rows = list(rows)
    try:
        text = "\n".join([head, *map(",".join, rows)]) + "\n"
    except TypeError:
        return _csv_text_by_row(head, rows)
    if ('"' in text
            or text.count(",") != head.count(",") + sum(map(len, rows)) - sum(map(bool, rows))
            or text.count("\n") != head.count("\n") + len(rows) + 1):
        return _csv_text_by_row(head, rows)
    return text


def _csv_text_by_row(head, rows) -> str:
    # refuses the first bad row's first bad cell; a header is not checked
    lines = [head]
    for row in rows:
        if not all(map(isinstance, row, repeat(str))):
            raise StructuralError("CSV cells must be preformatted strings")
        line = ",".join(row)
        if (row and line.count(",") != len(row) - 1) or '"' in line or "\n" in line:
            bad = next(c for c in row if "," in c or '"' in c or "\n" in c)
            raise StructuralError(f"CSV cell needs quoting, refusing: {bad!r}")
        lines.append(line)
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

#: the `suite` options each command reads, by command or verify suite; any
#: other command reads none
_SUITE_KEYS = {
    "boundary-matrix": {"numeric"},
    "extension-independence": {"extension_seed", "count", "powers"},
    "addition-dirac": {"extension_seed", "count", "max_power"},
    "ksum": {"genus_bound"},
}

#: the top-level keys each command or verify suite reads; a command without a
#: row yet is held only to `_ALLOWED_KEYS`
_COMMAND_KEYS = {
    "deficiency": {"partition", "knot_constraints", "seed", "tolerance"},
    "spectrum": {"partition", "knot_constraints", "extension", "extensions", "window",
                 "seed", "tolerance", "svg"},
    "pair": {"partition", "knot_constraints", "extension", "extensions", "loop", "cutoffs",
             "seed", "tolerance"},
    "ksum": {"suite", "seed", "tolerance"},
}


def _number(value, what: str, kind=float):
    """``kind(value)`` for a config entry, kind being float or int.

    A boolean, a value the conversion refuses, a non-finite float, an integer
    past the float range, or a non-integral value where an integer is
    required is invalid input.
    """
    noun = "an integer" if kind is int else "a number"
    try:
        out = kind(value)
        # an integer past the float range overflows here: no size or power
        # that large can be computed with
        finite = math.isfinite(out)
    except OverflowError:
        finite = False
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be {noun}, got {value!r}") from exc
    if not finite:
        raise ValidationError(f"{what} must be finite, got {value!r}")
    if isinstance(value, bool) or (isinstance(value, float) and out != value):
        # a boolean is no number, and int() truncates: 1.5 is no integer, 2.0 is
        raise ValidationError(f"{what} must be {noun}, got {value!r}")
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
        suite = raw.get("suite", {})
        if not isinstance(suite, dict):
            raise ValidationError("suite must be an object")
        command = args.suite or args.command
        name = args.command if args.suite is None else f"{args.command} {args.suite}"
        unknown = set(suite) - _SUITE_KEYS.get(command, set())
        if unknown:
            raise ValidationError(f"suite keys {sorted(unknown)} are not read by {name}")
        unread = set(raw) - _COMMAND_KEYS.get(command, _ALLOWED_KEYS)
        if unread:
            raise ValidationError(f"config keys {sorted(unread)} are not read by {name}")
        for what, value in (("svg", raw.get("svg", False)),
                            ("suite numeric", suite.get("numeric", True))):
            if not isinstance(value, bool):
                raise ValidationError(f"{what} must be true or false, got {value!r}")

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
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ValidationError("seed must be a non-negative integer")

        jobs = args.jobs
        if not 1 <= jobs <= MAX_JOBS:
            raise ValidationError(f"--jobs must be in [1, {MAX_JOBS}], got {jobs}")

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
        knots = _numbers(self.raw.get("partition", [0.0, 0.5, 1.0]), "partition")
        if len(knots) - 1 > MAX_PIECES:
            raise ValidationError(f"partition has {len(knots) - 1} pieces, "
                                  f"above the limit of {MAX_PIECES}")
        part = Partition(knots)
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
        kind = _one_of(entry, ("anchor", "matrix", "boundary", "random"), "extension entry")
        if kind == "anchor":
            name = entry["anchor"]
            if name == "swap":
                u = swap_unitary(n)
            elif name == "identity":
                u = identity_unitary(n)
            else:
                raise ValidationError(f"unknown anchor {name!r} (swap|identity)")
            return [(name, u, self._to_boundary(spec, u))]
        if kind == "matrix":
            u = ExtensionUnitary(_parse_complex_matrix(entry["matrix"], n, "matrix"))
            return [("explicit-u", u, self._to_boundary(spec, u))]
        if kind == "boundary":
            B = BoundaryMatrix(_parse_complex_matrix(entry["boundary"], n, "boundary"))
            return [("explicit-B", unitary_from_boundary(spec, B), B)]
        opts = entry["random"]
        if not isinstance(opts, dict):
            raise ValidationError("random extension options must be an object")
        if not set(opts) <= {"seed", "count"}:
            raise ValidationError(f"random extension keys {sorted(set(opts) - {'seed', 'count'})} "
                                  "are not read (seed, count)")
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

    @staticmethod
    def _to_boundary(spec: OperatorSpec, u: ExtensionUnitary) -> BoundaryMatrix:
        part = spec.effective_partition
        if part.npieces == 2 and abs(part.lengths[0] - 0.5) < 1e-12:
            return boundary_matrix_closed_form(u)
        return boundary_matrix_general(spec, u)

    def loop(self):
        """Resolve the loop spec to (label, UnitaryLoop); a loop whose
        modulus the constructor refuses is invalid input."""
        entry = self.raw.get("loop")
        if entry is None:
            raise ValidationError("a loop spec is required")
        try:
            return _resolve_loop(entry)
        except IllConditionedLoopError as exc:
            raise ValidationError(str(exc)) from exc


def _resolve_loop(entry):
    if isinstance(entry, int) and not isinstance(entry, bool):
        return f"z^{entry}", UnitaryLoop.monomial(entry)
    if not isinstance(entry, dict):
        raise ValidationError("loop spec must be an object or an integer power")
    kind = _one_of(entry, ("monomial", "fourier", "wedge"), "loop spec")
    if kind == "monomial":
        n = _number(entry["monomial"], "monomial power", int)
        return f"z^{n}", UnitaryLoop.monomial(n)
    if kind == "fourier":
        if not isinstance(entry["fourier"], dict):
            raise ValidationError("fourier loop spec must map frequencies to coefficients")
        coeffs = {}
        for key, val in entry["fourier"].items():
            coeffs[_number(key, "fourier frequency", int)] = _parse_complex(val)
        label = "fourier[" + ";".join(str(m) for m in sorted(coeffs)) + "]"
        return label, UnitaryLoop.from_fourier(coeffs)
    parts = entry["wedge"]
    if not isinstance(parts, (list, tuple)) or len(parts) != 2:
        raise ValidationError("wedge loop spec must list two component loops")
    lab1, u1 = _resolve_loop(parts[0])
    lab2, u2 = _resolve_loop(parts[1])
    return f"wedge({lab1}|{lab2})", UnitaryLoop.wedge_pair(u1, u2)


def _one_of(entry: dict, kinds, what: str) -> str:
    """The one key of `entry`, one of `kinds`; any other key, or none or two
    of them, is invalid input that names the keys."""
    if len(entry) != 1 or not set(entry) <= set(kinds):
        raise ValidationError(f"{what} needs exactly one of: {', '.join(kinds)}; "
                              f"got {sorted(entry)}")
    return next(iter(entry))


def _parse_complex(val):
    if isinstance(val, (int, float)):
        return complex(_number(val, "complex value"))
    if isinstance(val, (list, tuple)) and len(val) == 2:
        return complex(_number(val[0], "real part"), _number(val[1], "imaginary part"))
    raise ValidationError(f"complex values must be numbers or [re, im]: {val!r}")


def _parse_complex_matrix(rows, n: int, what: str):
    """An n x n extension matrix: n is the deficiency index."""
    if (not isinstance(rows, (list, tuple)) or not rows
            or any(not isinstance(row, (list, tuple)) or len(row) != len(rows[0])
                   for row in rows)):
        raise ValidationError("matrix must be a list of rows of equal length")
    if (len(rows), len(rows[0])) != (n, n):
        raise ValidationError(f"{what} is {len(rows)}x{len(rows[0])}, but the deficiency "
                              f"index is {n}: it must be {n}x{n}")
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
    run_numeric = cfg.raw.get("suite", {}).get("numeric", True)
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


def _or_error(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the NumericalError it raised (each pairing it
    concerns reports it)."""
    try:
        return fn(*args, **kwargs)
    except NumericalError as exc:
        return exc


def _loop_side(loop, partition):
    """(winding, samples): the loop's `pair` samples on `partition`, taken
    once for its `winding` and every pairing of the loop, and the winding on
    them.  N is its `unwinding_grid` N.  On two equal pieces the samples
    are the values at k / (8N), which the winding (every eighth) and both
    `symbol_index` calls of each pairing read; elsewhere only the winding
    reads them, and they are the values at k / N."""
    ngrid = unwinding_grid(loop)[0]
    if not _two_equal_pieces(partition):
        samples = loop.grid(ngrid)
        return winding(loop, samples), samples
    samples = loop.grid(8 * ngrid)
    return winding(loop, samples[::8]), samples


def _pairings(loops, boundaries, partition, cutoffs, jobs):
    """(windings, outcomes): each loop's winding, and per loop its `pair`
    result with each boundary matrix in order; a NumericalError stands in
    for any value that failed, a loop's error before a B's.  A wedge loop is
    its pinch pullback.

    Before any loop work each B gets its eigenbasis, at the widest reach of
    the loops, so a window past MAX_BASIS_WINDOW is refused (exit 2) first,
    with its gauge vector, and its seam basis; then each paired loop gets
    its `_loop_side`, its one sampling, before its pairings.  All pairings
    share these, also between the pool's `jobs` threads.

    P M_ubar P = (P M_u P)*, so a loop whose conjugate (equal pieces) comes
    earlier is not paired: its result with each B is the `adjoint` of the
    conjugate's, an error staying an error, and its winding is minus the
    conjugate's.
    """
    reach = max(loop.frequency_reach for loop in loops)
    bases = [_or_error(eigen_arrays, B, partition, cutoffs, reach) for B in boundaries]
    # each B's seam reads the decomposition its basis made; a failed basis
    # is the error of every pairing with its B, and its seam is still built,
    # on its own, so a B that cannot be decomposed raises here
    seams = [seam_basis(B, partition,
                        None if isinstance(basis, NumericalError) else basis.decomposition)
             for B, basis in zip(boundaries, bases)]

    # conjugate_of[i]: the position of the paired loop that loop i is the
    # conjugate of, or None when loop i is paired itself
    paired, conjugate_of = {}, []
    for i, loop in enumerate(loops):
        j = paired.get(loop.conjugate().pieces)
        conjugate_of.append(j)
        if j is None:
            paired.setdefault(loop.pieces, i)

    def run(task):
        loop, side, B, basis, seam = task
        for failed in (side, basis):
            if isinstance(failed, NumericalError):
                return failed
        return _or_error(pair, loop, B, cutoffs, partition, basis, seam=seam, samples=side[1])

    # each paired loop's side is taken as its pairings are queued, on this
    # thread, and only its winding is kept: a sequential run holds one
    # loop's samples at a time
    sides = {}

    def tasks():
        for i, (loop, j) in enumerate(zip(loops, conjugate_of)):
            if j is None:
                side = _or_error(_loop_side, loop, partition)
                sides[i] = side if isinstance(side, NumericalError) else side[0]
                for B, basis, seam in zip(boundaries, bases, seams):
                    yield loop, side, B, basis, seam

    if jobs <= 1:
        results = map(run, tasks())
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, tasks()))
    results = iter(results)

    windings, outcomes = [], []
    for i, j in enumerate(conjugate_of):
        if j is None:
            outcomes.append([next(results) for _B in boundaries])
            windings.append(sides[i])
        else:
            wind = windings[j]
            windings.append(wind if isinstance(wind, NumericalError) else -wind)
            outcomes.append([res if isinstance(res, NumericalError) else adjoint(res)
                             for res in outcomes[j]])
    return windings, outcomes


def _pair_row(loop_label, ext_label, wind, res):
    """The CSV row of a `_pairings` outcome; a failed winding is blank."""
    wind = "" if isinstance(wind, NumericalError) else str(wind)
    if isinstance(res, NumericalError):
        return (loop_label, ext_label, "", wind, "", "uncertified")
    return (loop_label, ext_label, str(res.index), wind, _plateau_str(res.plateau), res.method)


def _certified(res) -> bool:
    return not isinstance(res, NumericalError) and res.stable


_PAIR_CSV_HEADER = ("loop", "B-seed", "index", "winding", "plateau", "method")


def cmd_pair(cfg: ExperimentConfig) -> int:
    spec = cfg.operator_spec()
    loop_label, loop = cfg.loop()
    cutoffs = cfg.cutoffs()
    entries = cfg.extensions(spec, default=[{"anchor": "swap"}])
    (wind,), (outcomes,) = _pairings([loop], [B for _label, _u, B in entries],
                                     spec.effective_partition, cutoffs, cfg.jobs)
    failed = isinstance(wind, NumericalError)

    pairs, rows = [], []
    for (label, _u, _B), res in zip(entries, outcomes):
        error = res if isinstance(res, NumericalError) else None
        rows.append(_pair_row(loop_label, label, wind, res))
        pairs.append(
            {
                "loop": loop_label,
                "extension": label,
                "index": None if error else res.index,
                "winding": None if failed else wind,
                "stable": _certified(res),
                "error": str(error) if error else None,
            }
        )
    all_stable = all(p["stable"] for p in pairs)

    report = _base_report(
        cfg, {"pairings": pairs}, "pass" if all_stable else "unstable"
    )
    art = Artifacts(report)
    art.files["pair.csv"] = csv_text(_PAIR_CSV_HEADER, rows)
    art.emit(cfg.out_dir)
    return EXIT_OK if all_stable else EXIT_NUMERICAL


def _sweep(cfg: ExperimentConfig, loops, default_count: int):
    """Pair each (label, loop, expected index) with seeded Haar extensions
    (`_pairings`).

    A certified pairing fails unless index == expected == -winding.  A wedge
    loop is its pinch pullback, built once with the suite; its label keeps
    the wedge text.
    """
    suite = cfg.raw.get("suite", {})
    spec = cfg.operator_spec()
    cutoffs = cfg.cutoffs()
    exts = cfg._resolve_extension({"random": {"seed": suite.get("extension_seed", cfg.seed),
                                              "count": suite.get("count", default_count)}},
                                  spec)
    windings, outcomes = _pairings([loop for _label, loop, _expect in loops],
                                   [B for _label, _u, B in exts],
                                   spec.effective_partition, cutoffs, cfg.jobs)

    rows, failures, unstable = [], [], []
    for (loop_label, _loop, expect), wind, results in zip(loops, windings, outcomes):
        for (ext_label, _u, _B), res in zip(exts, results):
            rows.append(_pair_row(loop_label, ext_label, wind, res))
            if not _certified(res):
                unstable.append({"loop": loop_label, "extension": ext_label})
            elif res.index != expect or res.index != -wind:
                failures.append(
                    {
                        "loop": loop_label,
                        "extension": ext_label,
                        "index": res.index,
                        "expected": expect,
                    }
                )
    return rows, failures, unstable, {"loops": len(loops), "extensions": len(exts)}


def _ksum_rows(report):
    """The CSV rows of a `KsumReport` in its `checks` order: each identity
    block formatted in one pass, then the blocks of each grid interleaved
    row by row."""
    rows = []
    for blocks in report.grids:
        # the blocks of a grid share their genus columns
        g1, g2 = (repeat("") if g is None else list(map(str, g.tolist()))
                  for g in (blocks[0].g1, blocks[0].g2))
        rows.extend(chain.from_iterable(zip(*[_ksum_block_rows(block, g1, g2)
                                               for block in blocks])))
    return rows


def _ksum_block_rows(block, g1, g2):
    """The CSV rows of one `ksum.IdentityBlock`, in row order; `g1` and `g2`
    are its genus cells."""

    def coordinates(side):
        # one format over the whole (P, d) block: "x y" a row
        row = " ".join(["%d"] * side.shape[1])
        return ("\n".join([row] * len(side)) % tuple(side.ravel().tolist())).split("\n")

    return list(zip(repeat(block.name), g1, g2, coordinates(block.lhs), coordinates(block.rhs),
                    repeat("equal" if block.expect_equal else "unequal"),
                    np.where(block.ok, "ok", "mismatch").tolist()))


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
            "checks": len(rep),
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
        monomials = {n: UnitaryLoop.monomial(n) for n in range(-max_power, max_power + 1)}
        # the pullback of wedge(z^n1|z^n2) winds n1 + n2
        loops = [(f"wedge(z^{n1}|z^{n2})",
                  UnitaryLoop.wedge_pair(monomials[n1], monomials[n2]),
                  -(n1 + n2)) for n1 in monomials for n2 in monomials]
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

_DEFAULT_TOLS = {
    "deficiency": 1e-10,
    "boundary-matrix": 1e-8,
    "spectrum": RESIDUAL_TOL,
    "pair": 1e-8,
    "verify": 1e-8,
    "ksum": 1e-8,
}

_SUITES = ("extension-independence", "addition-dirac", "ksum")


def _build_parser() -> argparse.ArgumentParser:
    # one flat parser: the command, a suite for verify only, and the flags
    # every command takes
    parser = argparse.ArgumentParser(
        prog="extlab",
        description="self-adjoint extension laboratory: spectra, index pairings, "
        "and exact K-class identities",
        epilog=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=tuple(_DEFAULT_TOLS))
    parser.add_argument("suite", nargs="?", choices=_SUITES,
                        help="the property suite of verify")
    parser.add_argument("--config", metavar="PATH", help="JSON experiment config")
    parser.add_argument("--out", metavar="DIR", help="directory for report artifacts")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel worker bound (deterministic merge)")
    parser.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="override the experiment seed")
    parser.add_argument("--svg", action="store_true",
                        help="emit an SVG plot where supported")
    return parser


#: the parser every `main` call in this process shares, built at the first
#: call; see `_parser`
_PARSER = None
#: `parse_intermixed_args` switches the positional actions off and back on
#: while it parses, so two threads may not parse with the one parser at once
_PARSE_LOCK = threading.Lock()


def _parser() -> argparse.ArgumentParser:
    """The kept parser; call with `_PARSE_LOCK` held.

    Its usage is set once to the text `parse_intermixed_args` would format
    for itself on every call, so help, usage and error bytes stay those of
    a parser built per call.
    """
    global _PARSER
    if _PARSER is None:
        parser = _build_parser()
        parser.usage = parser.format_usage()[len("usage: "):]
        _PARSER = parser
    return _PARSER


def main(argv=None) -> int:
    with _PARSE_LOCK:
        parser = _parser()
        args = parser.parse_intermixed_args(argv)
        if (args.command == "verify") != (args.suite is not None):
            parser.error(f"verify needs a suite ({'|'.join(_SUITES)})"
                         if args.suite is None else f"{args.command} takes no suite")
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
