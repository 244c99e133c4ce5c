"""Acceptance suite: one test per shipped guarantee, each printing a single
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Every criterion uses its own fixed seed stream so reruns are bit-identical,
and asserts its stated runtime budget alongside the numeric tolerances.
"""

import math
import time

import numpy as np

from extlab.analysis import Partition, inner_product, norm
from extlab.ksum import verify_identities
from extlab.pairing import UnitaryLoop, pair
from extlab.spectral import eigenphases, fd_spectrum
from extlab.vonneumann import (
    OperatorSpec,
    boundary_matrix_closed_form,
    boundary_matrix_numeric,
    build_extension,
    compute_deficiency,
    haar_unitary,
    identity_unitary,
    swap_unitary,
)
from oracles import commutator_norm_estimate, derivative_sup, from_atoms

PART = Partition((0.0, 0.5, 1.0))
SPEC = OperatorSpec(PART)
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

# published example bases on the default knots, frozen to machine precision:
# minus space spans e^{-theta} per piece, plus space spans e^{+theta};
# the normalizers are omega0*sqrt(e), omega0*e, omega0, omega0/sqrt(e)
# with omega0 = sqrt(2/(e-1))
REFERENCE_BASES = {
    "-": ((0, 1.7787505203762144, -1.0), (1, 2.932663818213186, -1.0)),
    "+": ((0, 1.0788667265879752, +1.0), (1, 0.6543657474194139, +1.0)),
}


def check(num, label, ok, detail=""):
    print(f"[acceptance {num}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {detail or label}"


def test_criterion_1_deficiency_bases():
    t0 = time.perf_counter()
    indices = []
    worst_coeff = 0.0
    worst_gram = 0.0
    for sign, refs in REFERENCE_BASES.items():
        space = compute_deficiency(SPEC, sign)
        indices.append(space.index)
        worst_gram = max(worst_gram, float(np.max(np.abs(space.gram() - np.eye(2)))))
        for vec, ref_spec in zip(space.basis, refs):
            ref = from_atoms(PART, [ref_spec])
            ip = inner_product(ref, vec)
            phase = ip / abs(ip)
            # align the free per-vector phase, then compare coefficients
            coeff = vec.atoms[0].coefficient / phase
            worst_coeff = max(worst_coeff, abs(coeff - ref_spec[1]))
            worst_coeff = max(worst_coeff, norm(vec - phase * ref))
    dt = time.perf_counter() - t0
    ok = (
        indices == [2, 2]
        and worst_coeff < 1e-9
        and worst_gram < 1e-10
        and dt < 1.0
    )
    check(
        1,
        f"deficiency indices (2,2), basis coefficient error {worst_coeff:.2e} < 1e-9, "
        f"Gram residual {worst_gram:.2e} < 1e-10, {dt:.2f}s < 1s",
        ok,
    )


def test_criterion_2_boundary_matrix_routes():
    t0 = time.perf_counter()
    anchor_dev = 0.0
    for u, expect in (
        (swap_unitary(), SWAP),
        (identity_unitary(), np.eye(2, dtype=complex)),
    ):
        anchor_dev = max(
            anchor_dev,
            float(np.max(np.abs(boundary_matrix_closed_form(u).matrix - expect))),
        )

    rng = np.random.default_rng(20)
    samples = [swap_unitary(), identity_unitary()]
    samples += [haar_unitary(rng) for _ in range(100)]
    numeric_rng = np.random.default_rng(2020)
    worst = 0.0
    for u in samples:
        closed = boundary_matrix_closed_form(u).matrix
        ext = build_extension(SPEC, u)
        numeric = boundary_matrix_numeric(ext, rng=numeric_rng).matrix
        worst = max(worst, float(np.max(np.abs(closed - numeric))))
    dt = time.perf_counter() - t0
    ok = anchor_dev < 1e-8 and worst < 1e-8 and dt < 5.0
    check(
        2,
        f"closed form vs trace-sampled matrix {worst:.2e} < 1e-8 on anchors + 100 "
        f"seeded unitaries, anchor deviation {anchor_dev:.2e}, {dt:.2f}s < 5s",
        ok,
    )


def test_criterion_3_anchor_spectra():
    t0 = time.perf_counter()
    swap_spec = eigenphases(SWAP, PART, (-30.0, 30.0))
    swap_expect = 2.0 * math.pi * np.arange(-4, 5)
    swap_err = (
        float(np.max(np.abs(swap_spec.eigenvalues - swap_expect)))
        if len(swap_spec) == 9
        else math.inf
    )
    ident_spec = eigenphases(np.eye(2), PART, (-30.0, 30.0))
    ident_expect = np.repeat(4.0 * math.pi * np.arange(-2, 3), 2)
    ident_err = (
        float(np.max(np.abs(ident_spec.eigenvalues - ident_expect)))
        if len(ident_spec) == 10
        else math.inf
    )
    mults = [m for _, m in ident_spec.grouped()]
    dt = time.perf_counter() - t0
    ok = swap_err < 1e-8 and ident_err < 1e-8 and mults == [2] * 5 and dt < 1.0
    check(
        3,
        f"swap spectrum = 2*pi*Z (error {swap_err:.2e}), identity = 4*pi*Z with "
        f"multiplicity 2 everywhere (error {ident_err:.2e}), {dt:.2f}s < 1s",
        ok,
    )


def test_criterion_4_pairing_independence():
    t0 = time.perf_counter()
    res = pair(UnitaryLoop.monomial(1), SWAP)
    plateau_tail = {k - c for _, k, c in res.plateau[-3:]}
    base_ok = res.index == -1 and res.stable and plateau_tail == {-1}

    rng = np.random.default_rng(40)
    boundaries = [
        build_extension(SPEC, haar_unitary(rng)).boundary for _ in range(20)
    ]
    equalities = 0
    failures = []
    for n in range(-3, 4):
        loop = UnitaryLoop.monomial(n)
        for i, B in enumerate(boundaries):
            r = pair(loop, B)
            if r.stable and r.index == -n:
                equalities += 1
            else:
                failures.append((n, i, r.index, r.stable))
    dt = time.perf_counter() - t0
    ok = base_ok and equalities == 140 and not failures and dt < 120.0
    check(
        4,
        f"pair(z, swap) = -1 after plateau; index == -n for n in [-3,3] against "
        f"20 random extensions ({equalities}/140 equalities), {dt:.1f}s < 120s",
        ok,
        detail=f"failures={failures[:5]}",
    )


def test_criterion_5_addition_formula():
    t0 = time.perf_counter()
    rng = np.random.default_rng(50)
    boundaries = [
        build_extension(SPEC, haar_unitary(rng)).boundary for _ in range(5)
    ]
    failures = []
    count = 0
    for n1 in range(-2, 3):
        for n2 in range(-2, 3):
            loop = UnitaryLoop.wedge_pair(
                UnitaryLoop.monomial(n1), UnitaryLoop.monomial(n2)
            )
            for i, B in enumerate(boundaries):
                r = pair(loop, B)
                count += 1
                if not (r.stable and r.index == -(n1 + n2)):
                    failures.append((n1, n2, i, r.index, r.stable))
    dt = time.perf_counter() - t0
    ok = count == 125 and not failures and dt < 120.0
    check(
        5,
        f"wedge pullback pairing == -(n1+n2) for n1,n2 in [-2,2] against 5 random "
        f"extensions ({count}/125 equalities), {dt:.1f}s < 120s",
        ok,
        detail=f"failures={failures[:5]}",
    )


def test_criterion_6_integer_identity_grid():
    t0 = time.perf_counter()
    report = verify_identities(genus_bound=6)
    dt = time.perf_counter() - t0
    names = {c.name for c in report.checks}
    required = {
        "circle-dirac-addition",            # Dirac class addition on the circle
        "dolbeault-natural-sum-addition",   # surface addition along a handle
        "fundamental-class-normalization",  # fundamental = Dolbeault + (g-1) units
        "constant-map-index",               # collapse recovers the index
        "wedge-basis-unimodular",           # rank-3 basis, det = 1
        "crunch-left-dolbeault",
        "crunch-right-dolbeault",
        "pinch-dolbeault-defect",
        "crunch-pinch-functoriality",       # composite == staged pushforward
        "crunch-pinch-composite",           # (q o p)_* = dol_1 - g2 * iota[1]
        "stabilization-well-defined",
        "natural-sum-euler-additivity",
        "connected-sum-euler-defect",       # the asserted inequality
        "connected-sum-fundamental-class",
        "natural-sum-fundamental-class",
    }
    ok = (
        report.passed
        and required <= names
        and len(report.checks) == 604
        and dt < 1.0
    )
    check(
        6,
        f"all {len(report.checks)} exact integer identities over genus pairs "
        f"0..6 hold (including the Euler inequality), {dt:.2f}s < 1s",
        ok,
        detail=f"failures={[c.describe() for c in report.failures][:3]}",
    )


def _seeded_multiplier(rng):
    """A random Lipschitz function on the wedge, pulled back through the
    double-cover pinch: trig polynomial halves glued at the base point."""
    freqs = range(-3, 4)
    c1 = {m: complex(rng.normal(), rng.normal()) * 0.5 for m in freqs}
    c2 = {m: complex(rng.normal(), rng.normal()) * 0.5 for m in freqs}
    # f1 and f2 must agree at the wedge point for f o p to be continuous
    c2[0] += sum(c1.values()) - sum(c2.values())
    return (
        (0.0, 0.5, tuple((4.0 * math.pi * m, c) for m, c in sorted(c1.items()))),
        (0.5, 1.0, tuple((4.0 * math.pi * m, c) for m, c in sorted(c2.items()))),
    )


def test_criterion_7_commutator_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(70)
    worst_excess = -math.inf
    for i in range(10):
        pieces = _seeded_multiplier(rng)
        B = SWAP if i % 2 == 0 else build_extension(SPEC, haar_unitary(rng)).boundary
        bound = derivative_sup(pieces)
        est = commutator_norm_estimate(pieces, B, samples=20, seed=i)
        worst_excess = max(worst_excess, est - bound)
    dt = time.perf_counter() - t0
    ok = worst_excess <= 1e-6 and dt < 10.0
    check(
        7,
        f"Rayleigh commutator estimate <= sup|d(f o p)/dtheta| + 1e-6 for 10 seeded "
        f"Lipschitz multipliers (worst excess {worst_excess:.2e}), {dt:.1f}s < 10s",
        ok,
    )


def _lattice_error(fd_vals, exact_vals):
    return max(float(np.min(np.abs(fd_vals - ex))) for ex in exact_vals)


def test_criterion_8_finite_difference_convergence():
    t0 = time.perf_counter()
    window = (-30.0, 30.0)
    lattices = {
        "swap": (swap_unitary(), 2.0 * math.pi * np.arange(-4, 5)),
        "identity": (identity_unitary(), 4.0 * math.pi * np.arange(-2, 3)),
    }
    tol = 2.0 * math.pi * 0.02
    errs = {}
    monotone = True
    for name, (u, exact) in lattices.items():
        ext = build_extension(SPEC, u)
        e1024 = _lattice_error(fd_spectrum(ext, 1024, window).eigenvalues, exact)
        e2048 = _lattice_error(fd_spectrum(ext, 2048, window).eigenvalues, exact)
        errs[name] = (e1024, e2048)
        monotone = monotone and e2048 <= e1024
    dt = time.perf_counter() - t0
    ok = all(e1024 < tol for e1024, _ in errs.values()) and monotone
    check(
        8,
        "finite differences at N=1024 within 2*pi*0.02 of the analytic anchors "
        + ", ".join(
            f"{k}: {v[0]:.2e} -> {v[1]:.2e}" for k, v in sorted(errs.items())
        )
        + f"; error non-increasing at N=2048 ({dt:.1f}s)",
        ok,
    )
