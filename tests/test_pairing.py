"""Index pairings of unitary loops with the extensions.

Oracles used here:
  * a brute-force winding number (dense phase accumulation on a million
    points, no shared code with the production winding routine);
  * the exactly known kernel/cokernel of the compression for the
    anti-diagonal boundary matrix, where the eigenbasis is the classical
    Fourier basis and the compression is a pure shift;
  * reference copies of the entrywise compression assembly and of the
    full 2x2-symbol winding, which the factored kernels replaced;
  * the complex SVD of each finite section, which the SVD of its gauged real
    section stands for.
"""

import cmath
import dataclasses
import math
import sys

from hypothesis import assume, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from scipy.special import jv

from extlab import pairing
from extlab.analysis import Partition, exp_integral
from extlab.errors import (
    IllConditionedLoopError,
    NumericalError,
    StructuralError,
    ValidationError,
)
from extlab.pairing import (
    DEFAULT_CUTOFFS,
    MAX_BASIS_WINDOW,
    MARGIN,
    MAX_PHASE_STEP,
    PAD,
    UnitaryLoop,
    _cuts,
    _fourier_terms,
    _seam_margin,
    _seam_symbols,
    _terms_at,
    _unitary_eigenbasis,
    _unwound,
    adjoint,
    compression_matrix,
    eigen_arrays,
    multiplication_matrix,
    pair,
    seam_basis,
    symbol_index,
    unwinding_grid,
    winding,
)
from extlab.vonneumann import (
    OperatorSpec,
    boundary_array,
    build_extension,
    haar_unitary,
)
from oracles import BandwidthError, commutator_norm_estimate, derivative_sup, fourier_coefficients

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
FAST = (32 * np.pi, 64 * np.pi, 128 * np.pi)


def brute_winding(loop, npoints=1_000_000):
    """Total phase increment, summed step by step around the circle."""
    th = np.linspace(0.0, 1.0, npoints + 1)
    vals = loop(th)
    steps = np.angle(vals[1:] / vals[:-1])
    total = steps.sum() / (2.0 * math.pi)
    assert abs(total - round(total)) < 1e-6
    return int(round(total))


def random_boundary(seed):
    return build_extension(
        OperatorSpec(Partition((0.0, 0.5, 1.0))), haar_unitary(np.random.default_rng(seed))
    ).boundary


# ---------------------------------------------------------------------------
# winding numbers


@pytest.mark.parametrize("n", [-3, -1, 0, 2, 5])
def test_winding_of_monomials(n):
    loop = UnitaryLoop.monomial(n)
    assert winding(loop) == n
    assert brute_winding(loop) == n


def test_winding_of_perturbed_loop_against_oracle():
    # z^2 * (1 + small trigonometric dressing), still winding 2
    loop = UnitaryLoop.from_fourier({2: 1.0, 3: 0.2, 0: 0.15j, -1: 0.1})
    assert winding(loop) == brute_winding(loop) == 2


def test_winding_is_additive_under_products():
    u = UnitaryLoop.from_fourier({1: 1.0, 2: 0.2})
    v = UnitaryLoop.from_fourier({-2: 1.0, -1: 0.3j})
    uv = u.product(v)
    assert winding(uv) == winding(u) + winding(v) == brute_winding(uv)


def _masked_evaluate(pieces, th):
    """Reference: the evaluator with one boolean mask per piece and complex
    exponentials, which the sliced cos + i sin evaluation replaced."""
    out = np.zeros(th.shape, dtype=complex)
    bounds = [p[0] for p in pieces] + [1.0]
    idx = np.clip(np.searchsorted(bounds, th, side="right") - 1, 0, len(pieces) - 1)
    for k, (_lo, _hi, terms) in enumerate(pieces):
        mask = idx == k
        for nu, c in terms:
            out[mask] += c * np.exp(1j * nu * th[mask])
    return out


def test_loop_values_match_the_masked_evaluation():
    # sorted points are split into one slice per piece, unsorted ones into an
    # index per piece, bit for bit alike; both match the reference to a few
    # rounding errors of the term sum (cos and sin may round apart from exp)
    rng = np.random.default_rng(3)
    edges = [0.0, np.nextafter(0.5, 0.0), 0.5, 0.5, np.nextafter(1.0, 0.0)]
    th = np.sort(np.concatenate([rng.random(500), edges]))
    perm = rng.permutation(len(th))
    for loop in _multi_term_loops() + [UnitaryLoop.monomial(3)]:
        vals = loop(th)
        assert np.array_equal(vals[perm], loop(th[perm]))
        scale = sum(abs(c) for _lo, _hi, terms in loop.pieces for _nu, c in terms)
        assert np.max(np.abs(vals - _masked_evaluate(loop.pieces, th))) <= 8e-16 * scale
    # theta is read modulo 1, also past [0, 1)
    loop = _multi_term_loops()[-1]
    assert np.max(np.abs(loop(np.array([-0.25, 1.25, 2.0, -1.0]))
                         - loop(np.array([0.75, 0.25, 0.0, 0.0])))) < 1e-13


def _cos_sin_values(pieces, th):
    """Reference: cos + i sin at every point of a sorted grid, one slice per
    piece, the evaluation the angle-addition grid replaced; also the slice
    edges."""
    out = np.zeros(th.shape, dtype=complex)
    edges = [0, *np.searchsorted(th, [p[0] for p in pieces[1:]]), len(th)]
    for a, b, (_lo, _hi, terms) in zip(edges, edges[1:], pieces):
        t = th[a:b]
        for nu, c in terms:
            out[a:b] += c * (np.cos(nu * t) + 1j * np.sin(nu * t))
    return out, edges


TWO_PI = 2.0 * math.pi


def _broken_loops():
    """Products of loops breaking at 0.3 and at 0.55: three pieces, each
    with several terms, and a jump at both breaks."""
    u = UnitaryLoop(pieces=((0.0, 0.3, ((0.0, 1.0), (TWO_PI, 0.2))),
                            (0.3, 1.0, ((2 * TWO_PI, 1j), (-TWO_PI, 0.1)))))
    v = UnitaryLoop(pieces=((0.0, 0.55, ((-3 * TWO_PI, 1.0),)),
                            (0.55, 1.0, ((TWO_PI, -1.0), (0.0, 0.25j)))))
    return [u.product(v), v.product(u.conjugate()), u.product(_multi_term_loops()[-1])]


# (points, offset): the modulus check, winding, derivative and symbol grids,
# and sizes where 0.3 and 0.55 are grid points or rows are partial
_GRIDS = [(4096, 0.0), (8192, 0.5), (16384, 0.5), (32768, 0.5),
          (20, 0.0), (1000, 0.0), (4097, 0.0), (4097, 0.5), (3, 0.5), (1, 0.0)]


def test_grid_values_match_the_cos_sin_evaluation():
    loops = _sweep_loops() + _broken_loops()
    assert {p[0] for p in _broken_loops()[0].pieces} == {0.0, 0.3, 0.55}
    for npoints, offset in _GRIDS:
        th = (np.arange(npoints) + offset) / npoints
        for loop in loops:
            ref, edges = _cos_sin_values(loop.pieces, th)
            # the same piece for every point as the sorted-grid slices
            assert [pairing._grid_edge(p[0], npoints, offset)
                    for p in loop.pieces[1:]] == edges[1:-1]
            scale = sum(abs(c) for _lo, _hi, terms in loop.pieces for _nu, c in terms)
            assert np.max(np.abs(loop.grid(npoints, offset) - ref)) <= 1e-13 * scale


def test_grid_edge_is_the_searchsorted_position():
    for npoints, offset in _GRIDS:
        th = (np.arange(npoints) + offset) / npoints
        for t in [*th[::max(npoints // 7, 1)], 0.3, 0.55, 0.5, 0.0, 1.0, -0.5, 1.5]:
            for lo in (np.nextafter(t, -1.0), t, np.nextafter(t, 2.0)):
                assert pairing._grid_edge(lo, npoints, offset) == np.searchsorted(th, lo)


def test_grid_users_read_the_grid():
    # derivative_sup and the modulus check against the reference evaluation
    for loop in _broken_loops() + [UnitaryLoop.monomial(3)]:
        th = (np.arange(8192) + 0.5) / 8192
        fprime = pairing._derivative_pieces(loop)
        ref = np.max(np.abs(_cos_sin_values(fprime, th)[0]))
        assert abs(derivative_sup(loop) - ref) <= 1e-13 * ref
    with pytest.raises(IllConditionedLoopError, match="modulus"):
        UnitaryLoop(pieces=((0.0, 0.3, ((0.0, 1.0),)), (0.3, 1.0, ((0.0, 0.05),))))


def test_conjugate_keeps_the_modulus_verdict(monkeypatch):
    loop = _broken_loops()[0]
    calls = []
    monkeypatch.setattr(pairing, "_grid_values",
                        lambda *args: calls.append(args) or np.ones(args[1]))
    conj = loop.conjugate()
    assert calls == []
    th = np.linspace(0.0, 1.0, 101, endpoint=False)
    assert np.array_equal(conj(th), np.conj(loop(th)))
    fourier = UnitaryLoop.from_fourier({2: 1.0, -1: 0.3j})
    calls.clear()
    conj = fourier.conjugate()
    assert calls == []
    assert np.array_equal(conj(th), np.conj(fourier(th)))


def test_loops_past_the_coefficient_bound_are_refused():
    bound = pairing.MAX_COEFFICIENT_SUM
    UnitaryLoop.from_fourier({1: 1.0, 2: bound})        # 1 + bound rounds to bound
    for coefficients in ({1: bound, 2: bound}, {0: math.nan}):
        with pytest.raises(ValidationError, match="the limit is 1e"):
            UnitaryLoop.from_fourier(coefficients)


def test_margin_guard_rejects_vanishing_loops():
    with pytest.raises(IllConditionedLoopError):
        UnitaryLoop.from_fourier({0: 1.0, 1: 1.0})  # |1 + e^{2 pi i t}| hits 0


def test_a_one_term_loop_is_refused_by_its_modulus_without_a_grid(monkeypatch):
    # on a piece with one term c e^{i nu theta}, |u| = |c| exactly: a loop
    # whose pieces each carry one term is refused iff min |c| <= MARGIN, and
    # sampled nowhere; several terms on a piece still take the grid k / 4096
    grids = []
    original = pairing._grid_values
    monkeypatch.setattr(pairing, "_grid_values",
                        lambda *args: grids.append(args) or original(*args))

    def halves(c):
        return UnitaryLoop(pieces=((0.0, 0.5, ((TWO_PI, 1.0),)), (0.5, 1.0, ((-2 * TWO_PI, c),))))

    for refused in (lambda: UnitaryLoop.from_fourier({0: 0.1}),
                    lambda: UnitaryLoop.from_fourier({3: 0.1j}),
                    lambda: halves(-0.1)):
        with pytest.raises(IllConditionedLoopError, match="min 0.1000 <= margin 0.1"):
            refused()
    UnitaryLoop.from_fourier({0: 0.1000001})
    UnitaryLoop.from_fourier({-5: 0.1000001j})
    halves(0.1000001)
    assert grids == []
    UnitaryLoop.from_fourier({0: 1.0, 1: 0.5})
    UnitaryLoop(pieces=((0.0, 0.5, ((0.0, 1.0),)), (0.5, 1.0, ((0.0, 1.0), (TWO_PI, 0.2)))))
    assert [args[1:] for args in grids] == [(4096, 0.0)] * 2


def test_wedge_base_point_must_agree():
    with pytest.raises(ValidationError):
        UnitaryLoop.wedge_pair(UnitaryLoop.monomial(1), UnitaryLoop.constant(1j))
    with pytest.raises(StructuralError):
        w = UnitaryLoop.wedge_pair(UnitaryLoop.monomial(1), UnitaryLoop.monomial(2))
        UnitaryLoop.wedge_pair(w, UnitaryLoop.monomial(1))


# ---------------------------------------------------------------------------
# finite sections against the exact shift kernel


@pytest.mark.parametrize("n", [-2, -1, 1, 3])
def test_anti_diagonal_compression_is_a_pure_shift(n):
    # for the anti-diagonal B the eigenfunctions are e^{2 pi i m theta}, the
    # compression of z^n is a shift: dim ker = max(0,-n), dim coker = max(0,n)
    res = pair(UnitaryLoop.monomial(n), SWAP)
    assert res.index == -n
    assert res.stable
    _, ker, coker = res.plateau[-1]
    assert (ker, coker) == (max(0, -n), max(0, n))
    # plateau: the last three cutoffs report identical indices
    tail = [k - c for _, k, c in res.plateau[-3:]]
    assert tail == [-n] * 3


# near the top of the default basis window (lam about 850) the factored
# phases of `multiplication_matrix` carry an absolute error of about |lam| eps
# each; four of them over |D| >= 0.1 / h make an entry with |D| h >= 0.1
# exact to about 4 |lam| eps / |D| <= 40 |lam| eps h, 4e-12 relative at
# h <= 1, so those cases allow 1e-11.  The cuts 0.2 and 0.55 round lam t,
# which dyadic cuts would not; D = 0.25 takes the factored route on the
# last piece only (|D| h = 0.11).  Entries with lam = 0 are exact to 1e-14.
_TOP = 849.63


@pytest.mark.parametrize("lam, D, rtol", [
    pytest.param(0.0, 1e-8, 1e-14, id="1e-08"),
    pytest.param(0.0, 1e-6, 1e-14, id="1e-06"),
    pytest.param(0.0, 1e-3, 1e-14, id="0.001"),
    pytest.param(_TOP, 1e-8, 1e-11, id="top-1e-08"),
    pytest.param(_TOP, 1e-3, 1e-11, id="top-0.001"),
    pytest.param(_TOP, 0.25, 1e-11, id="top-0.25"),
])
def test_compression_matrix_is_exact_near_resonance(lam, D, rtol):
    # unit-coefficient phases whose frequencies differ by D pair to the
    # integral of e^{i D theta} over [0, 1], which is e^{i D/2} sin(D/2)/(D/2)
    ones = np.ones((1, 3), dtype=complex)
    lam_rows, lam_cols = np.array([lam]), np.array([lam + D])
    D = lam_cols[0] - lam_rows[0]        # the difference the floats carry
    A = multiplication_matrix(UnitaryLoop.constant(), Partition((0.0, 0.2, 0.55, 1.0)),
                              lam_rows, ones, lam_cols, ones)
    exact = cmath.exp(0.5j * D) * math.sin(0.5 * D) / (0.5 * D)
    assert abs(A[0, 0] - exact) <= rtol * abs(exact)


def _assembled_compression_matrix(loop, partition, lam_rows, coef_rows, lam_cols, coef_cols):
    """Reference: the entrywise assembly, two R x C complex exponentials
    (inside `exp_integral`) per interval and loop term."""
    A = np.zeros((len(lam_rows), len(lam_cols)), dtype=complex)
    cuts = _cuts(partition.endpoints, loop.pieces)
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + hi)
        k = partition.piece_of(mid)
        w = np.conj(coef_rows[:, k])[:, None] * coef_cols[None, :, k]
        for nu, c in _terms_at(loop.pieces, mid):
            D = nu + lam_cols[None, :] - lam_rows[:, None]
            A += (c * w) * exp_integral(1j * D, lo, hi)
    return A


def _sweep_loops():
    """The loops of both default sweeps (z^-3..z^3 and the 25 wedge
    pullbacks of addition-dirac), plus multi-term Fourier loops and a
    pullback with two terms on each piece."""
    loops = [UnitaryLoop.monomial(n) for n in range(-3, 4)]
    loops += [UnitaryLoop.wedge_pair(UnitaryLoop.monomial(n1), UnitaryLoop.monomial(n2))
              for n1 in range(-2, 3) for n2 in range(-2, 3)]
    return loops + _multi_term_loops()


def _multi_term_loops():
    wedge = UnitaryLoop.wedge_pair(UnitaryLoop.monomial(2), UnitaryLoop.monomial(-1))
    return [
        UnitaryLoop.from_fourier({-1: 1.0, 0: 0.3, 1: 0.15}),
        UnitaryLoop.from_fourier({2: 1.0, 3: 0.2, 0: 0.15j, -1: 0.1}),
        UnitaryLoop.from_fourier({m + 2: jv(m, 0.5) for m in range(-10, 11)}),
        wedge.product(UnitaryLoop.from_fourier({0: 1.0, 1: 0.2})),
    ]


@pytest.mark.parametrize("B", [
    pytest.param(SWAP, id="swap"),
    pytest.param(np.eye(2), id="identity"),
    pytest.param(3, id="haar-3"),
    pytest.param(13, id="haar-13"),
    pytest.param(31, id="haar-31"),
])
def test_factored_compression_matches_the_assembled_one(B):
    # each section of u and of ubar is a block of one of the window's factored
    # strips; both must match the entrywise assembly on the section's own rows
    # and columns
    if isinstance(B, int):
        B = random_boundary(B)
    part = Partition.default()
    basis = eigen_arrays(B, part, DEFAULT_CUTOFFS, 8 * math.pi)
    for loop in _sweep_loops():
        reach = loop.frequency_reach
        window = pairing._SectionWindow.of(loop, part, DEFAULT_CUTOFFS, basis)
        lam, coef = window.lam, window.coef
        assert np.array_equal(lam, basis[0][basis[0] <= DEFAULT_CUTOFFS[-1] + reach + PAD + 1e-12])
        for Lam in DEFAULT_CUTOFFS:
            cols = lam <= Lam + 1e-9
            rows = lam <= Lam + reach + PAD + 1e-9
            args = (lam[rows], coef[rows], lam[cols], coef[cols])
            for u, conjugate in ((loop, False), (loop.conjugate(), True)):
                ref = _assembled_compression_matrix(u, part, *args)
                got = compression_matrix(window, Lam, conjugate)
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_factored_compression_on_unequal_pieces():
    # unequal intervals give each (interval, term) its own near-resonance
    # threshold 0.1 / h
    part = Partition((0.0, 0.2, 0.55, 1.0))
    B = build_extension(OperatorSpec(part),
                        haar_unitary(np.random.default_rng(8), 3)).boundary
    lam, coef, _ladders = eigen_arrays(B, part, DEFAULT_CUTOFFS[:2], 8 * math.pi)
    for loop in _sweep_loops()[::3]:
        args = (lam, coef, lam[lam <= DEFAULT_CUTOFFS[1]], coef[lam <= DEFAULT_CUTOFFS[1]])
        ref = _assembled_compression_matrix(loop, part, *args)
        got = multiplication_matrix(loop, part, *args)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _per_interval_multiplication_matrix(loop, partition, lam_rows, coef_rows, lam_cols,
                                        coef_cols):
    """Reference: the factored assembly one (interval, term) at a time, each
    with its own (R x 2)(2 x C) product, D and real reciprocal, the near
    entries of all of them through one `exp_integral` call (the assembly
    `multiplication_matrix` used before it grouped the pairs)."""
    A = np.zeros((len(lam_rows), len(lam_cols)), dtype=complex)
    gap = lam_cols[None, :] - lam_rows[:, None]
    cuts = _cuts(partition.endpoints, loop.pieces)
    row_phase = {t: np.exp(-1j * t * lam_rows) for t in cuts}
    col_phase = {t: np.exp(1j * t * lam_cols) for t in cuts}
    near_terms = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + hi)
        k = partition.piece_of(mid)
        a = np.conj(coef_rows[:, k])
        b = coef_cols[:, k]
        a_hi, a_lo = a * row_phase[hi], a * row_phase[lo]
        s = np.stack([b * col_phase[hi], b * col_phase[lo]])
        for nu, c in _terms_at(loop.pieces, mid):
            r = np.stack([(-1j * c * np.exp(1j * nu * hi)) * a_hi,
                          (1j * c * np.exp(1j * nu * lo)) * a_lo], axis=1)
            F = r @ s
            D = gap + nu
            near = np.flatnonzero(np.abs(D) < 0.1 / (hi - lo))
            i, j = np.divmod(near, D.shape[1])
            near_terms.append((near, D.flat[near], c * a[i] * b[j], lo, hi))
            D.flat[near] = np.inf
            F *= np.divide(1.0, D, out=D)
            A += F
    near, d, weight, lo, hi = zip(*near_terms)
    sizes = [len(n) for n in near]
    np.add.at(A.reshape(-1), np.concatenate(near),
              np.concatenate(weight) * exp_integral(1j * np.concatenate(d),
                                                    np.repeat(lo, sizes), np.repeat(hi, sizes)))
    return A


def _groups(loop, partition):
    """The distinct (nu, interval length) of a loop's (interval, term) pairs."""
    cuts = _cuts(partition.endpoints, loop.pieces)
    return {(nu, hi - lo) for lo, hi in zip(cuts, cuts[1:])
            for nu, _c in _terms_at(loop.pieces, 0.5 * (lo + hi))}


def _near_entries(loop, partition, lam_rows, lam_cols):
    """Sorted (D, lo, hi) of the entries each (interval, term) sends to
    `exp_integral`: those with |D| (hi - lo) < 0.1."""
    gap = lam_cols[None, :] - lam_rows[:, None]
    cuts = _cuts(partition.endpoints, loop.pieces)
    return sorted((float(d), lo, hi) for lo, hi in zip(cuts, cuts[1:])
                  for nu, _c in _terms_at(loop.pieces, 0.5 * (lo + hi))
                  for d in (gap + nu)[np.abs(gap + nu) < 0.1 / (hi - lo)])


_UNEQUAL = Partition((0.0, 0.2, 0.55, 1.0))


@pytest.mark.parametrize("case", ["monomials", "pullbacks", "fourier-unequal",
                                  "several-terms", "several-terms-unequal"])
def test_grouped_assembly_matches_the_per_interval_one(monkeypatch, case):
    # one product and one reciprocal per (nu, interval length) give every
    # entry of the per-interval assembly to 1e-13 of the largest, on the
    # column and row strips a section window assembles (the row strip's
    # block past the top cutoff can be rounding error alone, so both are
    # measured against the larger); each entry takes the branch it takes
    # per interval, the near-resonant ones going to `exp_integral`
    sent = []

    def recorded(delta, lo, hi):
        sent.append(sorted(zip(np.imag(delta).tolist(), lo.tolist(), hi.tolist())))
        return exp_integral(delta, lo, hi)

    monkeypatch.setattr(pairing, "exp_integral", recorded)
    part = _UNEQUAL if case.endswith("unequal") else Partition.default()
    if case == "monomials":
        loops = [UnitaryLoop.monomial(n) for n in range(-3, 4)]
    elif case == "pullbacks":
        loops = _sweep_loops()[7:32]
    elif case == "fourier-unequal":
        # the three intervals share nu but not length: three groups
        loops = [UnitaryLoop.from_fourier({1: 1.0}), UnitaryLoop.from_fourier({-2: 1.0})]
    else:
        loops = _multi_term_loops()
    if part.npieces == 2:
        B = random_boundary(13)
    else:
        B = build_extension(OperatorSpec(part), haar_unitary(np.random.default_rng(8), 3)).boundary
    lam, coef, _ladders = eigen_arrays(B, part, DEFAULT_CUTOFFS, 8 * math.pi)
    for loop in loops:
        if case == "fourier-unequal":
            assert len(_groups(loop, part)) == 3
        elif case == "monomials":
            assert len(_groups(loop, part)) == 1
        c = int(np.count_nonzero(lam <= DEFAULT_CUTOFFS[-1] + 1e-9))
        strips = ((lam, coef, lam[:c], coef[:c]), (lam[:c], coef[:c], lam[c:], coef[c:]))
        refs = [_per_interval_multiplication_matrix(loop, part, *args) for args in strips]
        scale = max(np.max(np.abs(ref)) for ref in refs)
        for args, ref in zip(strips, refs):
            got = multiplication_matrix(loop, part, *args)
            assert np.max(np.abs(got - ref)) <= 1e-13 * scale
            assert sent.pop() == _near_entries(loop, part, args[0], args[2])


def test_a_high_reach_window_assembles_no_more_than_its_sections(monkeypatch):
    # z^1000 has a window of N = 1133 eigenvalues against C = 129 up to the
    # top cutoff.  SWAP's two ladders make it a ladder window: the pairing
    # assembles only the table of its N rows against each ladder's first and
    # last eigenfunction, N 4 entries, and gathers both real strips from it;
    # the strips M[:, :C] and M[:C, C:] would hold 2 N C - C^2, and the
    # whole N x N window matrix about 4x as many
    part = Partition.default()
    loop = UnitaryLoop.monomial(1000)
    basis = eigen_arrays(SWAP, part, DEFAULT_CUTOFFS, loop.frequency_reach)
    assembled, sections = [], []
    kernel, compression = pairing.multiplication_matrix, pairing.compression_matrix

    def counted_kernel(loop, partition, lam_rows, coef_rows, lam_cols, coef_cols):
        assembled.append(len(lam_rows) * len(lam_cols))
        return kernel(loop, partition, lam_rows, coef_rows, lam_cols, coef_cols)

    def counted_compression(*args):
        A = compression(*args)
        sections.append(A.size)
        return A

    monkeypatch.setattr(pairing, "multiplication_matrix", counted_kernel)
    monkeypatch.setattr(pairing, "compression_matrix", counted_compression)
    pairing._finite_section(loop, part, DEFAULT_CUTOFFS, basis)
    window = pairing._SectionWindow.of(loop, part, DEFAULT_CUTOFFS, basis)
    N, C = len(window.lam), window.columns
    assert (N, C) == (1133, 129)
    # one table and no strip: a strip would be an assembly of N C or C (N - C)
    assert assembled == [N * 4] == [4532]
    assert len(sections) == 2 * len(DEFAULT_CUTOFFS)
    assert sum(assembled) <= sum(sections) and 4 * sum(assembled) < N * N


def test_a_section_of_rounding_error_has_a_kernel():
    # the threshold scales with max(sigma_max, MARGIN), not with sigma_max
    # alone: a section whose one singular value is rounding error has a
    # kernel, and with nothing retained it reads 0, which never resolves
    assert pairing._numerical_kernel(np.full((6, 1), 1e-16)) == (1, 0.0)
    assert pairing._numerical_kernel(np.zeros((3, 0))) == (0, 0.0)
    assert pairing._numerical_kernel(np.diag([2.0, 0.5, 1e-9])) == (1, 0.25)
    assert pairing._numerical_kernel(np.diag([0.01, 1e-5])) == (0, 1e-5 / pairing.MARGIN)


def _masked_numerical_kernel(A, margin=0.0):
    """Reference: `_numerical_kernel` as it read every singular value, with a
    mask and a margin test on each, before it searched the sorted ones."""
    sv = np.linalg.svd(A, compute_uv=False)
    scale = max(sv[0], MARGIN) if sv.size else MARGIN
    threshold = pairing.KERNEL_TOL * scale
    if np.any(np.abs(sv - threshold) < margin):
        return None
    retained = sv[sv >= threshold]
    return sv.size - retained.size, float(retained[-1] / scale) if retained.size else 0.0


def test_the_kernel_reading_is_the_masked_one():
    # singular values just above, at and just below the threshold 1e-7
    # sigma_max, alone or with a neighbour across it, read with margins on
    # either side of their distance from it; empty, zero and rounding-error
    # sections; and the real and complex sections of a sweep window
    tol = pairing.KERNEL_TOL
    cases = [np.zeros((3, 0)), np.zeros((0, 3)), np.zeros((4, 4)), np.full((6, 1), 1e-16),
             np.diag([0.01, 1e-5]), np.diag([2.0, 0.5, 1e-9])]
    for near in (tol + 1e-12, tol, tol - 1e-12, tol * (1 + 1e-4), tol * (1 - 1e-4)):
        cases += [np.diag([1.0, 0.3, near, 1e-12]), np.diag([1.0, near])]
    cases.append(np.diag([1.0, tol + 3e-12, tol - 5e-12, 0.0]))
    rng = np.random.default_rng(5)
    for scale in ([1.0, 1.0, 1e-7, 1e-9], [0.05, 1e-8, 1e-9, 1e-12]):
        cases.append(rng.standard_normal((6, 4)) @ np.diag(scale))
    part, loop = Partition.default(), UnitaryLoop.monomial(-2)
    window = pairing._SectionWindow.of(loop, part, FAST,
                                       eigen_arrays(random_boundary(3), part, FAST, 4 * math.pi))
    strip = window.real_strip()
    for Lam in FAST:
        cases += [compression_matrix(window, Lam), compression_matrix(window, Lam, real=strip[0])]
    margins = (0.0, 1e-14, 1e-13, 2e-12, 4e-12, 6e-12, 1e-11, 1e-9, strip[1], 1e-6)
    readings = set()
    for A in cases:
        for margin in margins:
            reading = pairing._numerical_kernel(A, margin)
            assert reading == _masked_numerical_kernel(A, margin)
            readings.add(reading is None)
    assert readings == {True, False}


# ---------------------------------------------------------------------------
# real sections under the midpoint gauge


def _sweep_windows(B):
    """The `_SectionWindow` of every loop of both default sweeps against B, on
    the basis its sweep shares: reach 6 pi for z^-3..z^3, 8 pi for the 25
    wedge(z^a|z^b) pullbacks."""
    part = Partition.default()
    loops = [loop for loop, _conj in _conjugate_suites()]
    monomials, wedges = loops[:7], loops[7:]
    windows = []
    for group, reach in ((monomials, 6 * math.pi), (wedges, 8 * math.pi)):
        basis = eigen_arrays(B, part, DEFAULT_CUTOFFS, reach)
        windows += [pairing._SectionWindow.of(loop, part, DEFAULT_CUTOFFS, basis)
                    for loop in group]
    return windows


@pytest.mark.parametrize("seed", range(20))
def test_the_gauge_makes_every_sweep_section_real_with_the_complex_readings(seed):
    # every section of both default sweeps, A(u) and A(ubar) at each default
    # cutoff: every window has its ladder table, the gathered strip
    # certifies, and each real section has the complex section's kernel
    # count, read with the strip's margin, and each singular value within
    # that margin of the complex one.  No strip falls
    # back to complex sections: 0 of the 64 strips (256 sections) a seed
    B = random_boundary(seed)
    fallbacks = 0
    for window in _sweep_windows(B):
        assert window.table is not None
        for conjugate in (False, True):
            strip = window.real_strip(conjugate)
            if strip is None:
                fallbacks += 1
                continue
            margin = strip[1]
            assert margin < 1e-11
            for Lam in DEFAULT_CUTOFFS:
                A = compression_matrix(window, Lam, conjugate)
                S = compression_matrix(window, Lam, conjugate, strip[0])
                assert S.dtype == np.float64 and S.shape == A.shape
                gap = np.linalg.svd(A, compute_uv=False) - np.linalg.svd(S, compute_uv=False)
                assert np.max(np.abs(gap)) <= margin
                reading = pairing._numerical_kernel(S, margin)
                assert reading is not None
                assert reading[0] == pairing._numerical_kernel(A)[0]
    assert fallbacks == 0


def test_the_gauge_certificate_refuses_what_the_gauge_does_not_make_real():
    # z^-1 against Haar B: a dense section, not a partial permutation, whose
    # entries carry every phase e^{i (lam_j - lam_i) m_1}
    part = Partition.default()
    loop = UnitaryLoop.monomial(-1)
    basis = eigen_arrays(random_boundary(3), part, DEFAULT_CUTOFFS, loop.frequency_reach)
    window = pairing._SectionWindow.of(loop, part, DEFAULT_CUTOFFS, basis)
    g, phase = window.gauge
    c, bound = window.columns, window.gauge_bound

    def certified(strip, g_rows, g_cols, phase):
        S = pairing._gauged(strip, g_rows, g_cols, phase)
        return pairing._certified(S.real, S.imag, bound)

    sides = ((window.column_strip, slice(None), slice(None, c)),
             (window.row_strip, slice(None, c), slice(None)))
    for strip, rows, cols in sides:
        assert certified(strip, g[rows], g[cols], phase) is not None
        # a random complex matrix of the strip's shape and Frobenius norm
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(strip.shape) + 1j * rng.standard_normal(strip.shape)
        noise *= np.linalg.norm(strip) / np.linalg.norm(noise)
        assert certified(noise, g[rows], g[cols], phase) is None
        # the phase of the first atom coefficient without e^{i lam m_1}, the
        # eigenfunction's phase at the piece's midpoint
        a = window.coef[:, 0]
        bare = a / np.abs(a)
        assert certified(strip, bare[rows], bare[cols], phase) is None
        # and with the loop's phase e^{-i kappa} off by pi/4
        assert certified(strip, g[rows], g[cols], phase * 1j ** 0.5) is None


def _three_piece_boundary():
    return build_extension(OperatorSpec(Partition((0.0, 0.3, 0.55, 1.0))),
                           haar_unitary(np.random.default_rng(8), 3)).boundary


def _two_unequal_pieces_boundary():
    return build_extension(OperatorSpec(Partition((0.0, 0.4, 1.0))),
                           haar_unitary(np.random.default_rng(3))).boundary


def _close_residue_boundary():
    # eigenphases 1e-5 apart: a ladder basis by construction, like any other
    W = haar_unitary(np.random.default_rng(4), 2).matrix
    return (W * np.exp(1j * np.array([0.3, 0.3 + 1e-5]))) @ W.conj().T


@pytest.mark.parametrize("loop, endpoints, make_B, certified", [
    # two terms on a piece: e^{-i pi/2} and 0.3 e^{i pi} at m_1 = 1/4 differ
    # in phase mod pi
    pytest.param({"-1": 1.0, "2": 0.3}, (0.0, 0.5, 1.0), lambda: random_boundary(3), False,
                 id="two-term"),
    pytest.param({"-1": 1.0, "2": 0.3}, (0.0, 0.5, 1.0), lambda: SWAP, False,
                 id="two-term-swap"),
    pytest.param({"2": 1.0}, (0.0, 0.3, 0.55, 1.0), _three_piece_boundary, False,
                 id="unequal-pieces"),
    pytest.param({"-1": 1.0}, (0.0, 0.3, 0.55, 1.0), _three_piece_boundary, False,
                 id="unequal-pieces-odd"),
    # B = I: every eigenvalue is double, and its basis mixes the ladders
    pytest.param({"2": 1.0}, (0.0, 0.5, 1.0), lambda: np.eye(2), False,
                 id="repeated-eigenvalues"),
    pytest.param({"-2": 1.0}, (0.0, 0.5, 1.0), lambda: random_boundary(3), True,
                 id="monomial"),
    pytest.param({"1": 1.0}, (0.0, 0.5, 1.0), lambda: SWAP, True, id="monomial-swap"),
    # no table on two unequal pieces, so even a monomial takes complex
    # sections; eigenphases 1e-5 apart still label their ladders
    pytest.param({"1": 1.0}, (0.0, 0.4, 1.0), _two_unequal_pieces_boundary, False,
                 id="two-unequal-pieces"),
    pytest.param({"1": 1.0}, (0.0, 0.5, 1.0), _close_residue_boundary, True,
                 id="close-residues"),
])
def test_a_pairing_reads_as_the_complex_route(monkeypatch, loop, endpoints, make_B, certified):
    # a window's table certifies the monomials on equal pieces and refuses
    # the rest, each pairing's SVDs are all real or all complex as it does,
    # and either way the pairing equals the one read from complex sections
    part, B = Partition(endpoints), make_B()
    loop = UnitaryLoop.from_fourier({int(m): c for m, c in loop.items()})
    basis = eigen_arrays(B, part, DEFAULT_CUTOFFS, loop.frequency_reach)
    window = pairing._SectionWindow.of(loop, part, DEFAULT_CUTOFFS, basis)
    assert [window.real_strip(conj) is not None for conj in (False, True)] == [certified] * 2

    def fields(res):
        return res.index, res.plateau, res.stable, res.method

    svd, dtypes = np.linalg.svd, []

    def counted_svd(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "extlab.pairing":
            dtypes.append(str(args[0].dtype))
        return svd(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", counted_svd)
        got = pair(loop, B, partition=part)
    assert dtypes and set(dtypes) == {"float64" if certified else "complex128"}
    monkeypatch.setattr(pairing._SectionWindow, "real_strip", lambda self, conjugate=False: None)
    assert fields(got) == fields(pair(loop, B, partition=part))


def test_a_reading_too_close_to_call_is_refused():
    # a singular value within the margin of the threshold 1e-7 sigma_max, or
    # a guard comparison within its error of flipping, has no verdict; with
    # no margin (complex sections) every reading stands
    near = np.diag([1.0, 1e-7 + 1e-12])
    assert pairing._numerical_kernel(near, 1e-11) is None
    assert pairing._numerical_kernel(near, 1e-13) == pairing._numerical_kernel(near)
    assert pairing._numerical_kernel(near) == (0, 1e-7 + 1e-12)
    # 0.45 + 1e-12 against GUARD_STEP * 0.5 = 0.45: the step test is close
    assert pairing._guard((1.0, 0.5, 0.45 + 1e-12)) is True
    assert pairing._guard((1.0, 0.5, 0.45 + 1e-12), 1e-9) is None
    assert pairing._guard((1.0, 0.5, 0.2), 1e-9) is False
    assert pairing._guard((1.0, 0.95, 0.8), 1e-9) is True      # above GUARD_TOTAL * 1.0
    assert pairing._guard((1.0, 1.0, 1.0)) is True


def test_a_pairing_too_close_to_call_is_read_again_from_complex_sections(monkeypatch):
    # a guard that cannot call the real readings sends the pairing to the
    # complex sections: 8 more SVDs, and the complex route's result
    loop, B = UnitaryLoop.monomial(-2), random_boundary(3)
    want = pair(loop, B)
    guard, errs, svds = pairing._guard, [], []
    svd = np.linalg.svd

    def unsure(smins, err=0.0):
        errs.append(err)
        return None if err else guard(smins)

    def counted_svd(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "extlab.pairing":
            svds.append(args[0].dtype)
        return svd(*args, **kwargs)

    monkeypatch.setattr(pairing, "_guard", unsure)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    got = pair(loop, B)
    assert len(errs) == 2 and errs[0] > 0 and errs[1] == 0
    assert [str(d) for d in svds] == ["float64"] * 8 + ["complex128"] * 8
    assert (got.index, got.plateau, got.stable, got.method) == (
        want.index, want.plateau, want.stable, want.method)


# ---------------------------------------------------------------------------
# real strips gathered from a ladder table


def _equal_pieces(k):
    return Partition(tuple(np.linspace(0.0, 1.0, k + 1)))


def _haar_boundary(part, seed):
    return build_extension(OperatorSpec(part),
                           haar_unitary(np.random.default_rng(seed), part.npieces)).boundary


_BROKEN_AT_03 = UnitaryLoop(((0.0, 0.3, ((2 * math.pi, 1.0),)),
                             (0.3, 1.0, ((2 * math.pi, -1.0),))))


def _gathered_against_assembled(window, exact=False):
    """For both strips of a ladder window: the gathered Re S and ||Im S||_F
    against the `_gauged` assembled strip.  Each of the two carries up to
    the assembly error `multiplication_matrix` documents, 10 |lam| eps |u|
    an entry.  With `exact` (knots and loop breaks at binary fractions, so
    every phase e^{i lam t} of the assembly is exact to a rounding, and
    eigenphases well apart) they agree to 1e-13 max|S|."""
    g, phase = window.gauge
    c = window.columns
    for conjugate, ref in ((False, pairing._gauged(window.column_strip, g, g[:c], phase)),
                           (True, pairing._gauged(window.row_strip, g[:c], g, phase))):
        tol = (1e-13 * np.max(np.abs(ref)) if exact else
               10 * np.finfo(float).eps * window.top * pairing._coefficient_sum(window.loop.pieces))
        re = window._gathered(window.table.real, *ref.shape)
        im = window._gathered(window.table.imag, *ref.shape)
        assert np.max(np.abs(re - ref.real)) <= tol and np.max(np.abs(im - ref.imag)) <= tol
        assert abs(np.linalg.norm(im) - np.linalg.norm(ref.imag)) <= tol
        strip = window.real_strip(conjugate)
        if strip is not None:
            # every section at every cutoff is a block of the gathered strip
            assert np.array_equal(strip[0], re)
            for Lam in DEFAULT_CUTOFFS:
                A = compression_matrix(window, Lam, conjugate)
                S = compression_matrix(window, Lam, conjugate, strip[0])
                block = ref.T if conjugate else ref
                assert np.max(np.abs(S - block[:A.shape[0], :A.shape[1]].real)) <= tol


@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_table_gathers_the_gauged_assembled_strips(k):
    # k equal pieces against Haar B seeds 0-19 (and SWAP on two pieces),
    # every loop of `_sweep_loops` and a loop broken at 0.3: each basis is a
    # ladder basis, each window builds its table, and both gathered strips,
    # and ||Im S||_F, are the gauged assembled ones
    part = _equal_pieces(k)
    boundaries = [_haar_boundary(part, seed) for seed in range(20)] + ([SWAP] if k == 2 else [])
    loops = _sweep_loops() + [_BROKEN_AT_03]
    reach = max(loop.frequency_reach for loop in loops)
    for B in boundaries:
        basis = eigen_arrays(B, part, DEFAULT_CUTOFFS, reach)
        assert basis[2] == k
        for loop in loops:
            window = pairing._SectionWindow.of(loop, part, DEFAULT_CUTOFFS, basis)
            assert window.ladders == k and window.table.shape == (len(window.lam), 2 * k)
            _gathered_against_assembled(window, exact=k < 3 and loop is not _BROKEN_AT_03)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_table_bounds_the_imaginary_strip_norm(k):
    # ||Im S||_F read off the table, without gathering Im S, is at least the
    # norm of the gathered imaginary strip and within (1 + 4 N eps) of it, N
    # the window's eigenvalues: on k equal pieces against Haar B, for loops
    # the gauge makes real (Im S of rounding size) and loops it does not
    part = _equal_pieces(k)
    loops = _sweep_loops() + [_BROKEN_AT_03]
    reach = max(loop.frequency_reach for loop in loops)
    eps = np.finfo(float).eps
    for seed in range(5):
        basis = eigen_arrays(_haar_boundary(part, seed), part, DEFAULT_CUTOFFS, reach)
        for loop in loops:
            window = pairing._SectionWindow.of(loop, part, DEFAULT_CUTOFFS, basis)
            n, c = len(window.lam), window.columns
            for shape in ((n, c), (c, n)):
                im = window._gathered(window.table.imag, *shape)
                ref = math.sqrt(np.einsum("ij,ij->", im, im))
                re = window._gathered(window.table.real, *shape)
                slack = pairing._certified(re, window._imag_norms(*shape), math.inf)[1]
                assert ref <= slack <= ref * (1 + 4 * n * eps)


def test_a_basis_takes_its_gauge_once_for_every_window():
    # g = alpha / |alpha| depends on B alone: the basis carries it beside the
    # tuple (lam, coef, ladders), and each window's gauge is its rows, equal
    # to the gauge of the window's own eigenfunctions
    part = Partition.default()
    basis = eigen_arrays(random_boundary(3), part, DEFAULT_CUTOFFS, 8 * math.pi)
    lam, coef, ladders = basis
    assert ladders == 2 and basis.gauge.shape == lam.shape
    assert np.allclose(np.abs(basis.gauge), 1.0, rtol=0.0, atol=1e-15)
    for loop in _sweep_loops():
        window = pairing._SectionWindow.of(loop, part, DEFAULT_CUTOFFS, basis)
        g, _phase = window.gauge
        assert np.array_equal(g, pairing._basis_gauge(part, window.lam, window.coef))
        assert np.shares_memory(g, window.units)
    # no gauge off the ladders, and none for a window with an eigenfunction
    # whose first atom coefficient vanishes at the midpoint
    unequal = Partition((0.0, 0.3, 0.55, 1.0))
    assert eigen_arrays(_three_piece_boundary(), unequal, DEFAULT_CUTOFFS, 0.0).gauge is None
    holed = coef.copy()
    holed[3, 0] = 0.0
    units = pairing._basis_gauge(part, lam, holed)
    assert units[3] == 0 and np.array_equal(np.delete(units, 3), np.delete(basis.gauge, 3))
    window = pairing._SectionWindow.of(UnitaryLoop.monomial(1), part, DEFAULT_CUTOFFS, basis)
    window = dataclasses.replace(window, units=units[:len(window.lam)])
    assert window.gauge is None and window.table is None and window.real_strip() is None


def _six_cycle():
    # eigenvalues the sixth roots of unity: distinct residues, and 0 in the
    # spectrum, so a window up to about 8 pi holds 5 of the 6 ladders
    return np.roll(np.eye(6), 1, axis=0).astype(complex)


_MONOMIALS = (0, -1, 2)


@pytest.mark.parametrize("endpoints, make_B, cutoffs, reach, monomials, ladders", [
    pytest.param((0.0, 0.3, 0.55, 1.0), _three_piece_boundary, DEFAULT_CUTOFFS, None, _MONOMIALS,
                 0, id="unequal-pieces"),
    # on their ladders, but a diagonal B has W = I up to order, which leaves
    # one ladder's first atom coefficient 0: no gauge
    pytest.param((0.0, 0.5, 1.0), lambda: np.eye(2), DEFAULT_CUTOFFS, None, _MONOMIALS, 2,
                 id="identity"),
    pytest.param((0.0, 0.5, 1.0), lambda: np.diag([1.0, cmath.exp(1e-9j)]), DEFAULT_CUTOFFS,
                 None, _MONOMIALS, 2, id="near-repeated-residue"),
    pytest.param((0.0, 0.5, 1.0), lambda: random_boundary(3), (0.001, 0.002, 0.003), None,
                 _MONOMIALS, 0, id="no-column"),
    # z^0's window [0, 8 pi] holds 5 of the 6 ladders of a basis built for a
    # reach of 12 pi
    pytest.param(tuple(np.linspace(0.0, 1.0, 7)), _six_cycle, (0.001, 0.002, 0.003),
                 12 * math.pi, (0,), 0, id="window-without-a-ladder"),
])
def test_a_window_off_the_ladders_builds_no_table(monkeypatch, endpoints, make_B, cutoffs,
                                                  reach, monomials, ladders):
    # nor does a ladder window without a gauge; either pairing is the complex
    # route's: no real strip is gathered
    part, B = Partition(endpoints), make_B()
    for loop in map(UnitaryLoop.monomial, monomials):
        basis = eigen_arrays(B, part, cutoffs, loop.frequency_reach if reach is None else reach)
        window = pairing._SectionWindow.of(loop, part, cutoffs, basis)
        assert window.ladders == ladders and window.table is None
        if ladders:
            assert basis.gauge is not None and window.gauge is None
        if reach is not None:
            assert basis[2] == part.npieces      # the basis has every ladder, the window not

        def fields(res):
            return res.index, res.plateau, res.stable, res.method

        got = pair(loop, B, cutoffs, part)
        with monkeypatch.context() as patch:
            patch.setattr(pairing._SectionWindow, "real_strip",
                          lambda self, conjugate=False: None)
            assert fields(got) == fields(pair(loop, B, cutoffs, part))


@pytest.mark.parametrize("k", [3, 4])
def test_close_residues_build_a_table_on_thirds_and_quarters(k):
    # eigenphases 0.005 apart: every rung of a ladder takes one W column,
    # so the atom vectors do not drift along it even on thirds, whose
    # lengths differ in the last bit, and the table gathers the assembly
    part = _equal_pieces(k)
    B = _close_phase_boundary(k, 0.005)
    loop = UnitaryLoop.monomial(1)
    basis = eigen_arrays(B, part, DEFAULT_CUTOFFS, loop.frequency_reach)
    window = pairing._SectionWindow.of(loop, part, DEFAULT_CUTOFFS, basis)
    assert window.table is not None
    _gathered_against_assembled(window)


def _close_phase_boundary(k, gap):
    """W diag(e^{i phi}) W* on k pieces, Haar W, with its first two
    eigenphases `gap` apart."""
    W = haar_unitary(np.random.default_rng(4), k).matrix
    return (W * np.exp(1j * np.array([0.3, 0.3 + gap, 2.0, 4.0][:k]))) @ W.conj().T


_LADDER_BOUNDARIES = {
    "haar": lambda k: boundary_array(_haar_boundary(_equal_pieces(k), 60 + k)),
    "identity": lambda k: np.eye(k),
    # swap on two pieces, the transposition of the outer pieces on three
    "swap": lambda k: np.fliplr(np.eye(k)),
    "repeated": lambda k: _close_phase_boundary(k, 0.0),
    "1e-9-apart": lambda k: _close_phase_boundary(k, 1e-9),
    "0.005-apart": lambda k: _close_phase_boundary(k, 0.005),
}


@pytest.mark.parametrize("name", list(_LADDER_BOUNDARIES))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_every_equal_partition_gets_its_ladder_labels(k, name):
    # eigenvalue i is rung i // k of ladder i % k: the ladder's eigenvalues
    # step by 2 pi / l, and all its rows are one trace vector c, an eigenvector
    # of B with eigenvalue e^{-i lam l}, at the phases e^{-i lam t} of the knots
    part, B = _equal_pieces(k), _LADDER_BOUNDARIES[name](k)
    lam, coef, ladders = eigen_arrays(B, part, DEFAULT_CUTOFFS, 8 * math.pi)
    assert ladders == k and len(lam) > 100
    ell, tleft = part.lengths[0], np.asarray(part.endpoints[:-1])
    assert np.all(np.diff(lam) >= 0)
    assert np.max(np.abs(lam[k:] - lam[:-k] - 2 * math.pi / ell)) <= 1e-11
    trace = coef * np.exp(1j * lam[:, None] * tleft)
    assert np.max(np.abs(trace[k:] - trace[:-k])) <= 1e-11
    eigen = np.exp(-1j * lam[:k] * ell)[:, None] * trace[:k]
    assert np.max(np.abs(trace[:k] @ boundary_array(B).T - eigen)) <= 1e-13


_TABLE_LOOPS = st.one_of(
    st.integers(-3, 3).map(UnitaryLoop.monomial),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda ab: UnitaryLoop.wedge_pair(UnitaryLoop.monomial(ab[0]),
                                          UnitaryLoop.monomial(ab[1]))),
    st.tuples(st.integers(-3, 3), st.integers(1, 3), st.complex_numbers(max_magnitude=0.6)).map(
        lambda t: UnitaryLoop.from_fourier({t[0]: 1.0, t[0] + t[1]: t[2]})),
)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1), st.booleans(), _TABLE_LOOPS)
def test_the_table_is_built_on_repeated_and_distinct_residues(k, seed, repeat, loop):
    # a Haar B, or one with its first eigenphase repeated: every window of the
    # equal partition is a ladder window, its table is built wherever its
    # gauge is defined, always on distinct eigenphases, and gathers the
    # assembled strips
    part = _equal_pieces(k)
    B = boundary_array(_haar_boundary(part, seed))
    w, W = np.linalg.eig(B)
    repeat = repeat and k > 1
    if repeat:
        w[1] = w[0]
        W, _r = np.linalg.qr(W)
        B = (W * w) @ W.conj().T
    else:
        # well apart, so that distinct is unambiguous: B's eigenphases have
        # gaps of 0.1 or more
        phases = np.sort(np.angle(w))
        assume(np.min(np.diff(np.append(phases, phases[0] + 2 * math.pi))) >= 0.1)
    basis = eigen_arrays(B, part, FAST, loop.frequency_reach)
    window = pairing._SectionWindow.of(loop, part, FAST, basis)
    assert window.ladders == k
    assert (window.table is not None) == (window.gauge is not None)
    assert repeat or window.table is not None
    if window.table is not None:
        _gathered_against_assembled(window)


def test_pair_of_constant_loop_is_zero():
    res = pair(UnitaryLoop.constant(1.0 + 0.0j), SWAP)
    assert res.index == 0 and res.stable


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_index_equals_minus_winding_random_extensions(seed):
    B = random_boundary(seed)
    for n in (-2, 1, 2):
        res = pair(UnitaryLoop.monomial(n), B)
        assert res.stable
        assert res.index == -n == -winding(UnitaryLoop.monomial(n))


def test_dressed_loop_pairs_by_winding():
    loop = UnitaryLoop.from_fourier({-1: 1.0, 0: 0.3, 1: 0.15})
    w = brute_winding(loop)
    assert w == -1
    for B in (SWAP, random_boundary(7)):
        res = pair(loop, B)
        assert res.stable and res.index == -w


def test_truncated_schedule_cannot_certify_silently():
    # seed 202 has a kernel vector with a slow tail: a 3-cutoff schedule
    # would plateau on the wrong integer, and the exact route must then
    # refuse loudly instead of picking a side
    from extlab.errors import NumericalError

    B = random_boundary(202)
    with pytest.raises(NumericalError):
        pair(UnitaryLoop.monomial(1), B, cutoffs=FAST)
    # the full default schedule resolves the same pairing exactly
    res = pair(UnitaryLoop.monomial(1), B)
    assert res.stable and res.index == -1 and res.method == "symbol-winding"


def test_homotopy_invariance_of_the_pairing():
    # u_eps = e^{i eps sin(2 pi theta)} z^n is homotopic to z^n; its Fourier
    # coefficients are Bessel values (Jacobi-Anger), shifted by n
    eps, n = 0.5, 2
    coeffs = {m + n: jv(m, eps) for m in range(-10, 11)}
    loop = UnitaryLoop.from_fourier(coeffs)
    assert brute_winding(loop) == n
    res = pair(loop, SWAP, cutoffs=FAST)
    assert res.stable and res.index == -n
    res2 = pair(loop, random_boundary(5))
    assert res2.stable and res2.index == -n


def test_identity_extension_odd_loop_goes_through_the_canonical_representative():
    # B = I makes the compression of any odd-winding loop genuinely
    # non-Fredholm (the symbol chord passes through zero); the pairing is
    # still defined on the K-class and must come back via the canonical route
    for n in (-1, 1):
        res = pair(UnitaryLoop.monomial(n), np.eye(2))
        assert res.index == -n
        assert res.stable
        assert res.method == "extension-independence"


def test_identity_extension_even_loops_are_fredholm():
    res = pair(UnitaryLoop.monomial(2), np.eye(2))
    assert res.index == -2 and res.stable
    assert res.method in ("finite-section", "symbol-winding")


def test_symbol_route_reports_non_fredholm_reason():
    loop = UnitaryLoop.monomial(1)
    idx, diag = symbol_index(loop, np.eye(2), ngrid=unwinding_grid(loop)[0])
    assert idx is None
    assert "not Fredholm" in diag["reason"]


def _reference_seam(loop, B):
    """(vL, vR) as the whole-symbol reference forms them: W from
    `np.linalg.eig`, the sandwich as an einsum."""
    w, W = np.linalg.eig(boundary_array(B))
    phi = np.angle(w)
    alpha = phi - 2 * np.pi * (phi > 0)
    return tuple(_reference_symbol(loop, W, alpha, np.asarray([x]))[0] for x in (1.0, 0.0))


def _reference_symbol(loop, W, alpha, x):
    """v(x) = G(x) W* diag(u(x/2), u((x+1)/2)) W G(x)^{-1} at the points x."""
    U = np.stack([loop(x / 2.0), loop((x + 1.0) / 2.0)], axis=1)
    g = np.exp(1j * np.outer(x, alpha))
    return np.einsum("kj,nk,kl->njl", W.conj(), U, W) * g[:, :, None] / g[:, None, :]


def _chord_determinant(vL, vR, mu):
    """det((1 - mu) vL + mu vR) at the points mu, one 2x2 matrix each."""
    M = (1 - mu)[:, None, None] * vL[None] + mu[:, None, None] * vR[None]
    return M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]


def _full_symbol_index(loop, B, partition=None, ngrid=8192):
    """Reference: the symbol route with the whole ngrid x 2 x 2 symbol grid,
    and the chord determinant on 4097 points, its minimum refined by
    zooming three times into the cells around the smallest sample."""
    w, W = np.linalg.eig(boundary_array(B))
    phi = np.angle(w)
    alpha = phi - 2 * np.pi * (phi > 0)
    x = np.linspace(0.0, 1.0, ngrid, endpoint=False) + 0.5 / ngrid
    v = _reference_symbol(loop, W, alpha, x)
    detv = v[:, 0, 0] * v[:, 1, 1] - v[:, 0, 1] * v[:, 1, 0]
    if np.min(np.abs(detv)) < 1e-9:
        return None, {"reason": "interior determinant degenerate"}
    darg = np.angle(detv[1:] / detv[:-1])
    if np.max(np.abs(darg)) > 0.5:
        raise NumericalError("symbol grid too coarse for safe unwinding")
    total = float(np.sum(darg))
    vL, vR = _reference_seam(loop, B)
    mu = np.linspace(0.0, 1.0, 4097)
    detM = _chord_determinant(vL, vR, mu)
    scale = max(abs(detM[0]), abs(detM[2048]), abs(detM[-1]), 1e-300)
    margin, zoom = np.min(np.abs(detM)), mu
    for _ in range(3):
        k = int(np.argmin(np.abs(_chord_determinant(vL, vR, zoom))))
        zoom = np.linspace(zoom[max(k - 1, 0)], zoom[min(k + 1, len(zoom) - 1)], 1025)
        margin = min(margin, np.min(np.abs(_chord_determinant(vL, vR, zoom))))
    diag = {"chord_margin": margin, "chord_scale": scale}
    if margin < 1e-8 * scale:
        diag["reason"] = "chord determinant passes through zero (not Fredholm)"
        return None, diag
    dchord = np.angle(detM[1:] / detM[:-1])
    if np.max(np.abs(dchord)) > 0.5:
        raise NumericalError("chord grid too coarse for safe unwinding")
    total += float(np.sum(dchord))
    total += float(np.angle(detv[0] / detM[-1]))
    total += float(np.angle(detM[0] / detv[-1]))
    wind = total / (2 * np.pi)
    iw = int(np.round(wind))
    if abs(wind - iw) > 1e-6:
        raise NumericalError(f"symbol winding {wind!r} is not integral")
    return -iw, diag


def _symbol_answer(route, loop, B, ngrid):
    """(index, reason) of a symbol route, or the NumericalError it raised."""
    try:
        index, diag = route(loop, B, ngrid=ngrid)
    except NumericalError as exc:
        return str(exc)
    return index, diag.get("reason")


_SPECIAL_B = {"identity": np.eye(2), "swap": SWAP,
              "diag(1,-1)": np.diag([1.0, -1.0]).astype(complex)}


@pytest.mark.parametrize("name", [*_SPECIAL_B, "haar-13", "haar-0..19"])
def test_determinant_symbol_route_matches_the_full_symbol(name):
    if name in _SPECIAL_B:
        bs, loops = [_SPECIAL_B[name]], _sweep_loops()
    elif name == "haar-13":
        bs, loops = [random_boundary(13)], _sweep_loops()
    else:
        # 20 more Haar B against the monomials, every fifth pullback and the
        # multi-term loops
        bs = [random_boundary(1000 + s) for s in range(20)]
        loops = _sweep_loops()[:7] + _sweep_loops()[7:32:5] + _multi_term_loops()
    answers = set()
    for B in bs:
        for loop in loops:
            for ngrid in (8192, 16384):
                ref = _symbol_answer(_full_symbol_index, loop, B, ngrid)
                assert _symbol_answer(symbol_index, loop, B, ngrid) == ref
                answers.add(ref if isinstance(ref, str) else ref[1])
    if name == "identity":
        # odd-winding loops make B = I genuinely not Fredholm
        assert "chord determinant passes through zero (not Fredholm)" in answers


def _random_fourier_loops(count=20, seed=151):
    """Seeded Fourier loops of 1 to 4 terms with |m| <= 8 and Gaussian
    coefficients: the first `count` the constructor admits."""
    rng = np.random.default_rng(seed)
    loops = []
    while len(loops) < count:
        ms = rng.choice(np.arange(-8, 9), size=rng.integers(1, 5), replace=False)
        cs = rng.normal(size=len(ms)) + 1j * rng.normal(size=len(ms))
        try:
            loops.append(UnitaryLoop.from_fourier(dict(zip(ms.tolist(), cs))))
        except IllConditionedLoopError:
            continue
    return loops


def _cell_turns(values):
    """The argument change across each row of finely sampled values, as
    the sum of its principal steps."""
    return np.sum(np.angle(values[:, 1:] / values[:, :-1]), axis=1)


def test_the_unwinding_grid_bounds_every_phase_step():
    # each step of the N-point symbol grid for det v (and the seam's two half
    # steps), and of the N-point winding grid for u, measured as 32 steps of a
    # grid 32 times finer, evaluated directly: none exceeds the proved bound
    fine = np.arange(33) / 32
    for loop in _sweep_loops() + _multi_term_loops() + _random_fourier_loops():
        ngrid, bound = unwinding_grid(loop)
        assert ngrid >= 64 and ngrid & (ngrid - 1) == 0 and bound <= MAX_PHASE_STEP
        xs = np.concatenate([[0.0], (np.arange(ngrid) + 0.5) / ngrid, [1.0]])
        x = xs[:-1, None] + np.diff(xs)[:, None] * fine
        detv_turns = _cell_turns(loop(x / 2) * loop((x + 1) / 2))
        th = (np.arange(ngrid)[:, None] + fine) / ngrid
        u_turns = _cell_turns(loop(th))
        assert max(np.max(np.abs(detv_turns)), np.max(np.abs(u_turns))) <= bound + 1e-12


def test_the_sized_symbol_route_gives_the_full_symbols_answer():
    # the route on its proved grid against the whole-symbol reference on the
    # fixed 8192 points it used to take
    loops = _sweep_loops() + _multi_term_loops() + _random_fourier_loops()
    for B in (SWAP, np.eye(2), random_boundary(13)):
        for loop in loops:
            ngrid, _bound = unwinding_grid(loop)
            assert (_symbol_answer(symbol_index, loop, B, ngrid)
                    == _symbol_answer(_full_symbol_index, loop, B, 8192))


def test_the_unwinding_grid_does_not_depend_on_the_coefficients_size():
    # powers of two scale every quantity the sizing reads exactly
    for loop in _multi_term_loops() + _random_fourier_loops(5):
        grid = unwinding_grid(loop)[0]
        for scale in (2.0 ** 4, 2.0 ** 20, 2.0 ** 460):
            scaled = UnitaryLoop(pieces=tuple((lo, hi, tuple((nu, scale * c) for nu, c in terms))
                                              for lo, hi, terms in loop.pieces))
            assert unwinding_grid(scaled)[0] == grid


@pytest.mark.parametrize("n, ngrid", [(0, 64), (3, 64), (700, 16384), (1900, 65536)])
def test_the_unwinding_grid_grows_with_the_reach(n, ngrid):
    # z^n turns by 2 pi n / N a step of the N-point grid
    loop = UnitaryLoop.monomial(n)
    assert unwinding_grid(loop)[0] == ngrid
    assert winding(loop) == n
    assert symbol_index(loop, SWAP, ngrid=ngrid)[0] == -n


def test_a_loop_past_the_largest_grid_is_declined():
    # |u| dips to 1 where |u'| is about 6e7: no grid within
    # MAX_UNWINDING_GRID points proves the unwinding
    loop = UnitaryLoop.from_fourier({0: 1e7, 1: 1e7 - 1})
    with pytest.raises(NumericalError, match="symbol grid too coarse for safe unwinding"):
        unwinding_grid(loop)


def test_a_jump_at_a_piece_break_counts_in_the_bound():
    # z on [0, 1/2) and e^{i phi} z on [1/2, 1) jumps by |1 - e^{i phi}| at
    # 1/2 and at the wrap: the bound holds across both jumps at phi = 1e-3,
    # while at phi = 0.2 (|u| = 1 stays far from 0) the jumps alone turn the
    # argument by more than MAX_PHASE_STEP allows
    def turned(phi):
        return UnitaryLoop(pieces=((0.0, 0.5, ((TWO_PI, 1.0),)),
                                   (0.5, 1.0, ((TWO_PI, complex(math.cos(phi), math.sin(phi))),))))
    ngrid, bound = unwinding_grid(turned(1e-3))
    assert bound <= MAX_PHASE_STEP
    th = (np.arange(ngrid)[:, None] + np.arange(33) / 32) / ngrid
    assert np.max(np.abs(_cell_turns(turned(1e-3)(th)))) <= bound
    with pytest.raises(NumericalError, match="too coarse"):
        unwinding_grid(turned(0.2))


def test_the_unwinding_refuses_large_steps():
    # the cyclic sum of steps on a fine enough grid; z on 8 points steps by
    # pi/4 > MAX_PHASE_STEP, and a zero sample leaves no step to read
    th = np.arange(64) / 64
    assert _unwound(np.exp(6j * np.pi * th)) == 3
    assert _unwound(0.02 * np.exp(-4j * np.pi * th)) == -2
    with pytest.raises(NumericalError, match="too coarse"):
        _unwound(np.exp(2j * np.pi * np.arange(8) / 8))
    holed = np.exp(2j * np.pi * th)
    holed[5] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="too coarse"):
        _unwound(holed)


def test_a_dip_below_the_margin_between_the_checked_points_still_pairs():
    # z (1 + 0.905 e^{i psi} z^64) has |u| = 0.095 at t = (1 + 128 j) / 8192,
    # between the constructor's points k / 4096, where |u| > 0.1.  Its
    # symbol grids sample the dip: `winding` refuses it as below MARGIN, but
    # the symbol route needs only the |u| >= mu > 0 its grid is proved on
    psi = math.pi - TWO_PI * 64 / 8192
    loop = UnitaryLoop.from_fourier({1: 1.0, 65: 0.905 * cmath.exp(1j * psi)})
    assert np.min(np.abs(loop.grid(4096))) > MARGIN
    ngrid, _bound = unwinding_grid(loop)
    assert np.min(np.abs(loop.grid(4 * ngrid, 0.5))) < MARGIN
    with pytest.raises(IllConditionedLoopError, match="below margin"):
        winding(loop)
    result = pair(loop, SWAP)
    assert (result.index, result.stable, result.method) == (-1, True, "symbol-winding")


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the ExtlabError it raised."""
    try:
        return fn(*args, **kwargs)
    except (NumericalError, IllConditionedLoopError) as exc:
        return type(exc).__name__, str(exc)


def _check_the_strided_samples(loop, boundaries):
    """A loop's 8N samples, as `pair` takes them, hold to rounding the three
    grids its winding and both symbol calls unwind, and give each of them
    its own reading."""
    ngrid = unwinding_grid(loop)[0]
    samples = loop.grid(8 * ngrid)
    assert samples.shape == (8 * ngrid,)
    scale = pairing._coefficient_sum(loop.pieces) * (loop.frequency_reach + 2)
    for got, ref in ((samples[::8], loop.grid(ngrid)), (samples[2::4], loop.grid(2 * ngrid, 0.5)),
                     (samples[1::2], loop.grid(4 * ngrid, 0.5))):
        assert got.shape == ref.shape and np.max(np.abs(got - ref)) <= 64 * np.finfo(float).eps * scale
    assert _outcome(winding, loop, samples[::8]) == _outcome(winding, loop)
    for B in boundaries:
        for n, values in ((ngrid, samples[2::4]), (2 * ngrid, samples[1::2])):
            assert (_outcome(symbol_index, loop, B, ngrid=n, values=values)
                    == _outcome(symbol_index, loop, B, ngrid=n))
    return ngrid


def test_the_strided_samples_read_as_each_grid():
    # every loop of both sweeps, multi-term, random and high-reach loops, and
    # the dip below the margin that `winding` refuses
    psi = math.pi - TWO_PI * 64 / 8192
    loops = (_sweep_loops() + _random_fourier_loops(8)
             + [UnitaryLoop.monomial(700), UnitaryLoop.from_fourier({-60: 1.0, 70: 0.5}),
                UnitaryLoop.from_fourier({1: 1.0, 65: 0.905 * cmath.exp(1j * psi)})])
    grids = {_check_the_strided_samples(loop, (SWAP, np.eye(2), random_boundary(13)))
             for loop in loops}
    assert min(grids) == 64 and max(grids) == 16384


@settings(max_examples=25, deadline=None)
@given(st.integers(10, 400), st.sampled_from([-1, 1]), st.integers(1, 6),
       st.complex_numbers(max_magnitude=0.6), st.integers(0, 2 ** 32 - 1))
def test_the_strided_samples_read_as_each_grid_past_64_points(n, sign, d, c, seed):
    loop = UnitaryLoop.from_fourier({sign * n: 1.0, sign * n + d: c})
    assert _check_the_strided_samples(loop, (SWAP, random_boundary(seed))) > 64


def test_the_seam_chord_is_a_segment_out_and_back():
    # the two seam symbols have one determinant, to rounding; against 100001
    # points of the chord determinant the closed-form margin is the sampled
    # minimum within the grid's reach, the chord turns by 0 wherever it stays
    # clear of 0, and the reference's symbols give the same chord
    mu = np.linspace(0.0, 1.0, 100001)
    loops = _sweep_loops() + _random_fourier_loops()
    for B in (SWAP, np.eye(2), *(random_boundary(s) for s in (3, 13, 31))):
        for loop in loops:
            vL, vR = _seam_symbols(loop, seam_basis(B))
            margin, scale = _seam_margin(vL, vR)
            q = _chord_determinant(vL, vR, mu)
            assert abs(q[0] - q[-1]) <= 1e-14 * scale
            reference = _chord_determinant(*_reference_seam(loop, B), mu[::1000])
            assert np.max(np.abs(q[::1000] - reference)) <= 1e-13 * scale
            dense = np.min(np.abs(q))
            slope = np.max(np.abs(q[1:] - q[:-1]))
            assert dense - slope - 1e-14 * scale <= margin <= dense + 1e-14 * scale
            if margin > 1e-3 * scale:
                assert abs(np.sum(np.angle(q[1:] / q[:-1]))) <= 1e-9


def test_a_nearly_scalar_boundary_gets_a_unitary_eigenbasis():
    # B = Q diag(e^{i phi}, e^{i (phi + eps)}) Q* with eps <= 1e-9: W stays
    # unitary to rounding, diagonalises B to within eps, and the symbol route
    # answers as for e^{i phi} I; a scalar B keeps W = I
    rng = np.random.default_rng(41)
    loops = [UnitaryLoop.monomial(n) for n in range(-3, 4)] + _multi_term_loops()
    for k in range(200):
        Q = haar_unitary(rng).matrix
        phi, eps = rng.uniform(-np.pi, np.pi), (0.0, 1e-15, 1e-12, 1e-9)[k % 4]
        B = Q @ np.diag(np.exp(1j * np.array([phi, phi + eps]))) @ Q.conj().T
        w, W = _unitary_eigenbasis(B)
        assert np.max(np.abs(W.conj().T @ W - np.eye(2))) <= 1e-12
        assert np.max(np.abs(W * w @ W.conj().T - B)) <= 1e-9 + 1e-14
        scalar = np.exp(1j * phi) * np.eye(2)
        assert np.array_equal(_unitary_eigenbasis(scalar)[1], np.eye(2))
        for loop in loops:
            ngrid = unwinding_grid(loop)[0]
            assert (_symbol_answer(symbol_index, loop, B, ngrid)
                    == _symbol_answer(symbol_index, loop, scalar, ngrid))


def test_pair_rejects_non_unitary_boundary():
    with pytest.raises(ValidationError):
        pair(UnitaryLoop.monomial(1), np.array([[1.0, 0.2], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# wedge pullbacks


def test_pullback_pieces_are_exact():
    p = UnitaryLoop.wedge_pair(UnitaryLoop.monomial(2), UnitaryLoop.monomial(-1))
    (lo1, hi1, t1), (lo2, hi2, t2) = p.pieces
    assert (lo1, hi1, lo2, hi2) == (0.0, 0.5, 0.5, 1.0)
    assert t1 == ((4.0 * math.pi * 2.0, 1.0 + 0.0j),)
    # integer n2 makes the phase shift e^{-2 pi i n2} collapse to 1
    assert t2 == ((4.0 * math.pi * -1.0, 1.0 + 0.0j),)
    assert winding(p) == brute_winding(p) == 1


def _reference_pullback(c1: dict, c2: dict) -> UnitaryLoop:
    """Reference: the pinch pullback of the wedge pair of the Fourier series
    c1 and c2, read off their integer coefficient dicts {m: c}.  Each m
    doubles; equal halves merge into one series."""
    d1 = {2 * m: complex(c) for m, c in c1.items()}
    d2 = {2 * m: complex(c) for m, c in c2.items()}
    if d1 == d2:
        return UnitaryLoop.from_fourier(d1)
    return UnitaryLoop(pieces=((0.0, 0.5, _fourier_terms(d1.items())),
                               (0.5, 1.0, _fourier_terms(d2.items()))))


_SERIES = {-1: 0.25j, 0: 1.0, 2: -0.25j}


@pytest.mark.parametrize("c1, c2", [
    *[pytest.param({a: 1.0}, {b: 1.0}, id=f"z^{a}|z^{b}")
      for a in range(-3, 4) for b in range(-3, 4)],
    pytest.param(_SERIES, _SERIES, id="series|series"),
    pytest.param({0: 1.0, 1: 0.25}, {0: 1.25}, id="two-terms|constant"),
])
def test_wedge_pair_is_the_pullback_of_the_coefficients(c1, c2):
    loop = UnitaryLoop.wedge_pair(UnitaryLoop.from_fourier(c1), UnitaryLoop.from_fourier(c2))
    ref = _reference_pullback(c1, c2)
    # repr tells -0.0 from 0.0: equal reprs are equal bits
    assert repr(loop.pieces) == repr(ref.pieces)
    assert repr(loop.conjugate().pieces) == repr(ref.conjugate().pieces)


@pytest.mark.parametrize("c1, c2", [
    *[pytest.param({a: 1.0}, {b: 1.0}, id=f"z^{a}|z^{b}") for a in (-2, 0, 3) for b in (-1, 0, 2)],
    pytest.param({0: 1.0, 1: 0.25}, {0: 1.0, -2: 0.25}, id="two-terms|two-terms"),
    pytest.param({1: 0.5, 3: 2.0}, {-1: 1.0, 0: 1.5}, id="two-terms|two-terms-offset"),
    pytest.param({-1: 0.25j, 2: 1.0}, {-1: 0.25j, 2: 1.0}, id="equal-two-terms"),
])
def test_the_unchecked_pullback_is_the_checked_one(monkeypatch, c1, c2):
    # wedge_pair skips the constructor's checks, which its components
    # passed: the pullback equals the loop the constructor builds from the
    # same pieces, and is built without sampling the loop
    u1, u2 = UnitaryLoop.from_fourier(c1), UnitaryLoop.from_fourier(c2)
    grids = []
    original = pairing._grid_values
    monkeypatch.setattr(pairing, "_grid_values",
                        lambda *args: grids.append(args) or original(*args))
    loop = UnitaryLoop.wedge_pair(u1, u2)
    assert grids == []
    checked = UnitaryLoop(pieces=loop.pieces)
    assert len(grids) == (0 if all(len(t) == 1 for _lo, _hi, t in loop.pieces) else 1)
    assert repr(loop.pieces) == repr(checked.pieces)
    th = np.linspace(0.0, 1.0, 4096, endpoint=False)
    assert np.array_equal(loop(th), checked(th))


def test_wedge_components_must_be_fourier_series():
    with pytest.raises(StructuralError, match="plain Fourier loops"):
        UnitaryLoop.wedge_pair(UnitaryLoop(pieces=((0.0, 1.0, ((1.0, 1.0),)),)),
                               UnitaryLoop.constant())
    # a merged pullback is a Fourier series again, and a product of series too
    z2 = UnitaryLoop.wedge_pair(UnitaryLoop.monomial(1), UnitaryLoop.monomial(1))
    prod = UnitaryLoop.monomial(2).product(UnitaryLoop.from_fourier({0: 1.0, -3: 0.25}))
    w = UnitaryLoop.wedge_pair(z2, prod.product(UnitaryLoop.constant(0.8)))
    assert repr(w.pieces) == repr(_reference_pullback({2: 1.0}, {2: 0.8, -1: 0.2}).pieces)
    # a conjugate lists its terms in reverse and negates nu = 0 to -0.0
    u = UnitaryLoop.from_fourier(_SERIES)
    w = UnitaryLoop.wedge_pair(u.conjugate(), u)
    ref = _reference_pullback({-m: np.conj(complex(c)) for m, c in _SERIES.items()}, _SERIES)
    assert repr(w.pieces) == repr(ref.pieces)


def test_pullback_fourier_reexpansion():
    # equal components double the frequency; the re-expansion is one term
    w = UnitaryLoop.wedge_pair(UnitaryLoop.monomial(1), UnitaryLoop.monomial(1))
    assert len(w.pieces) == 1
    coeffs = fourier_coefficients(w, bandwidth=4)
    assert abs(coeffs[2] - 1.0) < 1e-12
    assert max(abs(c) for m, c in coeffs.items() if m != 2) < 1e-12


def test_pullback_with_mismatched_halves_needs_unbounded_bandwidth():
    w = UnitaryLoop.wedge_pair(UnitaryLoop.monomial(1), UnitaryLoop.monomial(0))
    with pytest.raises(BandwidthError):
        fourier_coefficients(w, bandwidth=12)


@pytest.mark.parametrize("pair_n", [(1, 0), (1, 1), (-2, 1)])
def test_wedge_pairing_adds_windings(pair_n):
    n1, n2 = pair_n
    w = UnitaryLoop.wedge_pair(UnitaryLoop.monomial(n1), UnitaryLoop.monomial(n2))
    expect = -(n1 + n2)
    res = pair(w, SWAP, cutoffs=FAST)
    assert res.stable and res.index == expect
    res = pair(w, random_boundary(11))
    assert res.stable and res.index == expect


# ---------------------------------------------------------------------------
# commutator diagnostics


def test_derivative_sup_of_monomial():
    assert abs(derivative_sup(UnitaryLoop.monomial(3)) - 6.0 * math.pi) < 1e-9
    assert derivative_sup({0: 2.0}) == 0.0


def test_commutator_estimate_below_lipschitz_bound():
    rng = np.random.default_rng(40)
    for n in (1, -2):
        f = UnitaryLoop.monomial(n)
        bound = derivative_sup(f)
        for B in (SWAP, random_boundary(int(rng.integers(1000)))):
            est = commutator_norm_estimate(f, B, samples=10)
            assert est <= bound + 1e-6
            assert est > 0.05  # the commutator genuinely does not vanish


def test_commutator_with_constant_multiplier_vanishes():
    for B in (SWAP, np.eye(2)):
        assert commutator_norm_estimate({0: 1.5}, B, samples=6) < 1e-9


def test_commutator_accepts_piecewise_multipliers():
    # the pulled-back wedge multiplier nu = 4 pi on both halves
    pieces = (
        (0.0, 0.5, ((4.0 * math.pi, 1.0 + 0.0j),)),
        (0.5, 1.0, ((4.0 * math.pi, 1.0 + 0.0j),)),
    )
    est = commutator_norm_estimate(pieces, SWAP, samples=8)
    assert 0.0 < est <= 4.0 * math.pi + 1e-6


# ---------------------------------------------------------------------------
# shared eigenbases


def _answer(loop, B, **kwargs):
    """pair()'s result fields, or the message of the NumericalError it raised."""
    try:
        res = pair(loop, B, **kwargs)
    except NumericalError as exc:
        return str(exc)
    return res.plateau, res.index, res.stable, res.method


@pytest.mark.parametrize("loop", [
    UnitaryLoop.monomial(-2),
    UnitaryLoop.monomial(1),
    UnitaryLoop.wedge_pair(UnitaryLoop.monomial(2), UnitaryLoop.monomial(-1)),
], ids=["z^-2", "z^1", "wedge(z^2|z^-1)"])
def test_a_wider_shared_basis_changes_no_answer(loop):
    part = Partition.default()
    B = random_boundary(31)
    # the widest wedge loop of the default addition-dirac sweep reaches 8 pi
    basis = eigen_arrays(B, part, DEFAULT_CUTOFFS, 8 * math.pi)
    assert _answer(loop, B, basis=basis) == _answer(loop, B)


def test_a_wider_shared_basis_changes_no_answer_on_unequal_pieces():
    # three unequal pieces: no symbol route, and the tracked roots come from a
    # branch grid that a wider window extends
    part = Partition((0.0, 0.2, 0.55, 1.0))
    B = build_extension(OperatorSpec(part),
                        haar_unitary(np.random.default_rng(8), 3)).boundary
    # a short schedule, where z^-1 settles on 0 against winding -1: both
    # bases must withhold that plateau alike
    cutoffs = (4 * math.pi, 8 * math.pi, 16 * math.pi)
    basis = eigen_arrays(B, part, cutoffs, 6 * math.pi)
    for n in (-1, 2):
        loop = UnitaryLoop.monomial(n)
        shared = _answer(loop, B, cutoffs=cutoffs, partition=part, basis=basis)
        assert shared == _answer(loop, B, cutoffs=cutoffs, partition=part)


def test_eigen_arrays_on_unequal_pieces_at_the_default_schedule():
    part = Partition((0.0, 0.2, 0.55, 1.0))
    B = build_extension(OperatorSpec(part),
                        haar_unitary(np.random.default_rng(8), 3)).boundary
    reach = 2 * math.pi
    lam, coef, ladders = eigen_arrays(B, part, DEFAULT_CUTOFFS, reach)
    assert coef.shape == (len(lam), 3) and ladders == 0
    assert np.all(np.diff(lam) >= 0) and lam[0] >= -1e-9
    assert not lam.flags.writeable and not coef.flags.writeable
    # det(I - B Diag(e^{i lam l})) winds once per 2 pi of lambda (sum l = 1),
    # so the window [0, hi] holds hi / 2 pi eigenvalues up to the matrix size
    hi = DEFAULT_CUTOFFS[-1] + reach + PAD
    assert abs(len(lam) - hi / (2 * math.pi)) <= 3


def test_eigen_arrays_are_read_only_and_bounded():
    lam, coef, ladders = eigen_arrays(SWAP, Partition.default(), FAST, 2 * math.pi)
    assert lam.shape == (coef.shape[0],) and coef.shape[1] == 2 and ladders == 2
    for arr in (lam, coef):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(ValidationError):
        eigen_arrays(SWAP, Partition.default(), (MAX_BASIS_WINDOW,), 0.0)


# ---------------------------------------------------------------------------
# conjugate loops and adjoint pairings


def _conjugate_suites():
    """(loop, its conjugate as the suite builds it): z^-3..z^3 and the 25
    pullbacks of wedge(z^a|z^b), |a|, |b| <= 2, the loops of the default
    extension-independence and addition-dirac sweeps."""
    def wedge(a, b):
        return UnitaryLoop.wedge_pair(UnitaryLoop.monomial(a), UnitaryLoop.monomial(b))
    ns = range(-2, 3)
    return ([(UnitaryLoop.monomial(n), UnitaryLoop.monomial(-n)) for n in range(-3, 4)]
            + [(wedge(a, b), wedge(-a, -b)) for a in ns for b in ns])


_ADJOINT_BS = [
    pytest.param(SWAP, id="swap"),
    pytest.param(np.eye(2), id="identity"),
    pytest.param(3, id="haar-3"),
    pytest.param(31, id="haar-31"),
    pytest.param(47, id="haar-47"),
]


@pytest.mark.parametrize("B", _ADJOINT_BS)
def test_the_conjugate_loop_pairs_to_the_adjoint(B):
    # P M_ubar P = (P M_u P)*: index negated, kernel and cokernel swapped
    if isinstance(B, int):
        B = random_boundary(B)
    suites = _conjugate_suites()
    # each distinct loop paired once, on its own fresh basis
    results = {loop.pieces: pair(loop, B) for loop, _conj in suites}
    for loop, conj in suites:
        res, res_conj = results[loop.pieces], results[conj.pieces]
        assert res_conj.index == -res.index
        assert res_conj.plateau == tuple((L, coker, ker) for L, ker, coker in res.plateau)
        assert (res_conj.stable, res_conj.method) == (res.stable, res.method)


@pytest.mark.parametrize("B", _ADJOINT_BS[::2])
def test_a_loops_conjugate_has_the_finite_sections_of_the_suites_conjugate(B):
    # a sweep finds a loop's conjugate by its pieces: u.conjugate() and the
    # suite's own ubar have equal pieces and must give the same trajectory,
    # which is also the conjugate side of u's own window
    if isinstance(B, int):
        B = random_boundary(B)
    part = Partition.default()
    basis = eigen_arrays(B, part, DEFAULT_CUTOFFS, 8 * math.pi)
    for loop, conj in _conjugate_suites():
        assert loop.conjugate().pieces == conj.pieces
        trajectories = [
            pairing._kernel_trajectory(pairing._SectionWindow.of(u, part, DEFAULT_CUTOFFS, basis),
                                       DEFAULT_CUTOFFS)
            for u in (loop.conjugate(), conj)]
        assert trajectories[0] == trajectories[1]
        adjoint_side = pairing._kernel_trajectory(
            pairing._SectionWindow.of(loop, part, DEFAULT_CUTOFFS, basis), DEFAULT_CUTOFFS,
            conjugate=True)
        assert [k for k, _smin in adjoint_side] == [k for k, _smin in trajectories[0]]


def _row(res):
    """A pairing's row fields; "uncertified" for the NumericalError it raised
    (the message names the index each route found, which the conjugate negates)."""
    if isinstance(res, NumericalError):
        return "uncertified"
    return res.plateau, res.index, res.stable, res.method


def _paired(loop, B, **kwargs):
    try:
        return pair(loop, B, **kwargs)
    except NumericalError as exc:
        return exc


@pytest.mark.parametrize("B, routes", [
    pytest.param(31, {"finite-section", "symbol-winding"}, id="haar-31"),
    pytest.param(np.eye(2), {"finite-section", "extension-independence"}, id="identity"),
    pytest.param(13, {"finite-section", "symbol-winding", "uncertified"}, id="haar-13"),
])
def test_a_loops_adjoint_is_its_conjugates_pairing(B, routes):
    # a sweep pairs u on the basis it shares between its loops and reads
    # ubar's row off it; pair(ubar) on ubar's own basis must give that row.
    # B = I takes the canonical representative for odd loops, and B13 leaves
    # z^+-1 uncertified (the finite section reads 0 where the symbol reads -+1)
    if isinstance(B, int):
        B = random_boundary(B)
    basis = eigen_arrays(B, Partition.default(), DEFAULT_CUTOFFS, 8 * math.pi)
    seen = set()
    for loop, conj in _conjugate_suites():
        res = _paired(loop, B, basis=basis)
        row = _row(res if isinstance(res, NumericalError) else adjoint(res))
        assert row == _row(_paired(conj, B))
        seen.add(row if row == "uncertified" else row[-1])
    assert seen == routes


def test_the_adjoint_swaps_kernel_and_cokernel():
    res = pairing.PairingResult(-2, ((8.0, 0, 2), (16.0, 1, 3)), True, "finite-section")
    assert _row(adjoint(res)) == (((8.0, 2, 0), (16.0, 3, 1)), 2, True, "finite-section")
    assert _row(adjoint(adjoint(res))) == _row(res)
