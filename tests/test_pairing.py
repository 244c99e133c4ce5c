"""Index pairings of unitary loops with the extensions.

Oracles used here:
  * a brute-force winding number (dense phase accumulation on a million
    points, no shared code with the production winding routine);
  * the exactly known kernel/cokernel of the compression for the
    anti-diagonal boundary matrix, where the eigenbasis is the classical
    Fourier basis and the compression is a pure shift;
  * reference copies of the entrywise compression assembly and of the
    full 2x2-symbol winding, which the factored kernels replaced.
"""

import cmath
import math

import numpy as np
import pytest
from scipy.special import jv

from extlab import pairing
from extlab.analysis import Partition, exp_integral
from extlab.errors import (
    BandwidthError,
    IllConditionedLoopError,
    NumericalError,
    StructuralError,
    ValidationError,
)
from extlab.pairing import (
    DEFAULT_CUTOFFS,
    MAX_BASIS_WINDOW,
    PAD,
    UnitaryLoop,
    _chord_margin,
    _cuts,
    _sandwich_matrix,
    _terms_at,
    commutator_norm_estimate,
    compression_matrix,
    derivative_sup,
    eigen_arrays,
    pair,
    pullback_loop,
    symbol_index,
    winding,
)
from extlab.vonneumann import (
    OperatorSpec,
    boundary_array,
    build_extension,
    haar_unitary,
)

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
    assert conj.coefficients is None and not conj.is_wedge
    fourier = UnitaryLoop.from_fourier({2: 1.0, -1: 0.3j})
    calls.clear()
    assert fourier.conjugate().coefficients == {-2: 1.0, 1: -0.3j} and calls == []


def test_margin_guard_rejects_vanishing_loops():
    with pytest.raises(IllConditionedLoopError):
        UnitaryLoop.from_fourier({0: 1.0, 1: 1.0})  # |1 + e^{2 pi i t}| hits 0


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
# phases of `compression_matrix` carry an absolute error of about |lam| eps
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
    A = compression_matrix(UnitaryLoop.constant(), Partition((0.0, 0.2, 0.55, 1.0)),
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
    loops += [pullback_loop(UnitaryLoop.wedge_pair(UnitaryLoop.monomial(n1),
                                                   UnitaryLoop.monomial(n2)))
              for n1 in range(-2, 3) for n2 in range(-2, 3)]
    return loops + _multi_term_loops()


def _multi_term_loops():
    wedge = pullback_loop(UnitaryLoop.wedge_pair(UnitaryLoop.monomial(2), UnitaryLoop.monomial(-1)))
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
    if isinstance(B, int):
        B = random_boundary(B)
    part = Partition.default()
    basis = eigen_arrays(B, part, DEFAULT_CUTOFFS, 8 * math.pi)
    for loop in _sweep_loops():
        reach = loop.frequency_reach
        keep = basis[0] <= DEFAULT_CUTOFFS[-1] + reach + PAD + 1e-12
        lam, coef = basis[0][keep], basis[1][keep]
        for Lam in DEFAULT_CUTOFFS:
            cols = lam <= Lam + 1e-9
            rows = lam <= Lam + reach + PAD + 1e-9
            args = (lam[rows], coef[rows], lam[cols], coef[cols])
            ref = _assembled_compression_matrix(loop, part, *args)
            got = compression_matrix(loop, part, *args)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_factored_compression_on_unequal_pieces():
    # unequal intervals give each (interval, term) its own near-resonance
    # threshold 0.1 / h
    part = Partition((0.0, 0.2, 0.55, 1.0))
    B = build_extension(OperatorSpec(part),
                        haar_unitary(np.random.default_rng(8), 3)).boundary
    lam, coef = eigen_arrays(B, part, DEFAULT_CUTOFFS[:2], 8 * math.pi)
    for loop in _sweep_loops()[::3]:
        args = (lam, coef, lam[lam <= DEFAULT_CUTOFFS[1]], coef[lam <= DEFAULT_CUTOFFS[1]])
        ref = _assembled_compression_matrix(loop, part, *args)
        got = compression_matrix(loop, part, *args)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


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
    idx, diag = symbol_index(UnitaryLoop.monomial(1), np.eye(2))
    assert idx is None
    assert "not Fredholm" in diag["reason"]


def test_symbol_sandwich_matmul_matches_the_einsum():
    # reference: the einsum the matmul replaced; the summation order differs,
    # so the two agree to a relative 1e-14 rather than bit for bit
    rng = np.random.default_rng(17)
    for n, N in ((2, 1), (2, 1000), (3, 257)):
        W = haar_unitary(rng, n).matrix
        U = np.exp(2j * np.pi * rng.random((N, n)))
        ref = np.einsum("jk,nk,kl->njl", W.conj().T, U, W)
        got = (U @ _sandwich_matrix(W)).reshape(N, n, n)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_chord_quadratic_is_the_chord_determinant():
    # the symbol route evaluates the chord determinant from the coefficients
    # `_chord_margin` returns instead of forming the 2x2 matrices
    rng = np.random.default_rng(5)
    mu = np.linspace(0.0, 1.0, 33)
    for _ in range(20):
        vL, vR = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        _margin, scale, (a, b, c) = _chord_margin(vL, vR)
        M = (1 - mu)[:, None, None] * vL + mu[:, None, None] * vR
        assert np.max(np.abs((a * mu + b) * mu + c - np.linalg.det(M))) <= 1e-14 * 8 * scale


def _full_symbol_index(loop, B, partition=None, ngrid=8192):
    """Reference: the symbol route with the whole ngrid x 2 x 2 symbol grid
    and the chord determinant from 4097 2x2 matrices."""
    w, W = np.linalg.eig(boundary_array(B))
    phi = np.angle(w)
    alpha = phi - 2 * np.pi * (phi > 0)
    T = _sandwich_matrix(W)

    def symbol_at(x):
        U = np.stack([loop(x / 2.0), loop((x + 1.0) / 2.0)], axis=1)
        ut = (U @ T).reshape(len(x), 2, 2)
        g = np.exp(1j * np.outer(x, alpha))
        return ut * g[:, :, None] / g[:, None, :]

    x = np.linspace(0.0, 1.0, ngrid, endpoint=False) + 0.5 / ngrid
    v = symbol_at(x)
    detv = v[:, 0, 0] * v[:, 1, 1] - v[:, 0, 1] * v[:, 1, 0]
    if np.min(np.abs(detv)) < 1e-9:
        return None, {"reason": "interior determinant degenerate"}
    darg = np.angle(detv[1:] / detv[:-1])
    if np.max(np.abs(darg)) > 0.5:
        raise NumericalError("symbol grid too coarse for safe unwinding")
    total = float(np.sum(darg))
    vL = symbol_at(np.asarray([1.0]))[0]
    vR = symbol_at(np.asarray([0.0]))[0]
    margin, scale, _ = _chord_margin(vL, vR)
    diag = {"chord_margin": margin, "chord_scale": scale}
    if margin < 1e-8 * scale:
        diag["reason"] = "chord determinant passes through zero (not Fredholm)"
        return None, diag
    mu = np.linspace(0.0, 1.0, 4097)
    M = (1 - mu)[:, None, None] * vL[None] + mu[:, None, None] * vR[None]
    detM = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    dchord = np.angle(detM[1:] / detM[:-1])
    if np.max(np.abs(dchord)) > 0.5:
        raise NumericalError("chord grid too coarse for safe unwinding")
    total += float(np.sum(dchord))
    total += float(np.angle(detv[0] / detM[-1]))
    total += float(np.angle(np.linalg.det(vL) / detv[-1]))
    wind = total / (2 * np.pi)
    iw = int(np.round(wind))
    diag["winding_residue"] = abs(wind - iw)
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


def test_pair_rejects_non_unitary_boundary():
    with pytest.raises(ValidationError):
        pair(UnitaryLoop.monomial(1), np.array([[1.0, 0.2], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# wedge pullbacks


def test_pullback_pieces_are_exact():
    w = UnitaryLoop.wedge_pair(UnitaryLoop.monomial(2), UnitaryLoop.monomial(-1))
    p = pullback_loop(w)
    (lo1, hi1, t1), (lo2, hi2, t2) = p.pieces
    assert (lo1, hi1, lo2, hi2) == (0.0, 0.5, 0.5, 1.0)
    assert t1 == ((4.0 * math.pi * 2.0, 1.0 + 0.0j),)
    # integer n2 makes the phase shift e^{-2 pi i n2} collapse to 1
    assert t2 == ((4.0 * math.pi * -1.0, 1.0 + 0.0j),)
    assert winding(p) == brute_winding(p) == 1


def test_pullback_fourier_reexpansion():
    # equal components double the frequency; the re-expansion is one term
    w = UnitaryLoop.wedge_pair(UnitaryLoop.monomial(1), UnitaryLoop.monomial(1))
    coeffs = pullback_loop(w).fourier_coefficients(bandwidth=4)
    assert abs(coeffs[2] - 1.0) < 1e-12
    assert max(abs(c) for m, c in coeffs.items() if m != 2) < 1e-12


def test_pullback_with_mismatched_halves_needs_unbounded_bandwidth():
    w = UnitaryLoop.wedge_pair(UnitaryLoop.monomial(1), UnitaryLoop.monomial(0))
    p = pullback_loop(w)
    with pytest.raises(BandwidthError):
        p.fourier_coefficients(bandwidth=12)


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
    lam, coef = eigen_arrays(B, part, DEFAULT_CUTOFFS, reach)
    assert coef.shape == (len(lam), 3)
    assert np.all(np.diff(lam) >= 0) and lam[0] >= -1e-9
    assert not lam.flags.writeable and not coef.flags.writeable
    # det(I - B Diag(e^{i lam l})) winds once per 2 pi of lambda (sum l = 1),
    # so the window [0, hi] holds hi / 2 pi eigenvalues up to the matrix size
    hi = DEFAULT_CUTOFFS[-1] + reach + PAD
    assert abs(len(lam) - hi / (2 * math.pi)) <= 3


def test_eigen_arrays_are_read_only_and_bounded():
    lam, coef = eigen_arrays(SWAP, Partition.default(), FAST, 2 * math.pi)
    assert lam.shape == (coef.shape[0],) and coef.shape[1] == 2
    for arr in (lam, coef):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(ValidationError):
        eigen_arrays(SWAP, Partition.default(), (MAX_BASIS_WINDOW,), 0.0)
