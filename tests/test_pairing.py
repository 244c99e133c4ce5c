"""Index pairings of unitary loops with the extensions.

Oracles used here:
  * a brute-force winding number (dense phase accumulation on a million
    points, no shared code with the production winding routine);
  * the exactly known kernel/cokernel of the compression for the
    anti-diagonal boundary matrix, where the eigenbasis is the classical
    Fourier basis and the compression is a pure shift.
"""

import cmath
import math

import numpy as np
import pytest
from scipy.special import jv

from extlab.analysis import Partition
from extlab.errors import (
    BandwidthError,
    IllConditionedLoopError,
    StructuralError,
    ValidationError,
)
from extlab.pairing import (
    DEFAULT_CUTOFFS,
    UnitaryLoop,
    commutator_norm_estimate,
    compression_matrix,
    derivative_sup,
    pair,
    pullback_loop,
    symbol_index,
    winding,
)
from extlab.vonneumann import (
    OperatorSpec,
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


@pytest.mark.parametrize("D", [1e-8, 1e-6, 1e-3])
def test_compression_matrix_is_exact_near_resonance(D):
    # unit-coefficient phases whose frequencies differ by D pair to the
    # integral of e^{i D theta} over [0, 1], which is e^{i D/2} sin(D/2)/(D/2)
    ones = np.ones((1, 2), dtype=complex)
    A = compression_matrix(UnitaryLoop.constant(), Partition.default(),
                           np.array([0.0]), ones, np.array([D]), ones)
    exact = cmath.exp(0.5j * D) * math.sin(0.5 * D) / (0.5 * D)
    assert abs(A[0, 0] - exact) <= 1e-14 * abs(exact)


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
