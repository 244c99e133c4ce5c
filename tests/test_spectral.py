"""Spectra of the extensions: characteristic roots, eigenfunctions, and the
finite-difference cross-check (an independent discretization route)."""

import math

import numpy as np
import pytest

from extlab import spectral
from extlab.analysis import Partition, boundary_values, inner_product
from extlab.errors import ValidationError
from extlab.spectral import (
    EigenPair,
    Spectrum,
    characteristic_residual,
    eigenbasis,
    eigenphases,
    fd_matrix,
    fd_spectrum,
)
from extlab.vonneumann import (
    BoundaryMatrix,
    OperatorSpec,
    build_extension,
    haar_unitary,
    identity_unitary,
    swap_unitary,
)

PART = Partition((0.0, 0.5, 1.0))
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
WINDOW = (-30.0, 30.0)


def test_swap_spectrum_is_two_pi_lattice():
    spec = eigenphases(SWAP, PART, WINDOW)
    expect = 2.0 * math.pi * np.arange(-4, 5)
    assert len(spec) == 9
    assert np.max(np.abs(spec.eigenvalues - expect)) < 1e-10
    assert np.max(spec.residuals) < 1e-9


def test_identity_spectrum_is_four_pi_lattice_doubled():
    spec = eigenphases(np.eye(2), PART, WINDOW)
    expect = np.repeat(4.0 * math.pi * np.arange(-2, 3), 2)
    assert len(spec) == 10
    assert np.max(np.abs(spec.eigenvalues - expect)) < 1e-10
    groups = spec.grouped()
    assert [m for _, m in groups] == [2, 2, 2, 2, 2]


def test_anchor_spectra_via_tracking_route():
    # the branch tracker must reproduce the equal-length closed form
    for B, step, mult in ((SWAP, 2.0 * math.pi, 1), (np.eye(2), 4.0 * math.pi, 2)):
        closed = eigenphases(B, PART, WINDOW)
        tracked = eigenphases(B, PART, WINDOW, force_tracking=True)
        assert len(closed) == len(tracked)
        assert np.max(np.abs(closed.eigenvalues - tracked.eigenvalues)) < 1e-9


def test_random_extension_dual_route_agreement():
    rng = np.random.default_rng(21)
    for _ in range(5):
        B = build_extension(OperatorSpec(PART), haar_unitary(rng)).boundary
        closed = eigenphases(B, PART, (-20.0, 20.0))
        tracked = eigenphases(B, PART, (-20.0, 20.0), force_tracking=True)
        assert len(closed) == len(tracked)
        assert np.max(np.abs(closed.eigenvalues - tracked.eigenvalues)) < 1e-9
        assert np.max(closed.residuals) < 1e-9


def test_conjugate_boundary_reflects_spectrum():
    rng = np.random.default_rng(4)
    B = build_extension(OperatorSpec(PART), haar_unitary(rng)).boundary.matrix
    spec = eigenphases(B, PART, (-25.0, 25.0))
    refl = eigenphases(np.conj(B), PART, (-25.0, 25.0))
    assert np.max(np.abs(np.sort(-refl.eigenvalues) - np.sort(spec.eigenvalues))) < 1e-9


def test_eigenvalue_count_obeys_weyl_bound():
    # det(I - B Diag(e^{i lam l_k})) winds once per 2 pi in lambda, so a
    # window of width W holds W/(2 pi) eigenvalues up to the matrix size
    rng = np.random.default_rng(77)
    for _ in range(5):
        B = build_extension(OperatorSpec(PART), haar_unitary(rng)).boundary
        spec = eigenphases(B, PART, (-40.0, 40.0))
        expected = 80.0 / (2.0 * math.pi)
        assert abs(len(spec) - expected) <= 2.0 + 1e-9


def test_unequal_partition_tracked_spectrum():
    part = Partition((0.0, 0.3, 1.0))
    rng = np.random.default_rng(6)
    B = build_extension(OperatorSpec(part), haar_unitary(rng)).boundary
    spec = eigenphases(B, part, (-20.0, 20.0))
    assert np.max(spec.residuals) < 1e-9
    assert len(spec) >= 4
    # reflection symmetry holds here too
    refl = eigenphases(np.conj(B.matrix), part, (-20.0, 20.0))
    assert np.max(np.abs(np.sort(-refl.eigenvalues) - np.sort(spec.eigenvalues))) < 1e-8


def _greedy_lift(Bm, lengths, grid):
    """Reference lift: nearest-phase greedy matching, one grid point at a time."""
    phases = np.angle(np.linalg.eigvals(spectral._stacked(Bm, lengths, grid)))
    n = Bm.shape[0]
    lifted = np.empty_like(phases)
    lifted[0] = np.sort(phases[0])
    prev = lifted[0].copy()
    for i in range(1, len(grid)):
        cur = np.sort(phases[i])
        pw = spectral._wrap(prev)
        used = np.zeros(n, dtype=bool)
        inc = np.empty(n)
        for j in range(n):
            d = spectral._wrap(cur - pw[j])
            d[used] = np.inf
            kbest = int(np.argmin(np.abs(d)))
            used[kbest] = True
            inc[j] = d[kbest]
        prev = prev + inc
        lifted[i] = prev
    return lifted


def _greedy_roots(monkeypatch, Bm, lengths, lo, hi):
    with monkeypatch.context() as m:
        m.setattr(spectral, "_lifted_phases", _greedy_lift)
        return np.sort(spectral._tracked_roots(Bm, lengths, lo, hi))


def _haar_boundary(part, seed):
    rng = np.random.default_rng(seed)
    return build_extension(OperatorSpec(part), haar_unitary(rng, part.npieces)).boundary.matrix


@pytest.mark.parametrize("knots, seed", [
    ((0.0, 0.3, 0.55, 1.0), 3),
    ((0.0, 0.2, 0.55, 1.0), 8),
    ((0.0, 0.1, 0.35, 0.6, 1.0), 5),
    ((0.0, 0.25, 0.4, 0.8, 1.0), 9),
], ids=["3-pieces-seed3", "3-pieces-seed8", "4-pieces-seed5", "4-pieces-seed9"])
def test_cyclic_shift_lift_gives_the_greedy_roots(monkeypatch, knots, seed):
    part = Partition(knots)
    lengths = np.asarray(part.lengths)
    B = _haar_boundary(part, seed)
    roots = np.sort(spectral._tracked_roots(B, lengths, -20.0, 20.0))
    assert len(roots) >= 5
    assert np.array_equal(roots, _greedy_roots(monkeypatch, B, lengths, -20.0, 20.0))


@pytest.mark.parametrize("B", [SWAP, np.eye(2, dtype=complex)], ids=["swap", "identity"])
def test_cyclic_shift_lift_on_degenerate_branches(monkeypatch, B):
    # equal pieces: every phase moves at the same speed, and for the identity
    # the two branches coincide and cross pi together
    lengths = np.asarray(PART.lengths)
    roots = np.sort(spectral._tracked_roots(B, lengths, *WINDOW))
    assert np.array_equal(roots, _greedy_roots(monkeypatch, B, lengths, *WINDOW))


def test_chunked_lift_matches_one_batch_and_the_greedy_roots(monkeypatch):
    part = Partition((0.0, 0.3, 0.55, 1.0))
    lengths = np.asarray(part.lengths)
    B = _haar_boundary(part, 5)
    grid = np.arange(-12.0, 12.0, spectral.TRACK_STEP)
    monkeypatch.setattr(spectral, "TRACK_CHUNK", len(grid))
    whole = spectral._lifted_phases(B, lengths, grid)
    # three points a chunk: a third of the cells straddle two chunks
    monkeypatch.setattr(spectral, "TRACK_CHUNK", 3)
    assert np.array_equal(spectral._lifted_phases(B, lengths, grid), whole)
    roots = np.sort(spectral._tracked_roots(B, lengths, -12.0, 12.0))
    assert np.array_equal(roots, _greedy_roots(monkeypatch, B, lengths, -12.0, 12.0))


def test_window_validation():
    with pytest.raises(ValidationError):
        eigenphases(SWAP, PART, (3.0, -3.0))
    with pytest.raises(ValidationError):
        eigenphases(np.array([[1.0, 0.1], [0.0, 1.0]]), PART, WINDOW)
    with pytest.raises(ValidationError):
        eigenphases(np.eye(3), PART, WINDOW)
    ext = build_extension(OperatorSpec(PART), swap_unitary())
    with pytest.raises(ValidationError, match="empty window"):
        fd_spectrum(ext, 1024, (3.0, -3.0))


def test_characteristic_residual_vanishes_on_eigenvalues_only():
    lengths = (0.5, 0.5)
    assert characteristic_residual(SWAP, lengths, 2.0 * math.pi) < 1e-12
    assert characteristic_residual(SWAP, lengths, 3.0) > 1e-2


# ---------------------------------------------------------------------------
# eigenfunctions


def test_eigenbasis_functions_are_genuine_eigenvectors():
    rng = np.random.default_rng(12)
    ext = build_extension(OperatorSpec(PART), haar_unitary(rng))
    pairs = eigenbasis(ext.boundary, PART, (-15.0, 15.0))
    assert pairs
    th = np.linspace(0.0, 0.999, 257)
    th = th[np.abs(th - 0.5) > 1e-3]
    for lam, psi in [(p.eigenvalue, p.eigenfunction) for p in pairs]:
        # symbol action: (1/i) psi' = lam psi
        tpsi = psi.dirac_apply()
        assert np.max(np.abs(tpsi(th) - lam * psi(th))) < 1e-8
        # boundary relation
        L, R = boundary_values(psi)
        assert np.max(np.abs(np.asarray(L) - ext.boundary.matrix @ np.asarray(R))) < 1e-8


def test_eigenbasis_is_orthonormal():
    # unit norms within clusters by construction; across distinct eigenvalues
    # orthogonality is forced by self-adjointness, so the whole Gram is I
    rng = np.random.default_rng(14)
    ext = build_extension(OperatorSpec(PART), haar_unitary(rng))
    pairs = eigenbasis(ext.boundary, PART, (-15.0, 15.0))
    n = len(pairs)
    G = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            G[i, j] = inner_product(pairs[i].eigenfunction, pairs[j].eigenfunction)
    assert np.max(np.abs(G - np.eye(n))) < 1e-7


def test_identity_extension_kernel_is_locally_constant():
    pairs = eigenbasis(np.eye(2), PART, (-1.0, 1.0))
    assert [p.eigenvalue for p in pairs] == [0.0, 0.0]
    for p in pairs:
        assert all(a.exponent == 0.0 for a in p.eigenfunction.atoms)
    # doubled eigenvalue, orthonormal pair
    g01 = inner_product(pairs[0].eigenfunction, pairs[1].eigenfunction)
    assert abs(g01) < 1e-10


def test_eigenbasis_handles_degenerate_clusters_on_three_pieces():
    part = Partition((0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0))
    pairs = eigenbasis(np.eye(3), part, (-1.0, 1.0))
    assert [p.eigenvalue for p in pairs] == [0.0, 0.0, 0.0]
    G = np.array(
        [
            [inner_product(p.eigenfunction, q.eigenfunction) for q in pairs]
            for p in pairs
        ]
    )
    assert np.max(np.abs(G - np.eye(3))) < 1e-10


def _roots(Bm, part, window, force_tracking):
    lengths = np.asarray(part.lengths)
    if np.max(np.abs(lengths - lengths[0])) < 1e-12 and not force_tracking:
        roots = spectral._closed_form_roots(Bm, float(lengths[0]), *window)
    else:
        roots = spectral._tracked_roots(Bm, lengths, *window)
    return np.sort(np.asarray(roots))


def _per_root_spectrum(Bm, part, window, force_tracking=False):
    """Reference: one multiplicity SVD and one residual determinant per root
    cluster, the loop the stacked solves replaced."""
    lengths = np.asarray(part.lengths)
    values, residuals = [], []
    for lam, _m in spectral._cluster(_roots(Bm, part, window, force_tracking), 1e-9):
        sv = np.linalg.svd(spectral._characteristic_matrix(Bm, lengths, lam), compute_uv=False)
        mult = int(np.sum(sv < 1e-8 * max(sv[0], 1.0)))
        res = characteristic_residual(Bm, lengths, lam)
        values.extend([lam] * mult)
        residuals.extend([res] * mult)
    return np.asarray(values), np.asarray(residuals)


def _per_root_eigenbasis(Bm, part, window, force_tracking=False):
    """Reference: one full SVD and one Gram `eigh` per cluster, the loop the
    stacked solve replaced; (lambda, atom coefficients) per eigenfunction."""
    spec = eigenphases(Bm, part, window, force_tracking=force_tracking)
    lengths = np.asarray(part.lengths)
    tleft = np.asarray(part.endpoints[:-1])
    out = []
    for lam, _m in spec.grouped(tol=1e-9):
        _, sv, vh = np.linalg.svd(spectral._characteristic_matrix(Bm, lengths, lam))
        nullity = int(np.sum(sv < 1e-8 * max(sv[0], 1.0)))
        C = vh[len(sv) - nullity:].conj().T
        G = C.conj().T @ (lengths[:, None] * C)
        evals, evecs = np.linalg.eigh(G)
        C = C @ evecs / np.sqrt(evals)
        out.extend((lam, C[:, idx] * np.exp(-1j * lam * tleft)) for idx in range(C.shape[1]))
    return out


_THREE = Partition((0.0, 0.3, 0.55, 1.0))
_STACK_CASES = {
    "haar-equal": (PART, lambda: _haar_boundary(PART, 13), False),
    "haar-equal-tracked": (PART, lambda: _haar_boundary(PART, 13), True),
    "identity-equal": (PART, lambda: np.eye(2, dtype=complex), False),
    "swap-equal": (PART, lambda: SWAP, False),
    "swap-tracked": (PART, lambda: SWAP, True),
    "haar-3-equal": (Partition((0.0, 1 / 3, 2 / 3, 1.0)),
                     lambda: _haar_boundary(Partition((0.0, 1 / 3, 2 / 3, 1.0)), 4), False),
    "identity-3-equal": (Partition((0.0, 1 / 3, 2 / 3, 1.0)),
                         lambda: np.eye(3, dtype=complex), False),
    "haar-unequal": (_THREE, lambda: _haar_boundary(_THREE, 3), False),
    "identity-unequal": (_THREE, lambda: np.eye(3, dtype=complex), False),
}


@pytest.mark.parametrize("case", list(_STACK_CASES))
@pytest.mark.parametrize("window", [(-40.0, 40.0), (-1e-9, 90.0)], ids=["symmetric", "basis"])
def test_stacked_solves_match_the_per_root_loops(case, window):
    part, make_b, force = _STACK_CASES[case]
    Bm = make_b()
    spec = eigenphases(Bm, part, window, force_tracking=force)
    values, residuals = _per_root_spectrum(Bm, part, window, force)
    assert len(values) > 10
    assert np.array_equal(spec.eigenvalues, values)
    assert np.array_equal(spec.residuals, residuals)

    pairs = eigenbasis(Bm, part, window, force_tracking=force)
    ref = _per_root_eigenbasis(Bm, part, window, force)
    assert [p.eigenvalue for p in pairs] == [lam for lam, _a in ref]
    for p, (_lam, a) in zip(pairs, ref):
        coef = np.zeros(part.npieces, dtype=complex)
        for atom in p.eigenfunction.atoms:
            coef[atom.piece] += atom.coefficient
            assert atom.exponent == 1j * p.eigenvalue
        assert np.max(np.abs(coef - a)) < 1e-13


def test_multiplicities_of_the_stacked_solves():
    # identity on two equal pieces doubles every eigenvalue 4 pi m; on three
    # unequal pieces only lambda = 0 is triple
    spec = eigenphases(np.eye(2), PART, (-30.0, 30.0))
    assert [m for _lam, m in spec.grouped()] == [2] * 5
    (lam, mult), = eigenphases(np.eye(3), _THREE, (-1.0, 1.0)).grouped()
    assert abs(lam) < 1e-11 and mult == 3


# ---------------------------------------------------------------------------
# finite differences


def test_fd_matrix_validation():
    ext = build_extension(OperatorSpec(PART), swap_unitary())
    with pytest.raises(ValidationError):
        fd_matrix(ext, 32)
    tight = build_extension(
        OperatorSpec(Partition((0.0, 0.001, 1.0))), haar_unitary(np.random.default_rng(0))
    )
    with pytest.raises(ValidationError):
        fd_matrix(tight, 64)


def test_fd_shift_matrix_is_unitary():
    # A = (I - S_B)/(i h) with S_B the boundary-coupled left shift; S_B must
    # be unitary exactly when B is
    rng = np.random.default_rng(3)
    ext = build_extension(OperatorSpec(PART), haar_unitary(rng))
    N = 128
    A = fd_matrix(ext, N).toarray()
    S = np.eye(N) - (1j / N) * A
    assert np.max(np.abs(S @ S.conj().T - np.eye(N))) < 1e-12


def _match_error(fd_vals, exact_vals):
    return max(np.min(np.abs(fd_vals - ex)) for ex in exact_vals)


def test_fd_spectrum_matches_anchors():
    tol = 2.0 * math.pi * 0.02
    for u, exact in (
        (swap_unitary(), 2.0 * math.pi * np.arange(-4, 5)),
        (identity_unitary(), 4.0 * math.pi * np.arange(-2, 3)),
    ):
        ext = build_extension(OperatorSpec(PART), u)
        fd = fd_spectrum(ext, 1024, WINDOW)
        assert _match_error(fd.eigenvalues, exact) < tol


def test_fd_preserves_identity_multiplicity():
    ext = build_extension(OperatorSpec(PART), identity_unitary())
    fd = fd_spectrum(ext, 1024, (-15.0, 15.0))
    for m in (-1, 0, 1):
        lam = 4.0 * math.pi * m
        assert np.sum(np.abs(fd.eigenvalues - lam) < 0.3) >= 2


def test_fd_dense_route_small_n():
    ext = build_extension(OperatorSpec(PART), swap_unitary())
    fd = fd_spectrum(ext, 512, (-10.0, 10.0))
    exact = 2.0 * math.pi * np.arange(-1, 2)
    assert _match_error(fd.eigenvalues, exact) < 0.3


def test_fd_error_shrinks_with_refinement():
    ext = build_extension(OperatorSpec(PART), swap_unitary())
    exact = 2.0 * math.pi * np.arange(-4, 5)
    e1024 = _match_error(fd_spectrum(ext, 1024, WINDOW).eigenvalues, exact)
    e2048 = _match_error(fd_spectrum(ext, 2048, WINDOW).eigenvalues, exact)
    assert e2048 <= e1024


# ---------------------------------------------------------------------------
# the shift-invert stop rule

FD_WINDOW = (-15.0, 15.0)


def _fixed_ritz_near(A, sigma, k, iters=30, seed=0):
    """Reference: a fixed `iters` block inverse iterations, then one
    Rayleigh-Ritz step, with no stop test."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    N = A.shape[0]
    lu = spla.splu((A - sigma * sp.identity(N, dtype=complex, format="csc")).tocsc())
    rng = np.random.default_rng(seed)
    Q = rng.normal(size=(N, k)) + 1j * rng.normal(size=(N, k))
    Q, _ = np.linalg.qr(Q)
    for _ in range(iters):
        Q, _ = np.linalg.qr(lu.solve(Q))
    H = Q.conj().T @ (A @ Q)
    vals, vecs = np.linalg.eig(H)
    V = A @ (Q @ vecs) - (Q @ vecs) * vals[None, :]
    res = np.linalg.norm(V, axis=0) / np.linalg.norm(Q @ vecs, axis=0)
    return vals[res < 1e-8 * (1.0 + np.abs(vals))]


def _fixed_fd_spectrum(monkeypatch, ext, N, window):
    with monkeypatch.context() as m:
        m.setattr(spectral, "_ritz_near", _fixed_ritz_near)
        return fd_spectrum(ext, N, window)


def _fd_extension(case):
    if case == "identity":
        return build_extension(OperatorSpec(PART), identity_unitary())
    if case == "swap":
        return build_extension(OperatorSpec(PART), swap_unitary())
    knots, seed = case
    spec = OperatorSpec(Partition(knots))
    return build_extension(spec, haar_unitary(np.random.default_rng(seed), spec.deficiency_index))


_FD_CASES = [
    pytest.param(((0.0, 0.5, 1.0), 1), id="2-pieces"),
    pytest.param(((0.0, 0.3, 0.55, 1.0), 3), id="3-pieces"),
    pytest.param(((0.0, 0.1, 0.35, 0.6, 1.0), 5), id="4-pieces"),
    pytest.param("identity", id="identity"),
    pytest.param("swap", id="swap"),
]


@pytest.mark.parametrize("N", [1024, 2048])
@pytest.mark.parametrize("case", _FD_CASES)
def test_fd_stop_gives_the_fixed_iteration_spectrum(monkeypatch, case, N):
    # the identity has double eigenvalues, so multiplicities are covered
    ext = _fd_extension(case)
    fd = fd_spectrum(ext, N, FD_WINDOW)
    ref = _fixed_fd_spectrum(monkeypatch, ext, N, FD_WINDOW)
    assert len(fd) == len(ref) >= 4
    assert np.max(np.abs(fd.eigenvalues - ref.eigenvalues)) < 1e-10


def test_fd_capped_iteration_is_the_fixed_iteration(monkeypatch):
    ext = _fd_extension(((0.0, 0.3, 0.55, 1.0), 3))
    ref = _fixed_fd_spectrum(monkeypatch, ext, 1024, FD_WINDOW)
    monkeypatch.setattr(spectral, "_cell_converged",
                        lambda vals, converged, sigma, before: (False, 0))
    capped = fd_spectrum(ext, 1024, FD_WINDOW)
    assert np.array_equal(capped.eigenvalues, ref.eigenvalues)
    assert np.array_equal(capped.residuals, ref.residuals)


def test_fd_targets_stop_before_the_cap(monkeypatch):
    checks = {}
    stop_test = spectral._cell_converged

    def counted(vals, converged, sigma, before):
        checks[sigma] = checks.get(sigma, 0) + 1
        return stop_test(vals, converged, sigma, before)

    monkeypatch.setattr(spectral, "_cell_converged", counted)
    fd_spectrum(_fd_extension(((0.0, 0.3, 0.55, 1.0), 3)), 2048, FD_WINDOW)
    # a target that never stops is checked after iterations 4..30
    cap = 30 - spectral.FD_FIRST_CHECK + 1
    assert len(checks) == 11
    assert max(checks.values()) < cap


def test_cell_stop_rule():
    # the cell of sigma = 0.137 is |Re v - 0.137| <= pi/2: it holds the first
    # two values; the other two are unconverged and outside it
    sigma = 0.137 + 0j
    vals = np.array([0.5 + 0.01j, -1.4 - 2e-4j, 3.0 + 0j, 10.0 + 0j])
    converged = np.array([True, True, False, False])
    stop = spectral._cell_converged
    assert stop(vals, converged, sigma, 2) == (True, 2)
    assert stop(vals, converged, sigma, None) == (False, 2)    # first check
    assert stop(vals, converged, sigma, 1) == (False, 2)       # a value moved in
    assert stop(vals, np.array([True, False, True, True]), sigma, 2) == (False, 2)
