"""Spectra of the extensions: characteristic roots, eigenfunctions, and the
finite-difference cross-check (an independent discretization route)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from extlab import spectral
from extlab.analysis import (
    ExponentialAtom,
    Partition,
    PiecewiseFunction,
    boundary_values,
    inner_product,
)
from extlab.errors import NumericalError, ValidationError
from extlab.spectral import (
    Spectrum,
    eigenbasis,
    eigenphases,
    fd_matrix,
    fd_spectrum,
)
from extlab.vonneumann import (
    BoundaryMatrix,
    OperatorSpec,
    boundary_array,
    build_extension,
    haar_unitary,
    identity_unitary,
    swap_unitary,
)
from oracles import characteristic_matrix, characteristic_residual, nullity

PART = Partition((0.0, 0.5, 1.0))
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
WINDOW = (-30.0, 30.0)


def test_swap_spectrum_is_two_pi_lattice():
    spec = eigenphases(SWAP, PART, WINDOW)
    expect = 2.0 * math.pi * np.arange(-4, 5)
    assert len(spec) == 9
    assert np.max(np.abs(spec.eigenvalues - expect)) < 1e-10
    assert np.max(spec.residuals) < 1e-9


def test_a_refused_root_prints_lambda_as_a_plain_float(monkeypatch):
    # with no residual allowed every root is refused; numpy 2 would render a
    # bare numpy scalar as np.float64(...) in the message
    monkeypatch.setattr(spectral, "RESIDUAL_TOL", 0.0)
    B = _haar_boundary(PART, 3)
    with pytest.raises(NumericalError, match="at lambda=") as info:
        eigenphases(B, PART, WINDOW)
    assert "np.float64(" not in str(info.value)


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


def _full_grid_lift(Bm, lengths, grid):
    """Reference lift over the whole grid: every row's sorted phases, shifted
    by c_i, the running sum of the crossings counted in each cell."""
    phases = spectral._sorted_phases(Bm, lengths, grid)
    total = phases.sum(axis=1)
    crossings = np.rint((total[:-1] + np.diff(grid) * np.sum(lengths) - total[1:])
                        / (2 * np.pi)).astype(np.int64)
    shifts = np.concatenate(([0], np.cumsum(crossings)))
    turns, pos = np.divmod(shifts[:, None] + np.arange(Bm.shape[0]), Bm.shape[0])
    return np.take_along_axis(phases, pos, axis=1) + (2 * np.pi) * turns


def _greedy_lift(Bm, lengths, grid):
    """Reference lift: nearest-phase greedy matching, one grid point at a time."""
    phases = spectral._sorted_phases(Bm, lengths, grid)
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


def _branch_offset(Bm, lengths, lam, near_zero_guess):
    """Signed offset of the branch phase nearest the target multiple of 2pi."""
    ph = np.angle(np.linalg.eigvals(Bm @ np.diag(np.exp(1j * lam * lengths))))
    d = spectral._wrap(ph)
    return d[np.argmin(np.abs(d - spectral._wrap(near_zero_guess)))]


def _bisect_branch(Bm, lengths, a, b, fa, fb):
    """Bisect the (monotone) branch offset to 1e-11, one root at a time."""
    for _ in range(64):
        if b - a < 1e-11:
            break
        mid = 0.5 * (a + b)
        fm = _branch_offset(Bm, lengths, mid, 0.5 * (fa + fb))
        if fm <= 0:
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return 0.5 * (a + b)


def _reference_roots(Bm, lengths, lo, hi, lift=_full_grid_lift):
    """Reference tracking: lift the whole grid, `searchsorted` every target
    of every branch, and bisect each root alone; sorted."""
    step = spectral.TRACK_STEP
    grid = np.arange(lo - step, hi + step + step, step)
    lifted = lift(Bm, lengths, grid)
    roots = []
    for j in range(Bm.shape[0]):
        branch = lifted[:, j]
        targets = np.arange(np.ceil(branch[0] / (2 * np.pi)),
                            np.floor(branch[-1] / (2 * np.pi)) + 1)
        for tgt in 2 * np.pi * targets:
            k = int(np.searchsorted(branch, tgt))
            if k == 0 or k >= len(grid):
                continue
            lam = _bisect_branch(Bm, lengths, grid[k - 1], grid[k],
                                 branch[k - 1] - tgt, branch[k] - tgt)
            if lo - 1e-12 <= lam <= hi + 1e-12:
                roots.append(lam)
    return np.sort(np.asarray(roots))


def _haar_boundary(part, seed):
    rng = np.random.default_rng(seed)
    return build_extension(OperatorSpec(part), haar_unitary(rng, part.npieces)).boundary.matrix


_TRACKED_CASES = {
    "3-pieces-seed3": ((0.0, 0.3, 0.55, 1.0), 3),
    "3-pieces-seed8": ((0.0, 0.2, 0.55, 1.0), 8),
    "4-pieces-seed5": ((0.0, 0.1, 0.35, 0.6, 1.0), 5),
    "4-pieces-seed9": ((0.0, 0.25, 0.4, 0.8, 1.0), 9),
}


@pytest.mark.parametrize("case", list(_TRACKED_CASES))
def test_cyclic_shift_lift_gives_the_greedy_roots(case):
    knots, seed = _TRACKED_CASES[case]
    part = Partition(knots)
    lengths = np.asarray(part.lengths)
    B = _haar_boundary(part, seed)
    roots = np.sort(spectral._tracked_roots(B, lengths, -20.0, 20.0))
    assert len(roots) >= 5
    assert np.array_equal(roots, _reference_roots(B, lengths, -20.0, 20.0, _greedy_lift))


@pytest.mark.parametrize("B", [SWAP, np.eye(2, dtype=complex)], ids=["swap", "identity"])
def test_cyclic_shift_lift_on_degenerate_branches(B):
    # equal pieces: every phase moves at the same speed, and for the identity
    # the two branches coincide and cross pi together
    lengths = np.asarray(PART.lengths)
    roots = np.sort(spectral._tracked_roots(B, lengths, *WINDOW))
    assert np.array_equal(roots, _reference_roots(B, lengths, *WINDOW, _greedy_lift))


_THREE_ANCHORS = {"identity-3": np.eye(3, dtype=complex),
                  "swap-3": np.eye(3, dtype=complex)[::-1].copy()}


@pytest.mark.parametrize("case, window", [
    # the greedy test above covers these B on [-20, 20]
    *((case, (-60.0, 60.0)) for case in _TRACKED_CASES),
    # [0, 130] holds the identity's triple root at 40 pi
    *((case, (0.0, 130.0)) for case in _THREE_ANCHORS),
])
def test_bracketed_tracking_gives_the_full_grid_roots(case, window):
    if case in _THREE_ANCHORS:
        part, B = Partition((0.0, 0.3, 0.55, 1.0)), _THREE_ANCHORS[case]
    else:
        knots, seed = _TRACKED_CASES[case]
        part = Partition(knots)
        B = _haar_boundary(part, seed)
    lengths = np.asarray(part.lengths)
    roots = np.sort(spectral._tracked_roots(B, lengths, *window))
    assert len(roots) >= 5
    assert np.array_equal(roots, _reference_roots(B, lengths, *window))
    if case == "identity-3":
        assert np.sum(np.abs(roots - 40 * np.pi) < 1e-9) == 3


@pytest.mark.parametrize("part, B", [
    (Partition((0.0, 0.3, 0.55, 1.0)), _haar_boundary(Partition((0.0, 0.3, 0.55, 1.0)), 5)),
    (Partition((0.0, 0.1, 0.35, 0.6, 1.0)), _haar_boundary(Partition((0.0, 0.1, 0.35, 0.6, 1.0)), 9)),
    (Partition((0.0, 0.3, 0.55, 1.0)), np.eye(3, dtype=complex)),
], ids=["3-pieces-haar", "4-pieces-haar", "3-pieces-identity"])
def test_pointwise_lift_equals_the_full_grid_lift(part, B):
    lengths = np.asarray(part.lengths)
    grid = np.arange(-40.0, 40.0, spectral.TRACK_STEP)
    whole = _full_grid_lift(B, lengths, grid)
    lift = spectral._branch_lift(B, lengths, grid)
    assert np.array_equal(lift(np.arange(len(grid))), whole)
    # a row's lift does not depend on the rows evaluated with it
    rows = np.random.default_rng(0).permutation(len(grid))[:50]
    assert np.array_equal(lift(rows), whole[rows])


def test_tracking_evaluates_only_the_bracketing_rows(monkeypatch):
    # the whole-grid lift passed about 39 000 matrices to eigvals here
    matrices = []
    eigvals = np.linalg.eigvals

    def counted(a):
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return eigvals(a)

    part = Partition((0.0, 0.3, 0.55, 1.0))
    B = _haar_boundary(part, 3)
    monkeypatch.setattr(np.linalg, "eigvals", counted)
    roots = spectral._tracked_roots(B, np.asarray(part.lengths), -60.0, 60.0)
    assert len(roots) >= 15
    assert sum(matrices) < 2000


@pytest.mark.parametrize("seed", range(4))
def test_the_tracking_grid_is_numpys_arange(seed):
    # rows are computed where they are read, bit for bit np.arange's, on
    # windows up to the widest a pairing basis may ask for
    rng = np.random.default_rng(seed)
    step = spectral.TRACK_STEP
    # (stop - start) / step is a whole number on the fixed windows
    fixed = [(0.0, 0.0), (0.0, 4 * np.pi), (step, 4 * np.pi), (-step, -step)]
    random = []
    for lo in rng.uniform(-4096 * np.pi, 4096 * np.pi, 60).tolist():
        scale = float(rng.choice([1e-6, 1e-2, 1.0]))
        random.append((lo, lo + float(rng.uniform(0.0, 4096 * np.pi)) * scale))
    for lo, hi in fixed + random:
        ref = np.arange(lo - step, hi + step + step, step)
        grid = spectral._ArangeRows(lo - step, hi + step + step, step)
        assert len(grid) == len(ref)
        rows = np.concatenate([np.arange(min(len(ref), 8)),
                               np.arange(max(len(ref) - 8, 0), len(ref)),
                               rng.integers(0, len(ref), 500)])
        assert np.array_equal(grid[rows], ref[rows])
        assert grid[1] == ref[1] and grid[len(ref) - 1] == ref[-1]


@pytest.mark.parametrize("npieces", [2, 3, 5, 8, 12, 16])
def test_tracked_root_count_is_bounded_by_the_branches(npieces):
    # each of the n branches rises and they sum to theta_0 + lam sum(l), so a
    # window of width W holds W sum(l) / 2 pi roots up to n
    rng = np.random.default_rng(npieces)
    for seed in range(3):
        cuts = np.sort(rng.uniform(0.0, 1.0, npieces - 1))
        part = Partition((0.0, *cuts.tolist(), 1.0))
        lengths = np.asarray(part.lengths)
        assert np.ptp(lengths) > 1e-3
        lo = float(rng.uniform(-200.0, 200.0))
        hi = lo + float(rng.uniform(0.0, 200.0))
        roots = spectral._tracked_roots(_haar_boundary(part, seed), lengths, lo, hi)
        assert abs(len(roots) - (hi - lo) * lengths.sum() / (2 * np.pi)) <= npieces


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


def _eigenfunctions(spec, part):
    """(lambda, PiecewiseFunction) per coefficient row of an `eigenbasis`
    result: row i is the function a_k e^{i lambda_i theta} on piece k."""
    return [(lam, PiecewiseFunction(part, tuple(ExponentialAtom(k, a[k], 1j * lam)
                                                for k in range(part.npieces))))
            for lam, a in zip(spec.eigenvalues, spec.coefficients)]


def test_eigenbasis_functions_are_genuine_eigenvectors():
    rng = np.random.default_rng(12)
    ext = build_extension(OperatorSpec(PART), haar_unitary(rng))
    pairs = _eigenfunctions(eigenbasis(ext.boundary, PART, (-15.0, 15.0)), PART)
    assert pairs
    th = np.linspace(0.0, 0.999, 257)
    th = th[np.abs(th - 0.5) > 1e-3]
    for lam, psi in pairs:
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
    pairs = _eigenfunctions(eigenbasis(ext.boundary, PART, (-15.0, 15.0)), PART)
    n = len(pairs)
    G = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            G[i, j] = inner_product(pairs[i][1], pairs[j][1])
    assert np.max(np.abs(G - np.eye(n))) < 1e-7


def test_identity_extension_kernel_is_locally_constant():
    pairs = _eigenfunctions(eigenbasis(np.eye(2), PART, (-1.0, 1.0)), PART)
    assert [lam for lam, _psi in pairs] == [0.0, 0.0]
    for _lam, psi in pairs:
        assert all(a.exponent == 0.0 for a in psi.atoms)
    # doubled eigenvalue, orthonormal pair
    g01 = inner_product(pairs[0][1], pairs[1][1])
    assert abs(g01) < 1e-10


def test_eigenbasis_handles_degenerate_clusters_on_three_pieces():
    part = Partition((0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0))
    pairs = _eigenfunctions(eigenbasis(np.eye(3), part, (-1.0, 1.0)), part)
    assert [lam for lam, _psi in pairs] == [0.0, 0.0, 0.0]
    G = np.array([[inner_product(p, q) for _mu, q in pairs] for _lam, p in pairs])
    assert np.max(np.abs(G - np.eye(3))) < 1e-10


def _ladder_roots(Bm, part, window):
    """Reference: every root (2 pi m - phi_j) / l in the window, one ladder
    j and one m at a time, from the phases of the certified decomposition
    of B; sorted."""
    ell = float(part.lengths[0])
    lo, hi = window
    roots = []
    for phi in np.angle(spectral._unitary_eigenbasis(Bm)[0]):
        for m in range(math.floor((lo * ell + phi) / (2 * np.pi)) - 1,
                       math.ceil((hi * ell + phi) / (2 * np.pi)) + 2):
            lam = (2 * np.pi * float(m) - phi) / ell
            if lo - 1e-12 <= lam <= hi + 1e-12:
                roots.append(lam)
    return np.sort(np.asarray(roots))


def _root_clusters(Bm, part, window, force_tracking):
    """(lambda, multiplicity) per eigenvalue: on equal pieces each ladder
    root alone, else the tracked roots clustered within 1e-9, a cluster's
    multiplicity its root count."""
    if _closed_form(part, force_tracking):
        return [(lam, 1) for lam in _ladder_roots(Bm, part, window)]
    roots = spectral._tracked_roots(Bm, np.asarray(part.lengths), *window)
    return spectral._cluster(np.sort(roots), 1e-9)


def _per_root_spectrum(Bm, part, window, force_tracking=False):
    """Reference: one residual determinant per eigenvalue, the loop the
    stacked solves replaced."""
    lengths = np.asarray(part.lengths)
    values, residuals = [], []
    for lam, mult in _root_clusters(Bm, part, window, force_tracking):
        res = characteristic_residual(Bm, lengths, lam)
        values.extend([lam] * mult)
        residuals.extend([res] * mult)
    return np.asarray(values), np.asarray(residuals)


def _per_root_eigenbasis(Bm, part, window, force_tracking=False):
    """Reference: one full SVD and one Gram `eigh` per cluster, the loop the
    stacked solve replaced; (lambda, atom coefficients) per eigenfunction.
    A cluster of multiplicity m takes the last m right singular vectors."""
    spec = eigenphases(Bm, part, window, force_tracking=force_tracking)
    lengths = np.asarray(part.lengths)
    tleft = np.asarray(part.endpoints[:-1])
    out = []
    for lam, mult in spec.grouped(tol=1e-9):
        _, sv, vh = np.linalg.svd(characteristic_matrix(Bm, lengths, lam))
        C = vh[len(sv) - mult:].conj().T
        G = C.conj().T @ (lengths[:, None] * C)
        evals, evecs = np.linalg.eigh(G)
        C = C @ evecs / np.sqrt(evals)
        out.extend((lam, C[:, idx] * np.exp(-1j * lam * tleft)) for idx in range(C.shape[1]))
    return out


def _object_eigenbasis(B, partition, window, force_tracking=False):
    """Reference: the eigenbasis as one (lambda, PiecewiseFunction) object per
    eigenfunction, re-solving the clusters of the `eigenphases` spectrum with
    a second stacked SVD, the route the coefficient rows replaced; a
    cluster of multiplicity m takes the last m right singular vectors."""
    Bm = boundary_array(B)
    spec = eigenphases(Bm, partition, window, force_tracking=force_tracking)
    lengths = np.asarray(partition.lengths)
    tleft = np.asarray(partition.endpoints[:-1])
    groups = spec.grouped(tol=1e-9)
    lams = np.asarray([lam for lam, _mult in groups], dtype=float)
    mults = [mult for _lam, mult in groups]
    _, _sv, vh = np.linalg.svd(spectral._characteristic_stack(Bm, lengths, lams))
    phase = np.exp(-1j * lams[:, None] * tleft)
    c = vh[:, -1, :].conj()
    simple = phase * (c / np.sqrt((c.real ** 2 + c.imag ** 2) @ lengths)[:, None])
    pairs = []
    for i, lam in enumerate(lams):
        if mults[i] == 1:
            coefs = simple[i:i + 1]
        else:
            C = vh[i, len(lengths) - mults[i]:].conj().T
            G = C.conj().T @ (lengths[:, None] * C)
            evals, evecs = np.linalg.eigh(G)
            coefs = (C @ evecs / np.sqrt(evals)).T * phase[i]
        for a in coefs:
            atoms = tuple(ExponentialAtom(k, a[k], 1j * lam) for k in range(len(lengths)))
            pairs.append((lam, PiecewiseFunction(partition, atoms)))
    pairs.sort(key=lambda p: p[0])
    lam = np.asarray([lam for lam, _psi in pairs], dtype=float)
    coef = np.zeros((len(pairs), partition.npieces), dtype=complex)
    for i, (_lam, psi) in enumerate(pairs):
        for atom in psi.atoms:
            coef[i, atom.piece] += atom.coefficient
    return lam, coef


#: how far the closed-form rows on equal pieces may lie from the SVD path's:
#: both give the null spaces at the same eigenvalues, one from the columns of
#: `_unitary_eigenbasis`, the other from singular vectors, equal to rounding
_CLOSED_FORM_TOL = 1e-12


def _assert_same_eigenspaces(basis, lam, coef, tol):
    """`basis` has the eigenvalues lam to tol, and on each group of lam closer
    than 1e-6 the same projector A* A of its coefficient rows A as coef, to
    tol: the same eigenspaces, whichever orthonormal basis a repeated
    eigenvalue's rows take, and whatever phase a row has."""
    assert basis.eigenvalues.size == basis.coefficients.shape[0] == lam.size
    assert np.max(np.abs(basis.eigenvalues - lam)) <= tol
    for rows in np.split(np.arange(lam.size), np.flatnonzero(np.diff(lam) > 1e-6) + 1):
        got, want = basis.coefficients[rows], coef[rows]
        assert np.max(np.abs(got.conj().T @ got - want.conj().T @ want)) <= tol


def _closed_form(part, force):
    """Whether `eigenbasis` builds its rows in closed form on `part`."""
    return spectral._equal_lengths(part.lengths) and not force


def _assert_object_eigenbasis(basis, B, part, window, force=False):
    """`basis` is B's eigenbasis, bit for bit, and read-only."""
    lam, coef = _object_eigenbasis(B, part, window, force)
    assert len(basis) == basis.coefficients.shape[0] == basis.eigenvalues.size == lam.size
    assert basis.coefficients.shape[1] == part.npieces
    assert np.array_equal(basis.eigenvalues, lam)
    assert np.array_equal(basis.coefficients, coef)
    assert not basis.eigenvalues.flags.writeable
    assert not basis.coefficients.flags.writeable


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

    basis = eigenbasis(Bm, part, window, force_tracking=force)
    assert np.array_equal(basis.eigenvalues, spec.eigenvalues)
    assert np.array_equal(basis.residuals, spec.residuals)
    ref = _per_root_eigenbasis(Bm, part, window, force)
    if _closed_form(part, force):
        # rows in closed form: the per-root and the stacked SVD's eigenspaces
        # to rounding, not bit for bit
        _assert_same_eigenspaces(basis, np.array([lam for lam, _a in ref]),
                                 np.array([a for _lam, a in ref]), _CLOSED_FORM_TOL)
        _assert_same_eigenspaces(basis, *_object_eigenbasis(Bm, part, window), _CLOSED_FORM_TOL)
        assert not basis.eigenvalues.flags.writeable
        assert not basis.coefficients.flags.writeable
        return
    pairs = _eigenfunctions(basis, part)
    assert [lam for lam, _psi in pairs] == [lam for lam, _a in ref]
    for (lam, psi), (_lam, a) in zip(pairs, ref):
        coef = np.zeros(part.npieces, dtype=complex)
        for atom in psi.atoms:
            coef[atom.piece] += atom.coefficient
            assert atom.exponent == 1j * lam
        assert np.max(np.abs(coef - a)) < 1e-13
    _assert_object_eigenbasis(basis, Bm, part, window, force)


@pytest.mark.parametrize("part", [PART, _THREE], ids=["2-pieces", "3-pieces"])
def test_coefficient_rows_equal_the_object_eigenbasis_on_haar_samples(part):
    # bit for bit off equal pieces; on them the closed-form rows span the
    # SVD path's eigenspaces to rounding
    window = (-1e-9, 40.0)
    for seed in range(20):
        B = _haar_boundary(part, 100 + seed)
        basis = eigenbasis(B, part, window)
        if _closed_form(part, False):
            _assert_same_eigenspaces(basis, *_object_eigenbasis(B, part, window),
                                     _CLOSED_FORM_TOL)
        else:
            _assert_object_eigenbasis(basis, B, part, window)


def _conjugated(diagonal, seed):
    """Q diag(diagonal) Q* for a Haar Q."""
    Q = haar_unitary(np.random.default_rng(seed), len(diagonal)).matrix
    return (Q * np.asarray(diagonal)) @ Q.conj().T


_DECOMPOSED = {
    # the max-gap rule of the Hermitian parts took the anti-Hermitian part of
    # this swap, of eigenvalue gaps at rounding size, and missed B by 1.0
    "3-piece-transposition": np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex),
    "four-quarter-turns": _conjugated([1, 1j, -1, -1j], 6),
    "1x1": np.array([[np.exp(2.5j)]]),
    "identity-3": np.eye(3, dtype=complex),
    "diag(1,1,-1)": np.diag([1.0, 1.0, -1.0]).astype(complex),
}


@pytest.mark.parametrize("name", list(_DECOMPOSED))
def test_the_unitary_eigenbasis_decomposes_B(name):
    B = _DECOMPOSED[name]
    n = B.shape[0]
    w, W = spectral._unitary_eigenbasis(B)
    assert np.max(np.abs(W.conj().T @ W - np.eye(n))) <= 1e-14
    # to rounding, far inside the certified bound DECOMPOSITION_TOL * n
    assert np.linalg.norm((W * w) @ W.conj().T - B) <= 1e-14


def test_a_failed_unitary_eigenbasis_is_refused(monkeypatch):
    # an eigh that leaves W = I decomposes the transposition only on its
    # diagonal: the off-diagonal check refuses it
    monkeypatch.setattr(np.linalg, "eigh", lambda H: (np.zeros(len(H)), np.eye(len(H))))
    with pytest.raises(NumericalError, match="unitary eigenbasis of B off by 1.41e"):
        spectral._unitary_eigenbasis(_DECOMPOSED["3-piece-transposition"])


def _equal_piece_boundaries(k):
    """Haar, identity, swap, a repeated eigenphase and eigenphases 0.005
    apart on k pieces."""
    phases = np.array([0.3, 0.3, 2.0, 4.0][:k])
    close = phases.copy()
    close[1:2] += 0.005
    return {"haar": _haar_boundary(_equal(k), 40 + k), "identity": np.eye(k, dtype=complex),
            "swap": np.fliplr(np.eye(k)).astype(complex),
            "repeated": _conjugated(np.exp(1j * phases), k),
            "0.005-apart": _conjugated(np.exp(1j * close), k)}


def _equal(k):
    return Partition(tuple(np.linspace(0.0, 1.0, k + 1)))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_equal_piece_rows_span_the_tracked_eigenspaces(k):
    # the closed form against branch tracking and the stacked SVD: the
    # tracked roots are bisected to 1e-11 (`_bisect_branches`), and so the
    # eigenvalues and the eigenspaces' projectors agree to that
    window = (-1e-9, 200.0)
    for B in _equal_piece_boundaries(k).values():
        tracked = eigenbasis(B, _equal(k), window, force_tracking=True)
        _assert_same_eigenspaces(eigenbasis(B, _equal(k), window), tracked.eigenvalues,
                                 tracked.coefficients, 1e-11)


def test_eigenbasis_makes_one_stacked_solve(monkeypatch):
    # tracked: one stack and one det certify every cluster, and only the
    # eigenbasis takes an SVD, for its null vectors; equal pieces: one
    # decomposition of B, and no SVD
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_characteristic_stack", "_unitary_eigenbasis"):
        monkeypatch.setattr(spectral, name, counted(name, getattr(spectral, name)))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "det", counted("det", np.linalg.det))
    third = Partition((0.0, 1 / 3, 2 / 3, 1.0))
    solves = [(eigenphases, _THREE, {"_characteristic_stack": 1, "det": 1}),
              (eigenbasis, _THREE, {"_characteristic_stack": 1, "svd": 1, "det": 1}),
              (eigenphases, third, {"_unitary_eigenbasis": 1, "_characteristic_stack": 1, "det": 1}),
              (eigenbasis, third, {"_unitary_eigenbasis": 1, "_characteristic_stack": 1, "det": 1})]
    for solve, part, want in solves:
        calls.clear()
        assert len(solve(_haar_boundary(part, 3), part, (-1e-9, 40.0))) > 5
        assert calls == want
    # neither route goes through the other
    monkeypatch.setattr(spectral, "eigenphases", None)
    assert len(eigenbasis(_haar_boundary(_THREE, 3), _THREE, (-1e-9, 40.0))) > 5


_UNEQUAL = [(0.0, 0.3, 1.0), (0.0, 0.3, 0.55, 1.0), (0.0, 0.2, 0.55, 1.0),
            (0.0, 0.1, 0.35, 0.6, 1.0), (0.0, 0.25, 0.4, 0.8, 1.0),
            (0.0, 0.05, 0.3, 0.45, 0.7, 1.0)]


@pytest.mark.parametrize("knots", _UNEQUAL, ids=lambda k: f"{len(k) - 1}-pieces-{k[1]}")
def test_root_counts_equal_the_svd_nullity(knots):
    # a tracked cluster's multiplicity is its root count; the SVD threshold
    # it replaced reads the same null dimension on Haar, identity and swap
    part = Partition(knots)
    n = part.npieces
    lengths = np.asarray(part.lengths)
    for B in (_haar_boundary(part, n), np.eye(n, dtype=complex),
              np.fliplr(np.eye(n)).astype(complex)):
        _spec, lams, mults, _stack = spectral._certified_solve(B, lengths, -40.0, 40.0)
        assert mults.sum() > 10
        assert [nullity(B, lengths, lam) for lam in lams] == mults.tolist()


@pytest.mark.parametrize("delta", [1e-9, 3e-9, 1e-7])
def test_a_near_double_eigenvalue_counts_once(delta):
    # two eigenphases delta apart make two ladders of roots 2 delta apart:
    # 4 eigenvalues in [0, 30].  An SVD threshold of 1e-8 read each of the
    # two roots as a double, 8 in all, for delta up to about 1e-8
    B = _conjugated(np.exp(1j * np.array([0.3, 0.3 + delta])), 0)
    closed = eigenphases(B, PART, (0.0, 30.0))
    tracked = eigenphases(B, PART, (0.0, 30.0), force_tracking=True)
    assert len(closed) == len(tracked) == 4
    for force in (False, True):
        assert len(eigenbasis(B, PART, (0.0, 30.0), force_tracking=force)) == 4
    assert np.max(np.abs(closed.eigenvalues - tracked.eigenvalues)) < 1e-10
    assert np.max(closed.residuals) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1),
       st.one_of(st.none(), st.floats(1e-12, 1e-6)), st.floats(-1000.0, 1000.0),
       st.integers(1, 6))
def test_the_closed_form_spectrum_is_the_eigenbasis_spectrum(k, seed, gap, lo, periods):
    # Haar B, or B with two eigenphases gap apart: both calls read the same
    # ladders, and r whole periods 2 pi / l hold r roots of each ladder
    rng = np.random.default_rng(seed)
    B = haar_unitary(rng, k).matrix
    if gap is not None and k > 1:
        phases = rng.uniform(-np.pi, np.pi, k)
        phases[1] = phases[0] + gap
        B = (B * np.exp(1j * phases)) @ B.conj().T
    part = _equal(k)
    window = (lo, lo + periods * 2 * np.pi / part.lengths[0])
    spec = eigenphases(B, part, window)
    basis = eigenbasis(B, part, window)
    assert np.array_equal(spec.eigenvalues, basis.eigenvalues)
    assert np.array_equal(spec.residuals, basis.residuals)
    assert len(spec) == k * periods


def test_spectra_without_a_basis_have_no_coefficients():
    assert eigenphases(SWAP, PART, WINDOW).coefficients is None
    ext = build_extension(OperatorSpec(PART), swap_unitary())
    assert fd_spectrum(ext, 512, (-10.0, 10.0)).coefficients is None


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


@pytest.mark.parametrize("N", [128, 1024], ids=["dense", "shift-invert"])
@pytest.mark.parametrize("case", _FD_CASES)
def test_fd_residuals_are_the_per_mu_loop(monkeypatch, case, N):
    # one stacked det over the FD eigenvalues' real parts, bit for bit the
    # per-mu determinants; a run without them reads |Im mu| alone
    ext = _fd_extension(case)
    fd = fd_spectrum(ext, N, FD_WINDOW)
    monkeypatch.setattr(spectral, "_residuals", lambda stack: np.zeros(len(stack)))
    damping = fd_spectrum(ext, N, FD_WINDOW).residuals
    lengths = ext.spec.effective_partition.lengths
    per_mu = [d + characteristic_residual(ext.boundary.matrix, lengths, lam)
              for lam, d in zip(fd.eigenvalues, damping)]
    assert len(fd) >= 4
    assert np.array_equal(fd.residuals, per_mu)


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
