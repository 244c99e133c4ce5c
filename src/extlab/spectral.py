"""Spectra and eigenbases of self-adjoint extensions.

An extension with boundary relation L = B R has eigenfunctions that are pure
phases a_k e^{i lambda theta} per piece; lambda is an eigenvalue exactly when

    det(I - B Diag(e^{i lambda l_k})) = 0.

Two independent routes are provided: the characteristic equation and a
first-order upwind finite-difference discretization used as a cross-check
oracle.  On equal piece lengths the characteristic roots are in closed form
from one certified decomposition of B (`_unitary_eigenbasis`), one ladder
per eigenphase; in general they are tracked along the monotone eigenphase
branches and bisected, and a cluster of roots counts once per root.  The
eigenbasis is that spectrum plus one row of atom coefficients a_k per
eigenfunction: a column of the decomposition on equal pieces, else null
vectors read off one SVD of the stack that certifies the spectrum.
"""

import cmath
from dataclasses import dataclass, replace
import math

import numpy as np

from .analysis import Partition
from .errors import NumericalError, ValidationError
from .vonneumann import Extension, boundary_array

RESIDUAL_TOL = 1e-9

#: the most Frobenius norm a row that `_unitary_eigenbasis` certifies W* B W
#: to keep off its diagonal: a B that passes its unitarity check at 1e-9 an
#: entry is about that far from normal, and a failed decomposition order 1
DECOMPOSITION_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted eigenvalues (repeated per multiplicity) in a window.

    A characteristic multiplicity is a root count: on equal pieces each
    ladder's root is one entry, so a repeated eigenphase of B repeats its
    eigenvalues; on other partitions a cluster of roots within 1e-9 takes
    their mean once per root.  ``residuals`` holds
    |det(I - B Diag(e^{i lambda l_k}))| per eigenvalue.  For
    ``source='characteristic'`` these are bounded by 1e-9; for
    ``source='finite-difference'`` they are |Im mu| plus the |det| at
    Re mu, diagnostics of the scheme's O(lambda^2/N) error that carry no
    tolerance promise.

    ``coefficients`` is set by `eigenbasis` only: a (len, npieces) array
    whose row i holds the atom coefficients a_k of eigenfunction i, which is
    a_k e^{i lambda_i theta} on piece k.  Every array is read-only.
    ``decomposition`` is the (w, W) of `_unitary_eigenbasis` that the closed
    form on equal pieces reads, B = W diag(w) W*, else None.
    """

    window: tuple
    eigenvalues: np.ndarray
    residuals: np.ndarray
    source: str = "characteristic"
    coefficients: np.ndarray = None
    decomposition: tuple = None

    def __post_init__(self):
        for name, dtype in (("eigenvalues", float), ("residuals", float), ("coefficients", complex)):
            if getattr(self, name) is not None:
                arr = np.asarray(getattr(self, name), dtype=dtype)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)

    def __len__(self):
        return len(self.eigenvalues)

    def grouped(self, tol: float = 1e-8):
        """(value, multiplicity) pairs, clustering within tol."""
        return _cluster(self.eigenvalues, tol)


def _phase_stack(B: np.ndarray, lengths, lams) -> np.ndarray:
    """The (K, n, n) stack of B Diag(e^{i lambda l_k}), one per lambda, entry
    for entry what `B @ np.diag(...)` builds one at a time (B times a diagonal
    goes through the same matmul)."""
    n = B.shape[0]
    diag = np.zeros((len(lams), n, n), dtype=complex)
    diag[:, np.arange(n), np.arange(n)] = np.exp(1j * lams[:, None] * np.asarray(lengths))
    return B @ diag


def _characteristic_stack(B: np.ndarray, lengths, lams) -> np.ndarray:
    """The (K, n, n) stack of I - B Diag(e^{i lambda l_k}), one per lambda,
    entry for entry the matrices `np.eye(n) - B @ np.diag(...)` builds one at
    a time."""
    return np.eye(B.shape[0]) - _phase_stack(B, lengths, lams)


# ---------------------------------------------------------------------------
# characteristic-equation route
# ---------------------------------------------------------------------------

def eigenphases(B, partition: Partition, window, force_tracking: bool = False) -> Spectrum:
    """All eigenvalues in the window from the characteristic equation.

    Equal piece lengths l: the closed form lambda = (2 pi m - phi_j)/l of
    `_ladder_spectrum`, the spectrum `eigenbasis` builds.  General lengths:
    the eigenphase branches of B Diag(e^{i lambda l_k}) rise strictly in
    lambda, and their crossings of 2 pi Z are bracketed on a grid and
    bisected to 1e-11 (`_tracked_roots`); `_certified_solve` counts and
    certifies them.
    """
    Bm, lengths, lo, hi = _problem(B, partition, window)
    if _equal_lengths(lengths) and not force_tracking:
        return _ladder_spectrum(Bm, lengths, lo, hi)[0]
    return _certified_solve(Bm, lengths, lo, hi)[0]


def _certified_solve(Bm, lengths, lo, hi):
    """(Spectrum, lams, mults, stack): the tracked roots' clusters within
    1e-9, each cluster's multiplicity, and the stack of their characteristic
    matrices, certified by one `det` call (`_certified_residuals`).  A
    cluster's multiplicity is its root count: each eigenphase branch crossing
    2 pi Z there is one null direction (Hellmann-Feynman; Kato, Ch. II).
    """
    roots = np.sort(_tracked_roots(Bm, lengths, lo, hi))
    clusters = _cluster(roots, 1e-9)
    lams = np.asarray([lam for lam, _mult in clusters], dtype=float)
    mults = np.asarray([mult for _lam, mult in clusters], dtype=np.int64)
    stack = _characteristic_stack(Bm, lengths, lams)
    res = _certified_residuals(stack, lams)
    spec = Spectrum(window=(lo, hi), eigenvalues=np.repeat(lams, mults),
                    residuals=np.repeat(res, mults))
    return spec, lams, mults, stack


def _problem(B, partition: Partition, window):
    """(B's array, the piece lengths, lo, hi); ValidationError for an empty
    window or a B of the wrong size."""
    Bm, lengths = boundary_array(B), np.asarray(partition.lengths)
    lo, hi = float(window[0]), float(window[1])
    if hi < lo:
        raise ValidationError("empty window: hi < lo")
    if Bm.shape[0] != len(lengths):
        raise ValidationError("boundary matrix size does not match partition")
    return Bm, lengths, lo, hi


def _equal_lengths(lengths) -> bool:
    """Whether all pieces have the first one's length, to 1e-12: the one
    equal-pieces test, of the closed forms here and of `pairing`'s ladders
    and symbol route."""
    return bool(np.max(np.abs(np.asarray(lengths) - lengths[0])) < 1e-12)


def _residuals(stack) -> np.ndarray:
    """|det| of each matrix of the stack, one `det` call, bit for bit abs() of
    each one-matrix `det`: hypot is what abs() of one complex scalar
    computes, where np.abs on an array may round differently."""
    det = np.linalg.det(stack)
    return np.hypot(det.real, det.imag)


def _certified_residuals(stack, lams) -> np.ndarray:
    """`_residuals`; NumericalError where one exceeds RESIDUAL_TOL."""
    res = _residuals(stack)
    bad = np.flatnonzero(res > RESIDUAL_TOL)
    if bad.size:
        raise NumericalError(f"characteristic residual {res[bad[0]]:.2e} at lambda={float(lams[bad[0]])!r}")
    return res


def _ladder_spectrum(Bm, lengths, lo, hi):
    """(Spectrum, ladder) on equal pieces of length l: lambda is a root
    exactly when e^{-i lambda l} is an eigenvalue e^{i phi_j} of
    B = W diag(w) W* (`_unitary_eigenbasis`, the spectrum's
    ``decomposition``), of null vector W[:, j]; root i of `_rungs` lies on
    ladder ladder[i], a repeated eigenphase being as many ladders."""
    w, W = _unitary_eigenbasis(Bm)
    w.flags.writeable = W.flags.writeable = False
    lam, ladder = _rungs(np.angle(w), float(lengths[0]), lo, hi)
    res = _certified_residuals(_characteristic_stack(Bm, lengths, lam), lam)
    spec = Spectrum(window=(lo, hi), eigenvalues=lam, residuals=res, decomposition=(w, W))
    return spec, ladder


def _rungs(phis, ell, lo, hi):
    """(lam, ladder): the roots lambda = (2 pi m - phi_j) / ell in [lo, hi],
    to 1e-12, rung by rung, ladder[i] being the j of root i.

    Rung r holds each ladder's r-th root in the window, the ladders in the
    order of their first roots, which lie within 2 pi / ell above lo: so
    the roots ascend, and only the last rung may lack ladders.
    """
    rung = np.arange(int((hi - lo) * ell / (2 * np.pi)) + 5)[:, None]
    lam = (2 * np.pi * (np.floor((lo * ell + phis) / (2 * np.pi)) - 1 + rung) - phis) / ell
    inside = (lo - 1e-12 <= lam) & (lam <= hi + 1e-12)
    # each ladder's roots in the window are consecutive: move them to row 0
    lam = np.take_along_axis(lam, np.minimum(np.argmax(inside, axis=0) + rung, len(rung) - 1),
                             axis=0)
    count = np.count_nonzero(inside, axis=0)
    order = np.argsort(np.where(count > 0, lam[0], np.inf), kind="stable")
    valid = (rung < count)[:, order]
    return lam[:, order][valid], np.broadcast_to(order, lam.shape)[valid]


def _unitary_eigenbasis(Bm: np.ndarray):
    """(w, W) with B = W diag(w) W* and W unitary, for a unitary B.

    B turned by the unit factor that puts -1 mid-way across the widest gap
    of its `eigvals` keeps its eigenvalues e^{i psi} at least pi / n from
    -1, so its Cayley transform H = i (I - B')(I + B')^{-1} is a Hermitian
    matrix of eigenvalues tan(psi / 2) and B's eigenvectors.  `eigh` of H
    gives a W unitary to rounding however close two eigenvalues of B are,
    where `eig`'s eigenvectors can be far from orthogonal; a scalar B keeps
    W = I.  w is the diagonal of W* B W, and its off-diagonal, whose
    Frobenius norm is the distance from B to W diag(w) W*, is certified to
    be at most DECOMPOSITION_TOL a row, else NumericalError.
    """
    n = Bm.shape[0]
    phases = np.sort(np.angle(np.linalg.eigvals(Bm)))
    gaps = np.diff(phases, append=phases[0] + 2 * np.pi)
    j = np.argmax(gaps)
    turned = cmath.exp(1j * (np.pi - phases[j] - gaps[j] / 2)) * Bm
    W = np.linalg.eigh(1j * np.linalg.solve(np.eye(n) + turned, np.eye(n) - turned))[1]
    D = W.conj().T @ Bm @ W
    w = np.diagonal(D).copy()
    off = np.linalg.norm(D - np.diag(w))
    if not off <= DECOMPOSITION_TOL * n:
        raise NumericalError(f"unitary eigenbasis of B off by {off:.2e}")
    return w, W


TRACK_STEP = (4 * np.pi) / 4096   # grid pitch pinned: 4096 points per 4pi window


def _tracked_roots(Bm, lengths, lo, hi):
    """Roots of the eigenphase branches of B Diag(e^{i lam l}) in [lo, hi].

    Branch j (`_branch_lift`) crosses every multiple of 2 pi between its
    values at the two ends of the grid once.  For each such (branch, target)
    pair a binary search finds the grid cell of the crossing, probing the
    rows `np.searchsorted(branch, target)` probes on the whole lifted branch.
    The pairs search in step, one batched `eigvals` on the distinct probed
    rows a step, so only the rows some bracket needs are evaluated; then
    every bracket is bisected to 1e-11 (`_bisect_branches`).  The grid is
    never formed: its rows are computed where they are read (`_ArangeRows`).
    """
    n = Bm.shape[0]
    pad = TRACK_STEP
    grid = _ArangeRows(lo - pad, hi + pad + TRACK_STEP, TRACK_STEP)
    lift = _branch_lift(Bm, lengths, grid)
    first, last = lift(np.array([0, len(grid) - 1]))
    targets = [np.arange(np.ceil(a / (2 * np.pi)), np.floor(b / (2 * np.pi)) + 1)
               for a, b in zip(first, last)]
    branch = np.repeat(np.arange(n), [len(t) for t in targets])
    target = 2 * np.pi * np.concatenate(targets)
    # searchsorted's binary search, side 'left': the first row k with
    # branch[k] >= target lies in [left, right); f_left and f_right keep the
    # branch at rows left - 1 and right
    left = np.zeros(len(target), dtype=np.int64)
    right = np.full(len(target), len(grid))
    f_left = np.empty(len(target))
    f_right = np.empty(len(target))
    while True:
        act = np.flatnonzero(left < right)
        if not act.size:
            break
        mid = left[act] + ((right[act] - left[act]) >> 1)
        rows, inv = np.unique(mid, return_inverse=True)
        val = lift(rows)[inv, branch[act]]
        below = val < target[act]
        left[act[below]] = mid[below] + 1
        f_left[act[below]] = val[below]
        right[act[~below]] = mid[~below]
        f_right[act[~below]] = val[~below]
    ok = (left > 0) & (left < len(grid))
    roots = _bisect_branches(Bm, lengths, grid[left[ok] - 1], grid[left[ok]],
                             f_left[ok] - target[ok], f_right[ok] - target[ok])
    return roots[(lo - 1e-12 <= roots) & (roots <= hi + 1e-12)]


class _ArangeRows:
    """The rows of np.arange(start, stop, step), computed on demand: numpy
    fills row 1 with start + step and row k >= 2 with start + k delta, where
    delta = (start + step) - start, and its length is ceil((stop - start) /
    step).  Indexed by an int or an int array, bit for bit numpy's rows."""

    def __init__(self, start, stop, step):
        self.start = start
        self.second = start + step
        self.delta = self.second - start
        self.size = max(math.ceil((stop - start) / step), 0)

    def __len__(self):
        return self.size

    def __getitem__(self, rows):
        rows = np.asarray(rows)
        return np.where(rows == 1, self.second, self.start + rows * self.delta)


def _branch_lift(Bm, lengths, grid):
    """The eigenphases of B Diag(e^{i lam l}) on the grid lifted to continuous
    increasing branches, as a function of grid rows: lift(rows)[r, j] is
    branch j at grid[rows[r]], branch j starting at the j-th smallest phase
    at grid[0].

    The phases only increase in lambda (by Hellmann-Feynman at speeds in
    [min l, max l]), and det(B Diag(e^{i lam l})) = det B e^{i lam sum(l)}, so
    the branches sum to the phase sum at grid[0] plus (lam - grid[0]) sum(l).
    A row's sorted wrapped phases sum to that less 2 pi c, c being the number
    of crossings of pi since grid[0]; each crossing drops the top phase to the
    bottom, a cyclic shift, so branch j sits at sorted position (j + c) mod n
    with (j + c) // n turns of 2 pi behind it.  Every row is lifted from its
    own eigenvalues alone.
    """
    n = Bm.shape[0]
    total0 = _sorted_phases(Bm, lengths, grid[[0]]).sum()
    rate = np.sum(lengths)

    def lift(rows):
        phases = _sorted_phases(Bm, lengths, grid[rows])
        crossings = np.rint((total0 + (grid[rows] - grid[0]) * rate - phases.sum(axis=1))
                            / (2 * np.pi)).astype(np.int64)
        turns, pos = np.divmod(crossings[:, None] + np.arange(n), n)
        return np.take_along_axis(phases, pos, axis=1) + (2 * np.pi) * turns

    return lift


def _sorted_phases(Bm, lengths, lams):
    """Eigenphases of B Diag(e^{i lam l}) in (-pi, pi], sorted, a row per lam."""
    D = np.exp(1j * np.multiply.outer(lams, lengths))       # (N, n)
    stack = Bm[None, :, :] * D[:, None, :]                  # B @ diag(D) rowwise
    return np.sort(np.angle(np.linalg.eigvals(stack)), axis=1)


def _wrap(x):
    return np.angle(np.exp(1j * np.asarray(x)))


def _bisect_branches(Bm, lengths, a, b, fa, fb):
    """Bisect every bracket [a, b] of a (monotone) branch offset to 1e-11, in
    step: each step evaluates the midpoints of the brackets still wider than
    1e-11 in one batched `eigvals`, at most 64 steps.  The offset at a
    midpoint is the wrapped phase nearest the bracket's mean offset."""
    a, b, fa, fb = (np.array(x, dtype=float) for x in (a, b, fa, fb))
    for _ in range(64):
        act = np.flatnonzero(b - a >= 1e-11)
        if not act.size:
            break
        mid = 0.5 * (a[act] + b[act])
        d = _wrap(np.angle(np.linalg.eigvals(_phase_stack(Bm, lengths, mid))))
        near = np.argmin(np.abs(d - _wrap(0.5 * (fa[act] + fb[act]))[:, None]), axis=1)
        fm = d[np.arange(len(act)), near]
        up = fm <= 0
        a[act[up]], fa[act[up]] = mid[up], fm[up]
        b[act[~up]], fb[act[~up]] = mid[~up], fm[~up]
    return 0.5 * (a + b)


def _cluster(sorted_vals, tol):
    out = []
    for v in sorted_vals:
        if out and abs(v - out[-1][0]) <= tol:
            lam, m = out[-1]
            out[-1] = ((lam * m + v) / (m + 1), m + 1)
        else:
            out.append((v, 1))
    return out


# ---------------------------------------------------------------------------
# eigenbasis
# ---------------------------------------------------------------------------

def eigenbasis(B, partition: Partition, window, force_tracking: bool = False) -> Spectrum:
    """The characteristic spectrum with an orthonormal eigenbasis as its
    ``coefficients`` rows.

    The characteristic null vector c is the left-trace vector; the atom
    coefficients differ from it by the phase of e^{i lambda theta} at the
    left knot:  a_k = c_k e^{-i lambda t_{k-1}}, c scaled to unit L^2 norm:
    unit length in the metric <c, c'> = sum l_k conj(c_k) c'_k.

    On k equal pieces (unless `force_tracking`) the spectrum is
    `eigenphases`' closed form (`_ladder_spectrum`), and row i is rung
    i // k of ladder i % k: its null vector is the ladder's W column, one
    column a ladder, for every B.  On other partitions one SVD of
    `_certified_solve`'s stack gives the null vectors: a cluster of
    multiplicity m has the last m right singular vectors, and only clusters
    of multiplicity above 1 run `eigh` on the Gram matrix of their null
    space to orthonormalize it.
    """
    Bm, lengths, lo, hi = _problem(B, partition, window)
    tleft = np.asarray(partition.endpoints[:-1])
    if _equal_lengths(lengths) and not force_tracking:
        spec, ladder = _ladder_spectrum(Bm, lengths, lo, hi)
        W = spec.decomposition[1]
        unit = W / np.sqrt(lengths @ (W.real ** 2 + W.imag ** 2))
        return replace(spec, coefficients=np.exp(-1j * spec.eigenvalues[:, None] * tleft)
                       * unit.T[ladder])
    spec, lams, mults, stack = _certified_solve(Bm, lengths, lo, hi)
    vh = np.linalg.svd(stack)[2]
    phase = np.exp(-1j * lams[:, None] * tleft)
    c = vh[:, -1, :].conj()
    coef = np.repeat(phase * (c / np.sqrt((c.real ** 2 + c.imag ** 2) @ lengths)[:, None]),
                     mults, axis=0)
    starts = np.cumsum(mults) - mults
    for i in np.flatnonzero(mults > 1):
        C = vh[i, len(lengths) - mults[i]:].conj().T     # columns: trace vectors
        G = C.conj().T @ (lengths[:, None] * C)
        evals, evecs = np.linalg.eigh(G)
        coef[starts[i]:starts[i] + mults[i]] = (C @ evecs / np.sqrt(evals)).T * phase[i]
    return replace(spec, coefficients=coef)


# ---------------------------------------------------------------------------
# finite-difference cross-check
# ---------------------------------------------------------------------------

def fd_matrix(ext: Extension, N: int):
    """First-order upwind matrix for (1/i) d/dtheta with boundary rows.

    Interior rows: (1/(i h)) (psi_q - psi_{q-1}).  The first row of piece k
    has no left neighbour inside the piece; its psi_{q-1} is the knot value,
    supplied through the discretized relation L = B R as
    sum_j B_{kj} psi_{last grid point of piece j}.
    """
    import scipy.sparse as sp

    if N < 64:
        raise ValidationError("N >= 64 required")
    part = ext.spec.effective_partition
    Bm = ext.boundary.matrix
    h = 1.0 / N
    first = [int(round(t * N)) for t in part.endpoints[:-1]]
    if len(set(first)) != len(first):
        raise ValidationError("grid too coarse to separate the knots")
    last = first[1:] + [N]
    last = [i - 1 for i in last]

    rows, cols, vals = [], [], []
    scale = 1.0 / (1j * h)
    firstset = set(first)
    for q in range(N):
        rows.append(q)
        cols.append(q)
        vals.append(scale)
        if q not in firstset:
            rows.append(q)
            cols.append(q - 1)
            vals.append(-scale)
    for k, q in enumerate(first):
        for j, qlast in enumerate(last):
            b = Bm[k, j]
            if b != 0:
                rows.append(q)
                cols.append(qlast)
                vals.append(-scale * b)
    return sp.csr_matrix((vals, (rows, cols)), shape=(N, N), dtype=complex)


#: pitch of the fixed shift-invert lattice lo + 0.137 + FD_LATTICE_STEP Z; a
#: target owns the eigenvalues whose real part lies within half a pitch of it,
#: so the cells tile the window
FD_LATTICE_STEP = np.pi
FD_FIRST_CHECK = 4     # block iterations before the first Rayleigh-Ritz check


def _rayleigh_ritz(A, Q):
    """Ritz values of A on the orthonormal block Q, and which of them pass the
    true-residual test |A x - v x| < 1e-8 (1 + |v|) |x|."""
    H = Q.conj().T @ (A @ Q)
    vals, vecs = np.linalg.eig(H)
    X = Q @ vecs
    res = np.linalg.norm(A @ X - X * vals[None, :], axis=0) / np.linalg.norm(X, axis=0)
    return vals, res < 1e-8 * (1.0 + np.abs(vals))


def _cell_converged(vals, converged, sigma, before):
    """Stop test of `_ritz_near`: (stop, number of Ritz values in sigma's cell).

    Stop once every Ritz value in the cell |Re v - sigma| <= FD_LATTICE_STEP/2
    has converged and the cell holds as many as at the previous check.
    """
    cell = np.abs(vals.real - sigma.real) <= FD_LATTICE_STEP / 2
    count = int(np.sum(cell))
    return bool(np.all(converged[cell])) and count == before, count


def _ritz_near(A, sigma: complex, k: int, iters: int = 30, seed: int = 0):
    """Converged eigenvalues of sparse A nearest sigma, multiplicity included.

    Block inverse iteration with (A - sigma I)^{-1} followed by a
    (non-Hermitian) Rayleigh-Ritz step.  A random block of width k covers
    degenerate eigenspaces, which single-vector Krylov methods may miss.
    From iteration FD_FIRST_CHECK on, Rayleigh-Ritz runs after every
    iteration, and the iteration stops once the values in sigma's own lattice
    cell have all converged and their number held since the previous check
    (`_cell_converged`); `iters` caps it.  Ritz values are kept only when
    their true residual is small.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    N = A.shape[0]
    lu = spla.splu((A - sigma * sp.identity(N, dtype=complex, format="csc")).tocsc())
    rng = np.random.default_rng(seed)
    Q = rng.normal(size=(N, k)) + 1j * rng.normal(size=(N, k))
    Q, _ = np.linalg.qr(Q)
    count = None
    for it in range(1, iters + 1):
        Q, _ = np.linalg.qr(lu.solve(Q))
        if it < FD_FIRST_CHECK and it < iters:
            continue
        vals, converged = _rayleigh_ritz(A, Q)
        stop, count = _cell_converged(vals, converged, sigma, count)
        if stop:
            break
    return vals[converged]


def fd_spectrum(ext: Extension, N: int, window) -> Spectrum:
    """Eigenvalues of the upwind matrix with real part in the window.

    Dense solve for small N; for large N, block shift-invert iteration at a
    fixed lattice of real targets spaced FD_LATTICE_STEP (pi) across the
    window.  The lattice is independent of B, keeping this route a genuine
    cross-check.  Each target iterates until the eigenvalues in its own cell,
    within half a pitch of it, have converged and their count is stable, at
    most 30 iterations (`_ritz_near`); the cells tile the window, so every
    eigenvalue in it is converged by the target that owns it.  Values found
    from several targets are merged with their per-target multiplicities.
    """
    lo, hi = float(window[0]), float(window[1])
    if hi < lo:
        raise ValidationError("empty window: hi < lo")
    A = fd_matrix(ext, N)
    if N <= 600:
        mu = np.linalg.eigvals(A.toarray())
    else:
        n_ext = ext.spec.deficiency_index
        k = max(10, 4 * n_ext + 2)
        targets = np.arange(lo, hi + FD_LATTICE_STEP, FD_LATTICE_STEP) + 0.137
        merged = []  # list of (value, multiplicity)
        for sigma in targets:
            batch = _ritz_near(A, complex(sigma), k)
            batch = batch[np.lexsort((batch.imag, batch.real))]
            clusters = []
            for v in batch:
                if clusters and abs(v - clusters[-1][0]) < 1e-9 * (1.0 + abs(v)):
                    val, m = clusters[-1]
                    clusters[-1] = ((val * m + v) / (m + 1), m + 1)
                else:
                    clusters.append((v, 1))
            for v, m in clusters:
                hit = False
                for idx, (w, wm) in enumerate(merged):
                    if abs(v - w) < 1e-7 * (1.0 + abs(v)):
                        merged[idx] = (w, max(wm, m))
                        hit = True
                        break
                if not hit:
                    merged.append((v, m))
        mu = np.asarray([v for v, m in merged for _ in range(m)])
    # keep only the consistent branch of the upwind eigenvalue circle:
    # genuine modes have damping Im(mu) ~ -lambda^2/(2N); the spurious
    # mirror modes (same real part, sigma near pi) are damped like -2N
    sel = (mu.real >= lo) & (mu.real <= hi) & (mu.imag >= -0.3 * N)
    mu = mu[sel]
    order = np.argsort(mu.real)
    mu = mu[order]
    lengths = ext.spec.effective_partition.lengths
    residuals = np.abs(mu.imag) + _residuals(_characteristic_stack(ext.boundary.matrix, lengths,
                                                                   mu.real))
    return Spectrum(window=(lo, hi), eigenvalues=mu.real, residuals=residuals,
                    source="finite-difference")
