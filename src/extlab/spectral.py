"""Spectra and eigenbases of self-adjoint extensions.

An extension with boundary relation L = B R has eigenfunctions that are pure
phases a_k e^{i lambda theta} per piece; lambda is an eigenvalue exactly when

    det(I - B Diag(e^{i lambda l_k})) = 0.

Two independent routes are provided: the characteristic equation (closed form
for equal piece lengths, monotone eigenphase tracking + bisection in general)
and a first-order upwind finite-difference discretization used as a
cross-check oracle.
"""

from dataclasses import dataclass

import numpy as np

from .analysis import ExponentialAtom, Partition, PiecewiseFunction
from .errors import NumericalError, ValidationError
from .vonneumann import Extension, boundary_array

RESIDUAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted eigenvalues (repeated per multiplicity) in a window.

    ``residuals`` holds |det(I - B Diag(e^{i lambda l_k}))| per eigenvalue.
    For ``source='characteristic'`` these are bounded by 1e-9; for
    ``source='finite-difference'`` they are diagnostics of the scheme's
    O(lambda^2/N) error and carry no tolerance promise.
    """

    window: tuple
    eigenvalues: np.ndarray
    residuals: np.ndarray
    source: str = "characteristic"

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        rs = np.asarray(self.residuals, dtype=float)
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "residuals", rs)

    def __len__(self):
        return len(self.eigenvalues)

    def grouped(self, tol: float = 1e-8):
        """(value, multiplicity) pairs, clustering within tol."""
        return _cluster(self.eigenvalues, tol)


@dataclass(frozen=True, eq=False)
class EigenPair:
    eigenvalue: float
    eigenfunction: PiecewiseFunction


def _characteristic_matrix(B: np.ndarray, lengths, lam: float) -> np.ndarray:
    """I - B Diag(e^{i lambda l_k})."""
    return np.eye(B.shape[0]) - B @ np.diag(np.exp(1j * lam * np.asarray(lengths)))


def characteristic_residual(B: np.ndarray, lengths, lam: float) -> float:
    return float(abs(np.linalg.det(_characteristic_matrix(B, lengths, lam))))


def _characteristic_stack(B: np.ndarray, lengths, lams) -> np.ndarray:
    """The (K, n, n) stack of I - B Diag(e^{i lambda l_k}), one per lambda,
    entry for entry the matrices `_characteristic_matrix` builds one at a time
    (B times a diagonal goes through the same matmul)."""
    n = B.shape[0]
    diag = np.zeros((len(lams), n, n), dtype=complex)
    diag[:, np.arange(n), np.arange(n)] = np.exp(1j * lams[:, None] * np.asarray(lengths))
    return np.eye(n) - B @ diag


# ---------------------------------------------------------------------------
# characteristic-equation route
# ---------------------------------------------------------------------------

def eigenphases(B, partition: Partition, window, force_tracking: bool = False) -> Spectrum:
    """All eigenvalues in the window from the characteristic equation.

    Equal piece lengths l: exact closed form lambda = (2 pi m - phi_j)/l from
    the eigenphases e^{i phi_j} of B.  General lengths: the eigenphases of
    B Diag(e^{i lambda l_k}) increase strictly in lambda with speed between
    min(l) and max(l); they are lifted to branches on a grid of 4096 points
    per 4 pi in one array pass (a cyclic shift of each sorted row, counted
    from the phase sums; see `_lifted_phases`), and each branch's crossings
    of 2 pi Z are bisected to 1e-11.

    The roots are clustered within 1e-9, and the characteristic matrices of
    all clusters are checked as one (K, n, n) stack: one singular-value call
    gives every multiplicity, one `det` call every residual, bit for bit what
    the one-matrix calls give.
    """
    Bm = boundary_array(B)
    lo, hi = float(window[0]), float(window[1])
    if hi < lo:
        raise ValidationError("empty window: hi < lo")
    lengths = np.asarray(partition.lengths)
    if Bm.shape[0] != len(lengths):
        raise ValidationError("boundary matrix size does not match partition")

    equal = np.max(np.abs(lengths - lengths[0])) < 1e-12
    if equal and not force_tracking:
        roots = _closed_form_roots(Bm, float(lengths[0]), lo, hi)
    else:
        roots = _tracked_roots(Bm, lengths, lo, hi)

    roots = np.sort(np.asarray(roots))
    lams = np.asarray([lam for lam, _mult in _cluster(roots, 1e-9)], dtype=float)
    stack = _characteristic_stack(Bm, lengths, lams)
    mults = _nullity(np.linalg.svd(stack, compute_uv=False))
    det = np.linalg.det(stack)
    # hypot is what abs() of one complex scalar computes; np.abs on an array
    # may round differently
    res = np.hypot(det.real, det.imag)
    bad = np.flatnonzero(res > RESIDUAL_TOL)
    if bad.size:
        raise NumericalError(f"characteristic residual {res[bad[0]]:.2e} at lambda={lams[bad[0]]!r}")
    return Spectrum(window=(lo, hi), eigenvalues=np.repeat(lams, mults),
                    residuals=np.repeat(res, mults), source="characteristic")


def _closed_form_roots(Bm, ell, lo, hi):
    phis = np.angle(np.linalg.eigvals(Bm))
    roots = []
    for phi in phis:
        # lambda * ell = -phi + 2 pi m
        m_lo = int(np.floor((lo * ell + phi) / (2 * np.pi))) - 1
        m_hi = int(np.ceil((hi * ell + phi) / (2 * np.pi))) + 1
        for m in range(m_lo, m_hi + 1):
            lam = (2 * np.pi * m - phi) / ell
            if lo - 1e-12 <= lam <= hi + 1e-12:
                roots.append(lam)
    return roots


TRACK_STEP = (4 * np.pi) / 4096   # grid pitch pinned: 4096 points per 4pi window
TRACK_CHUNK = 4096                  # grid points per batched eigvals call


def _tracked_roots(Bm, lengths, lo, hi):
    """Roots of the eigenphase branches of B Diag(e^{i lam l}) in [lo, hi].

    Each branch is lifted on the grid (`_lifted_phases`); every crossing of a
    multiple of 2 pi is bisected to 1e-11.
    """
    n = Bm.shape[0]
    pad = TRACK_STEP
    grid = np.arange(lo - pad, hi + pad + TRACK_STEP, TRACK_STEP)
    lifted = _lifted_phases(Bm, lengths, grid)
    roots = []
    for j in range(n):
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
    return roots


def _lifted_phases(Bm, lengths, grid):
    """Eigenphases of B Diag(e^{i lam l}) on the grid, lifted to continuous
    increasing branches: column j starts at the j-th smallest phase.

    The phases only increase in lambda (by Hellmann-Feynman at speeds in
    [min l, max l]), so a sorted row of wrapped phases changes between grid
    points only by the phases that crossed pi dropping from the top to the
    bottom: a cyclic shift.  Their sum rises by exactly step * sum(l) per
    cell, so the drop in the wrapped sum counts the crossings, and c_i, the
    crossings up to row i, places branch j at sorted position (j + c_i) mod n
    with (j + c_i) // n turns of 2 pi behind it.

    The grid goes through eigvals TRACK_CHUNK points at a time, so beyond the
    (grid, n) result the memory is O(TRACK_CHUNK n^2) whatever the window.
    """
    n = Bm.shape[0]
    lifted = np.empty((len(grid), n))
    shift = 0
    for s in range(0, len(grid), TRACK_CHUNK):
        # a chunk starts at the previous chunk's last row, whose shift is
        # known, so the cell between the two chunks is counted too
        start = max(s - 1, 0)
        chunk = grid[start:s + TRACK_CHUNK]
        phases = np.sort(np.angle(np.linalg.eigvals(_stacked(Bm, lengths, chunk))), axis=1)
        total = phases.sum(axis=1)
        crossings = np.rint((total[:-1] + np.diff(chunk) * np.sum(lengths) - total[1:])
                            / (2 * np.pi)).astype(np.int64)
        shifts = shift + np.concatenate(([0], np.cumsum(crossings)))
        turns, pos = np.divmod(shifts[:, None] + np.arange(n), n)
        lifted[start:start + len(chunk)] = (np.take_along_axis(phases, pos, axis=1)
                                            + (2 * np.pi) * turns)
        shift = shifts[-1]
    return lifted


def _stacked(Bm, lengths, grid):
    D = np.exp(1j * np.multiply.outer(grid, lengths))       # (N, n)
    return Bm[None, :, :] * D[:, None, :]                   # B @ diag(D) rowwise


def _wrap(x):
    return np.angle(np.exp(1j * np.asarray(x)))


def _branch_offset(Bm, lengths, lam, near_zero_guess):
    """Signed offset of the branch phase nearest the target multiple of 2pi."""
    ph = np.angle(np.linalg.eigvals(Bm @ np.diag(np.exp(1j * lam * lengths))))
    d = _wrap(ph)
    return d[np.argmin(np.abs(d - _wrap(near_zero_guess)))]


def _bisect_branch(Bm, lengths, a, b, fa, fb):
    """Bisect the (monotone) branch offset to 1e-11."""
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


def _cluster(sorted_vals, tol):
    out = []
    for v in sorted_vals:
        if out and abs(v - out[-1][0]) <= tol:
            lam, m = out[-1]
            out[-1] = ((lam * m + v) / (m + 1), m + 1)
        else:
            out.append((v, 1))
    return out


def _nullity(sv):
    """Null dimensions of characteristic matrices from their singular values,
    one row (descending) per matrix."""
    # threshold floored at the natural scale 1 of I - (unitary)(unitary):
    # at a full-multiplicity eigenvalue the matrix is numerically zero and a
    # purely relative cut would see rank where there is none
    return np.sum(sv < 1e-8 * np.maximum(sv[:, :1], 1.0), axis=1)


# ---------------------------------------------------------------------------
# eigenbasis
# ---------------------------------------------------------------------------

def eigenbasis(B, partition: Partition, window, force_tracking: bool = False):
    """EigenPairs for every eigenvalue in the window, sorted by eigenvalue.

    The characteristic null vector c is the left-trace vector; the atom
    coefficients differ from it by the phase of e^{i lambda theta} at the
    left knot:  a_k = c_k e^{-i lambda t_{k-1}}.  Within a degenerate cluster
    the functions are orthonormalized in L^2 (the length-weighted metric on
    coefficient vectors).

    The characteristic matrices of all clusters go through one stacked SVD,
    whose last right singular vectors are the null vectors.  A simple
    eigenvalue's vector is scaled to unit length in that metric directly;
    only clusters of multiplicity above 1 run `eigh` on their Gram matrix.
    """
    Bm = boundary_array(B)
    spec = eigenphases(Bm, partition, window, force_tracking=force_tracking)
    lengths = np.asarray(partition.lengths)
    tleft = np.asarray(partition.endpoints[:-1])
    lams = np.asarray([lam for lam, _mult in spec.grouped(tol=1e-9)], dtype=float)
    _, sv, vh = np.linalg.svd(_characteristic_stack(Bm, lengths, lams))
    nullity = _nullity(sv)
    if np.any(nullity == 0):
        lam = lams[np.argmin(nullity)]
        raise NumericalError(f"no null direction at lambda={lam!r} (residual too large)")
    phase = np.exp(-1j * lams[:, None] * tleft)
    # simple eigenvalues: c / ||c|| in the length-weighted metric
    # <c, c'> = sum l_k conj(c_k) c'_k
    c = vh[:, -1, :].conj()
    simple = phase * (c / np.sqrt((c.real ** 2 + c.imag ** 2) @ lengths)[:, None])
    pairs = []
    for i, lam in enumerate(lams):
        if nullity[i] == 1:
            coefs = simple[i:i + 1]
        else:
            C = vh[i, len(lengths) - nullity[i]:].conj().T     # columns: trace vectors
            G = C.conj().T @ (lengths[:, None] * C)
            evals, evecs = np.linalg.eigh(G)
            coefs = (C @ evecs / np.sqrt(evals)).T * phase[i]
        for a in coefs:
            atoms = tuple(ExponentialAtom(k, a[k], 1j * lam) for k in range(len(lengths)))
            pairs.append(EigenPair(lam, PiecewiseFunction(partition, atoms)))
    pairs.sort(key=lambda p: p.eigenvalue)
    return pairs


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
    residuals = np.asarray([
        abs(m.imag) + characteristic_residual(ext.boundary.matrix, lengths, m.real)
        for m in mu
    ])
    return Spectrum(window=(lo, hi), eigenvalues=mu.real, residuals=residuals,
                    source="finite-difference")
