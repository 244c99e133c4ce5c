"""Index pairings between unitary loops and self-adjoint extensions.

The pairing of a loop u with the extension T_B is the Fredholm index of the
compression P M_u P, where P projects onto the nonnegative spectral subspace
of T_B (zero included) and M_u is multiplication by u.  Three routes are
combined, from cheapest to most general:

1. ``finite-section``: truncate to eigenfunctions with eigenvalue in [0, L]
   over a schedule of cutoffs L and count numerical kernels/cokernels.  The
   output rows are extended past L by the loop's frequency reach, which makes
   the truncation *exact* whenever the loop shifts the eigenvalue ladders of
   T_B onto themselves (anti-diagonal B with any loop, even frequency content
   with any B).  A singular-value stability guard refuses to certify runs
   whose smallest retained singular value keeps decaying: in the remaining
   cases the true kernel vectors have slowly decaying tails and a fixed
   threshold would report a stable *wrong* answer.
2. ``symbol-winding``: the compression is unitarily a block Toeplitz operator
   with a 2x2 piecewise-continuous matrix symbol; its index is minus the
   winding of det(symbol) completed across the seam jump by a straight chord.
   Exact for every Fredholm case, certified by integrality and chord margin.
3. ``extension-independence``: when the compression for this particular B is
   genuinely not Fredholm (the chord determinant passes through zero, which
   happens e.g. for B = I against odd-winding loops), the pairing of the
   class is evaluated on the canonical anti-diagonal representative, for
   which the compression is always Fredholm.

Results report the route used; whenever routes 1 and 2 both certify they are
compared and any disagreement is raised, never silently resolved.
"""

from dataclasses import dataclass
import math

import numpy as np

from .analysis import ExponentialAtom, Partition, PiecewiseFunction, exp_integral, inner_product, multiply
from .errors import (
    BandwidthError,
    IllConditionedLoopError,
    NumericalError,
    StructuralError,
    ValidationError,
)
from .spectral import eigenbasis
from .vonneumann import OperatorSpec, boundary_array, minimal_domain_sample

TWO_PI = 2.0 * np.pi

#: pinned truncation schedule (about 32..256 basis vectors on the default knots)
DEFAULT_CUTOFFS = (32 * np.pi, 64 * np.pi, 128 * np.pi, 256 * np.pi)

#: numerical-kernel threshold for compressed blocks
KERNEL_TOL = 1e-7

#: the finite-section guard: the smallest retained singular value must not
#: decay by more than these factors (last step / whole schedule)
GUARD_STEP = 0.90
GUARD_TOTAL = 0.70

#: spectral padding of the output rows past a cutoff, beyond the loop's reach
PAD = 8 * np.pi

#: the widest eigenbasis window a pairing may ask for (about 2048 basis vectors
#: on the default knots); wider schedules or loops are refused as invalid input
MAX_BASIS_WINDOW = 4096 * np.pi

MARGIN = 0.1
_MARGIN_POINTS = 4096      # the modulus check's grid k / 4096


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class UnitaryLoop:
    """An invertible function on the circle, or a compatible pair on a wedge.

    Internally a loop is a tuple of pieces ``(lo, hi, ((nu, c), ...))``, each
    a finite sum of c e^{i nu theta} on [lo, hi).  A plain Fourier series is
    the single piece [0, 1) with nu = 2 pi m; ``coefficients`` then exposes
    the series.  Pullbacks of wedge pairs stay exact in this representation
    (piecewise with nu = 4 pi m), see ``pullback_loop``.
    """

    pieces: tuple = None
    coefficients: dict = None
    wedge: tuple = None

    def __post_init__(self):
        if self.wedge is not None:
            u1, u2 = self.wedge
            if abs(u1(0.0) - u2(0.0)) > 1e-12:
                raise ValidationError("wedge components disagree at the base point")
            return
        if self.pieces is None:
            raise StructuralError("a non-wedge loop needs pieces")
        object.__setattr__(self, "pieces", _normalize_pieces(self.pieces))
        vals = np.abs(self.grid(_MARGIN_POINTS))
        if np.min(vals) <= MARGIN:
            raise IllConditionedLoopError(
                f"loop modulus min {np.min(vals):.4f} <= margin {MARGIN}"
            )

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_fourier(cls, coefficients: dict) -> "UnitaryLoop":
        clean = {int(m): complex(c) for m, c in coefficients.items()}
        return cls(pieces=((0.0, 1.0, _fourier_terms(coefficients)),), coefficients=clean)

    @classmethod
    def monomial(cls, n: int) -> "UnitaryLoop":
        return cls.from_fourier({int(n): 1.0})

    @classmethod
    def constant(cls, c=1.0) -> "UnitaryLoop":
        return cls.from_fourier({0: c})

    @classmethod
    def wedge_pair(cls, u1: "UnitaryLoop", u2: "UnitaryLoop") -> "UnitaryLoop":
        if u1.wedge is not None or u2.wedge is not None:
            raise StructuralError("wedge components must be circle loops")
        return cls(wedge=(u1, u2))

    # -- basic queries ---------------------------------------------------------

    @property
    def is_wedge(self) -> bool:
        return self.wedge is not None

    def __call__(self, theta):
        if self.is_wedge:
            raise StructuralError("a wedge pair has no single-circle values; pull it back")
        th = np.asarray(theta, dtype=float)
        if not np.all((th >= 0.0) & (th < 1.0)):
            # np.mod is the identity on [0, 1), and costs more than the check
            th = np.mod(th, 1.0)
        out = _evaluate(self.pieces, np.atleast_1d(th))
        return out[0] if th.ndim == 0 else out

    def grid(self, npoints: int, offset: float = 0.0) -> np.ndarray:
        """Values at the uniform grid (k + offset) / npoints, k < npoints
        (see `_grid_values`)."""
        if self.is_wedge:
            raise StructuralError("a wedge pair has no single-circle values; pull it back")
        return _grid_values(self.pieces, npoints, offset)

    def conjugate(self) -> "UnitaryLoop":
        if self.is_wedge:
            return UnitaryLoop(wedge=(self.wedge[0].conjugate(), self.wedge[1].conjugate()))
        pieces = tuple(
            (lo, hi, tuple((-nu, np.conj(c)) for nu, c in terms))
            for lo, hi, terms in self.pieces
        )
        coeffs = None
        if self.coefficients is not None:
            coeffs = {-m: np.conj(c) for m, c in self.coefficients.items()}
        # |conj(u)| = |u|: the modulus check this loop passed holds for its
        # conjugate, which is built without repeating it
        loop = object.__new__(UnitaryLoop)
        for name, value in (("pieces", pieces), ("coefficients", coeffs), ("wedge", None)):
            object.__setattr__(loop, name, value)
        return loop

    def product(self, other: "UnitaryLoop") -> "UnitaryLoop":
        """Pointwise product (stays exact: exponents add on a common refinement)."""
        if self.is_wedge or other.is_wedge:
            raise StructuralError("products of wedge pairs are not defined here")
        cuts = _cuts([p[0] for p in self.pieces], other.pieces)
        pieces = []
        for lo, hi in zip(cuts, cuts[1:]):
            mid = 0.5 * (lo + hi)
            terms = _convolve(_terms_at(self.pieces, mid), _terms_at(other.pieces, mid))
            pieces.append((lo, hi, tuple(sorted(terms.items()))))
        coeffs = None
        if self.coefficients is not None and other.coefficients is not None:
            coeffs = _convolve(self.coefficients.items(), other.coefficients.items())
        return UnitaryLoop(pieces=tuple(pieces), coefficients=coeffs)

    @property
    def frequency_reach(self) -> float:
        """max |nu| over all terms — how far M_u can shift eigenfrequencies."""
        return max((abs(nu) for _lo, _hi, terms in self.pieces for nu, _c in terms),
                   default=0.0)

    def fourier_coefficients(self, bandwidth: int, tol: float = 1e-10) -> dict:
        """Re-expansion as a plain Fourier series up to the given bandwidth.

        The L^2 re-expansion residual is computed exactly via Parseval; if it
        exceeds `tol` the loop genuinely needs a larger bandwidth (piecewise
        loops with mismatched halves have 1/m coefficient tails and may admit
        no acceptable finite bandwidth).
        """
        if self.is_wedge:
            raise StructuralError("pull a wedge pair back before re-expanding")
        ms = np.arange(-bandwidth, bandwidth + 1)
        cm = np.zeros(len(ms), dtype=complex)
        norm2 = 0.0
        for lo, hi, terms in self.pieces:
            nus, cs = (np.array(v) for v in zip(*terms))
            cm += exp_integral(1j * (nus[None, :] - TWO_PI * ms[:, None]), lo, hi) @ cs
            gram = exp_integral(1j * (nus[None, :] - nus[:, None]), lo, hi)
            norm2 += (cs.conj() @ gram @ cs).real
        coeffs = dict(zip(ms.tolist(), cm))
        residual2 = norm2 - sum(abs(c) ** 2 for c in coeffs.values())
        if residual2 > tol ** 2 * max(norm2, 1.0) + 1e-15:
            raise BandwidthError(
                f"re-expansion residual {np.sqrt(max(residual2, 0.0)):.3e} above {tol:.0e}; "
                f"a larger bandwidth than M={bandwidth} is required"
            )
        return coeffs


def _normalize_pieces(pieces):
    """Loop pieces as floats and complex coefficients, checked to cover [0, 1]."""
    pieces = tuple(
        (float(lo), float(hi), tuple((float(nu), complex(c)) for nu, c in terms))
        for lo, hi, terms in pieces
    )
    if abs(pieces[0][0]) > 1e-12 or abs(pieces[-1][1] - 1.0) > 1e-12:
        raise ValidationError("loop pieces must cover [0, 1]")
    return pieces


def _fourier_terms(coefficients: dict):
    """The (nu, c) terms of a Fourier series {m: c}, with nu = 2 pi m."""
    return tuple(sorted(((TWO_PI * m, complex(c)) for m, c in coefficients.items()),
                        key=lambda t: t[0]))


def _convolve(a, b) -> dict:
    """{k1 + k2: sum of c1 c2} over the (k, c) pairs of a and of b."""
    out = {}
    for k1, c1 in a:
        for k2, c2 in b:
            out[k1 + k2] = out.get(k1 + k2, 0.0) + c1 * c2
    return out


def _terms_at(pieces, theta: float):
    for lo, hi, terms in pieces:
        if lo <= theta < hi:
            return terms
    return pieces[-1][2]


def _cuts(endpoints, pieces):
    """Sorted points of the common refinement of knots and piece breaks."""
    return sorted({round(t, 15) for t in endpoints}
                  | {round(p[0], 15) for p in pieces} | {1.0})


def _cis(x: np.ndarray) -> np.ndarray:
    """e^{i x} as cos x + i sin x: numpy's complex exp takes twice as long."""
    e = np.empty(x.shape, dtype=complex)
    np.cos(x, out=e.real)
    np.sin(x, out=e.imag)
    return e


def _evaluate(pieces, th: np.ndarray) -> np.ndarray:
    """Values of a piece tuple at points of [0, 1], half-open [lo, hi) pieces."""
    out = np.zeros(th.shape, dtype=complex)
    for sel, (_lo, _hi, terms) in zip(_piece_selections(pieces, th), pieces):
        t = th[sel]
        for nu, c in terms:
            out[sel] += c * _cis(nu * t)
    return out


def _grid_values(pieces, npoints: int, offset: float = 0.0) -> np.ndarray:
    """`_evaluate` on the uniform grid theta_k = (k + offset) / npoints,
    k < npoints, by angle addition.

    With S = ceil(sqrt(npoints)) and k = q S + r (0 <= r < S),

        e^{i nu theta_k} = e^{i nu q S / npoints} e^{i nu (r + offset) / npoints},

    so cos and sin are taken on about 2 sqrt(npoints) angles per term instead
    of npoints: the values form a (q, r) table whose rows inside a piece are
    one outer product per term, written in place; the at most two rows a
    piece shares with its neighbours are filled point by point.  Points are
    assigned to pieces as `_piece_selections` assigns the grid
    (`_grid_edge`).  Each factor's angle is rounded once, like the direct
    nu theta_k, and the product adds a rounding error or two, so a value
    differs from `_evaluate`'s by about (|nu| + 2) eps |c| per term.
    """
    step = math.isqrt(max(npoints - 1, 0)) + 1
    rows = -(-npoints // step)
    coarse = np.arange(rows) * step / npoints
    fine = (np.arange(step) + offset) / npoints
    table = np.zeros((rows, step), dtype=complex)
    flat = table.reshape(-1)
    edges = [0, *(_grid_edge(p[0], npoints, offset) for p in pieces[1:]), npoints]
    for start, stop, (_lo, _hi, terms) in zip(edges, edges[1:], pieces):
        if stop <= start:
            continue
        inner = slice(-(-start // step), stop // step)    # rows wholly in the piece
        shared = {start // step, (stop - 1) // step} - set(range(rows)[inner])
        for i, (nu, c) in enumerate(terms):
            row = c * _cis(nu * coarse)
            col = _cis(nu * fine)
            if i == 0:
                np.multiply.outer(row[inner], col, out=table[inner])
            else:
                table[inner] += np.multiply.outer(row[inner], col)
            for q in shared:
                a, b = max(start, q * step), min(stop, (q + 1) * step)
                flat[a:b] += row[q] * col[a - q * step:b - q * step]
    return flat[:npoints]


def _grid_edge(lo: float, npoints: int, offset: float) -> int:
    """The first k with (k + offset) / npoints >= lo, clipped to [0, npoints]:
    where `np.searchsorted` puts lo in the grid, found without forming it."""
    k = min(max(math.ceil(lo * npoints - offset), 0), npoints)
    while k > 0 and (k - 1 + offset) / npoints >= lo:
        k -= 1
    while k < npoints and (k + offset) / npoints < lo:
        k += 1
    return k


def _piece_selections(pieces, th: np.ndarray):
    """Per piece, the index of the points of th in it: a point lies in the
    last piece whose start it has reached (the first piece also takes th < 0,
    the last one th >= 1).  Sorted points, such as a grid, get slices."""
    starts = [p[0] for p in pieces[1:]]
    if not starts or np.all(th[1:] >= th[:-1]):
        edges = [0, *np.searchsorted(th, starts), len(th)]
        return [slice(a, b) for a, b in zip(edges, edges[1:])]
    idx = np.zeros(th.shape, dtype=np.intp)
    for lo in starts:
        idx += th >= lo
    return [np.flatnonzero(idx == k) for k in range(len(pieces))]


# ---------------------------------------------------------------------------
# winding
# ---------------------------------------------------------------------------

def winding(loop: UnitaryLoop, ngrid: int = 4096) -> int:
    """(1/2pi) x total unwrapped argument increment around the circle."""
    if loop.is_wedge:
        raise StructuralError("wedge pairs have no single winding; pull back first")
    vals = loop.grid(ngrid)
    mods = np.abs(vals)
    if np.min(mods) <= MARGIN:
        raise IllConditionedLoopError(f"modulus {np.min(mods):.4f} below margin {MARGIN}")
    steps = np.angle(np.roll(vals, -1) / vals)
    if np.max(np.abs(steps)) >= np.pi - 1e-9:
        raise IllConditionedLoopError("phase step >= pi on the winding grid")
    total = float(np.sum(steps)) / TWO_PI
    w = int(np.round(total))
    if abs(total - w) > 0.01:
        raise IllConditionedLoopError(f"winding residue {abs(total - w):.3e} too large")
    return w


# ---------------------------------------------------------------------------
# pullback along the pinch
# ---------------------------------------------------------------------------

def pullback_loop(wedge_loop: UnitaryLoop, pinch: str = "double-cover") -> UnitaryLoop:
    """Compose a wedge pair with the pinch p (theta -> 2 theta on each half).

    The result is exact: on [0, 1/2) it is u1(2 theta), on [1/2, 1) it is
    u2(2 theta - 1), and both halves are finite sums of e^{4 pi i m theta}
    (integer m makes the e^{-4 pi i m /2} phases collapse).  When the two
    halves carry identical coefficients the pieces merge into one plain
    Fourier series with doubled bandwidth.
    """
    if pinch != "double-cover":
        raise ValidationError(f"unknown pinch map {pinch!r}")
    if not wedge_loop.is_wedge:
        raise StructuralError("pullback_loop expects a wedge pair")
    u1, u2 = wedge_loop.wedge
    if u1.coefficients is None or u2.coefficients is None:
        raise StructuralError("wedge components must be plain Fourier loops")
    d1 = {2 * m: c for m, c in u1.coefficients.items()}
    d2 = {2 * m: c for m, c in u2.coefficients.items()}
    if d1 == d2:
        return UnitaryLoop.from_fourier(d1)
    return UnitaryLoop(pieces=((0.0, 0.5, _fourier_terms(d1)), (0.5, 1.0, _fourier_terms(d2))))


# ---------------------------------------------------------------------------
# compressed multiplication operators (finite sections)
# ---------------------------------------------------------------------------

def basis_window(cutoffs, reach: float) -> float:
    """Upper end cutoffs[-1] + reach + PAD of the eigenbasis window a schedule
    and a loop of this frequency reach need; ValidationError past
    MAX_BASIS_WINDOW, so callers can refuse a problem before building it."""
    hi = cutoffs[-1] + reach + PAD
    if hi > MAX_BASIS_WINDOW:
        raise ValidationError(
            f"eigenbasis window {hi:.6g} exceeds {MAX_BASIS_WINDOW:.6g} "
            "(lower the cutoffs or the loop's frequency reach)"
        )
    return hi


def eigen_arrays(B, partition: Partition, cutoffs, reach: float):
    """Read-only (lam, coef) arrays of the eigenbasis of T_B on the window
    [0, cutoffs[-1] + reach + PAD], coef[i, k] being the atom coefficient of
    eigenfunction i on piece k.

    One basis serves every loop whose frequency reach is at most `reach`:
    each finite section keeps the eigenvalues inside its own window.
    """
    hi = basis_window(cutoffs, reach)
    pairs = eigenbasis(B, partition, (-1e-9, hi))
    lam = np.asarray([p.eigenvalue for p in pairs], dtype=float)
    coef = np.zeros((len(pairs), partition.npieces), dtype=complex)
    for i, p in enumerate(pairs):
        for a in p.eigenfunction.atoms:
            coef[i, a.piece] += a.coefficient
    lam.flags.writeable = False
    coef.flags.writeable = False
    return lam, coef


def compression_matrix(loop: UnitaryLoop, partition: Partition,
                       lam_rows, coef_rows, lam_cols, coef_cols) -> np.ndarray:
    """A[i, j] = <psi_i, u psi_j> for eigenfunction rows/columns.

    On an interval [lo, hi) of the common refinement of knots and loop
    pieces, psi_i = a_i e^{i lam_i theta} and u = sum c e^{i nu theta}, so a
    term contributes conj(a_i) b_j c times the integral of e^{i D theta},
    D = nu + lam_j - lam_i.  The phase factors as
    e^{i nu t} e^{-i lam_i t} e^{i lam_j t}, so that integral times the
    coefficients is (r(hi) s(hi)^T - r(lo) s(lo)^T) / D with the row vector
    r(t) = -i c e^{i nu t} conj(a) e^{-i lam_rows t} and the column vector
    s(t) = b e^{i lam_cols t}: one (R x 2)(2 x C) product and one real
    reciprocal per interval and term, with no R x C exponentials.

    The quotient cancels digits where D is small, so the entries with
    |D| (hi - lo) < 0.1 go through `exp_integral` instead, whose
    near-resonant branch (a sinh closed form) is the one implementation of
    that integral; one call
    takes them for every interval and term.  The factored phases carry an
    absolute error of about |lam| eps each, so the other entries are off by
    about |lam| eps / |D| <= 10 |lam| eps (hi - lo): 10 |lam| eps relative
    to the integral's scale hi - lo.
    """
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
            # 1/inf = 0 drops the near entries from F; a complex array times a
            # real one is several times faster than numpy's complex F / D
            D.flat[near] = np.inf
            F *= np.divide(1.0, D, out=D)
            A += F
    near, d, weight, lo, hi = zip(*near_terms)
    sizes = [len(n) for n in near]
    np.add.at(A.reshape(-1), np.concatenate(near),
              np.concatenate(weight) * exp_integral(1j * np.concatenate(d),
                                                    np.repeat(lo, sizes), np.repeat(hi, sizes)))
    return A


def _numerical_kernel(A: np.ndarray):
    """(nullity, smallest retained relative singular value)."""
    sv = np.linalg.svd(A, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return min(A.shape), 0.0
    smax = sv[0]
    nullity = int(np.sum(sv < KERNEL_TOL * smax))
    retained = sv[sv >= KERNEL_TOL * smax]
    return nullity, float(retained[-1] / smax)


def _finite_section(loop: UnitaryLoop, partition: Partition, cutoffs, basis):
    """The truncation route over the cutoff schedule, on an `eigen_arrays` basis.

    Returns (plateau, indices, resolved, index).  `resolved` demands both the
    three-equal-indices plateau and a stable smallest retained singular value;
    a monotone singular-value decay is the signature of kernel vectors with
    slow tails, where a fixed threshold would plateau on a wrong integer.
    """
    reach = loop.frequency_reach
    # a basis built for a wider reach is cut to this loop's own window, by the
    # same rule the spectrum applies at a window's edge
    keep = basis[0] <= cutoffs[-1] + reach + PAD + 1e-12
    lam, coef = basis[0][keep], basis[1][keep]
    loop_conj = loop.conjugate()
    plateau, indices, smins = [], [], []
    for Lam in cutoffs:
        cols = lam <= Lam + 1e-9
        rows = lam <= Lam + reach + PAD + 1e-9
        lam_c, coef_c = lam[cols], coef[cols]
        lam_r, coef_r = lam[rows], coef[rows]
        A = compression_matrix(loop, partition, lam_r, coef_r, lam_c, coef_c)
        Ac = compression_matrix(loop_conj, partition, lam_r, coef_r, lam_c, coef_c)
        ker, smin_u = _numerical_kernel(A)
        coker, smin_c = _numerical_kernel(Ac)
        plateau.append((float(Lam), int(ker), int(coker)))
        indices.append(int(ker - coker))
        smins.append(min(smin_u, smin_c))
    plateau_ok = len(indices) >= 3 and len(set(indices[-3:])) == 1
    guard_ok = True
    if len(smins) >= 2 and smins[0] > 0:
        if smins[-1] < GUARD_STEP * smins[-2] and smins[-1] < smins[-2] < smins[0]:
            guard_ok = smins[-1] > GUARD_TOTAL * smins[0]
    resolved = plateau_ok and guard_ok and smins[-1] > 0
    return plateau, indices, resolved, (indices[-1] if indices else 0)


# ---------------------------------------------------------------------------
# the exact symbol route
# ---------------------------------------------------------------------------

def _chord_margin(vL: np.ndarray, vR: np.ndarray):
    """min |det((1-mu) vL + mu vR)| over mu in [0,1], via the exact quadratic.

    Returns (margin, scale, (a, b, c)) with det((1-mu) vL + mu vR) =
    a mu^2 + b mu + c, so callers can evaluate the chord determinant too.
    """
    q0 = np.linalg.det(vL)
    q1 = np.linalg.det(vR)
    qh = np.linalg.det(0.5 * (vL + vR))
    # q(mu) = a mu^2 + b mu + c with c = q0, a + b + c = q1, a/4 + b/2 + c = qh
    c = q0
    a = 2.0 * q1 + 2.0 * q0 - 4.0 * qh
    b = q1 - q0 - a
    scale = max(abs(q0), abs(q1), abs(qh), 1e-300)
    best = min(abs(q0), abs(q1))
    mus = np.linspace(0.0, 1.0, 2001)
    best = min(best, float(np.min(np.abs((a * mus + b) * mus + c))))
    if abs(a) > 1e-14 * scale:
        for r in np.roots([a, b, c]):
            if abs(r.imag) < 1e-7 and -1e-9 <= r.real <= 1 + 1e-9:
                best = min(best, float(abs((a * r.real + b) * r.real + c)))
    return best, scale, (a, b, c)


def _sandwich_matrix(W: np.ndarray) -> np.ndarray:
    """T[k, n j + l] = conj(W[k, j]) W[k, l] for an n x n matrix W.

    Row p of (U @ T).reshape(-1, n, n) is then W* diag(U[p]) W: one matmul
    conjugates a whole grid of diagonal symbols.
    """
    n = W.shape[0]
    return (W.conj()[:, :, None] * W[:, None, :]).reshape(n, n * n)


def symbol_index(loop: UnitaryLoop, B, partition: Partition = None,
                 ngrid: int = 8192):
    """Exact Fredholm index of P M_u P via its block-Toeplitz symbol.

    Diagonalizing B = W diag(e^{i phi_j}) W* splits T_B into eigenvalue
    ladders lambda = -2 phi_j + 4 pi m; unrolling the two half-circle pieces
    against these ladders shows the compression is Toeplitz with 2x2 symbol

        v(x) = G(x) W* diag(u(x/2), u((x+1)/2)) W G(x)^{-1},
        G(x) = diag(e^{i alpha_j x}),  alpha_j = phi_j - 2 pi [phi_j > 0],

    piecewise continuous with one jump at the seam x = 0 (Boettcher &
    Silbermann, Analysis of Toeplitz Operators).  The index is minus the
    winding of det v over (0,1) completed by the straight chord across the
    jump, provided the chord determinant stays away from zero; a chord through
    zero means the compression is genuinely not Fredholm for this B.

    G and the W-sandwich drop out of the determinant:

        det v(x) = det(W* W) u(x/2) u((x+1)/2),

    with det(W* W) = |det W|^2 > 0.  So the interior is read from the loop
    alone on the 2 ngrid-point midpoint grid, and B enters only through that
    positive factor and through the seam: the one-sided limits vL = v(1-) and
    vR = v(0+) are the only 2x2 symbols formed, and the chord determinant is
    the quadratic `_chord_margin` builds from them.

    Returns (index_or_None, diagnostics dict).
    """
    if partition is None:
        partition = Partition.default()
    lengths = np.asarray(partition.lengths)
    if len(lengths) != 2 or abs(lengths[0] - lengths[1]) > 1e-12:
        raise StructuralError("the symbol route is built for two equal pieces")
    w, W = np.linalg.eig(boundary_array(B))
    phi = np.angle(w)
    alpha = phi - TWO_PI * (phi > 0)

    u = loop.grid(2 * ngrid, 0.5)
    detv = abs(np.linalg.det(W)) ** 2 * u[:ngrid] * u[ngrid:]
    if np.min(np.abs(detv)) < 1e-9:
        return None, {"reason": "interior determinant degenerate"}
    darg = np.angle(detv[1:] / detv[:-1])
    if np.max(np.abs(darg)) > 0.5:
        raise NumericalError("symbol grid too coarse for safe unwinding")
    total = float(np.sum(darg))

    # the seam: x -> 1^- (loop periodicity) and x -> 0^+
    x = np.array([1.0, 0.0])
    U = loop(np.concatenate([x / 2.0, (x + 1.0) / 2.0])).reshape(2, 2).T
    g = np.exp(1j * np.outer(x, alpha))
    vL, vR = (U @ _sandwich_matrix(W)).reshape(2, 2, 2) * g[:, :, None] / g[:, None, :]
    margin, scale, (a, b, c) = _chord_margin(vL, vR)
    diag = {"chord_margin": margin, "chord_scale": scale}
    if margin < 1e-8 * scale:
        diag["reason"] = "chord determinant passes through zero (not Fredholm)"
        return None, diag

    mu = np.linspace(0.0, 1.0, 4097)
    detM = (a * mu + b) * mu + c
    dchord = np.angle(detM[1:] / detM[:-1])
    if np.max(np.abs(dchord)) > 0.5:
        raise NumericalError("chord grid too coarse for safe unwinding")
    total += float(np.sum(dchord))
    total += float(np.angle(detv[0] / detM[-1]))        # chord end -> first grid point
    total += float(np.angle(c / detv[-1]))              # last grid point -> v(1-)
    wind = total / TWO_PI
    iw = int(np.round(wind))
    diag["winding_residue"] = abs(wind - iw)
    if abs(wind - iw) > 1e-6:
        raise NumericalError(f"symbol winding {wind!r} is not integral")
    return -iw, diag


# ---------------------------------------------------------------------------
# the pairing
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PairingResult:
    """Outcome of <[u], [T_B]>.

    ``plateau`` always carries the raw finite-section data (cutoff, dim ker,
    dim coker) for the schedule, whatever route certified the index.
    ``method`` is 'finite-section', 'symbol-winding' or
    'extension-independence'; ``stable`` means the reported index is
    certified by its route.
    """

    index: int
    plateau: tuple
    stable: bool
    method: str


_CANONICAL_B = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def pair(loop: UnitaryLoop, B, cutoffs=None, partition: Partition = None,
         basis=None) -> PairingResult:
    """Index pairing of a loop with the extension of boundary matrix B.

    `basis` is an `eigen_arrays(B, partition, cutoffs, reach)` result with
    reach at least the (pulled-back) loop's frequency reach; sweeps build it
    once per B and share it between loops.  Without it the pairing builds its
    own at the loop's reach.
    """
    if loop.is_wedge:
        loop = pullback_loop(loop)
    if partition is None:
        partition = Partition.default()
    cutoffs = DEFAULT_CUTOFFS if cutoffs is None else tuple(cutoffs)
    Bm = boundary_array(B)
    if basis is None:
        basis = eigen_arrays(Bm, partition, cutoffs, loop.frequency_reach)

    plateau, indices, resolved, fs_index = _finite_section(loop, partition, cutoffs, basis)

    sym_available = (partition.npieces == 2
                     and abs(partition.lengths[0] - partition.lengths[1]) < 1e-12)
    sym_index, sym_diag = (None, {"reason": "partition not supported"})
    if sym_available:
        sym_index, sym_diag = symbol_index(loop, Bm, partition)
        if sym_index is not None:
            # certify by grid refinement
            check, _ = symbol_index(loop, Bm, partition, ngrid=16384)
            if check != sym_index:
                raise NumericalError("symbol winding disagreed across grid refinement")

    if sym_index is not None:
        # both routes certain: they must agree, and the cheaper one gets credit
        if resolved and fs_index != sym_index:
            raise NumericalError(
                f"route disagreement: finite-section {fs_index} vs symbol {sym_index}"
            )
        method = "finite-section" if resolved else "symbol-winding"
        return PairingResult(sym_index, tuple(plateau), True, method)
    if sym_available and "not Fredholm" in sym_diag.get("reason", ""):
        # the compression for this B has no index at all (exact chord zero);
        # any finite-section plateau here is an artifact of slow singular-value
        # decay.  The class pairing is evaluated on the canonical
        # anti-diagonal representative, whose compression is always Fredholm.
        canon, canon_diag = symbol_index(loop, _CANONICAL_B, partition)
        if canon is None:
            raise NumericalError(
                f"compression not Fredholm for B and for the canonical representative: "
                f"{canon_diag.get('reason')}"
            )
        return PairingResult(canon, tuple(plateau), True, "extension-independence")
    if resolved:
        # symbol route unavailable (general partition): the guarded plateau
        # stands only where it agrees with the index theorem, index = -winding
        wind = winding(loop)
        if fs_index != -wind:
            raise NumericalError(
                f"finite-section index {fs_index} disagrees with -winding {-wind}"
            )
        return PairingResult(fs_index, tuple(plateau), True, "finite-section")
    return PairingResult(fs_index, tuple(plateau), False, "finite-section")


# ---------------------------------------------------------------------------
# commutator diagnostics
# ---------------------------------------------------------------------------

def _multiplier_pieces(f):
    """Normalize a multiplier spec to loop pieces.

    Accepts a UnitaryLoop, a dict of Fourier coefficients {m: c} (no
    invertibility requirement — commutator test functions may vanish), or an
    explicit piece tuple.
    """
    if isinstance(f, UnitaryLoop):
        if f.is_wedge:
            raise StructuralError("pull the wedge function back before estimating")
        return f.pieces
    if isinstance(f, dict):
        return ((0.0, 1.0, _fourier_terms(f)),)
    return _normalize_pieces(f)


def _derivative_pieces(f):
    """The pieces of f' = sum i nu c e^{i nu theta}, piece by piece."""
    return tuple((lo, hi, tuple((nu, 1j * nu * c) for nu, c in terms))
                 for lo, hi, terms in _multiplier_pieces(f))


def commutator_norm_estimate(f, B, samples: int = 20, seed: int = 0,
                             partition: Partition = None) -> float:
    """max ||[M_f, T_B] psi|| / ||psi|| over sampled minimal-domain vectors.

    On the minimal domain the commutator acts exactly as multiplication by
    i f', so the estimate can never exceed sup |f'|; both sides are computed
    independently (this routine exactly, the bound on a fine grid by the
    caller/tests).
    """
    if partition is None:
        partition = Partition.default()
    fprime_pieces = _derivative_pieces(f)
    fine = Partition(tuple(_cuts(partition.endpoints, fprime_pieces)))
    fprime_atoms = []
    for k in range(fine.npieces):
        lo, hi = fine.piece_bounds(k)
        for nu, c in _terms_at(fprime_pieces, 0.5 * (lo + hi)):
            fprime_atoms.append(ExponentialAtom(k, c, 1j * nu))
    fprime = PiecewiseFunction(fine, tuple(fprime_atoms))

    # sampling with traces vanishing at every cut (knots and multiplier breaks)
    # keeps M_f psi inside dom(T_B) for every extension at once: the minimal
    # domain is shared, so B only labels which operator the bound certifies
    spec = OperatorSpec(fine)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        psi = minimal_domain_sample(spec, rng)
        commut = multiply(fprime, psi)          # [M_f, T] psi = i f' psi; |i| = 1
        num = np.sqrt(max(inner_product(commut, commut).real, 0.0))
        den = np.sqrt(max(inner_product(psi, psi).real, 1e-300))
        worst = max(worst, num / den)
    return float(worst)


def derivative_sup(f, ngrid: int = 8192) -> float:
    """sup |f'| on a fine grid, for the commutator bound's right-hand side."""
    return float(np.max(np.abs(_grid_values(_derivative_pieces(f), ngrid, 0.5))))
