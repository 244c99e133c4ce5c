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
   with a 2x2 piecewise-continuous matrix symbol v that jumps once, at the
   seam.  det v winds as the loop does, and the straight chord across the
   seam has a determinant that runs along a segment and back, so the index
   is minus the loop's winding, unwound once on a grid whose phase steps are
   proved small (`unwinding_grid`).  B enters only through the seam test:
   the segment's distance from 0, in closed form, certifies that the
   compression is Fredholm.
3. ``extension-independence``: when the compression for this particular B is
   genuinely not Fredholm (the chord determinant passes through zero, which
   happens e.g. for B = I against odd-winding loops), the pairing of the
   class is evaluated on the canonical anti-diagonal representative, for
   which the compression is always Fredholm.

Results report the route used; whenever routes 1 and 2 both certify they are
compared and any disagreement is raised, never silently resolved.

The finite sections are decomposed in real arithmetic wherever a diagonal
gauge certifies them real.  On two equal pieces with midpoints m_k, put the
phase of eigenfunction lam's atom vector at the midpoints,
alpha_k(lam) = a_k(lam) e^{i lam m_k}.  That vector is an eigenvector of one
fixed 2x2 unitary built from B, and two orthonormal vectors w_1, w_2 of C^2
have w_12 / w_11 = -(w_22 / w_21) times a positive number, so
arg(alpha_2 / alpha_1) is one angle mod pi over all eigenfunctions.  An
interval's integral of e^{i D theta} is e^{i D m} times a real number, so a
loop with one term c_k e^{i nu_k theta} on each piece, of one phase e^{i kappa}
mod pi at the midpoints, has <psi_i, u psi_j> = e^{i kappa} conj(g_i) g_j times
a real number, g = alpha_1 / |alpha_1|.  So S = e^{-i kappa} diag(g) A diag(conj g)
is real: monomials and wedge pullbacks on the default knots are such loops.

On k equal pieces the gauged matrix is block Toeplitz (Boettcher &
Silbermann, Analysis of Toeplitz Operators): the spectrum is k ladders
lam = (2 pi m - phi_j) / l, one per eigenphase of B, each eigenfunction of
ladder j has B's j-th eigenvector for its atom vector at the knots, and so
S[i, j] depends only on the ladders of i and j and the rung difference
m_j - m_i.  `eigenbasis` builds such a basis in closed form, labelled rung
by rung, for every B, and `eigen_arrays` takes g once (`_basis_gauge`).
`_SectionWindow` gauges one table of M's rows against each ladder's first
and last eigenfunction and gathers both real strips from it.  It keeps a
strip's real part only when ||Im S||_F, bounded off the table without
gathering Im S, is at most its `gauge_bound`, the assembly error
`multiplication_matrix` documents, which a gathered entry carries from its
table representative; by Weyl's inequality each singular value of Re S is
then within ||Im S||_F of A's.  Every other strip is assembled and
decomposed complex: off the ladders (unequal pieces), without a gauge
(B = I, whose W = I leaves one ladder's first atom coefficient 0) and
where the check fails (several terms on a piece).  So is a whole pairing
one of whose kernel counts or guard comparisons lies within that distance,
plus rounding, of its threshold: every reading is the complex one.

A pair of loops on the wedge of two circles enters as its pullback along the
pinch S^1 -> S^1 v S^1 (``UnitaryLoop.wedge_pair``), as the addition formula
evaluates it, so every route above sees one kind of loop.
"""

import cmath
from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .analysis import Partition, exp_integral
from .errors import (
    IllConditionedLoopError,
    NumericalError,
    StructuralError,
    ValidationError,
)
from .spectral import _equal_lengths, _unitary_eigenbasis, eigenbasis
from .vonneumann import boundary_array

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
_MARGIN_POINTS = 4096      # the modulus check's grid k / 4096 (several terms on a piece)

#: the fewest and the most points `unwinding_grid` may give a sampled loop
MIN_UNWINDING_GRID = 64
MAX_UNWINDING_GRID = 1 << 18

#: the largest phase step `unwinding_grid` certifies, and `symbol_index`
#: samples, between neighbouring grid points
MAX_PHASE_STEP = 0.5

#: the largest sum of coefficient moduli a loop piece may carry, so that |u|^2
#: and the symbol determinant u(x/2) u((x+1)/2) stay finite
MAX_COEFFICIENT_SUM = 1e150

_EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class UnitaryLoop:
    """An invertible function on the circle.

    A loop is a tuple of pieces ``(lo, hi, ((nu, c), ...))``, each a finite
    sum of c e^{i nu theta} on [lo, hi).  A plain Fourier series is the
    single piece [0, 1) with nu = 2 pi m.  A pair of loops on the wedge of
    two circles is built as its pullback along the pinch, which stays exact
    in this representation (piecewise with nu = 4 pi m), see ``wedge_pair``.
    """

    pieces: tuple

    def __post_init__(self):
        object.__setattr__(self, "pieces", _normalize_pieces(self.pieces))
        total = _coefficient_sum(self.pieces)
        if not total <= MAX_COEFFICIENT_SUM:
            raise ValidationError(f"loop coefficient moduli sum to {total:.3g} on a piece; "
                                  f"the limit is {MAX_COEFFICIENT_SUM:.0e}")
        if all(len(terms) == 1 for _lo, _hi, terms in self.pieces):
            # |c e^{i nu theta}| = |c|: the modulus of each piece, exactly
            low = min(abs(terms[0][1]) for _lo, _hi, terms in self.pieces)
        else:
            low = np.min(np.abs(self.grid(_MARGIN_POINTS)))
        if low <= MARGIN:
            raise IllConditionedLoopError(f"loop modulus min {low:.4f} <= margin {MARGIN}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_fourier(cls, coefficients: dict) -> "UnitaryLoop":
        return cls(pieces=((0.0, 1.0, _fourier_terms(coefficients.items())),))

    @classmethod
    def monomial(cls, n: int) -> "UnitaryLoop":
        return cls.from_fourier({int(n): 1.0})

    @classmethod
    def constant(cls, c=1.0) -> "UnitaryLoop":
        return cls.from_fourier({0: c})

    @classmethod
    def wedge_pair(cls, u1: "UnitaryLoop", u2: "UnitaryLoop") -> "UnitaryLoop":
        """The pullback of the pair (u1, u2) on the wedge of two circles along
        the pinch p (theta -> 2 theta on each half).

        The result is exact: on [0, 1/2) it is u1(2 theta), on [1/2, 1) it is
        u2(2 theta - 1), and both halves are finite sums of e^{4 pi i m theta}
        (integer m makes the e^{-4 pi i m / 2} phases collapse), so each
        frequency doubles.  When the two halves carry identical terms the
        pieces merge into one plain Fourier series with doubled bandwidth.

        The pullback is built without the constructor's checks, which hold by
        those of u1 and u2: each half carries its component's coefficients,
        so its coefficient sum and, when each half has one term, its modulus
        |c|; otherwise the modulus check's points k / 4096 read u1 or u2 at
        k / 2048, points of the grid a component with several terms passed
        (a one-term component passed |c| > MARGIN, its modulus everywhere).
        """
        # u(0) on the first piece, as `__call__` takes it, without its arrays
        if abs(_value(u1.pieces[0][2], 0.0) - _value(u2.pieces[0][2], 0.0)) > 1e-12:
            raise ValidationError("wedge components disagree at the base point")
        halves = []
        for u in (u1, u2):
            (_lo, _hi, terms), *rest = u.pieces
            ms = [nu / TWO_PI for nu, _c in terms]
            if rest or any(abs(m - round(m)) > 1e-9 for m in ms):
                raise StructuralError("wedge components must be plain Fourier loops")
            halves.append(_fourier_terms((2 * round(m), c) for m, (_nu, c) in zip(ms, terms)))
        if halves[0] == halves[1]:
            return cls._unchecked(((0.0, 1.0, halves[0]),))
        return cls._unchecked(((0.0, 0.5, halves[0]), (0.5, 1.0, halves[1])))

    @classmethod
    def _unchecked(cls, pieces) -> "UnitaryLoop":
        """A loop of normalized pieces whose checks are known to hold."""
        loop = object.__new__(cls)
        object.__setattr__(loop, "pieces", pieces)
        return loop

    # -- basic queries ---------------------------------------------------------

    def __call__(self, theta):
        th = np.asarray(theta, dtype=float)
        if not np.all((th >= 0.0) & (th < 1.0)):
            # np.mod is the identity on [0, 1), and costs more than the check
            th = np.mod(th, 1.0)
        out = _evaluate(self.pieces, th.reshape(-1))
        return out[0] if th.ndim == 0 else out.reshape(th.shape)

    def grid(self, npoints: int, offset: float = 0.0) -> np.ndarray:
        """Values at the uniform grid (k + offset) / npoints, k < npoints
        (see `_grid_values`)."""
        return _grid_values(self.pieces, npoints, offset)

    def conjugate(self) -> "UnitaryLoop":
        pieces = tuple(
            (lo, hi, tuple((-nu, np.conj(c)) for nu, c in terms))
            for lo, hi, terms in self.pieces
        )
        # |conj(u)| = |u|: the checks this loop passed hold for its
        # conjugate, which is built without repeating them
        return self._unchecked(pieces)

    def product(self, other: "UnitaryLoop") -> "UnitaryLoop":
        """Pointwise product (stays exact: exponents add on a common refinement)."""
        cuts = _cuts([p[0] for p in self.pieces], other.pieces)
        pieces = []
        for lo, hi in zip(cuts, cuts[1:]):
            mid = 0.5 * (lo + hi)
            terms = _convolve(_terms_at(self.pieces, mid), _terms_at(other.pieces, mid))
            pieces.append((lo, hi, tuple(sorted(terms.items()))))
        return UnitaryLoop(pieces=tuple(pieces))

    @property
    def frequency_reach(self) -> float:
        """max |nu| over all terms — how far M_u can shift eigenfrequencies."""
        return max((abs(nu) for _lo, _hi, terms in self.pieces for nu, _c in terms),
                   default=0.0)


def _normalize_pieces(pieces):
    """Loop pieces as floats and complex coefficients, checked to cover [0, 1]."""
    pieces = tuple(
        (float(lo), float(hi), tuple((float(nu), complex(c)) for nu, c in terms))
        for lo, hi, terms in pieces
    )
    if abs(pieces[0][0]) > 1e-12 or abs(pieces[-1][1] - 1.0) > 1e-12:
        raise ValidationError("loop pieces must cover [0, 1]")
    return pieces


def _coefficient_sum(pieces) -> float:
    """The largest sum of coefficient moduli over the pieces: a bound on the
    modulus of the function they make up."""
    return max(sum(abs(c) for _nu, c in terms) for _lo, _hi, terms in pieces)


def _fourier_terms(coefficients):
    """The (nu, c) terms of a Fourier series with (m, c) pairs, nu = 2 pi m."""
    return tuple(sorted(((TWO_PI * m, complex(c)) for m, c in coefficients),
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


def _value(terms, theta: float) -> complex:
    """sum c e^{i nu theta} over one piece's terms, at one point."""
    return sum(c * cmath.exp(1j * nu * theta) for nu, c in terms)


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

def unwinding_grid(loop: UnitaryLoop):
    """(N, bound): the smallest power of two N >= MIN_UNWINDING_GRID on which
    every phase step of the loop's N-point grid, of the 2N-point midpoint
    grid `symbol_index` unwinds, and of the symbol determinant
    u(x/2) u((x+1)/2) on the N midpoints x, is proved to be at most
    bound <= MAX_PHASE_STEP; NumericalError past MAX_UNWINDING_GRID.  The
    one implementation of "size a grid to unwrap a sampled loop safely".

    On a piece |u'| <= L, L the sum of |nu c| over its terms, so along an
    arc of length d the argument of u moves by at most d L / mu, mu a lower
    bound on |u|.  Where u jumps by j at a piece break (the wrap at 1
    included), its argument moves by at most (pi/2) j / mu, since
    |z2 - z1| >= 2 min|z| sin(|arg(z2/z1)|/2); J is the sum of the jumps,
    rounding error for every loop the CLI builds.  A step of the symbol grid
    moves each factor of det v along an arc of 1/(2N), so det v by at most
    (L/N + pi J) / mu, and a step of the N-point or the 2N-point grid moves u
    by no more; the two half-steps at the seam are shorter.

    mu is the minimum of |u| over an M-point grid less L/(2M) + J, the most
    |u| can fall between grid points; M doubles from MIN_UNWINDING_GRID
    until mu is at least half that minimum.  L, J and mu all scale with the
    coefficients, so the grid does not depend on their size.
    """
    pieces = loop.pieces
    lip = _coefficient_sum(_derivative_pieces(loop))
    jump = abs(_value(pieces[-1][2], 1.0) - _value(pieces[0][2], 0.0)) + sum(
        abs(_value(left, lo) - _value(right, lo))
        for (_lo, _hi, left), (lo, _, right) in zip(pieces, pieces[1:]))
    points = MIN_UNWINDING_GRID
    while True:
        low = float(np.min(np.abs(loop.grid(points))))
        mu = low - lip / (2 * points) - jump
        # a finer grid only lowers `low`, and N must reach 2 L / mu >= 2 L / low
        if mu >= low / 2 or points >= MAX_UNWINDING_GRID or 2 * lip > MAX_UNWINDING_GRID * low:
            break
        points *= 2
    room = MAX_PHASE_STEP * mu - np.pi * jump       # what is left for L / N
    ngrid = MIN_UNWINDING_GRID
    while room > 0 and ngrid * room < lip and ngrid <= MAX_UNWINDING_GRID:
        ngrid *= 2
    if not (room > 0 and ngrid <= MAX_UNWINDING_GRID):
        raise NumericalError("symbol grid too coarse for safe unwinding")
    return ngrid, (lip / ngrid + np.pi * jump) / mu


def _unwound(values: np.ndarray) -> int:
    """The winding number of a loop sampled at `values` in order around the
    circle: the cyclic sum of its principal phase steps over 2 pi.  The one
    unwinding behind `winding` and `symbol_index`.

    It refuses a step above MAX_PHASE_STEP (never taken on a grid
    `unwinding_grid` proves, where |u| >= mu > 0) and a sum further than
    1e-6 from an integer: the cyclic sum is a multiple of 2 pi in exact
    arithmetic, so the residue is rounding error.
    """
    steps = np.angle(np.concatenate((values[1:], values[:1])) / values)
    if not np.max(np.abs(steps)) <= MAX_PHASE_STEP:
        raise NumericalError("symbol grid too coarse for safe unwinding")
    total = float(np.sum(steps)) / TWO_PI
    w = round(total)
    if abs(total - w) > 1e-6:
        raise NumericalError(f"winding {total!r} is not integral")
    return w


def winding(loop: UnitaryLoop, values: np.ndarray = None) -> int:
    """The loop's winding number, unwound on its `unwinding_grid` N, where
    every sample must also keep its modulus above MARGIN.  `values` are the
    loop's samples at k / N when the caller has them (every eighth of the
    samples `pair` takes)."""
    if values is None:
        values = loop.grid(unwinding_grid(loop)[0])
    low = np.min(np.abs(values))
    if low <= MARGIN:
        raise IllConditionedLoopError(f"modulus {low:.4f} below margin {MARGIN}")
    return _unwound(values)


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


class _Basis(tuple):
    """An `eigen_arrays` result: the tuple (lam, coef, ladders), carrying the
    basis's `gauge` vector beside it (None off a ladder basis)."""

    gauge: np.ndarray


def eigen_arrays(B, partition: Partition, cutoffs, reach: float):
    """(lam, coef, ladders) of the eigenbasis of T_B on the window
    [0, cutoffs[-1] + reach + PAD]: the read-only `eigenbasis` spectrum and
    its coefficient rows, coef[i, k] being the atom coefficient of
    eigenfunction i on piece k, and ladders = k on k equal pieces, where
    `eigenbasis` builds eigenvalue i as rung i // k of ladder i % k, else 0.
    On a ladder basis its `gauge` is `_basis_gauge`, which depends on B alone.

    One basis serves every loop whose frequency reach is at most `reach`:
    each finite section keeps the eigenvalues inside its own window.
    """
    spec = eigenbasis(B, partition, (-1e-9, basis_window(cutoffs, reach)))
    lam, coef = spec.eigenvalues, spec.coefficients
    ladders = partition.npieces if _equal_lengths(partition.lengths) else 0
    basis = _Basis((lam, coef, ladders))
    basis.gauge = _basis_gauge(partition, lam, coef) if ladders else None
    return basis


def multiplication_matrix(loop: UnitaryLoop, partition: Partition,
                          lam_rows, coef_rows, lam_cols, coef_cols) -> np.ndarray:
    """A[i, j] = <psi_i, u psi_j> for eigenfunction rows/columns: the one
    implementation of the matrix of M_u between eigenfunctions.

    On an interval [lo, hi) of the common refinement of knots and loop
    pieces, psi_i = a_i e^{i lam_i theta} and u = sum c e^{i nu theta}, so a
    term contributes conj(a_i) b_j c times the integral of e^{i D theta},
    D = nu + lam_j - lam_i.  The phase factors as
    e^{i nu t} e^{-i lam_i t} e^{i lam_j t}, so that integral times the
    coefficients is (r(hi) s(hi)^T - r(lo) s(lo)^T) / D with the row vector
    r(t) = -i c e^{i nu t} conj(a) e^{-i lam_rows t} and the column vector
    s(t) = b e^{i lam_cols t}, with no R x C exponentials.  D depends on the
    term only through nu, so the (interval, term) contributions are grouped
    by nu and interval length: each group's numerators stack into one
    (R x 2k)(2k x C) product over its k members, divided by one real
    reciprocal of D.  A monomial on the default knots is one group.

    The quotient cancels digits where D is small, so the entries with
    |D| (hi - lo) < 0.1 go through `exp_integral` instead, whose
    near-resonant branch (a sinh closed form) is the one implementation of
    that integral; one call takes them for every interval and term.  The
    length in a group's key keeps that threshold, and so the branch each
    entry takes, the one of its own interval.  The factored phases carry an
    absolute error of about |lam| eps each, so the other entries are off by
    about |lam| eps / |D| <= 10 |lam| eps (hi - lo): 10 |lam| eps relative
    to the integral's scale hi - lo.
    """
    cuts = _cuts(partition.endpoints, loop.pieces)
    row_phase = {t: np.exp(-1j * t * lam_rows) for t in cuts}
    col_phase = {t: np.exp(1j * t * lam_cols) for t in cuts}
    groups = {}         # (nu, hi - lo) -> its members' factors
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + hi)
        k = partition.piece_of(mid)
        a = np.conj(coef_rows[:, k])
        b = coef_cols[:, k]
        a_hi, a_lo = a * row_phase[hi], a * row_phase[lo]
        s = (b * col_phase[hi], b * col_phase[lo])
        for nu, c in _terms_at(loop.pieces, mid):
            r = ((-1j * c * np.exp(1j * nu * hi)) * a_hi, (1j * c * np.exp(1j * nu * lo)) * a_lo)
            groups.setdefault((nu, hi - lo), []).append((r, s, c * a, b, lo, hi))
    A, gap, near_terms = None, lam_cols[None, :] - lam_rows[:, None], []
    for (nu, length), members in groups.items():
        F = (np.stack([v for r, *_ in members for v in r], axis=1)
             @ np.stack([v for _r, s, *_ in members for v in s]))
        D = gap + nu
        near = np.flatnonzero(np.abs(D) < 0.1 / length)
        i, j = np.divmod(near, D.shape[1])
        d = D.flat[near]
        near_terms += [(near, d, ca[i] * b[j], lo, hi) for _r, _s, ca, b, lo, hi in members]
        # 1/inf = 0 drops the near entries from F; a complex array times a
        # real one is several times faster than numpy's complex F / D
        D.flat[near] = np.inf
        F *= np.divide(1.0, D, out=D)
        A = F if A is None else np.add(A, F, out=A)
    near, d, weight, lo, hi = zip(*near_terms)
    sizes = [len(n) for n in near]
    np.add.at(A.reshape(-1), np.concatenate(near),
              np.concatenate(weight) * exp_integral(1j * np.concatenate(d),
                                                    np.repeat(lo, sizes), np.repeat(hi, sizes)))
    return A


@dataclass(eq=False)
class _SectionWindow:
    """One pairing's basis window, the eigenfunctions with eigenvalue up to
    top = cutoffs[-1] + reach + PAD (lam ascending), and the strips of the
    matrix M[i, j] = <psi_i, u psi_j> over it that its finite sections read.

    With C eigenvalues up to the top cutoff, every section of u is a block of
    the column strip M[:, :C] and every section of ubar the adjoint of a
    block of the row strip M[:C, :]; the corner M[C:, C:] is never read.  A
    complex strip is assembled once, the first time `compression_matrix`
    asks for a section that reads it: 2 N C - C^2 entries for N eigenvalues,
    no more than the sections themselves hold, and N C for a loop that is
    its own conjugate.

    On a ladder basis (k equal pieces, every ladder in the window and
    C > 0) `real_strip` assembles no strip: it gathers both from the gauged
    `table` of M's N rows against each ladder's first and last
    eigenfunction, N 2k entries (see the module docstring).  A window
    without a table has no real strip.
    """

    loop: UnitaryLoop
    partition: Partition
    lam: np.ndarray
    coef: np.ndarray
    reach: float
    columns: int
    top: float
    #: the basis's ladders k, 0 when the window lacks a ladder or a column
    ladders: int
    #: the window's rows of its basis's `_basis_gauge`, None off a ladder window
    units: np.ndarray

    @classmethod
    def of(cls, loop: UnitaryLoop, partition: Partition, cutoffs, basis) -> "_SectionWindow":
        """The window of `loop` on an `eigen_arrays` basis: a basis built for
        a wider reach is cut to this loop's own window, by the same rule the
        spectrum applies at a window's edge."""
        reach = loop.frequency_reach
        top = cutoffs[-1] + reach + PAD
        keep = basis[0] <= top + 1e-12
        lam = basis[0][keep]
        columns = int(np.count_nonzero(lam <= cutoffs[-1] + 1e-9))
        ladders = basis[2] if len(lam) >= basis[2] and columns else 0
        units = basis.gauge[keep] if ladders else None
        return cls(loop, partition, lam, basis[1][keep], reach, columns, top, ladders, units)

    @cached_property
    def column_strip(self) -> np.ndarray:
        """M[:, :C]."""
        c = self.columns
        return multiplication_matrix(self.loop, self.partition, self.lam, self.coef,
                                     self.lam[:c], self.coef[:c])

    @cached_property
    def row_strip(self) -> np.ndarray:
        """M[:C, :]: the column strip's leading C x C block, then M[:C, C:]."""
        c = self.columns
        rest = multiplication_matrix(self.loop, self.partition, self.lam[:c], self.coef[:c],
                                     self.lam[c:], self.coef[c:])
        return np.hstack([self.column_strip[:c], rest])

    @cached_property
    def gauge(self):
        """(g, phase): the window's `units` and the loop's `_loop_phase`, or
        None off a ladder window or where either is undefined."""
        if self.units is None or not np.all(self.units):
            return None
        phase = _loop_phase(self.loop, self.partition)
        return None if phase is None else (self.units, phase)

    @cached_property
    def table(self):
        """The gauged S[:, ends] of a ladder window, ends being its first k
        and its last k eigenfunctions (each ladder's first and last rung),
        or None off a ladder window or without a gauge."""
        k, n = self.ladders, len(self.lam)
        if not k or self.gauge is None:
            return None
        ends = np.r_[:k, n - k:n]
        g, phase = self.gauge
        return _gauged(multiplication_matrix(self.loop, self.partition, self.lam, self.coef,
                                             self.lam[ends], self.coef[ends]), g, g[ends], phase)

    def _ladder_vector(self, part: np.ndarray, f: int):
        """(shift, w): ladder f's vector w off `part`, the real or imaginary
        `table`, and shift = l - f (see `_gathered`)."""
        k, n = self.ladders, len(self.lam)
        shift = k * ((n - 1 - f) // k)
        return shift, np.concatenate((part[:shift, shift + f + 2 * k - n], part[:, f]))

    def _gathered(self, part: np.ndarray, rows: int, cols: int) -> np.ndarray:
        """S[:rows, :cols] read off `part`, the real or imaginary `table`.

        Column j is rung p of ladder f = j % k.  Its entry in row i is the
        table's against ladder f's first eigenfunction, in row i - k p, when
        i >= k p, and else the one against its last, l, in row i + l - j: the
        ladders of a window differ by at most one rung, so that row exists.
        With w the last one's column over the first one's, column j is the
        slice w[l - f - k p:][:rows]: ladder f's columns are one strided view
        of w, stepping back k a column.
        """
        k = self.ladders
        out = np.empty((rows, cols))
        for f in range(min(k, cols)):
            shift, w = self._ladder_vector(part, f)
            out[:, f::k] = np.ndarray((rows, len(range(f, cols, k))), buffer=w,
                                      offset=shift * w.itemsize,
                                      strides=(w.itemsize, -k * w.itemsize))
        return out

    def _imag_norms(self, rows: int, cols: int) -> np.ndarray:
        """Per ladder f, an upper bound on the Frobenius norm of its columns
        of Im S[:rows, :cols], read off the imaginary `table` without
        gathering them: the vector's norm bounds ||Im S||_F.

        Ladder f's m columns are the slices w[a_p:][:rows], a_p = shift - k p
        (`_gathered`), so entry i of w lies in t_i of them, t stepping up by 1
        at each a_p and down at each a_p + rows, and the squared norm is
        sum t_i w_i^2 over the L entries from a_{m-1} to shift + rows: L
        nonnegative terms, each rounded within eps and summed within
        (L - 1) eps, so (L + 2) eps covers the root of their rounding.
        """
        k, imag = self.ladders, self.table.imag
        norms = []
        for f in range(min(k, cols)):
            shift, w = self._ladder_vector(imag, f)
            first = shift - k * (len(range(f, cols, k)) - 1)
            w = w[first:shift + rows]
            steps = np.zeros(len(w) + 1)
            steps[:shift - first + 1:k] = 1
            steps[rows::k] -= 1
            norms.append(math.sqrt(np.dot(steps[:-1].cumsum(), w * w))
                         * (1 + (len(w) + 2) * _EPS))
        return np.array(norms)

    @cached_property
    def gauge_bound(self) -> float:
        """The most ||Im S||_F a gauged strip S may keep and be read as real.

        `multiplication_matrix` assembles an entry to about 10 |lam| eps
        relative to the integral's scale, and orthonormal eigenfunctions make
        that scale at most the loop's coefficient sum (Cauchy-Schwarz over
        the pieces), so a strip of N C entries is off by at most this bound in
        Frobenius norm; the gauge's own phases are off by |lam| eps.  A
        gathered entry is its table representative's, which lies in the same
        window and carries the same error bound.  A larger imaginary part is
        not rounding error: the gauge does not make that strip real.
        """
        return (10 * _EPS * self.top * _coefficient_sum(self.loop.pieces)
                * math.sqrt(len(self.lam) * self.columns))

    def real_strip(self, conjugate: bool = False):
        """(Re S, margin) of the gauged row strip (`conjugate`) or column
        strip, gathered from the window's `table`, or None when the window
        has no table or ||Im S||_F exceeds `gauge_bound`.  ||Im S||_F is
        bounded off the table (`_imag_norms`): the imaginary strip is never
        gathered.

        The margin bounds how far a singular value of a block of Re S, as
        computed, may lie from the complex SVD's of the same section:
        ||Im S||_F (Weyl), plus 4 N eps |u| for the rounding of the gauge
        and of the two SVDs (each exact for a matrix within about
        max(R, C) eps ||A|| of its own, and ||A|| <= |u| <= the loop's
        coefficient sum).
        """
        if self.table is None:
            return None
        n, c = len(self.lam), self.columns
        shape = (c, n) if conjugate else (n, c)
        gauged = _certified(self._gathered(self.table.real, *shape), self._imag_norms(*shape),
                            self.gauge_bound)
        if gauged is None:
            return None
        rounding = 4 * n * _EPS * _coefficient_sum(self.loop.pieces)
        return gauged[0], gauged[1] + rounding


def _basis_gauge(partition: Partition, lam: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """g = alpha / |alpha| for alpha = a_1(lam) e^{i lam m_1}, each
    eigenfunction's first atom coefficient at its piece's midpoint m_1; 0
    where alpha is 0, where the gauge is undefined.

    It is the B side of the gauge e^{-i kappa} diag(g) M diag(conj g) that
    makes M real for a loop with one term on each of two equal pieces (see
    the module docstring), so each basis takes it once and each window reads
    its rows (`_SectionWindow.gauge`).  For any other loop the gauge is only
    a candidate, which `_SectionWindow.real_strip` checks.
    """
    lo, hi = partition.piece_bounds(0)
    alpha = coef[:, 0] * _cis(lam * (0.5 * (lo + hi)))
    size = np.abs(alpha)
    return np.divide(alpha, size, out=np.zeros_like(alpha), where=size > 0)


def _loop_phase(loop: UnitaryLoop, partition: Partition):
    """The loop side of the gauge: e^{-i kappa}, the unit conjugate of
    c e^{i nu m_1} for the loop's largest term on the first piece, at its
    midpoint m_1; None when that term is 0."""
    lo, hi = partition.piece_bounds(0)
    mid = 0.5 * (lo + hi)
    nu, c = max(_terms_at(loop.pieces, mid), key=lambda term: abs(term[1]))
    kappa = c * cmath.exp(1j * nu * mid)
    return kappa.conjugate() / abs(kappa) if kappa else None


def _gauged(M: np.ndarray, g_rows: np.ndarray, g_cols: np.ndarray, phase: complex) -> np.ndarray:
    """phase diag(g_rows) M diag(conj g_cols): the one place the gauge is
    applied, to a window's `table`."""
    S = M * (phase * g_rows)[:, None]
    S *= g_cols.conj()
    return S


def _certified(real: np.ndarray, imag: np.ndarray, bound: float):
    """(Re S, slack) for S = real + i imag, Re S contiguous, or None when
    slack exceeds `bound` (or is not a number).  `imag` is Im S, or any
    array whose norm bounds ||Im S||_F (`_SectionWindow._imag_norms`), and
    slack is its norm inflated by (L + 4) eps, L its size, past the rounding
    of the L squares, their sum and its root: an upper bound.

    A gauged S has the singular values of its strip (unit diagonal
    factors), and by Weyl's inequality Re S = S - i Im S has each of them
    within ||Im S||_2 <= ||Im S||_F: the certificate that lets a real SVD
    stand for the complex one.
    """
    slack = math.sqrt(np.vdot(imag, imag)) * (1 + (imag.size + 4) * _EPS)
    if not slack <= bound:
        return None
    return np.ascontiguousarray(real), slack


def compression_matrix(window: _SectionWindow, cutoff: float,
                       conjugate: bool = False, real: np.ndarray = None) -> np.ndarray:
    """The finite section A(u) of P M_u P at `cutoff`, read off the pairing's
    `_SectionWindow`: columns are the eigenfunctions with eigenvalue at most
    the cutoff, rows those up to cutoff + reach + PAD.  With `conjugate` it is
    A(ubar) on the same rows and columns.

    With R rows and C columns, A(u) is the block M[:R, :C] of the window's
    column strip, and <psi_i, ubar psi_j> = conj(<psi_j, u psi_i>) makes
    A(ubar) the adjoint of the block M[:C, :R] of its row strip: two strips
    serve every section of both loops.

    `real`, when given, is Re S of this side's certified
    `_SectionWindow.real_strip`, and the section is the same block of it
    instead, which has the section's singular values to within the strip's
    ||Im S||_F: for A(ubar) the transpose of the gauged row-strip block, a
    view (the gauge is diagonal, so it commutes with taking the block, and a
    real block's adjoint is its transpose).
    """
    rows = np.count_nonzero(window.lam <= cutoff + window.reach + PAD + 1e-9)
    cols = np.count_nonzero(window.lam <= cutoff + 1e-9)
    if real is not None:
        return real[:cols, :rows].T if conjugate else real[:rows, :cols]
    if conjugate:
        return window.row_strip[:cols, :rows].conj().T
    return window.column_strip[:rows, :cols]


def _numerical_kernel(A: np.ndarray, margin: float = 0.0):
    """(nullity, smallest retained singular value relative to the scale).

    The threshold is KERNEL_TOL times max(sigma_max, MARGIN): a loop with
    |u| > MARGIN has sections of norm about |u| or more, so a section whose
    singular values are all rounding error has a kernel, not full rank.  A
    section with nothing retained reads 0, which never resolves.

    `margin` is how far A's singular values may lie from those of the
    section A stands for (a gauged real section: its strip's
    `_SectionWindow.real_strip` margin).  The reading is None when a
    singular value lies within it of the threshold, where the two could
    count differently; with margin 0 it never is.
    """
    sv = np.linalg.svd(A, compute_uv=False)
    scale = max(sv[0], MARGIN) if sv.size else MARGIN
    threshold = KERNEL_TOL * scale
    # sv descends: the first r are retained, and the two either side of the
    # threshold are the closest to it
    r = sv.size - int(sv[::-1].searchsorted(threshold))
    if any(abs(s - threshold) < margin for s in sv[max(r - 1, 0):r + 1]):
        return None
    return sv.size - r, float(sv[r - 1] / scale) if r else 0.0


def _kernel_trajectory(window: _SectionWindow, cutoffs, conjugate: bool = False,
                       strip=None):
    """`_numerical_kernel` of A(u), or with `conjugate` of A(ubar), at each
    cutoff of the window's schedule.  With `strip`, that side's certified
    `real_strip` (Re S, margin), the sections are blocks of Re S, and the
    trajectory is None as soon as one reading is too close to its threshold
    to stand for the complex one.

    Both windows of a section depend on the loop only through its reach,
    which ubar shares, so the A(ubar) of u's pairing is the A of ubar's own
    pairing: that is what makes the pairing of ubar u's `adjoint`.
    """
    real, margin = (None, 0.0) if strip is None else strip
    readings = []
    for L in cutoffs:
        reading = _numerical_kernel(compression_matrix(window, L, conjugate, real), margin)
        if reading is None:
            return None
        readings.append(reading)
    return tuple(readings)


def _guard(smins, err: float = 0.0):
    """Whether the smallest retained singular values `smins` pass the
    stability guard: the last step may not fall by GUARD_STEP unless the
    whole schedule falls by less than GUARD_TOTAL.

    `err` bounds how far each compared difference may be off (0 for exact
    readings); the verdict is None when a comparison the guard makes is
    closer than that to flipping.
    """
    close = False

    def less(a, b):
        nonlocal close
        close = close or abs(a - b) < err
        return a < b

    ok = True
    if len(smins) >= 2 and smins[0] > 0:
        if (less(smins[-1], GUARD_STEP * smins[-2]) and less(smins[-1], smins[-2])
                and less(smins[-2], smins[0])):
            ok = less(GUARD_TOTAL * smins[0], smins[-1])
    return None if close else ok


def _finite_section(loop: UnitaryLoop, partition: Partition, cutoffs, basis):
    """The truncation route over the cutoff schedule, on an `eigen_arrays` basis.

    P M_ubar P = (P M_u P)*, so the cokernel of the section A(u) is read as the
    kernel of A(ubar), the same finite section for the conjugate loop (the
    windows depend only on the reach, which u and ubar share).  This call
    makes the pairing's `_SectionWindow`, whose two strips give the sections
    of u and of ubar at every cutoff, and drops it on return; a loop that is
    its own conjugate (equal pieces) takes the sections of u only, off the
    column strip alone.

    Each side whose gathered strip certifies is decomposed in real
    arithmetic (`_SectionWindow.real_strip`); when a reading or a guard
    comparison of those is too close to call, the whole pairing is read again
    from the complex sections, so the verdict is always the complex one.

    Returns (plateau, resolved, index).  `resolved` demands both the
    three-equal-indices plateau and a stable smallest retained singular value;
    a monotone singular-value decay is the signature of kernel vectors with
    slow tails, where a fixed threshold would plateau on a wrong integer.
    """
    window = _SectionWindow.of(loop, partition, cutoffs, basis)
    sides = (False,) if loop.conjugate().pieces == loop.pieces else (False, True)
    return (_section_verdict(window, cutoffs, sides, real=True)
            or _section_verdict(window, cutoffs, sides, real=False))


def _section_verdict(window: _SectionWindow, cutoffs, sides, real: bool):
    """`_finite_section`'s verdict from the kernel trajectories of `sides`
    (False for A(u), True for A(ubar)), each read from its real strip when
    `real` and the strip certifies; None when a real reading is too close to
    call."""
    trajectories, err = [], 0.0
    for conjugate in sides:
        strip = window.real_strip(conjugate) if real else None
        trajectory = _kernel_trajectory(window, cutoffs, conjugate, strip)
        if trajectory is None:
            return None
        trajectories.append(trajectory)
        if strip is not None:
            # a relative reading sigma / max(sigma_max, MARGIN) moves by at
            # most 2 delta / MARGIN when its singular values move by delta,
            # the strip's margin, and a compared difference by twice that
            err = max(err, 4 * strip[1] / MARGIN)
    kernels, cokernels = trajectories[0], trajectories[-1]

    plateau, indices, smins = [], [], []
    for Lam, (ker, smin_u), (coker, smin_c) in zip(cutoffs, kernels, cokernels):
        plateau.append((float(Lam), int(ker), int(coker)))
        indices.append(int(ker - coker))
        smins.append(min(smin_u, smin_c))
    guard_ok = _guard(smins, err)
    if guard_ok is None:
        return None
    plateau_ok = len(indices) >= 3 and len(set(indices[-3:])) == 1
    resolved = plateau_ok and guard_ok and smins[-1] > 0
    return tuple(plateau), resolved, (indices[-1] if indices else 0)


# ---------------------------------------------------------------------------
# the exact symbol route
# ---------------------------------------------------------------------------

def seam_basis(B, partition: Partition = None):
    """The seam test's B side (W, g): B = W diag(w) W* with W unitary
    (`_unitary_eigenbasis`) and g = w / |w|, or None on a partition that is
    not two equal pieces, where `symbol_index` does not apply.

    It depends on B alone, so the CLI builds it once per B, beside that B's
    `eigen_arrays` basis, for every pairing with B."""
    if not _two_equal_pieces(Partition.default() if partition is None else partition):
        return None
    w, W = _unitary_eigenbasis(boundary_array(B))
    return W, w / np.abs(w)


def _seam_symbols(loop: UnitaryLoop, seam):
    """(vL, vR) = (v(1-), v(0+)), the symbol's one-sided limits at the seam
    (see `symbol_index`), on a `seam_basis` (W, g): vR = W* diag(u(0), u(1/2)) W,
    and vL is that matrix with the diagonal swapped, conjugated by
    G(1) = diag(e^{i alpha}) = diag(g).  Both come from the same u(0) = u(1)
    and u(1/2)."""
    W, g = seam
    u_0, u_half = (_value(_terms_at(loop.pieces, t), t) for t in (0.0, 0.5))
    Wh = W.conj().T
    vL = (Wh * [u_half, u_0]) @ W * g[:, None] / g[None, :]
    return vL, (Wh * [u_0, u_half]) @ W


def _seam_margin(vL: np.ndarray, vR: np.ndarray):
    """(margin, scale): min |q| over the chord determinant
    q(mu) = det((1 - mu) vL + mu vR), mu in [0, 1], and max |q| at
    mu = 0, 1/2, 1.

    The seam's two symbols have one determinant q0 (`_seam_symbols`), and q
    is quadratic in mu with q(0) = q(1), so

        q(mu) = q0 - a mu (1 - mu),    a = det(vR - vL):

    the segment from q0 to q0 - a/4 traced out and back, which turns by 0.
    Its point nearest 0 is q0 - a t* with t* = Re(q0 conj(a)) / |a|^2 =
    Re(q0 / a) clipped to [0, 1/4].
    """
    q0 = complex(vR[0, 0] * vR[1, 1] - vR[0, 1] * vR[1, 0])
    d = vR - vL
    a = complex(d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0])
    t = min(max((q0 / a).real, 0.0), 0.25) if a else 0.0
    return abs(q0 - a * t), max(abs(q0), abs(q0 - a / 4), 1e-300)


def _two_equal_pieces(partition: Partition) -> bool:
    """Whether the partition is the one `symbol_index` is built for."""
    return partition.npieces == 2 and _equal_lengths(partition.lengths)


def symbol_index(loop: UnitaryLoop, B, partition: Partition = None, *, ngrid: int,
                 seam=None, values: np.ndarray = None):
    """Exact Fredholm index of P M_u P via its block-Toeplitz symbol.

    Diagonalizing B = W diag(e^{i phi_j}) W* (`_unitary_eigenbasis`) splits
    T_B into eigenvalue ladders lambda = -2 phi_j + 4 pi m; unrolling the two
    half-circle pieces against these ladders shows the compression is
    Toeplitz with 2x2 symbol

        v(x) = G(x) W* diag(u(x/2), u((x+1)/2)) W G(x)^{-1},
        G(x) = diag(e^{i alpha_j x}),  alpha_j = phi_j - 2 pi [phi_j > 0],

    piecewise continuous with one jump at the seam x = 0 (Boettcher &
    Silbermann, Analysis of Toeplitz Operators).  The index is minus the
    winding of det v over (0,1) completed by the straight chord across the
    jump, provided the chord determinant stays away from zero; a chord through
    zero means the compression is genuinely not Fredholm for this B.

    det v(x) = u(x/2) u((x+1)/2), and as x runs over (0, 1) the two factors
    cover the two halves of the circle, so det v turns by 2 pi times the
    loop's own winding, unwound here on the 2 ngrid midpoints
    (k + 1/2) / (2 ngrid) the two factors sample.  The chord turns by 0
    (`_seam_margin`), so the index is minus that winding, and B enters only
    through the seam's margin.  On the loop's `unwinding_grid` N every step
    is proved to be at most MAX_PHASE_STEP; callers pass ngrid = N.
    `values` are the loop's samples at those 2 ngrid points when the caller
    has them (a slice of the samples `pair` takes), and `seam` is B's
    `seam_basis`; each is built here when not given.

    Returns (index_or_None, diagnostics dict).
    """
    if partition is None:
        partition = Partition.default()
    if not _two_equal_pieces(partition):
        raise StructuralError("the symbol route is built for two equal pieces")
    index = -_unwound(loop.grid(2 * ngrid, 0.5) if values is None else values)
    if seam is None:
        seam = seam_basis(B, partition)
    margin, scale = _seam_margin(*_seam_symbols(loop, seam))
    diag = {"chord_margin": margin, "chord_scale": scale}
    if margin < 1e-8 * scale:
        diag["reason"] = "chord determinant passes through zero (not Fredholm)"
        return None, diag
    return index, diag


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
         basis=None, *, seam=None, samples: np.ndarray = None) -> PairingResult:
    """Index pairing of a loop with the extension of boundary matrix B; a
    wedge pair comes as its pinch pullback (`UnitaryLoop.wedge_pair`).

    `basis` is an `eigen_arrays(B, partition, cutoffs, reach)` result with
    reach at least the loop's frequency reach; the CLI builds it once per B
    and shares it between loops.  Without it the pairing builds its own at
    the loop's reach.  Likewise `seam` is B's `seam_basis`, and `samples`
    the loop's values at k / (8N), k < 8N, N its `unwinding_grid` N, which
    the CLI takes once per loop; the pairing builds each at most once when
    not given.  Every eighth sample, [::8], is the N-point grid k / N that
    `winding` unwinds; [2::4] is the midpoint grid (k + 1/2) / (2N) and
    [1::2] the one (k + 1/2) / (4N).

    Each pairing decomposes A(u) and A(ubar) at every cutoff as blocks of
    two strips of one matrix over its basis window (4 `compression_matrix`
    sections and 4 SVDs each on the default schedule, only those of A(u),
    off one strip, when u is its own conjugate).  On k equal pieces both
    strips are gathered from one gauged table of N 2k entries, N the
    window's eigenvalues, and their SVDs are real where the gauge certifies
    a strip real, which it does for every monomial and wedge pullback on two
    equal pieces.  Every other strip is assembled and decomposed complex:
    off the ladders (other partitions), without a gauge (B = I) and where
    the gauge fails (several terms on a piece).  A pairing with a real
    reading too close to its threshold to call is read again from the
    complex sections, so the result is the complex route's (see the module
    docstring).  It runs two `symbol_index`
    calls: on the loop's `unwinding_grid` N, where the unwinding is proved,
    and on 2N as a cross-check, each unwinding its midpoints off `samples`
    ([2::4] and [1::2]), so no pairing samples the loop again.  The pairing
    of ubar is the `adjoint` of this result, so a sweep that holds both
    loops pairs only one of them.
    """
    if partition is None:
        partition = Partition.default()
    cutoffs = DEFAULT_CUTOFFS if cutoffs is None else tuple(cutoffs)
    Bm = boundary_array(B)
    if basis is None:
        basis = eigen_arrays(Bm, partition, cutoffs, loop.frequency_reach)

    plateau, resolved, fs_index = _finite_section(loop, partition, cutoffs, basis)

    if not _two_equal_pieces(partition):
        # no symbol route: the guarded plateau stands only where it agrees
        # with the index theorem, index = -winding
        if resolved:
            wind = winding(loop, None if samples is None else samples[::8])
            if fs_index != -wind:
                raise NumericalError(
                    f"finite-section index {fs_index} disagrees with -winding {-wind}"
                )
        return PairingResult(fs_index, plateau, resolved, "finite-section")

    if samples is None:
        samples = loop.grid(8 * unwinding_grid(loop)[0])
    ngrid = len(samples) // 8
    if seam is None:
        seam = seam_basis(Bm, partition)
    sym_index, _diag = symbol_index(loop, Bm, partition, ngrid=ngrid, seam=seam,
                                    values=samples[2::4])
    if sym_index is None:
        # the compression for this B has no index at all (exact chord zero);
        # any finite-section plateau here is an artifact of slow singular-value
        # decay.  The class pairing is evaluated on the canonical
        # anti-diagonal representative, whose compression is always Fredholm.
        canon, canon_diag = symbol_index(loop, _CANONICAL_B, partition, ngrid=ngrid,
                                         values=samples[2::4])
        if canon is None:
            raise NumericalError(
                f"compression not Fredholm for B and for the canonical representative: "
                f"{canon_diag['reason']}"
            )
        return PairingResult(canon, plateau, True, "extension-independence")
    # the grid is proved fine enough; twice the points must agree
    check, _diag = symbol_index(loop, Bm, partition, ngrid=2 * ngrid, seam=seam,
                                values=samples[1::2])
    if check != sym_index:
        raise NumericalError("symbol winding disagreed across grid refinement")
    # both routes certain: they must agree, and the cheaper one gets credit
    if resolved and fs_index != sym_index:
        raise NumericalError(
            f"route disagreement: finite-section {fs_index} vs symbol {sym_index}"
        )
    method = "finite-section" if resolved else "symbol-winding"
    return PairingResult(sym_index, plateau, True, method)


def adjoint(result: PairingResult) -> PairingResult:
    """The pairing of the conjugate loop ubar with the same B, read off u's.

    P M_ubar P = (P M_u P)*, so ubar's index is minus u's, and at each cutoff
    the kernel and cokernel of ubar's section are u's cokernel and kernel.
    Every route treats the two alike: the finite section is the same pair of
    matrices swapped, det of ubar's symbol is the conjugate of u's (the same
    chord margin, the opposite winding), and the canonical representative
    pairs with ubar to minus its pairing with u.  So `method` and `stable`
    carry over, and ubar's row equals the one `pair(ubar, B)` returns.
    """
    return PairingResult(-result.index,
                         tuple((L, coker, ker) for L, ker, coker in result.plateau),
                         result.stable, result.method)


# ---------------------------------------------------------------------------
# multiplier derivatives
# ---------------------------------------------------------------------------

def _multiplier_pieces(f):
    """Normalize a multiplier spec to loop pieces.

    Accepts a UnitaryLoop, a dict of Fourier coefficients {m: c} (no
    invertibility requirement — commutator test functions may vanish), or an
    explicit piece tuple.
    """
    if isinstance(f, UnitaryLoop):
        return f.pieces
    if isinstance(f, dict):
        return ((0.0, 1.0, _fourier_terms(f.items())),)
    return _normalize_pieces(f)


def _derivative_pieces(f):
    """The pieces of f' = sum i nu c e^{i nu theta}, piece by piece."""
    return tuple((lo, hi, tuple((nu, 1j * nu * c) for nu, c in terms))
                 for lo, hi, terms in _multiplier_pieces(f))
