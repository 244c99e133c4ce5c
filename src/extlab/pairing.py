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

MARGIN = 0.1
_MARGIN_GRID = np.arange(4096) / 4096.0


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
        vals = np.abs(self(_MARGIN_GRID))
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
        th = np.mod(np.asarray(theta, dtype=float), 1.0)
        out = _evaluate(self.pieces, np.atleast_1d(th))
        return out[0] if th.ndim == 0 else out

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
        return UnitaryLoop(pieces=pieces, coefficients=coeffs)

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


def _evaluate(pieces, th: np.ndarray) -> np.ndarray:
    """Values of a piece tuple at points of [0, 1], half-open [lo, hi) pieces."""
    out = np.zeros(th.shape, dtype=complex)
    bounds = [p[0] for p in pieces] + [1.0]
    idx = np.clip(np.searchsorted(bounds, th, side="right") - 1, 0, len(pieces) - 1)
    for k, (_lo, _hi, terms) in enumerate(pieces):
        mask = idx == k
        if np.any(mask):
            for nu, c in terms:
                out[mask] += c * np.exp(1j * nu * th[mask])
    return out


# ---------------------------------------------------------------------------
# winding
# ---------------------------------------------------------------------------

def winding(loop: UnitaryLoop, ngrid: int = 4096) -> int:
    """(1/2pi) x total unwrapped argument increment around the circle."""
    if loop.is_wedge:
        raise StructuralError("wedge pairs have no single winding; pull back first")
    th = np.arange(ngrid) / ngrid
    vals = loop(th)
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

def _eigen_arrays(B, partition: Partition, window):
    pairs = eigenbasis(B, partition, window)
    n = partition.npieces
    lam = np.asarray([p.eigenvalue for p in pairs])
    coef = np.zeros((len(pairs), n), dtype=complex)
    for i, p in enumerate(pairs):
        for a in p.eigenfunction.atoms:
            coef[i, a.piece] += a.coefficient
    return lam, coef


def compression_matrix(loop: UnitaryLoop, partition: Partition,
                       lam_rows, coef_rows, lam_cols, coef_cols) -> np.ndarray:
    """A[i, j] = <psi_i, u psi_j> for eigenfunction rows/columns."""
    R, C = len(lam_rows), len(lam_cols)
    A = np.zeros((R, C), dtype=complex)
    cuts = _cuts(partition.endpoints, loop.pieces)
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + hi)
        k = partition.piece_of(mid)
        w = np.conj(coef_rows[:, k])[:, None] * coef_cols[None, :, k]
        for nu, c in _terms_at(loop.pieces, mid):
            D = nu + lam_cols[None, :] - lam_rows[:, None]
            A += (c * w) * exp_integral(1j * D, lo, hi)
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


def _finite_section(loop: UnitaryLoop, B, partition: Partition, cutoffs):
    """The truncation route over the cutoff schedule.

    Returns (plateau, indices, resolved, index).  `resolved` demands both the
    three-equal-indices plateau and a stable smallest retained singular value;
    a monotone singular-value decay is the signature of kernel vectors with
    slow tails, where a fixed threshold would plateau on a wrong integer.
    """
    reach = loop.frequency_reach
    pad = 8 * np.pi
    hi_all = cutoffs[-1] + reach + pad
    lam, coef = _eigen_arrays(B, partition, (-1e-9, hi_all))
    loop_conj = loop.conjugate()
    plateau, indices, smins = [], [], []
    for Lam in cutoffs:
        cols = lam <= Lam + 1e-9
        rows = lam <= Lam + reach + pad + 1e-9
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
    """min |det((1-mu) vL + mu vR)| over mu in [0,1], via the exact quadratic."""
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
    return best, scale


def symbol_index(loop: UnitaryLoop, B, partition: Partition = None,
                 ngrid: int = 8192):
    """Exact Fredholm index of P M_u P via its block-Toeplitz symbol.

    Diagonalizing B = W diag(e^{i phi_j}) W* splits T_B into eigenvalue
    ladders lambda = -2 phi_j + 4 pi m; unrolling the two half-circle pieces
    against these ladders shows the compression is Toeplitz with 2x2 symbol

        v(x) = G(x) W* diag(u(x/2), u((x+1)/2)) W G(x)^{-1},
        G(x) = diag(e^{i alpha_j x}),  alpha_j = phi_j - 2 pi [phi_j > 0],

    piecewise continuous with one jump at the seam x = 0.  The index is minus
    the winding of det v over (0,1) completed by the straight chord across the
    jump, provided the chord determinant stays away from zero; a chord through
    zero means the compression is genuinely not Fredholm for this B.

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

    def symbol_at(x):
        u1 = loop(x / 2.0)
        u2 = loop((x + 1.0) / 2.0)
        Wc = W.conj().T
        ut = np.einsum("jk,nk,kl->njl", Wc, np.stack([u1, u2], axis=1), W)
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

    vL = symbol_at(np.asarray([1.0]))[0]      # x -> 1^-  (loop periodicity)
    vR = symbol_at(np.asarray([0.0]))[0]      # x -> 0^+
    margin, scale = _chord_margin(vL, vR)
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
    total += float(np.angle(detv[0] / detM[-1]))        # chord end -> first grid point
    total += float(np.angle(np.linalg.det(vL) / detv[-1]))  # last grid point -> v(1-)
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


def pair(loop: UnitaryLoop, B, cutoffs=None, partition: Partition = None) -> PairingResult:
    """Index pairing of a loop with the extension of boundary matrix B."""
    if loop.is_wedge:
        loop = pullback_loop(loop)
    if partition is None:
        partition = Partition.default()
    if cutoffs is None:
        cutoffs = DEFAULT_CUTOFFS
    Bm = boundary_array(B)

    plateau, indices, resolved, fs_index = _finite_section(loop, Bm, partition, tuple(cutoffs))

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
        # symbol route unavailable (general partition): the guarded plateau stands
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
    th = (np.arange(ngrid) + 0.5) / ngrid
    return float(np.max(np.abs(_evaluate(_derivative_pieces(f), th))))
