"""Deficiency spaces and the von Neumann parameterization of self-adjoint
extensions of the minimal operator T = (1/i) d/dtheta with domain vanishing
at a set of knots.

Two equivalent descriptions of an extension are maintained:

* the unitary ``u`` between the deficiency spaces Ker(T* - i) -> Ker(T* + i),
  acting on the canonical per-piece exponential bases, and
* the boundary relation ``L = B R`` between the one-sided traces of domain
  functions at the knots.

``boundary_matrix_closed_form`` implements the explicit U(2) formula for the
default two-piece partition; ``boundary_matrix_numeric`` recovers B from
sampled traces and serves as its independent oracle.  The general-partition
map is built from per-piece trace matrices (see ``_trace_matrices``).
"""

from dataclasses import dataclass, field
from functools import cached_property
import math

import numpy as np

from .analysis import (
    ExponentialAtom,
    Partition,
    PiecewiseFunction,
    inner_product,
)
from .errors import NumericalError, SingularParameterizationError, StructuralError, ValidationError

SQRT_E = math.sqrt(math.e)


@dataclass(frozen=True)
class OperatorSpec:
    """The symmetric operator (1/i) d/dtheta, domain vanishing at the knots.

    ``knot_constraints`` defaults to every partition endpoint.  Endpoints 0
    and 1 must always be constrained (the interval ends are identified on the
    circle, and the minimal operator needs them pinned); interior knots may
    be released, which merges the adjacent pieces for every purpose below.
    """

    partition: Partition
    knot_constraints: tuple = None
    symbol: str = field(default="(1/i) d/dtheta", init=False)

    def __post_init__(self):
        kc = self.knot_constraints
        if kc is None:
            kc = self.partition.endpoints
        kc = tuple(sorted(float(t) for t in set(kc)))
        ends = np.asarray(self.partition.endpoints)
        for t in kc:
            if np.min(np.abs(ends - t)) > 1e-12:
                raise ValidationError(f"knot constraint {t} is not a partition endpoint")
        if not kc or abs(kc[0]) > 1e-15 or abs(kc[-1] - 1.0) > 1e-15:
            raise ValidationError("knots 0 and 1 must be constrained")
        object.__setattr__(self, "knot_constraints", kc)

    @property
    def effective_partition(self) -> Partition:
        """Partition cut only at constrained knots (unconstrained knots vanish)."""
        return Partition(self.knot_constraints)

    @property
    def deficiency_index(self) -> int:
        return self.effective_partition.npieces


@dataclass(frozen=True)
class DeficiencySpace:
    sign: str                 # '-' for Ker(T* - i), '+' for Ker(T* + i)
    basis: tuple              # orthonormal PiecewiseFunctions, piece order
    index: int

    def gram(self) -> np.ndarray:
        n = len(self.basis)
        g = np.empty((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                g[i, j] = inner_product(self.basis[i], self.basis[j])
        return g


def deficiency_normalizer(sign: str, a: float, b: float) -> float:
    """Unit-norm coefficient for e^{-theta} (sign '-') or e^{+theta} on [a, b].

    A piece so short that the two exponentials round to one float has no
    normalizable deficiency vector: that partition is invalid input."""
    if sign == "-":
        mass = math.exp(-2.0 * a) - math.exp(-2.0 * b)
    elif sign == "+":
        mass = math.exp(2.0 * b) - math.exp(2.0 * a)
    else:
        raise ValidationError(f"sign must be '+' or '-', got {sign!r}")
    if not mass > 0.0:
        raise ValidationError(f"piece [{a!r}, {b!r}] is too short to normalize its "
                              "deficiency vectors")
    return math.sqrt(2.0 / mass)


def compute_deficiency(spec: OperatorSpec, sign: str) -> DeficiencySpace:
    """Orthonormal basis of Ker(T* -+ i).

    On each (effective) piece the equation T*f = +-i f reads f' = -+ f, so the
    solutions are per-piece exponentials; normalizing gives one basis vector
    per piece, ordered piece-1 first.
    """
    part = spec.effective_partition
    mu = -1.0 if sign == "-" else +1.0
    if sign not in ("-", "+"):
        raise ValidationError(f"sign must be '+' or '-', got {sign!r}")
    basis = []
    for k in range(part.npieces):
        a, b = part.piece_bounds(k)
        c = deficiency_normalizer(sign, a, b)
        basis.append(PiecewiseFunction(part, (ExponentialAtom(k, c, mu),)))
    return DeficiencySpace(sign=sign, basis=tuple(basis), index=len(basis))


def _unitary(matrix, name: str, tol: float) -> np.ndarray:
    """A read-only complex copy of `matrix`, checked square and unitary to `tol`."""
    m = np.array(matrix, dtype=complex)
    m.setflags(write=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StructuralError(f"{name} must be square")
    if np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))) > tol:
        raise ValidationError(f"{name} is not unitary (tol {tol:.0e})")
    return m


@dataclass(frozen=True, eq=False)
class ExtensionUnitary:
    """Unitary u : Ker(T*-i) -> Ker(T*+i) w.r.t. the canonical piece bases."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _unitary(self.matrix, "extension parameter", 1e-10))

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class BoundaryMatrix:
    """Unitary B in the trace relation L = B R."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _unitary(self.matrix, "boundary matrix", 1e-9))

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def boundary_array(B) -> np.ndarray:
    """The matrix of a BoundaryMatrix, or of an array-like checked to be one."""
    return (B if isinstance(B, BoundaryMatrix) else BoundaryMatrix(B)).matrix


def swap_unitary(n: int = 2) -> ExtensionUnitary:
    """The antidiagonal swap; its extension has periodic/continuous traces."""
    return ExtensionUnitary(np.fliplr(np.eye(n)))


def identity_unitary(n: int = 2) -> ExtensionUnitary:
    return ExtensionUnitary(np.eye(n))


def haar_unitary(rng: np.random.Generator, n: int = 2) -> ExtensionUnitary:
    """Haar-distributed n x n unitary: QR of a complex Ginibre sample, with
    the R diagonal's phases absorbed into Q so the distribution is exact."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return ExtensionUnitary(q * (d / np.abs(d)))


# ---------------------------------------------------------------------------
# trace matrices and the u <-> B correspondence
# ---------------------------------------------------------------------------

def _trace_matrices(part: Partition):
    """Left/right trace diagonals of the two deficiency bases.

    Returns (N_L, M_L, N_R, M_R) where column k holds the traces of the k-th
    minus-basis vector (N_*) and plus-basis vector (M_*).  All four are
    diagonal because the bases are supported piece by piece.
    """
    t = part.endpoints
    n = part.npieces
    NL = np.zeros(n)
    ML = np.zeros(n)
    NR = np.zeros(n)
    MR = np.zeros(n)
    for k in range(n):
        a, b = t[k], t[k + 1]
        nk = deficiency_normalizer("-", a, b)
        mk = deficiency_normalizer("+", a, b)
        NL[k] = nk * math.exp(-a)
        NR[k] = nk * math.exp(-b)
        ML[k] = mk * math.exp(a)
        MR[k] = mk * math.exp(b)
    return np.diag(NL), np.diag(ML), np.diag(NR), np.diag(MR)


def boundary_matrix_general(spec: OperatorSpec, u: ExtensionUnitary) -> BoundaryMatrix:
    """B(u) = (N_L + M_L u)(N_R + M_R u)^{-1} for any partition.

    The inverse always exists for unitary u: N_R^{-1} M_R has every diagonal
    entry > 1 in modulus, so -1 is never an eigenvalue of N_R^{-1} M_R u.
    """
    NL, ML, NR, MR = _trace_matrices(spec.effective_partition)
    U = u.matrix
    right = NR + MR @ U
    B = (NL + ML @ U) @ np.linalg.inv(right)
    return BoundaryMatrix(B)


def unitary_from_boundary(spec: OperatorSpec, B: BoundaryMatrix) -> ExtensionUnitary:
    """Inverse of the correspondence: u = (M_L - B M_R)^{-1} (B N_R - N_L)."""
    NL, ML, NR, MR = _trace_matrices(spec.effective_partition)
    Bm = B.matrix
    u = np.linalg.solve(ML - Bm @ MR, Bm @ NR - NL)
    return ExtensionUnitary(u)


def boundary_matrix_closed_form(u: ExtensionUnitary) -> BoundaryMatrix:
    """Explicit U(2) boundary matrix for the default partition {0, 1/2, 1}.

    For u = ((alpha, beta), (gamma, delta)) with determinant Delta:

        B = 1/(1 + (alpha+delta) sqrt(e) + Delta e) *
            ( alpha + (1+Delta) sqrt(e) + delta e ,   beta (1 - e)
              gamma (1 - e) ,   delta + (1+Delta) sqrt(e) + alpha e )
    """
    if u.size != 2:
        raise StructuralError("closed form is specific to the two-piece default partition")
    (alpha, beta), (gamma, delta) = u.matrix
    Delta = alpha * delta - beta * gamma
    den = 1.0 + (alpha + delta) * SQRT_E + Delta * math.e
    if abs(den) < 1e-12:
        raise SingularParameterizationError(
            f"denominator 1+(alpha+delta)sqrt(e)+Delta*e vanished (|den|={abs(den):.3e})"
        )
    num = np.array(
        [
            [alpha + (1.0 + Delta) * SQRT_E + delta * math.e, beta * (1.0 - math.e)],
            [gamma * (1.0 - math.e), delta + (1.0 + Delta) * SQRT_E + alpha * math.e],
        ],
        dtype=complex,
    )
    return BoundaryMatrix(num / den)


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Extension:
    """A self-adjoint extension T_u together with its boundary description."""

    spec: OperatorSpec
    unitary: ExtensionUnitary
    boundary: BoundaryMatrix

    @cached_property
    def minus_basis(self):
        return compute_deficiency(self.spec, "-").basis

    @cached_property
    def plus_basis(self):
        return compute_deficiency(self.spec, "+").basis

    def domain_vector(self, xi: PiecewiseFunction, eta: np.ndarray) -> PiecewiseFunction:
        """xi + eta + u(eta) as an honest function (xi from the minimal domain,
        eta coordinates w.r.t. the minus-deficiency basis)."""
        ueta = self.unitary.matrix @ np.asarray(eta, dtype=complex)
        return self._plus_deficiency(xi, [complex(c) for c in eta],
                                     [complex(c) for c in ueta])

    def _plus_deficiency(self, f: PiecewiseFunction, minus, plus) -> PiecewiseFunction:
        """f + sum_j minus[j] e-_j + plus[j] e+_j, merged by one `collect`:
        each e-_j and e+_j is one atom, on piece j at exponent -1 or +1, so
        no two of them share a (piece, exponent) key."""
        if f.partition.endpoints != self.spec.effective_partition.endpoints:
            raise StructuralError("functions live on different partitions")
        atoms = list(f.atoms)
        for cm, cp, em, ep in zip(minus, plus, self.minus_basis, self.plus_basis):
            atoms += (cm * em).atoms + (cp * ep).atoms
        return PiecewiseFunction(f.partition, tuple(atoms)).collect()


def build_extension(spec: OperatorSpec, u: ExtensionUnitary) -> Extension:
    """Assemble T_u; the boundary matrix is derived once and cached."""
    if u.size != spec.deficiency_index:
        raise StructuralError(
            f"unitary size {u.size} != deficiency index {spec.deficiency_index}"
        )
    return Extension(spec=spec, unitary=u, boundary=boundary_matrix_general(spec, u))


# ---------------------------------------------------------------------------
# sampling and the numeric boundary-matrix oracle
# ---------------------------------------------------------------------------

def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) in real arithmetic, rounded as CPython and numpy
    round a product of two complex scalars: numpy may fuse a complex array
    product (FMA), which rounds differently."""
    return ar * br - ai * bi, ar * bi + ai * br


def _complex(re, im) -> np.ndarray:
    """The complex array with parts `re` and `im`, each kept bit for bit."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real = re
    z.imag = im
    return z


def _minimal_domain_draws(part: Partition, rng: np.random.Generator, count: int,
                          atoms_per_piece: int = 3, eta: int = 0):
    """Exponents and coefficients of `count` minimal-domain samples on `part`.

    Sample s draws, per piece, `atoms_per_piece` = m exponents
    uniform(-2, 2) + i uniform(-8, 8) and m - 2 complex normal weights, then
    `eta` complex normal coordinates.  The piece's 2 x m endpoint system
    (rows e^{mu a}, e^{mu b}) has an (m - 2)-dimensional null space for
    generic draws; the coefficients are the weights on its right singular
    vectors.  Returns (mus, coeffs, etas) shaped (count, npieces, m) twice
    and (count, eta).

    The draws are read in the order of one uniform(-2, 2, m),
    uniform(-8, 8, m), normal(m - 2), normal(m - 2) call each per piece and
    normal(eta) twice per sample, two calls a piece: uniform(lo, hi) is
    lo + (hi - lo) x on the stream's doubles x, and a power-of-two
    (hi - lo) makes the product exact, so the values are bit for bit those
    of the separate calls.  One stacked SVD serves every piece of every
    sample, and one stacked matmul forms every null combination: numpy runs
    each (m, m - 2) @ (m - 2, 1) product through the inner loop a lone
    `null @ weights` takes, so both give each piece's own result.
    """
    npieces, m = part.npieces, atoms_per_piece
    nnull = max(m - 2, 0)
    uniform = np.empty((count, npieces, 2 * m))
    normal = np.empty((count, npieces, 2 * nnull))
    normal_eta = np.empty((count, 2 * eta))
    for s in range(count):
        for k in range(npieces):
            rng.random(out=uniform[s, k])
            rng.standard_normal(out=normal[s, k])
        rng.standard_normal(out=normal_eta[s])
    mus = (-2.0 + 4.0 * uniform[..., :m]) + 1j * (-8.0 + 16.0 * uniform[..., m:])
    weights = normal[..., :nnull] + 1j * normal[..., nnull:]
    ends = np.asarray(part.endpoints)[:, None]
    rows = np.stack([np.exp(mus * ends[:-1]), np.exp(mus * ends[1:])], axis=-2)
    _, _, vh = np.linalg.svd(rows)
    null = vh[..., 2:, :].conj().swapaxes(-1, -2)      # columns spanning each null space
    coeffs = np.matmul(null, weights[..., None])[..., 0]
    return mus, coeffs, normal_eta[:, :eta] + 1j * normal_eta[:, eta:]


def minimal_domain_sample(spec: OperatorSpec, rng: np.random.Generator,
                          atoms_per_piece: int = 3) -> PiecewiseFunction:
    """Random smooth vector with vanishing traces at every constrained knot.

    Per piece, `atoms_per_piece` random exponents and a random combination
    from the null space of their 2 x m endpoint system: a one-sample call of
    `_minimal_domain_draws`, the one sampler of the numeric route too.
    """
    part = spec.effective_partition
    mus, coeffs, _ = _minimal_domain_draws(part, rng, 1, atoms_per_piece)
    return PiecewiseFunction(part, tuple(
        ExponentialAtom(k, c, mu)
        for k in range(part.npieces) for c, mu in zip(coeffs[0, k], mus[0, k])))


def _traces(mus, coeffs, t) -> np.ndarray:
    """sum_j coeffs[..., j] e^{mus[..., j] t}, one knot t per piece, summed
    along the last axis in its order; each product is taken as
    `boundary_values` takes it on the scalars of one atom."""
    er, ei = _cmul(mus.real, mus.imag, t[:, None], 0.0)
    e = np.exp(_complex(er, ei))
    terms = _complex(*_cmul(coeffs.real, coeffs.imag, e.real, e.imag))
    total = np.zeros(terms.shape[:-1], dtype=complex)
    for j in range(terms.shape[-1]):
        total += terms[..., j]
    return total


def boundary_matrix_numeric(ext: Extension, rng=None, nsamples: int = None,
                            max_retries: int = 5) -> BoundaryMatrix:
    """Recover B from sampled domain traces by least squares.

    Draws domain vectors xi + eta + u(eta), reads their one-sided traces, and
    solves the stacked relation L = B R.  Entirely independent of the
    closed-form route and of `_trace_matrices`: the traces are summed from
    the vectors' atoms, and only numpy lstsq solves for B.

    Each attempt works on arrays.  `_minimal_domain_draws` draws every xi
    and eta of the attempt; each piece then carries xi's atoms and the
    deficiency atoms eta_j e-_j and (u eta)_j e+_j (exponents -1 and +1),
    sorted as `PiecewiseFunction.collect` sorts them, by (Re mu, Im mu), and
    summed in that order.  The drawn exponents are almost surely distinct
    and none is +-1, so `collect` merges nothing, and a zero coefficient
    adds an exact +-0 to a sum started at +0, as dropping it would.  So B
    has the bits of `boundary_values(ext.domain_vector(xi, eta))` on
    `minimal_domain_sample` draws from the same generator.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    part = ext.spec.effective_partition
    n = ext.spec.deficiency_index
    k = nsamples if nsamples is not None else 2 * n + 3
    ends = part.endpoints
    # the coefficients of e-_j and e+_j, columns 0 and 1 of row j
    norms = np.array([[deficiency_normalizer(sign, a, b) for sign in "-+"]
                      for a, b in zip(ends, ends[1:])])
    ends = np.asarray(ends)
    for _ in range(max_retries):
        mus, coeffs, etas = _minimal_domain_draws(part, rng, k, eta=n)
        deficiency = np.stack([etas, np.stack([ext.unitary.matrix @ eta for eta in etas])],
                              axis=-1)
        mus = np.concatenate([mus, np.broadcast_to([-1.0 + 0j, 1.0 + 0j], deficiency.shape)],
                             axis=-1)
        coeffs = np.concatenate(
            [coeffs, _complex(*_cmul(deficiency.real, deficiency.imag, norms, 0.0))], axis=-1)
        order = np.lexsort((mus.imag, mus.real), axis=-1)
        mus = np.take_along_axis(mus, order, -1)
        coeffs = np.take_along_axis(coeffs, order, -1)
        Lmat = np.ascontiguousarray(_traces(mus, coeffs, ends[:-1]).T)
        Rmat = np.ascontiguousarray(_traces(mus, coeffs, ends[1:]).T)
        sv = np.linalg.svd(Rmat, compute_uv=False)
        if sv[-1] < 1e-8 * sv[0]:
            continue                     # rank-deficient draw; retry fresh
        B, *_ = np.linalg.lstsq(Rmat.conj().T, Lmat.conj().T, rcond=None)
        B = B.conj().T
        residual = np.max(np.abs(B @ Rmat - Lmat)) / max(np.max(np.abs(Lmat)), 1e-30)
        if residual < 1e-7:
            return BoundaryMatrix(B)
    raise NumericalError("could not recover a boundary matrix from sampled traces")
