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
import math

import numpy as np

from .analysis import (
    ExponentialAtom,
    Partition,
    PiecewiseFunction,
    boundary_values,
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
    """Unit-norm coefficient for e^{-theta} (sign '-') or e^{+theta} on [a, b]."""
    if sign == "-":
        return math.sqrt(2.0 / (math.exp(-2.0 * a) - math.exp(-2.0 * b)))
    if sign == "+":
        return math.sqrt(2.0 / (math.exp(2.0 * b) - math.exp(2.0 * a)))
    raise ValidationError(f"sign must be '+' or '-', got {sign!r}")


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
    description: str

    @property
    def minus_basis(self):
        return compute_deficiency(self.spec, "-").basis

    @property
    def plus_basis(self):
        return compute_deficiency(self.spec, "+").basis

    def domain_vector(self, xi: PiecewiseFunction, eta: np.ndarray) -> PiecewiseFunction:
        """xi + eta + u(eta) as an honest function (xi from the minimal domain,
        eta coordinates w.r.t. the minus-deficiency basis)."""
        f = xi
        ueta = self.unitary.matrix @ np.asarray(eta, dtype=complex)
        for j, (em, ep) in enumerate(zip(self.minus_basis, self.plus_basis)):
            f = f + complex(eta[j]) * em + complex(ueta[j]) * ep
        return f

    def apply_decomposed(self, xi: PiecewiseFunction, eta: np.ndarray) -> PiecewiseFunction:
        """T_u(xi + eta + u(eta)) = T(xi) + i eta - i u(eta)."""
        out = xi.dirac_apply()
        ueta = self.unitary.matrix @ np.asarray(eta, dtype=complex)
        for j, (em, ep) in enumerate(zip(self.minus_basis, self.plus_basis)):
            out = out + (1j * complex(eta[j])) * em + (-1j * complex(ueta[j])) * ep
        return out


def build_extension(spec: OperatorSpec, u: ExtensionUnitary) -> Extension:
    """Assemble T_u; the boundary matrix is derived once and cached."""
    if u.size != spec.deficiency_index:
        raise StructuralError(
            f"unitary size {u.size} != deficiency index {spec.deficiency_index}"
        )
    B = boundary_matrix_general(spec, u)
    desc = (
        "dom(T_u) = { xi + eta + u(eta) : xi in minimal domain, "
        "eta in Ker(T*-i) }; action T(xi) + i eta - i u(eta); traces obey L = B R"
    )
    return Extension(spec=spec, unitary=u, boundary=B, description=desc)


def extension_from_boundary(spec: OperatorSpec, B: BoundaryMatrix) -> Extension:
    return build_extension(spec, unitary_from_boundary(spec, B))


# ---------------------------------------------------------------------------
# sampling and the numeric boundary-matrix oracle
# ---------------------------------------------------------------------------

def minimal_domain_sample(spec: OperatorSpec, rng: np.random.Generator,
                          atoms_per_piece: int = 3) -> PiecewiseFunction:
    """Random smooth vector with vanishing traces at every constrained knot.

    Per piece, draws `atoms_per_piece` random exponents and solves the 2 x m
    endpoint system for a null combination; generic draws give a one- (or
    higher-) dimensional null space to sample from.
    """
    part = spec.effective_partition
    out_atoms = []
    for k in range(part.npieces):
        a, b = part.piece_bounds(k)
        mus = rng.uniform(-2.0, 2.0, atoms_per_piece) + 1j * rng.uniform(-8.0, 8.0, atoms_per_piece)
        rows = np.vstack([np.exp(mus * a), np.exp(mus * b)])
        _, _, vh = np.linalg.svd(rows)
        null = vh[2:].conj().T          # columns spanning the null space
        weights = rng.normal(size=null.shape[1]) + 1j * rng.normal(size=null.shape[1])
        coeffs = null @ weights
        for c, mu in zip(coeffs, mus):
            out_atoms.append(ExponentialAtom(k, c, mu))
    return PiecewiseFunction(part, tuple(out_atoms))


def boundary_matrix_numeric(ext: Extension, rng=None, nsamples: int = None,
                            max_retries: int = 5) -> BoundaryMatrix:
    """Recover B from sampled domain traces by least squares.

    Draws domain vectors xi + eta + u(eta), reads their one-sided traces, and
    solves the stacked relation L = B R.  Entirely independent of the
    closed-form route: only boundary_values and numpy lstsq are involved.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n = ext.spec.deficiency_index
    k = nsamples if nsamples is not None else 2 * n + 3
    for _ in range(max_retries):
        Ls, Rs = [], []
        for _s in range(k):
            xi = minimal_domain_sample(ext.spec, rng)
            eta = rng.normal(size=n) + 1j * rng.normal(size=n)
            f = ext.domain_vector(xi, eta)
            L, R = boundary_values(f)
            Ls.append(L)
            Rs.append(R)
        Lmat = np.column_stack(Ls)
        Rmat = np.column_stack(Rs)
        sv = np.linalg.svd(Rmat, compute_uv=False)
        if sv[-1] < 1e-8 * sv[0]:
            continue                     # rank-deficient draw; retry fresh
        B, *_ = np.linalg.lstsq(Rmat.conj().T, Lmat.conj().T, rcond=None)
        B = B.conj().T
        residual = np.max(np.abs(B @ Rmat - Lmat)) / max(np.max(np.abs(Lmat)), 1e-30)
        if residual < 1e-7:
            return BoundaryMatrix(B)
    raise NumericalError("could not recover a boundary matrix from sampled traces")


def symmetry_defect(ext: Extension, rng=None, npairs: int = 50) -> float:
    """max |<T_u f, g> - <f, T_u g>| over sampled domain pairs (Lagrange check)."""
    if rng is None:
        rng = np.random.default_rng(1)
    n = ext.spec.deficiency_index
    worst = 0.0
    for _ in range(npairs):
        xi1 = minimal_domain_sample(ext.spec, rng)
        xi2 = minimal_domain_sample(ext.spec, rng)
        e1 = rng.normal(size=n) + 1j * rng.normal(size=n)
        e2 = rng.normal(size=n) + 1j * rng.normal(size=n)
        f, Tf = ext.domain_vector(xi1, e1), ext.apply_decomposed(xi1, e1)
        g, Tg = ext.domain_vector(xi2, e2), ext.apply_decomposed(xi2, e2)
        nf = math.sqrt(max(inner_product(f, f).real, 1e-30))
        ng = math.sqrt(max(inner_product(g, g).real, 1e-30))
        defect = abs(inner_product(Tf, g) - inner_product(f, Tg)) / (nf * ng)
        worst = max(worst, defect)
    return worst
