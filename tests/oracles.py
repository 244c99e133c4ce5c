"""Test oracles: routes no CLI command reads, kept independent of the ones
it does so that tests can compare them (``from oracles import ...``:
pytest puts this directory on the import path).

- The commutator hypothesis of the unbounded K-homology class: [T_B, M_f]
  must be bounded, and on the minimal domain it acts as multiplication by
  i f'.
- Gauss-Legendre quadrature of inner products, which never touches
  `exp_integral`, and exact re-expressions of functions on finer partitions.
- The Lagrange identity of an extension, sampled over domain pairs, the
  extension of a given boundary matrix, and its action term by term on a
  decomposed domain vector.
- The characteristic equation one root at a time: the matrix, its |det|
  residual, and its null dimension by an SVD threshold, the per-root
  references of the stacked solves in `extlab.spectral`.
- A loop's plain Fourier re-expansion, and the H0 and H2 parts of an even
  K-class.
"""

import math

import numpy as np

from extlab.analysis import (
    ExponentialAtom,
    Partition,
    PiecewiseFunction,
    exp_integral,
    inner_product,
    multiply,
)
from extlab.errors import NumericalError, StructuralError, ValidationError
from extlab.pairing import TWO_PI, _cuts, _derivative_pieces, _grid_values, _terms_at
from extlab.vonneumann import (
    BoundaryMatrix,
    Extension,
    OperatorSpec,
    build_extension,
    minimal_domain_sample,
    unitary_from_boundary,
)


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


def from_atoms(partition: Partition, spec) -> PiecewiseFunction:
    """Convenience constructor from (piece, coefficient, exponent) triples."""
    return PiecewiseFunction(partition, tuple(ExponentialAtom(p, c, m) for p, c, m in spec))


def refine_to(f: PiecewiseFunction, fine: Partition) -> PiecewiseFunction:
    """Re-express f on a finer partition (exact: atoms split, nothing changes)."""
    if not fine.refines(f.partition):
        raise StructuralError("target partition does not refine the source")
    atoms = []
    for k in range(fine.npieces):
        lo, hi = fine.piece_bounds(k)
        src = f.partition.piece_of(0.5 * (lo + hi))
        for a in f.atoms:
            if a.piece == src:
                atoms.append(ExponentialAtom(k, a.coefficient, a.exponent))
    return PiecewiseFunction(fine, tuple(atoms))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def quadrature_inner_product(f, g, partition: Partition = None) -> complex:
    """Gauss-Legendre (64 nodes per piece) pairing for sampled/callable inputs.

    `f` and `g` may be PiecewiseFunction or plain callables; this route never
    touches exp_integral, so it cross-checks the closed-form `inner_product`.
    """
    if partition is None:
        part = f.partition if isinstance(f, PiecewiseFunction) else g.partition
    else:
        part = partition
    total = 0.0 + 0.0j
    for k in range(part.npieces):
        a, b = part.piece_bounds(k)
        x = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
        w = 0.5 * (b - a) * _GL_WEIGHTS
        total += np.sum(w * np.conj(f(x)) * g(x))
    return complex(total)


def extension_from_boundary(spec: OperatorSpec, B: BoundaryMatrix) -> Extension:
    return build_extension(spec, unitary_from_boundary(spec, B))


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
        f, Tf = ext.domain_vector(xi1, e1), apply_decomposed(ext, xi1, e1)
        g, Tg = ext.domain_vector(xi2, e2), apply_decomposed(ext, xi2, e2)
        nf = math.sqrt(max(inner_product(f, f).real, 1e-30))
        ng = math.sqrt(max(inner_product(g, g).real, 1e-30))
        defect = abs(inner_product(Tf, g) - inner_product(f, Tg)) / (nf * ng)
        worst = max(worst, defect)
    return worst


def apply_decomposed(ext: Extension, xi: PiecewiseFunction, eta: np.ndarray) -> PiecewiseFunction:
    """T_u(xi + eta + u(eta)) = T(xi) + i eta - i u(eta)."""
    ueta = ext.unitary.matrix @ np.asarray(eta, dtype=complex)
    return ext._plus_deficiency(xi.dirac_apply(), [1j * complex(c) for c in eta],
                                [-1j * complex(c) for c in ueta])


def characteristic_matrix(B: np.ndarray, lengths, lam: float) -> np.ndarray:
    """I - B Diag(e^{i lambda l_k})."""
    return np.eye(B.shape[0]) - B @ np.diag(np.exp(1j * lam * np.asarray(lengths)))


def characteristic_residual(B: np.ndarray, lengths, lam: float) -> float:
    return float(abs(np.linalg.det(characteristic_matrix(B, lengths, lam))))


def nullity(B: np.ndarray, lengths, lam: float) -> int:
    """The null dimension of the characteristic matrix at lambda by its
    singular values, floored at the natural scale 1 of I - (unitary)(unitary):
    at a full-multiplicity eigenvalue the matrix is numerically zero and a
    purely relative cut would see rank where there is none."""
    sv = np.linalg.svd(characteristic_matrix(B, lengths, lam), compute_uv=False)
    return int(np.sum(sv < 1e-8 * max(sv[0], 1.0)))


class BandwidthError(NumericalError):
    """A Fourier re-expansion could not meet tolerance at the requested bandwidth."""


def fourier_coefficients(loop, bandwidth: int, tol: float = 1e-10) -> dict:
    """Re-expansion of a `UnitaryLoop` as a plain Fourier series up to the
    given bandwidth.

    The L^2 re-expansion residual is computed exactly via Parseval; if it
    exceeds `tol` the loop genuinely needs a larger bandwidth (piecewise
    loops with mismatched halves have 1/m coefficient tails and may admit
    no acceptable finite bandwidth).
    """
    ms = np.arange(-bandwidth, bandwidth + 1)
    cm = np.zeros(len(ms), dtype=complex)
    norm2 = 0.0
    for lo, hi, terms in loop.pieces:
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


def h0_part(x) -> tuple:
    """The H0 coordinates of an even `KClassVector`."""
    if x.parity != "even":
        raise ValidationError("odd classes have no H0 part")
    return x.coordinates[: x.space.h0_rank]


def h2_part(x) -> tuple:
    """The H2 coordinates of an even `KClassVector`."""
    if x.parity != "even":
        raise ValidationError("odd classes have no H2 part")
    return x.coordinates[x.space.h0_rank :]
