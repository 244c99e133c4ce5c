"""Test oracles: routes no CLI command reads, kept independent of the ones
it does so that tests can compare them (``from oracles import ...``:
pytest puts this directory on the import path).

- The commutator hypothesis of the unbounded K-homology class: [T_B, M_f]
  must be bounded, and on the minimal domain it acts as multiplication by
  i f'.
- Gauss-Legendre quadrature of inner products, which never touches
  `exp_integral`, and exact re-expressions of functions on finer partitions.
- The Lagrange identity of an extension, sampled over domain pairs, and the
  extension of a given boundary matrix.
"""

import math

import numpy as np

from extlab.analysis import ExponentialAtom, Partition, PiecewiseFunction, inner_product, multiply
from extlab.errors import StructuralError
from extlab.pairing import _cuts, _derivative_pieces, _grid_values, _terms_at
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
        f, Tf = ext.domain_vector(xi1, e1), ext.apply_decomposed(xi1, e1)
        g, Tg = ext.domain_vector(xi2, e2), ext.apply_decomposed(xi2, e2)
        nf = math.sqrt(max(inner_product(f, f).real, 1e-30))
        ng = math.sqrt(max(inner_product(g, g).real, 1e-30))
        defect = abs(inner_product(Tf, g) - inner_product(f, Tg)) / (nf * ng)
        worst = max(worst, defect)
    return worst
