"""Test oracles for the commutator hypothesis of the unbounded K-homology
class: [T_B, M_f] must be bounded, and on the minimal domain it acts as
multiplication by i f'.  No CLI command reads these; the pairing and
acceptance tests do (``from oracles import ...``: pytest puts this
directory on the import path).
"""

import numpy as np

from extlab.analysis import ExponentialAtom, Partition, PiecewiseFunction, inner_product, multiply
from extlab.pairing import _cuts, _derivative_pieces, _grid_values, _terms_at
from extlab.vonneumann import OperatorSpec, minimal_domain_sample


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
