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
- The ksum identities of one genus or one genus pair through the scalar
  K-class calculus, one class and one map at a time: the reference of the
  identity grid, which runs every genus pair at once on int64 arrays; and
  the `verify ksum` CSV rows formatted one check at a time, the reference
  of the CLI's per-block formatter.
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
from extlab.ksum import (
    IdentityCheck,
    SurfaceSpace,
    basepoint_unit,
    chern_dolbeault,
    constant_map,
    crunch,
    disjoint_pair,
    euler_characteristic,
    fundamental_k_class,
    identification_to_union,
    identification_to_wedge,
    pinch_connected_sum,
    pinch_natural_sum,
    pushforward,
)
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


def det3(rows) -> int:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _identity_check(name, g1, g2, lhs, rhs, expect_equal=True) -> IdentityCheck:
    lhs, rhs = (tuple(getattr(side, "coordinates", side)) for side in (lhs, rhs))
    return IdentityCheck(name, g1, g2, lhs, rhs, expect_equal, (lhs == rhs) == expect_equal)


def genus_checks(g: int) -> list:
    """The two identities `ksum.verify_identities` checks for genus g."""
    s, dol = SurfaceSpace.surface(g), chern_dolbeault(g)
    return [
        _identity_check("fundamental-class-normalization", g, None,
                        fundamental_k_class(s), dol + (g - 1) * basepoint_unit(s)),
        _identity_check("constant-map-index", g, None,
                        pushforward(constant_map(s), dol), (1 - g,)),
    ]


def pair_checks(g1: int, g2: int) -> list:
    """The twelve identities `ksum.verify_identities` checks for the ordered
    genus pair (g1, g2), in its order."""
    s1, s2 = SurfaceSpace.surface(g1), SurfaceSpace.surface(g2)
    dol1, dol2 = chern_dolbeault(g1), chern_dolbeault(g2)
    fund1, fund2 = fundamental_k_class(s1), fundamental_k_class(s2)
    dol_sharp, dol_nat = chern_dolbeault(g1 + g2), chern_dolbeault(g1 + g2 - 1)
    fund_sharp = fundamental_k_class(dol_sharp.space)
    fund_nat = fundamental_k_class(dol_nat.space)
    iota_s1 = basepoint_unit(s1)

    j_wedge = identification_to_wedge(s1, s2)
    p_sharp = pinch_connected_sum(g1, g2)
    q = crunch(g1, g2)
    iota_wedge = basepoint_unit(j_wedge.target)
    dol1_w = pushforward(j_wedge, disjoint_pair(dol1, 0 * dol2))
    dol2_w = pushforward(j_wedge, disjoint_pair(0 * dol1, dol2))
    basis = (iota_wedge.coordinates, dol1_w.coordinates, dol2_w.coordinates)
    pinched = pushforward(p_sharp, dol_sharp)
    via_composite = pushforward(q.compose(p_sharp), dol_sharp)
    both_fund = disjoint_pair(fund1, fund2)
    j_union = identification_to_union(g1, g2)
    p_nat = pinch_natural_sum(g1, g2)
    euler_sum = (euler_characteristic(g1) + euler_characteristic(g2),)

    return [_identity_check(name, g1, g2, *sides) for name, *sides in [
        ("wedge-basis-unimodular", (abs(det3(basis)),), (1,)),
        ("crunch-left-dolbeault", pushforward(q, dol1_w), dol1),
        ("crunch-right-dolbeault", pushforward(q, dol2_w), (1 - g2) * iota_s1),
        ("pinch-dolbeault-defect", pinched, dol1_w + dol2_w - iota_wedge),
        ("crunch-pinch-functoriality", via_composite, pushforward(q, pinched)),
        ("crunch-pinch-composite", via_composite, dol1 - g2 * iota_s1),
        ("stabilization-well-defined", via_composite + (g1 + g2 - 1) * iota_s1,
         dol1 + (g1 - 1) * iota_s1),
        ("natural-sum-euler-additivity", (euler_characteristic(g1 + g2 - 1),), euler_sum),
        ("connected-sum-euler-defect", euler_sum, (euler_characteristic(g1 + g2),), False),
        ("connected-sum-fundamental-class", pushforward(j_wedge, both_fund),
         pushforward(p_sharp, fund_sharp)),
        ("dolbeault-natural-sum-addition", pushforward(j_union, disjoint_pair(dol1, dol2)),
         pushforward(p_nat, dol_nat)),
        ("natural-sum-fundamental-class", pushforward(j_union, both_fund),
         pushforward(p_nat, fund_nat)),
    ]]


def ksum_rows(checks) -> list:
    """The `verify ksum` CSV rows of `IdentityCheck`s, one check at a time."""
    return [
        (
            name,
            "" if g1 is None else str(g1),
            "" if g2 is None else str(g2),
            " ".join(map(str, lhs)),
            " ".join(map(str, rhs)),
            "equal" if expect_equal else "unequal",
            "ok" if ok else "mismatch",
        )
        for name, g1, g2, lhs, rhs, expect_equal, ok in checks
    ]
