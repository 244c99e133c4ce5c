"""Deficiency spaces and the unitary <-> boundary-matrix dictionary.

The two independent oracles here are scipy's RK45 integrator (for the shape
of the deficiency solutions) and a one-shot sympy computation (for the
algebraic identity behind the two-piece closed form).
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from extlab.analysis import Partition, boundary_values, inner_product, norm
from extlab.errors import (
    NumericalError,
    SingularParameterizationError,
    StructuralError,
    ValidationError,
)
from extlab.vonneumann import (
    BoundaryMatrix,
    ExtensionUnitary,
    OperatorSpec,
    boundary_matrix_closed_form,
    boundary_matrix_general,
    boundary_matrix_numeric,
    build_extension,
    compute_deficiency,
    deficiency_normalizer,
    haar_unitary,
    identity_unitary,
    minimal_domain_sample,
    swap_unitary,
    unitary_from_boundary,
)
from oracles import apply_decomposed, extension_from_boundary, symmetry_defect

SQRT_E = math.sqrt(math.e)

# normalizers of e^{-theta} / e^{+theta} on the default pieces, frozen;
# omega0 = sqrt(2/(e-1)) and the rest are omega0 * {sqrt(e), e, 1/sqrt(e)}
OMEGA0 = 1.0788667265879752
MINUS_COEFFS = (1.7787505203762144, 2.932663818213186)
PLUS_COEFFS = (1.0788667265879752, 0.6543657474194139)


def default_spec():
    return OperatorSpec(Partition((0.0, 0.5, 1.0)))


# ---------------------------------------------------------------------------
# deficiency spaces


def test_deficiency_indices_default():
    spec = default_spec()
    for sign in "+-":
        space = compute_deficiency(spec, sign)
        assert space.index == 2
        assert len(space.basis) == 2


def test_deficiency_index_counts_effective_pieces():
    part3 = Partition((0.0, 0.25, 0.5, 1.0))
    assert OperatorSpec(part3).deficiency_index == 3
    released = OperatorSpec(Partition((0.0, 0.5, 1.0)), knot_constraints=(0.0, 1.0))
    assert released.deficiency_index == 1
    assert released.effective_partition.endpoints == (0.0, 1.0)


def test_deficiency_shapes_match_rk45_oracle():
    # T*f = (+-i) f reads f' = (-+1) f on each piece; integrate it blind and
    # compare against the returned basis vector up to one global constant.
    spec = default_spec()
    for sign, slope in (("-", -1.0), ("+", +1.0)):
        space = compute_deficiency(spec, sign)
        for k, vec in enumerate(space.basis):
            a, b = spec.effective_partition.piece_bounds(k)
            sol = solve_ivp(
                lambda t, y: slope * y, (a, b), [1.0],
                rtol=1e-12, atol=1e-14, dense_output=True,
            )
            th = np.linspace(a + 1e-9, b - 1e-9, 101)
            ratio = vec(th) / sol.sol(th)[0]
            assert np.max(np.abs(ratio - ratio[0])) < 1e-9
            # and the vector vanishes identically on the other pieces
            other = np.linspace(0.0, 1.0, 401)
            mask = (other < a) | (other > b)
            assert np.max(np.abs(vec(other[mask]))) == 0.0


def test_deficiency_basis_frozen_coefficients():
    spec = default_spec()
    minus = compute_deficiency(spec, "-")
    plus = compute_deficiency(spec, "+")
    for k in range(2):
        am = minus.basis[k].atoms[0]
        ap = plus.basis[k].atoms[0]
        assert am.piece == ap.piece == k
        assert am.exponent == -1.0
        assert ap.exponent == +1.0
        assert abs(am.coefficient - MINUS_COEFFS[k]) < 1e-12
        assert abs(ap.coefficient - PLUS_COEFFS[k]) < 1e-12
    assert abs(deficiency_normalizer("+", 0.0, 0.5) - OMEGA0) < 1e-15


def test_deficiency_gram_is_identity():
    spec = OperatorSpec(Partition((0.0, 0.25, 0.5, 1.0)))
    for sign in "+-":
        g = compute_deficiency(spec, sign).gram()
        assert np.max(np.abs(g - np.eye(3))) < 1e-12


def test_deficiency_rejects_bad_sign():
    with pytest.raises(ValidationError):
        compute_deficiency(default_spec(), "x")
    with pytest.raises(ValidationError):
        deficiency_normalizer("z", 0.0, 1.0)


@pytest.mark.parametrize("sign", "+-")
def test_a_piece_below_float_resolution_has_no_normalizer(sign):
    # e^{+-2 theta} rounds to one value at both ends: no unit vector exists
    # in floating point, which is invalid input, not a division by zero
    for a, b in ((0.0, 4e-166), (0.5, 0.5 + 1e-17), (1.0 - 5e-17, 1.0)):
        with pytest.raises(ValidationError, match="too short to normalize"):
            deficiency_normalizer(sign, a, b)
    assert deficiency_normalizer(sign, 0.5, 0.5 + 1e-9) > 1e4


def test_operator_spec_validation():
    with pytest.raises(ValidationError):
        OperatorSpec(Partition((0.0, 0.5, 1.0)), knot_constraints=(0.0, 0.3, 1.0))
    with pytest.raises(ValidationError):
        OperatorSpec(Partition((0.0, 0.5, 1.0)), knot_constraints=(0.0, 0.5))


# ---------------------------------------------------------------------------
# unitaries


def test_unitary_wrapper_rejects_non_unitary():
    with pytest.raises(ValidationError):
        ExtensionUnitary(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_haar_unitary_is_unitary_and_deterministic():
    u1 = haar_unitary(np.random.default_rng(42))
    u2 = haar_unitary(np.random.default_rng(42))
    u3 = haar_unitary(np.random.default_rng(43))
    assert np.array_equal(u1.matrix, u2.matrix)
    assert np.max(np.abs(u1.matrix - u3.matrix)) > 1e-3
    for n in (2, 3, 5):
        u = haar_unitary(np.random.default_rng(7), n)
        assert np.max(np.abs(u.matrix @ u.matrix.conj().T - np.eye(n))) < 1e-12


# ---------------------------------------------------------------------------
# boundary matrices: three routes to the same object


def test_closed_form_identity_via_sympy():
    """One-shot symbolic proof: on the default partition the trace-matrix
    formula (N_L + M_L u)(N_R + M_R u)^{-1} reduces to the displayed U(2)
    closed form, for arbitrary (not just unitary) u with invertible factor."""
    import sympy as sp

    a, b, c, d = sp.symbols("a b c d")
    E = sp.E
    knots = (sp.Integer(0), sp.Rational(1, 2), sp.Integer(1))
    NL, ML, NR, MR = (sp.zeros(2, 2) for _ in range(4))
    for k in range(2):
        lo, hi = knots[k], knots[k + 1]
        nk = sp.sqrt(2 / (sp.exp(-2 * lo) - sp.exp(-2 * hi)))
        mk = sp.sqrt(2 / (sp.exp(2 * hi) - sp.exp(2 * lo)))
        NL[k, k] = nk * sp.exp(-lo)
        NR[k, k] = nk * sp.exp(-hi)
        ML[k, k] = mk * sp.exp(lo)
        MR[k, k] = mk * sp.exp(hi)
    U = sp.Matrix([[a, b], [c, d]])
    Delta = a * d - b * c
    den = 1 + (a + d) * sp.sqrt(E) + Delta * E
    closed_num = sp.Matrix(
        [
            [a + (1 + Delta) * sp.sqrt(E) + d * E, b * (1 - E)],
            [c * (1 - E), d + (1 + Delta) * sp.sqrt(E) + a * E],
        ]
    )
    # closed == (NL + ML U)(NR + MR U)^{-1}  iff  the cleared form vanishes
    cleared = closed_num * (NR + MR * U) - den * (NL + ML * U)
    assert sp.simplify(cleared) == sp.zeros(2, 2)


def test_closed_form_anchors_are_exact():
    swap = boundary_matrix_closed_form(swap_unitary()).matrix
    assert np.array_equal(swap, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    ident = boundary_matrix_closed_form(identity_unitary()).matrix
    assert np.array_equal(ident, np.eye(2, dtype=complex))


def test_closed_form_matches_general_route():
    spec = default_spec()
    rng = np.random.default_rng(5)
    for _ in range(25):
        u = haar_unitary(rng)
        Bc = boundary_matrix_closed_form(u).matrix
        Bg = boundary_matrix_general(spec, u).matrix
        assert np.max(np.abs(Bc - Bg)) < 1e-12


def test_boundary_matrix_is_unitary():
    spec = default_spec()
    rng = np.random.default_rng(11)
    for _ in range(10):
        B = boundary_matrix_general(spec, haar_unitary(rng)).matrix
        assert np.max(np.abs(B @ B.conj().T - np.eye(2))) < 1e-12


def test_unitary_boundary_roundtrip():
    spec = OperatorSpec(Partition((0.0, 0.3, 0.7, 1.0)))
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = haar_unitary(rng, 3)
        B = boundary_matrix_general(spec, u)
        u2 = unitary_from_boundary(spec, B)
        assert np.max(np.abs(u.matrix - u2.matrix)) < 1e-10


def test_numeric_trace_recovery_agrees():
    # sampled-trace least squares is blind to the parameterization entirely
    spec = default_spec()
    rng = np.random.default_rng(17)
    for _ in range(5):
        u = haar_unitary(rng)
        ext = build_extension(spec, u)
        Bn = boundary_matrix_numeric(ext, rng=np.random.default_rng(99))
        assert np.max(np.abs(Bn.matrix - ext.boundary.matrix)) < 1e-8


def _object_boundary_matrix(ext, rng, max_retries=5):
    """B the object way: each sample a `minimal_domain_sample`, a
    `domain_vector` and its `boundary_values`, then the least squares of
    `boundary_matrix_numeric`, retries included."""
    n = ext.spec.deficiency_index
    for _ in range(max_retries):
        Ls, Rs = [], []
        for _s in range(2 * n + 3):
            xi = minimal_domain_sample(ext.spec, rng)
            eta = rng.normal(size=n) + 1j * rng.normal(size=n)
            L, R = boundary_values(ext.domain_vector(xi, eta))
            Ls.append(L)
            Rs.append(R)
        Lmat = np.column_stack(Ls)
        Rmat = np.column_stack(Rs)
        sv = np.linalg.svd(Rmat, compute_uv=False)
        if sv[-1] < 1e-8 * sv[0]:
            continue
        B, *_ = np.linalg.lstsq(Rmat.conj().T, Lmat.conj().T, rcond=None)
        B = B.conj().T
        residual = np.max(np.abs(B @ Rmat - Lmat)) / max(np.max(np.abs(Lmat)), 1e-30)
        if residual < 1e-7:
            return B
    raise AssertionError("the object route recovered no boundary matrix")


def _unequal_spec(npieces, seed, released=False):
    rng = np.random.default_rng(seed)
    knots = (0.0, *np.sort(rng.uniform(0.0, 1.0, npieces - 1)).tolist(), 1.0)
    # releasing every other interior knot merges pairs of pieces
    constraints = (0.0, *knots[2:-1:2], 1.0) if released else None
    return OperatorSpec(Partition(knots), constraints)


@pytest.mark.parametrize("npieces, seeds", [
    pytest.param(n, seeds, id=f"{n}-pieces")
    for n, seeds in ((2, (0, 1, 2)), (3, (0, 1, 2)), (8, (0, 1, 2)), (32, (3, 4)), (64, (5,)))
])
@pytest.mark.parametrize("released", [False, True], ids=["all-knots", "released"])
def test_numeric_boundary_matrix_has_the_object_routes_bits(npieces, seeds, released):
    # the array route sums each piece's atoms in `collect`'s order and takes
    # every product as the scalar path does, so B (and the 12-digit
    # `deviation_numeric` of `boundary-matrix`) keeps every bit
    spec = _unequal_spec(npieces, 100 + npieces, released)
    for seed in seeds:
        ext = build_extension(spec, haar_unitary(np.random.default_rng(seed),
                                                 spec.deficiency_index))
        array = boundary_matrix_numeric(ext, rng=np.random.default_rng(seed)).matrix
        objects = _object_boundary_matrix(ext, np.random.default_rng(seed))
        assert array.tobytes() == objects.tobytes()


@pytest.mark.parametrize("npieces", [1, 2, 5])
def test_minimal_domain_sample_draws_in_the_per_piece_order(npieces):
    # per piece: uniform(-2, 2, m), uniform(-8, 8, m), one 2 x m SVD and
    # normal(m - 2) twice; the stacked sampler reads the same stream and
    # gives the same atoms, bit for bit
    spec = _unequal_spec(npieces, npieces)
    part = spec.effective_partition
    mine, theirs = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(3):
        atoms = []
        for k in range(part.npieces):
            a, b = part.piece_bounds(k)
            mus = theirs.uniform(-2.0, 2.0, 3) + 1j * theirs.uniform(-8.0, 8.0, 3)
            _, _, vh = np.linalg.svd(np.vstack([np.exp(mus * a), np.exp(mus * b)]))
            null = vh[2:].conj().T
            weights = theirs.normal(size=1) + 1j * theirs.normal(size=1)
            atoms += [(k, complex(c), complex(mu)) for c, mu in zip(null @ weights, mus)]
        xi = minimal_domain_sample(spec, mine)
        assert [(a.piece, a.coefficient, a.exponent) for a in xi.atoms] == atoms


def test_an_extension_builds_its_deficiency_bases_once(monkeypatch):
    import extlab.vonneumann as vonneumann

    calls = []
    original = vonneumann.compute_deficiency
    monkeypatch.setattr(vonneumann, "compute_deficiency",
                        lambda spec, sign: calls.append(sign) or original(spec, sign))
    spec = default_spec()
    ext = build_extension(spec, haar_unitary(np.random.default_rng(4)))
    rng = np.random.default_rng(4)
    for _ in range(3):
        xi = minimal_domain_sample(spec, rng)
        eta = rng.normal(size=2) + 1j * rng.normal(size=2)
        ext.domain_vector(xi, eta)
        apply_decomposed(ext, xi, eta)
    assert sorted(calls) == ["+", "-"]


def test_closed_form_denominator_bounded_below_for_unitaries():
    # |det(I + sqrt(e) u)| >= (sqrt(e)-1)^2 when u is unitary, so the
    # singularity guard can never fire on valid input
    rng = np.random.default_rng(23)
    floor = (SQRT_E - 1.0) ** 2
    for _ in range(200):
        (alpha, beta), (gamma, delta) = haar_unitary(rng).matrix
        den = 1.0 + (alpha + delta) * SQRT_E + (alpha * delta - beta * gamma) * math.e
        assert abs(den) >= floor - 1e-9


def test_singular_parameterization_guard():
    class _NonUnitaryStub:
        """u = -I/sqrt(e) zeroes the denominator exactly; only reachable by
        bypassing the unitarity check, which is what this stub does."""

        size = 2
        matrix = -np.eye(2, dtype=complex) / SQRT_E

    with pytest.raises(SingularParameterizationError):
        boundary_matrix_closed_form(_NonUnitaryStub())


def test_closed_form_requires_two_pieces():
    with pytest.raises(StructuralError):
        boundary_matrix_closed_form(haar_unitary(np.random.default_rng(0), 3))


# ---------------------------------------------------------------------------
# extensions as unbounded operators


def test_extension_size_mismatch():
    with pytest.raises(StructuralError):
        build_extension(default_spec(), haar_unitary(np.random.default_rng(0), 3))


def test_minimal_domain_sample_has_vanishing_traces():
    spec = OperatorSpec(Partition((0.0, 0.25, 0.5, 1.0)))
    rng = np.random.default_rng(8)
    for _ in range(5):
        xi = minimal_domain_sample(spec, rng)
        L, R = boundary_values(xi)
        scale = max(norm(xi), 1e-30)
        assert max(np.max(np.abs(L)), np.max(np.abs(R))) < 1e-10 * scale


def test_domain_vectors_obey_boundary_relation():
    spec = default_spec()
    rng = np.random.default_rng(31)
    for _ in range(5):
        ext = build_extension(spec, haar_unitary(rng))
        xi = minimal_domain_sample(spec, rng)
        eta = rng.normal(size=2) + 1j * rng.normal(size=2)
        L, R = boundary_values(ext.domain_vector(xi, eta))
        assert np.max(np.abs(np.asarray(L) - ext.boundary.matrix @ np.asarray(R))) < 1e-9


def test_decomposed_action_is_the_dirac_symbol():
    # T_u(xi + eta + u eta) computed term by term must equal (1/i) d/dtheta
    # applied to the assembled function
    spec = default_spec()
    rng = np.random.default_rng(13)
    ext = build_extension(spec, haar_unitary(rng))
    xi = minimal_domain_sample(spec, rng)
    eta = rng.normal(size=2) + 1j * rng.normal(size=2)
    f = ext.domain_vector(xi, eta)
    lhs = apply_decomposed(ext, xi, eta)
    rhs = f.dirac_apply()
    th = np.linspace(0.01, 0.99, 211)
    th = th[np.abs(th - 0.5) > 1e-3]
    assert np.max(np.abs(lhs(th) - rhs(th))) < 1e-9 * max(norm(f), 1.0)


def test_extensions_are_symmetric_on_their_domain():
    spec = default_spec()
    rng = np.random.default_rng(29)
    for u in (swap_unitary(), identity_unitary(), haar_unitary(rng)):
        ext = build_extension(spec, u)
        assert symmetry_defect(ext, rng=np.random.default_rng(2), npairs=10) < 1e-8


def test_extension_from_boundary_matches():
    spec = default_spec()
    B = BoundaryMatrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    ext = extension_from_boundary(spec, B)
    assert np.max(np.abs(ext.boundary.matrix - B.matrix)) < 1e-12
    assert np.max(np.abs(ext.unitary.matrix - swap_unitary().matrix)) < 1e-12
