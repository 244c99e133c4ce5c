"""Closed-form exponential integrals and piecewise atoms, cross-checked
against scipy's adaptive quadrature (an independent algorithm family)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from extlab.analysis import (
    ExponentialAtom,
    Partition,
    PiecewiseFunction,
    boundary_values,
    exp_integral,
    from_atoms,
    inner_product,
    multiply,
    norm,
    quadrature_inner_product,
    refine_to,
)
from extlab.errors import StructuralError, ValidationError

# oracle value, frozen: quad(lambda t: exp(-2*t), 0, 0.5)
HALF_DECAY_INTEGRAL = 0.31606027941427883


def _quad_complex(f, a, b):
    re, _ = quad(lambda t: f(t).real, a, b, limit=200)
    im, _ = quad(lambda t: f(t).imag, a, b, limit=200)
    return complex(re, im)


def test_exp_integral_frozen_value():
    got = exp_integral(-2.0, 0.0, 0.5)
    assert abs(got - HALF_DECAY_INTEGRAL) < 1e-15
    assert abs(got.imag) == 0.0


DELTAS = [1.0, -2.0, 3.5 + 2.0j, -0.7 - 4.0j, 1e-6, 1e-10, 0.0, 2j * math.pi,
          1e-8j, 1e-6j, 1e-3j]


@pytest.mark.parametrize("delta", DELTAS)
def test_exp_integral_matches_quad_oracle(delta):
    a, b = 0.125, 0.875
    oracle = _quad_complex(lambda t: np.exp(complex(delta) * t), a, b)
    assert abs(exp_integral(delta, a, b) - oracle) < 1e-12


@pytest.mark.parametrize("a, b", [(0.125, 0.875), (0.5, 1.0)])
def test_exp_integral_on_an_array_equals_the_scalar_calls(a, b):
    cut = 0.1 / (b - a)          # |delta| (b - a) = 0.1 is the series cut
    near = [0.9999 * cut, 1.0001 * cut, -0.9999j * cut, 1.0001j * cut]
    deltas = np.array(DELTAS + near + [0.5 * cut]).reshape(4, 4)
    got = exp_integral(deltas, a, b)
    assert got.shape == deltas.shape
    want = np.array([[exp_integral(complex(d), a, b) for d in row] for row in deltas])
    assert np.array_equal(got, want)
    # bounds given per entry, as inner_product passes them
    ones = np.ones(deltas.shape)
    assert np.array_equal(exp_integral(deltas, a * ones, b * ones), want)


def test_exp_integral_series_branch_is_continuous():
    # the series branch has to join the difference-quotient branch seamlessly
    a, b = 0.2, 0.9
    cut = 0.1 / (b - a)
    lo = exp_integral(0.9999 * cut, a, b)
    hi = exp_integral(1.0001 * cut, a, b)
    assert abs(lo - hi) < 1e-4 * abs(lo) * (b - a)  # smooth in delta
    # and both branches agree with quad right at the seam
    for d in (0.9999 * cut, 1.0001 * cut):
        oracle = _quad_complex(lambda t: np.exp(complex(d) * t), a, b)
        assert abs(exp_integral(d, a, b) - oracle) < 1e-13


# ---------------------------------------------------------------------------
# partitions


def test_partition_default():
    p = Partition.default()
    assert p.endpoints == (0.0, 0.5, 1.0)
    assert p.npieces == 2
    assert p.lengths == (0.5, 0.5)


@pytest.mark.parametrize(
    "pts",
    [(0.0,), (0.1, 0.5, 1.0), (0.0, 0.5, 0.9), (0.0, 0.7, 0.3, 1.0), (0.0, 0.5, 0.5, 1.0)],
)
def test_partition_rejects_bad_knots(pts):
    with pytest.raises(ValidationError):
        Partition(pts)


def test_piece_of_is_half_open():
    p = Partition((0.0, 0.5, 1.0))
    assert p.piece_of(0.0) == 0
    assert p.piece_of(0.49999) == 0
    assert p.piece_of(0.5) == 1
    assert p.piece_of(1.0) == 1  # clamped into the last piece


def test_refines():
    coarse = Partition((0.0, 0.5, 1.0))
    fine = Partition((0.0, 0.25, 0.5, 1.0))
    assert fine.refines(coarse)
    assert not coarse.refines(fine)


# ---------------------------------------------------------------------------
# evaluation, traces, algebra


def _sample_function():
    part = Partition((0.0, 0.5, 1.0))
    return from_atoms(
        part,
        [(0, 1.5, -1.0), (0, 0.25j, 2.0), (1, -0.5, 1.0 + 2.0j)],
    )


def test_call_matches_atom_sum():
    f = _sample_function()
    th = 0.3
    expect = 1.5 * math.exp(-0.3) + 0.25j * math.exp(0.6)
    assert abs(f(th) - expect) < 1e-15
    # second piece
    th = 0.75
    expect = -0.5 * np.exp((1.0 + 2.0j) * 0.75)
    assert abs(f(th) - expect) < 1e-15


def test_call_half_open_at_interior_knot():
    part = Partition((0.0, 0.5, 1.0))
    f = from_atoms(part, [(0, 1.0, 0.0), (1, 2.0, 0.0)])
    assert f(0.5) == 2.0  # the knot belongs to the right piece
    assert f(0.49999999) == 1.0


def test_boundary_values():
    f = _sample_function()
    L, R = boundary_values(f)
    assert abs(L[0] - (1.5 + 0.25j)) < 1e-15
    assert abs(R[0] - (1.5 * math.exp(-0.5) + 0.25j * math.exp(1.0))) < 1e-15
    assert abs(L[1] - (-0.5 * np.exp((1.0 + 2.0j) * 0.5))) < 1e-15
    assert abs(R[1] - (-0.5 * np.exp(1.0 + 2.0j))) < 1e-15


def test_differentiate_and_dirac_apply_exact():
    f = _sample_function()
    df = f.differentiate()
    tf = f.dirac_apply()
    th = np.linspace(0.01, 0.99, 37)
    th = th[np.abs(th - 0.5) > 1e-3]  # keep the stencil inside one piece
    h = 1e-7
    fd = (f(th + h) - f(th - h)) / (2 * h)
    assert np.max(np.abs(df(th) - fd)) < 1e-6
    assert np.max(np.abs(tf(th) - fd / 1j)) < 1e-6


def test_multiply_is_pointwise_product():
    f = _sample_function()
    g = from_atoms(f.partition, [(0, 2.0, 1.0), (1, 1.0 + 1.0j, -0.5)])
    fg = multiply(f, g)
    th = np.linspace(0.0, 0.999, 101)
    assert np.max(np.abs(fg(th) - f(th) * g(th))) < 1e-13


def test_collect_merges_and_drops_zeros():
    part = Partition.default()
    f = from_atoms(part, [(0, 1.0, -1.0), (0, 2.0, -1.0), (1, 1.0, 0.0), (1, -1.0, 0.0)])
    g = f.collect()
    assert len(g.atoms) == 1
    assert g.atoms[0].coefficient == 3.0


def test_conjugate():
    f = _sample_function()
    th = np.linspace(0.0, 0.99, 53)
    assert np.max(np.abs(f.conjugate()(th) - np.conj(f(th)))) < 1e-15


def test_refine_preserves_values():
    f = _sample_function()
    fine = Partition((0.0, 0.25, 0.5, 0.75, 1.0))
    g = refine_to(f, fine)
    th = np.linspace(0.0, 0.999, 201)
    assert np.max(np.abs(g(th) - f(th))) < 1e-14


def test_refine_rejects_non_refinement():
    f = _sample_function()
    with pytest.raises(StructuralError):
        refine_to(f, Partition((0.0, 0.3, 1.0)))


def test_mixed_partitions_rejected():
    f = _sample_function()
    g = from_atoms(Partition((0.0, 0.3, 1.0)), [(0, 1.0, 0.0)])
    with pytest.raises(StructuralError):
        inner_product(f, g)


def test_atom_piece_out_of_range():
    with pytest.raises(StructuralError):
        from_atoms(Partition.default(), [(5, 1.0, 0.0)])


# ---------------------------------------------------------------------------
# inner products: closed form vs quadrature (dual route)


def test_inner_product_closed_vs_quadrature():
    rng = np.random.default_rng(7)
    part = Partition((0.0, 0.3, 0.55, 1.0))
    for _ in range(10):
        f = _random_function(part, rng)
        g = _random_function(part, rng)
        closed = inner_product(f, g)
        quadr = quadrature_inner_product(f, g)
        assert abs(closed - quadr) < 1e-11 * (1.0 + abs(closed))


def test_inner_product_against_scipy_quad():
    f = _sample_function()
    g = from_atoms(f.partition, [(0, 0.5 - 1.0j, 0.5), (1, 2.0, -1.0)])
    pieces = [(0.0, 0.5), (0.5, 1.0)]
    oracle = sum(
        _quad_complex(lambda t: np.conj(f(t)) * g(t), a, b) for a, b in pieces
    )
    assert abs(inner_product(f, g) - oracle) < 1e-12


def _random_function(part, rng, natoms=3):
    spec = []
    for _ in range(natoms):
        spec.append(
            (
                int(rng.integers(0, part.npieces)),
                complex(rng.normal(), rng.normal()),
                complex(rng.normal(), 3.0 * rng.normal()),
            )
        )
    return from_atoms(part, spec)


coeffs = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=5.0, allow_nan=False, allow_infinity=False
)
exponents = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=6.0, allow_nan=False, allow_infinity=False
)


@st.composite
def functions(draw):
    part = Partition((0.0, 0.5, 1.0))
    n = draw(st.integers(min_value=1, max_value=4))
    spec = [
        (draw(st.integers(0, 1)), draw(coeffs), draw(exponents)) for _ in range(n)
    ]
    return from_atoms(part, spec)


@settings(max_examples=60, deadline=None)
@given(functions(), functions())
def test_inner_product_conjugate_symmetry(f, g):
    lhs = inner_product(f, g)
    rhs = np.conj(inner_product(g, f))
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


@settings(max_examples=60, deadline=None)
@given(functions())
def test_norm_positive_and_cauchy_schwarz(f):
    nf = norm(f)
    assert nf >= 0.0
    assert abs(inner_product(f, f).imag) <= 1e-9 * (1.0 + nf * nf)


@settings(max_examples=40, deadline=None)
@given(functions(), functions())
def test_cauchy_schwarz(f, g):
    ip = abs(inner_product(f, g))
    assert ip <= norm(f) * norm(g) + 1e-7 * (1.0 + ip)


@settings(max_examples=40, deadline=None)
@given(functions(), functions(), coeffs)
def test_sesquilinearity(f, g, alpha):
    lhs = inner_product(alpha * f, g)
    rhs = np.conj(alpha) * inner_product(f, g)
    assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))
