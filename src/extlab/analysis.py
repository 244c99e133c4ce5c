"""Exact Hilbert-space arithmetic for piecewise-exponential functions.

Everything downstream (deficiency spaces, eigenfunctions, compressed
multiplication operators) lives in the linear span of atoms

    theta -> c * exp(mu * theta)   restricted to one piece of a partition,

so inner products, traces and derivatives can all be evaluated in closed
form.  Quadrature exists only as a fallback/cross-check route and is kept
deliberately independent of the closed forms.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import StructuralError, ValidationError


@dataclass(frozen=True)
class Partition:
    """Strictly increasing knots t_0 < t_1 < ... < t_n spanning [0, 1]."""

    endpoints: tuple

    def __post_init__(self):
        pts = tuple(float(t) for t in self.endpoints)
        object.__setattr__(self, "endpoints", pts)
        if len(pts) < 2:
            raise ValidationError("a partition needs at least two endpoints")
        if abs(pts[0]) > 1e-15 or abs(pts[-1] - 1.0) > 1e-15:
            raise ValidationError("partition must span [0, 1] exactly")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValidationError("partition endpoints must be strictly increasing")

    @classmethod
    def default(cls):
        return cls((0.0, 0.5, 1.0))

    @property
    def npieces(self) -> int:
        return len(self.endpoints) - 1

    @property
    def lengths(self):
        e = self.endpoints
        return tuple(b - a for a, b in zip(e, e[1:]))

    def piece_bounds(self, k: int):
        return self.endpoints[k], self.endpoints[k + 1]

    def refines(self, other) -> bool:
        """True when every endpoint of `other` is (numerically) one of ours."""
        mine = np.asarray(self.endpoints)
        return all(np.min(np.abs(mine - t)) < 1e-12 for t in other.endpoints)

    def piece_of(self, theta: float) -> int:
        """Index of the piece containing theta, half-open convention [t_{k-1}, t_k)."""
        if theta < 0.0 or theta > 1.0:
            raise ValidationError(f"theta={theta} outside [0, 1]")
        k = int(np.searchsorted(self.endpoints, theta, side="right")) - 1
        return min(max(k, 0), self.npieces - 1)


@dataclass(frozen=True)
class ExponentialAtom:
    """c * exp(mu * theta) supported on a single piece, zero elsewhere."""

    piece: int
    coefficient: complex
    exponent: complex

    def __post_init__(self):
        object.__setattr__(self, "coefficient", complex(self.coefficient))
        object.__setattr__(self, "exponent", complex(self.exponent))


@dataclass(frozen=True)
class PiecewiseFunction:
    """Finite linear combination of exponential atoms over one partition."""

    partition: Partition
    atoms: tuple

    def __post_init__(self):
        atoms = tuple(self.atoms)
        n = self.partition.npieces
        for a in atoms:
            if not (0 <= a.piece < n):
                raise StructuralError(f"atom piece {a.piece} out of range for {n} pieces")
        object.__setattr__(self, "atoms", atoms)

    # ---- linear structure -------------------------------------------------

    def __add__(self, other: "PiecewiseFunction") -> "PiecewiseFunction":
        _require_shared_partition(self, other)
        return PiecewiseFunction(self.partition, self.atoms + other.atoms).collect()

    def __sub__(self, other: "PiecewiseFunction") -> "PiecewiseFunction":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "PiecewiseFunction":
        c = complex(scalar)
        return PiecewiseFunction(
            self.partition,
            tuple(ExponentialAtom(a.piece, c * a.coefficient, a.exponent) for a in self.atoms),
        )

    def collect(self) -> "PiecewiseFunction":
        """Merge atoms sharing (piece, exponent); drop exact zeros."""
        merged = {}
        for a in self.atoms:
            key = (a.piece, a.exponent)
            merged[key] = merged.get(key, 0.0) + a.coefficient
        atoms = tuple(
            ExponentialAtom(p, c, mu) for (p, mu), c in sorted(merged.items(), key=lambda kv: (kv[0][0], kv[0][1].real, kv[0][1].imag))
            if c != 0
        )
        return PiecewiseFunction(self.partition, atoms)

    # ---- calculus ---------------------------------------------------------

    def differentiate(self) -> "PiecewiseFunction":
        """d/dtheta, exact on atoms (each piece separately)."""
        return PiecewiseFunction(
            self.partition,
            tuple(ExponentialAtom(a.piece, a.coefficient * a.exponent, a.exponent) for a in self.atoms),
        )

    def dirac_apply(self) -> "PiecewiseFunction":
        """(1/i) d/dtheta, the symbol every operator here is built from."""
        return (-1j) * self.differentiate()

    def conjugate(self) -> "PiecewiseFunction":
        return PiecewiseFunction(
            self.partition,
            tuple(
                ExponentialAtom(a.piece, np.conj(a.coefficient), np.conj(a.exponent))
                for a in self.atoms
            ),
        )

    # ---- evaluation -------------------------------------------------------

    def __call__(self, theta):
        """Pointwise values; vectorized; half-open piece convention [t_{k-1}, t_k)."""
        th = np.asarray(theta, dtype=float)
        scalar = th.ndim == 0
        th = np.atleast_1d(th)
        pieces = np.clip(np.searchsorted(self.partition.endpoints, th, side="right") - 1,
                         0, self.partition.npieces - 1)
        out = np.zeros(th.shape, dtype=complex)
        for a in self.atoms:
            mask = pieces == a.piece
            if np.any(mask):
                out[mask] += a.coefficient * np.exp(a.exponent * th[mask])
        return out[0] if scalar else out


def _require_shared_partition(f: PiecewiseFunction, g: PiecewiseFunction):
    if f.partition.endpoints != g.partition.endpoints:
        raise StructuralError("functions live on different partitions")


# ---- closed-form integrals -------------------------------------------------

def exp_integral(delta, a, b):
    """Integral of exp(delta*theta) over [a, b].

    ``delta`` is a complex scalar or an array; an array is integrated
    elementwise, each entry getting the same value as a scalar call.  The
    bounds are floats or, for an array ``delta``, arrays of its shape.
    Written as exp(delta*a) * (b-a) * phi(delta*(b-a)) with
    phi(x) = (exp(x)-1)/x.  For |x| < 0.1 the difference quotient loses
    digits to cancellation, so there phi is taken in the closed form
    phi(x) = e^{x/2} sinh(x/2)/(x/2), which has none: with m = (a+b)/2 and
    z = delta*(b-a)/2 the integral is (b-a) e^{delta m} sinh(z)/z, a few
    rounding errors from exact.  For |z| < 1e-4 the quotient sinh(z)/z is
    its Taylor guard 1 + z^2/6 (the next term is below 1e-18), which also
    covers delta = 0 and subnormal delta, where the quotient would be 0/0 or
    overflow.
    """
    d = np.atleast_1d(np.asarray(delta, dtype=complex)).ravel()
    # bounds stay scalars when given as scalars; arrays go flat like delta
    a, b = (np.asarray(v, dtype=float) for v in (a, b))
    a, b = (v.ravel() if v.ndim else v for v in (a, b))
    h = b - a
    x = d * h
    near = np.abs(x) < 0.1
    far = ~near
    out = np.empty(d.shape, dtype=complex)
    if far.any():
        df = d[far]
        out[far] = (np.exp(df * _part(b, far)) - np.exp(df * _part(a, far))) / df
    if near.any():
        z = x[near] / 2
        small = np.abs(z) < 1e-4
        q = np.sinh(z) / np.where(small, 1.0, z)
        if small.any():
            # 1 + z^2/6, and the product below, in real arithmetic: numpy may
            # fuse a complex array product (FMA), which rounds differently
            # from the same scalar product
            zr, zi = z.real[small], z.imag[small]
            q.real[small] = 1.0 + (zr * zr - zi * zi) / 6
            q.imag[small] = zr * zi / 3
        e = np.exp(d[near] * ((_part(a, near) + _part(b, near)) / 2))
        hn = _part(h, near)
        out.real[near] = hn * (e.real * q.real - e.imag * q.imag)
        out.imag[near] = hn * (e.real * q.imag + e.imag * q.real)
    return out.reshape(np.shape(delta)) if np.ndim(delta) else out[0]


def _part(v, sel):
    """The entries of a flat array at sel; a scalar stands for all of them."""
    return v[sel] if v.ndim else v


def inner_product(f: PiecewiseFunction, g: PiecewiseFunction) -> complex:
    """L^2[0,1] pairing <f, g> = integral of conj(f)*g, antilinear in f.

    Computed atom-pair by atom-pair in closed form; exact up to rounding.
    """
    _require_shared_partition(f, g)
    ends = f.partition.endpoints
    pairs = [(af, ag) for af in f.atoms for ag in g.atoms if af.piece == ag.piece]
    # one exp_integral call for all pairs; the sum keeps the atom-pair order
    integrals = exp_integral(
        np.array([np.conj(af.exponent) + ag.exponent for af, ag in pairs], dtype=complex),
        np.array([ends[af.piece] for af, _ in pairs], dtype=float),
        np.array([ends[af.piece + 1] for af, _ in pairs], dtype=float),
    )
    total = 0.0 + 0.0j
    for (af, ag), e in zip(pairs, integrals):
        total += np.conj(af.coefficient) * ag.coefficient * e
    return complex(total)


def norm(f: PiecewiseFunction) -> float:
    return math.sqrt(max(inner_product(f, f).real, 0.0))


def multiply(f: PiecewiseFunction, g: PiecewiseFunction) -> PiecewiseFunction:
    """Pointwise product; stays in the atom class (exponents add)."""
    _require_shared_partition(f, g)
    atoms = []
    for af in f.atoms:
        for ag in g.atoms:
            if af.piece == ag.piece:
                atoms.append(ExponentialAtom(af.piece, af.coefficient * ag.coefficient,
                                             af.exponent + ag.exponent))
    return PiecewiseFunction(f.partition, tuple(atoms)).collect()


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


# ---- quadrature fallback -----------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def quadrature_inner_product(f, g, partition: Partition = None) -> complex:
    """Gauss-Legendre (64 nodes per piece) pairing for sampled/callable inputs.

    `f` and `g` may be PiecewiseFunction or plain callables; this route never
    touches exp_integral, so it doubles as an in-module cross-check.
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


def boundary_values(f: PiecewiseFunction):
    """One-sided traces per piece: L_k = f(t_{k-1}+), R_k = f(t_k-)."""
    n = f.partition.npieces
    ends = f.partition.endpoints
    L = np.zeros(n, dtype=complex)
    R = np.zeros(n, dtype=complex)
    for a in f.atoms:
        L[a.piece] += a.coefficient * np.exp(a.exponent * ends[a.piece])
        R[a.piece] += a.coefficient * np.exp(a.exponent * ends[a.piece + 1])
    return L, R


def from_atoms(partition: Partition, spec) -> PiecewiseFunction:
    """Convenience constructor from (piece, coefficient, exponent) triples."""
    return PiecewiseFunction(partition, tuple(ExponentialAtom(p, c, m) for p, c, m in spec))
