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
    digits to cancellation, so phi is evaluated by its Taylor series there
    (13 terms; truncation below 1e-21).  This also covers the removable
    singularity at delta = 0.
    """
    d = np.atleast_1d(np.asarray(delta, dtype=complex))
    h = np.broadcast_to(np.subtract(b, a), d.shape)
    x = d * h
    series = np.abs(x) < 0.1
    ea = np.exp(d * a)
    out = np.exp(d * b)
    out -= ea
    np.divide(out, d, out=out, where=~series)
    if np.any(series):
        # Horner in real arithmetic: numpy may fuse a complex array product
        # (FMA), which rounds differently from the same scalar product
        xr, xi = x.real[series], x.imag[series]
        pr, pi = np.zeros_like(xr), np.zeros_like(xr)
        for k in range(12, -1, -1):
            pr, pi = pr * xr - pi * xi + 1.0 / math.factorial(k + 1), pr * xi + pi * xr
        e = ea[series] * h[series]
        out.real[series] = e.real * pr - e.imag * pi
        out.imag[series] = e.real * pi + e.imag * pr
    return out.reshape(np.shape(delta)) if np.ndim(delta) else out[0]


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
