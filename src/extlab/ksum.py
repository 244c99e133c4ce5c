"""Exact integer calculus for K-homology classes of circles and surfaces.

Even K-classes are recorded through their integral even Chern character,
i.e. as integer coordinate vectors on H0 ⊕ H2; odd classes through H1
coordinates.  For CW-complexes of dimension at most two these coordinates
are faithful, so every K-class identity checked here is an exact identity
of small integer vectors — no floating point is involved anywhere.

The spaces covered are points, circles, closed oriented surfaces, wedges,
unions of two surfaces along an embedded circle, and two-component
disjoint unions.  The maps covered are the canonical identification,
pinching, crunching, constant and base-point maps between them, each
carried as a matrix per homology degree.

Genus -1 appears as a *formal* surface: the natural sum of two genus-0
surfaces along handles has formal genus -1, and the calculus extends to
it consistently (Euler characteristic 4, Dolbeault index 2).

The identity grid runs each identity once over every genus pair of the
bound b at once: the genera are int64 arrays, a class is one coordinate row
per pair, and a map's matrices act on all rows in one product.  Every
coordinate on the grid is at most 4(b + 1) in absolute value, and the
largest intermediate, a ``_det3`` of such coordinates, at most six times its
cube; both stay below 2^62 for b ≤ 229 002 (``MAX_GRID_BOUND``), and
``verify_identities`` refuses a larger bound, past which int64 would wrap.
Its report keeps those arrays, one block per identity; the per-check
``IdentityCheck`` tuples are built only for failed rows, or on demand.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import add, mul, sub
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import StructuralError, ValidationError

IntMatrix = Tuple[Tuple[int, ...], ...]

#: the largest grid bound b with 6 (4 (b + 1))^3 < 2^62, see above
MAX_GRID_BOUND = 229_002

# ---------------------------------------------------------------------------
# tiny exact-integer matrix helpers (dimensions here never exceed 4)


def _identity(n: int) -> IntMatrix:
    return tuple([(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)])


def _zeros(rows: int, cols: int) -> IntMatrix:
    return ((0,) * cols,) * rows


def _ones(rows: int, cols: int) -> IntMatrix:
    return ((1,) * cols,) * rows


def _matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise StructuralError("matrix dimensions do not compose")
    columns = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in columns]) for row in a])


def _matvec(a: IntMatrix, v: Tuple[int, ...]) -> Tuple[int, ...]:
    # unchecked: a map's shapes are checked when it is built
    return tuple([sum(map(mul, row, v)) for row in a])


def _det3(m):
    """The determinant of a 3×3 matrix given by rows; on rows of int64
    columns, the determinant of every grid row at once."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# ---------------------------------------------------------------------------
# spaces


@dataclass(frozen=True)
class SurfaceSpace:
    """A CW-complex of dimension ≤ 2 with fixed homology generator bases.

    kind is one of ``point``, ``circle``, ``surface``, ``wedge``,
    ``circle_union``, ``disjoint``.  The H0 basis has one generator per
    connected component (the base-point component first); the H2 basis
    lists fundamental classes of the surface constituents in order; the
    H1 basis is only fixed where the calculus needs it (circles and
    wedges of circles).
    """

    kind: str
    genus: Optional[int] = None
    parts: Tuple["SurfaceSpace", ...] = ()
    genera: Tuple[int, ...] = ()
    # homology ranks, fixed by the fields above; h1_rank is None where the
    # calculus fixes no H1 basis
    h0_rank: int = field(init=False, compare=False, repr=False)
    h1_rank: Optional[int] = field(init=False, compare=False, repr=False)
    h2_rank: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        h0, h1, h2 = 1, None, 0
        if self.kind == "surface":
            if not isinstance(self.genus, int) or self.genus < -1:
                raise ValidationError(
                    "surface genus must be an integer >= -1 "
                    "(genus -1 is the formal natural-sum of two spheres)"
                )
            h1, h2 = 2 * max(self.genus, 0), 1
        elif self.kind in ("wedge", "disjoint"):
            if len(self.parts) != 2:
                raise ValidationError(f"{self.kind} takes exactly two operands")
            for part in self.parts:
                if part.kind not in ("circle", "surface"):
                    raise ValidationError(
                        f"{self.kind} operands must be circles or surfaces"
                    )
            if self.kind == "disjoint":
                h0 = len(self.parts)
            h2 = sum(p.h2_rank for p in self.parts)
            # an operand surface leaves H1 without a fixed basis
            if all(p.kind == "circle" for p in self.parts):
                h1 = sum(p.h1_rank for p in self.parts)
        elif self.kind == "circle_union":
            if len(self.genera) != 2 or not all(
                isinstance(g, int) and g >= 0 for g in self.genera
            ):
                raise ValidationError(
                    "circle_union takes two surface genera g1, g2 >= 0"
                )
            h2 = 2
        elif self.kind == "point":
            h1 = 0
        elif self.kind == "circle":
            h1 = 1
        else:
            raise ValidationError(f"unknown space kind: {self.kind!r}")
        object.__setattr__(self, "h0_rank", h0)
        object.__setattr__(self, "h1_rank", h1)
        object.__setattr__(self, "h2_rank", h2)

    @staticmethod
    def point() -> "SurfaceSpace":
        return SurfaceSpace("point")

    @staticmethod
    def circle() -> "SurfaceSpace":
        return SurfaceSpace("circle")

    @staticmethod
    def surface(genus: int) -> "SurfaceSpace":
        return SurfaceSpace("surface", genus=genus)

    @staticmethod
    def wedge(left: "SurfaceSpace", right: "SurfaceSpace") -> "SurfaceSpace":
        return SurfaceSpace("wedge", parts=(left, right))

    @staticmethod
    def circle_union(g1: int, g2: int) -> "SurfaceSpace":
        return SurfaceSpace("circle_union", genera=(g1, g2))

    @staticmethod
    def disjoint(left: "SurfaceSpace", right: "SurfaceSpace") -> "SurfaceSpace":
        return SurfaceSpace("disjoint", parts=(left, right))

    def describe(self) -> str:
        if self.kind == "surface":
            return f"surface(g={self.genus})"
        if self.kind == "circle_union":
            return f"circle_union(g1={self.genera[0]}, g2={self.genera[1]})"
        if self.kind in ("wedge", "disjoint"):
            inner = ", ".join(p.describe() for p in self.parts)
            return f"{self.kind}({inner})"
        return self.kind


# ---------------------------------------------------------------------------
# classes


@dataclass(frozen=True)
class KClassVector:
    """An even (H0 ⊕ H2) or odd (H1) integer coordinate vector on a space.

    Every class is checked when built, derived ones (sums, integer
    multiples, pushforwards, disjoint pairs) included: parity, length
    against the space's ranks and integer coordinates.
    """

    space: SurfaceSpace
    parity: str
    coordinates: Tuple[int, ...]

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ValidationError("parity must be 'even' or 'odd'")
        if self.parity == "even":
            expected = self.space.h0_rank + self.space.h2_rank
        else:
            expected = self.space.h1_rank
            if expected is None:
                raise ValidationError(
                    f"no odd generator basis fixed on {self.space.describe()}"
                )
        if len(self.coordinates) != expected:
            raise ValidationError(
                f"expected {expected} coordinates on {self.space.describe()}, "
                f"got {len(self.coordinates)}"
            )
        if not all(map(isinstance, self.coordinates, repeat(int))):
            raise ValidationError("coordinates must be integers")
        # a list would leave the class unhashable, and its sums with tuples
        # would fail; a tuple comes back as itself
        object.__setattr__(self, "coordinates", tuple(self.coordinates))

    # -- exact abelian-group arithmetic

    def _check_compatible(self, other: "KClassVector"):
        if self.space != other.space or self.parity != other.parity:
            raise StructuralError("classes live on different spaces or parities")

    def __add__(self, other: "KClassVector") -> "KClassVector":
        self._check_compatible(other)
        coords = tuple(map(add, self.coordinates, other.coordinates))
        return KClassVector(self.space, self.parity, coords)

    def __sub__(self, other: "KClassVector") -> "KClassVector":
        self._check_compatible(other)
        coords = tuple(map(sub, self.coordinates, other.coordinates))
        return KClassVector(self.space, self.parity, coords)

    def __rmul__(self, scalar: int) -> "KClassVector":
        if not isinstance(scalar, int):
            raise ValidationError("K-class scalars must be integers")
        return KClassVector(
            self.space, self.parity, tuple([scalar * c for c in self.coordinates])
        )

    def __neg__(self) -> "KClassVector":
        return (-1) * self


def even_class(space: SurfaceSpace, h0, h2=()) -> KClassVector:
    return KClassVector(space, "even", tuple(h0) + tuple(h2))


def odd_class(space: SurfaceSpace, h1) -> KClassVector:
    return KClassVector(space, "odd", tuple(h1))


# ---------------------------------------------------------------------------
# distinguished classes


def unit_point_class() -> KClassVector:
    """The canonical generator of the even K-group of the point."""
    return even_class(SurfaceSpace.point(), (1,))


def chern_dolbeault(g: int) -> KClassVector:
    """Even Chern character of the Dolbeault class on the genus-g surface.

    Its H0 coordinate is the index 1 - g of the Dolbeault operator and
    its H2 coordinate is 1 (the fundamental class).
    """
    return even_class(SurfaceSpace.surface(g), (1 - g,), (1,))


def dirac_circle_class() -> KClassVector:
    """Odd Chern character of the Dirac class on the circle: -1 times
    the fundamental class of the positively oriented circle."""
    return odd_class(SurfaceSpace.circle(), (-1,))


def fundamental_k_class(space: SurfaceSpace) -> KClassVector:
    """The K-class whose integral Chern character is the fundamental class.

    For the circle this is the odd class with H1 coordinate 1 (equal to
    minus the Dirac class); for a surface it is the even class (0, 1),
    i.e. the Dolbeault class corrected by (g - 1) base-point units.
    """
    if space.kind == "circle":
        return odd_class(space, (1,))
    if space.kind == "surface":
        return even_class(space, (0,), (1,))
    raise ValidationError(
        f"no fundamental K-class of fixed parity on {space.describe()}"
    )


def euler_characteristic(g):
    """Euler characteristic 2 - 2g of the genus-g surface (formal at g = -1);
    elementwise on an array of genera."""
    return 2 - 2 * g


# ---------------------------------------------------------------------------
# canonical matrices: one definition per map kind, (h0, h2, h1) from the
# source and target ranks (``h0_rank``, ``h1_rank``, ``h2_rank``); the map
# constructors and the identity grid both read them from ``_MATRICES`` when
# they build a map


def _h1(source, target, matrix):
    """``matrix(rows, cols)`` in H1 where both sides fix an odd basis."""
    if source.h1_rank is None or target.h1_rank is None:
        return None
    return matrix(target.h1_rank, source.h1_rank)


def _identification(source, target):
    """Every component generator to the one H0 generator; H1 and H2
    generators pass through unchanged."""
    return (_ones(1, source.h0_rank), _identity(source.h2_rank),
            _h1(source, target, lambda rows, cols: _identity(cols)))


def _pinch(source, target):
    """Each generator to the sum of the target's generators of its degree."""
    return (_ones(1, 1), _ones(target.h2_rank, source.h2_rank),
            _h1(source, target, _ones))


def _crunch(source, target):
    """The left factor's classes kept, the right factor's crushed."""
    return ((1,),), ((1, 0),), None


def _collapse(source, target):
    """Component generators add up in the point's H0; the rest vanishes."""
    return (_ones(1, source.h0_rank), _zeros(0, source.h2_rank),
            _h1(source, target, _zeros))


def _basepoint(source, target):
    """The point's generator to the first H0 generator."""
    return (((1,),) + ((0,),) * (target.h0_rank - 1), _zeros(target.h2_rank, 0),
            _h1(source, target, _zeros))


_MATRICES = {
    "j_disjoint_to_wedge": _identification,
    "j_disjoint_to_union": _identification,
    "p_pinch_connected_sum": _pinch,
    "p_pinch_natural_sum": _pinch,
    "q_crunch": _crunch,
    "q0_constant": _collapse,
    "iota_basepoint": _basepoint,
}

_MAP_KINDS = (*_MATRICES, "identity", "composite")


# ---------------------------------------------------------------------------
# canonical maps


@dataclass(frozen=True)
class CanonicalMap:
    """A canonical continuous map carried as one integer matrix per degree.

    Matrices act on coordinate columns: target = matrix · source.  The H1
    matrix is only present where both sides carry a fixed odd basis.  Every
    map is checked when built, composites included: its kind, integer
    entries and each matrix's shape against both spaces' ranks.
    """

    kind: str
    source: SurfaceSpace
    target: SurfaceSpace
    h0: IntMatrix
    h2: IntMatrix
    h1: Optional[IntMatrix] = None

    def __post_init__(self):
        _check_map(self.kind, self.source, self.target, self.h0, self.h2, self.h1)

    def compose(self, inner: "CanonicalMap") -> "CanonicalMap":
        """The composite self ∘ inner, with matrices multiplied per degree."""
        if inner.target != self.source:
            raise StructuralError("maps do not compose: middle spaces differ")
        h1 = None
        if self.h1 is not None and inner.h1 is not None:
            h1 = _matmul(self.h1, inner.h1)
        return CanonicalMap(
            "composite",
            inner.source,
            self.target,
            _matmul(self.h0, inner.h0),
            _matmul(self.h2, inner.h2),
            h1,
        )


def _check_map(kind: str, source, target, h0, h2, h1):
    """A map's kind, each matrix's shape against both sides' ranks (an H1
    matrix needs an odd basis fixed on both sides) and integer entries."""
    if kind not in _MAP_KINDS:
        raise ValidationError(f"unknown map kind: {kind!r}")
    _check_shape("H0", h0, target.h0_rank, source.h0_rank)
    _check_shape("H2", h2, target.h2_rank, source.h2_rank)
    if h1 is not None:
        if source.h1_rank is None or target.h1_rank is None:
            raise StructuralError(
                f"H1 matrix given, but no odd generator basis is fixed on "
                f"{(source if source.h1_rank is None else target).describe()}"
            )
        _check_shape("H1", h1, target.h1_rank, source.h1_rank)
    matrices = (h0, h2) if h1 is None else (h0, h2, h1)
    entries = chain.from_iterable(chain.from_iterable(matrices))
    if not all(map(isinstance, entries, repeat(int))):
        raise ValidationError("map matrix entries must be integers")


def _check_shape(degree: str, matrix: IntMatrix, rows: int, cols: int):
    if len(matrix) != rows or not all([len(row) == cols for row in matrix]):
        raise StructuralError(f"{degree} matrix shape does not match spaces")


def _canonical(kind: str, source: SurfaceSpace, target: SurfaceSpace) -> CanonicalMap:
    return CanonicalMap(kind, source, target, *_MATRICES[kind](source, target))


def pushforward(mapping: CanonicalMap, x: KClassVector) -> KClassVector:
    """Apply a canonical map's induced integer matrices to a K-class."""
    if x.space != mapping.source:
        raise StructuralError(
            f"class lives on {x.space.describe()}, "
            f"map starts at {mapping.source.describe()}"
        )
    if x.parity == "even":
        # equal spaces have equal ranks, so x's split is the source's
        h0, coords = x.space.h0_rank, x.coordinates
        coords = _matvec(mapping.h0, coords[:h0]) + _matvec(mapping.h2, coords[h0:])
        return KClassVector(mapping.target, "even", coords)
    if mapping.h1 is None:
        raise StructuralError(
            f"map {mapping.kind} carries no odd matrix between "
            f"{mapping.source.describe()} and {mapping.target.describe()}"
        )
    return KClassVector(mapping.target, "odd", _matvec(mapping.h1, x.coordinates))


def identification_to_wedge(left: SurfaceSpace, right: SurfaceSpace) -> CanonicalMap:
    """Identify the two base points: disjoint(left, right) → wedge(left, right).

    Both component generators map to the single H0 generator; H1 and H2
    generators pass through unchanged.
    """
    return _canonical("j_disjoint_to_wedge", SurfaceSpace.disjoint(left, right),
                      SurfaceSpace.wedge(left, right))


def identification_to_union(g1: int, g2: int) -> CanonicalMap:
    """Include both surfaces: disjoint(Σ_g1, Σ_g2) → their union along a circle."""
    source = SurfaceSpace.disjoint(SurfaceSpace.surface(g1), SurfaceSpace.surface(g2))
    return _canonical("j_disjoint_to_union", source, SurfaceSpace.circle_union(g1, g2))


def pinch_connected_sum(g1: int, g2: int) -> CanonicalMap:
    """Contract the gluing circle of a connected sum onto the wedge point:
    surface(g1 + g2) → wedge(surface(g1), surface(g2)).

    The fundamental class maps to the sum of the two wedge fundamental
    classes.
    """
    target = SurfaceSpace.wedge(SurfaceSpace.surface(g1), SurfaceSpace.surface(g2))
    return _canonical("p_pinch_connected_sum", SurfaceSpace.surface(g1 + g2), target)


def pinch_circle_sum() -> CanonicalMap:
    """Circle instance of the connected-sum pinch: circle → wedge of two
    circles, collapsing two antipodal points' identification; the H1
    generator maps diagonally."""
    target = SurfaceSpace.wedge(SurfaceSpace.circle(), SurfaceSpace.circle())
    return _canonical("p_pinch_connected_sum", SurfaceSpace.circle(), target)


def pinch_natural_sum(g1: int, g2: int) -> CanonicalMap:
    """Collapse the tubular direction of the shared handle circle:
    surface(g1 + g2 - 1) → circle_union(g1, g2).

    The single fundamental class maps to the sum of the two surface
    fundamental classes of the union.
    """
    return _canonical("p_pinch_natural_sum", SurfaceSpace.surface(g1 + g2 - 1),
                      SurfaceSpace.circle_union(g1, g2))


def crunch(g1: int, g2: int) -> CanonicalMap:
    """Crush the second wedge factor to the base point:
    wedge(surface(g1), surface(g2)) → surface(g1)."""
    source = SurfaceSpace.wedge(SurfaceSpace.surface(g1), SurfaceSpace.surface(g2))
    return _canonical("q_crunch", source, SurfaceSpace.surface(g1))


def constant_map(space: SurfaceSpace) -> CanonicalMap:
    """Collapse everything to the point; H0 adds up component generators."""
    return _canonical("q0_constant", space, SurfaceSpace.point())


def basepoint_inclusion(space: SurfaceSpace) -> CanonicalMap:
    """Include the base point (in the first component) into the space."""
    return _canonical("iota_basepoint", SurfaceSpace.point(), space)


def disjoint_pair(x: KClassVector, y: KClassVector) -> KClassVector:
    """The class (x, y) on the disjoint union of the two carrier spaces."""
    if x.parity != y.parity:
        raise StructuralError("disjoint pair requires equal parities")
    space = SurfaceSpace.disjoint(x.space, y.space)
    if x.parity == "even":
        # each operand is a circle or a surface: one H0 coordinate, then H2
        xs, ys = x.coordinates, y.coordinates
        return KClassVector(space, "even", xs[:1] + ys[:1] + xs[1:] + ys[1:])
    # an odd basis is fixed only when both operands are circles
    return KClassVector(space, "odd", x.coordinates + y.coordinates)


def basepoint_unit(space: SurfaceSpace) -> KClassVector:
    """The image of the point generator under the base-point inclusion."""
    return pushforward(basepoint_inclusion(space), unit_point_class())


# ---------------------------------------------------------------------------
# the identity grid: one space, class or map per grid row, as int64 arrays


class _Family(NamedTuple):
    """One space of ``kind`` per grid row, row p's surfaces having the
    genera ``genera[p]`` (a (P, k) int64 array).  The grid holds even
    classes only, so no H1 basis is fixed; H0 and H2 ranks are every row's."""

    kind: str
    genera: np.ndarray
    h0_rank: int
    h2_rank: int
    h1_rank: Optional[int] = None

    def describe(self) -> str:
        return f"{self.kind} family"


def _surfaces(g: np.ndarray):
    """The surface of each genus in ``g``, its Dolbeault and fundamental class."""
    s = _Family("surface", g[:, None], 1, 1)
    return s, _grid_class(s, 1 - g, 1), _grid_class(s, 0, 1)


def _joined(kind: str, left: _Family, right: _Family) -> _Family:
    """The wedge, disjoint union or union along a circle of two surfaces,
    row by row."""
    if left.kind != "surface" or right.kind != "surface":
        raise ValidationError(f"{kind} operands on the grid must be surfaces")
    return _Family(kind, np.concatenate([left.genera, right.genera], axis=1),
                   2 if kind == "disjoint" else 1, 2)


def _check_family(a: _Family, b: _Family, what: str):
    if a is not b and (a.kind != b.kind or not np.array_equal(a.genera, b.genera)):
        raise StructuralError(f"{what}: {a.describe()} and {b.describe()} differ")


@dataclass(frozen=True, eq=False)
class _GridClass:
    """An even class per grid row: ``coordinates[p]`` on row p of ``family``."""

    family: _Family
    coordinates: np.ndarray

    # numpy defers ``array * class`` to ``__rmul__``
    __array_ufunc__ = None

    def __add__(self, other: "_GridClass") -> "_GridClass":
        _check_family(self.family, other.family, "classes live on different spaces")
        return _GridClass(self.family, self.coordinates + other.coordinates)

    def __sub__(self, other: "_GridClass") -> "_GridClass":
        _check_family(self.family, other.family, "classes live on different spaces")
        return _GridClass(self.family, self.coordinates - other.coordinates)

    def __rmul__(self, scalars) -> "_GridClass":
        """Row p times ``scalars[p]``, or every row times one integer."""
        scalars = np.asarray(scalars)
        if scalars.dtype.kind not in "iu":
            raise ValidationError("K-class scalars must be integers")
        return _GridClass(self.family, self.coordinates * scalars.reshape(-1, 1))


def _grid_class(family: _Family, *columns) -> _GridClass:
    """The class whose coordinate i is ``columns[i]`` (per row or one int)."""
    coords = np.empty((len(family.genera), len(columns)), dtype=np.int64)
    for i, column in enumerate(columns):
        coords[:, i] = column
    return _GridClass(family, coords)


@dataclass(frozen=True, eq=False)
class _GridMap:
    """One canonical map per grid row, the same even matrices on every row."""

    kind: str
    source: _Family
    target: _Family
    h0: np.ndarray
    h2: np.ndarray

    def compose(self, inner: "_GridMap") -> "_GridMap":
        _check_family(inner.target, self.source, "maps do not compose")
        return _GridMap("composite", inner.source, self.target,
                        self.h0 @ inner.h0, self.h2 @ inner.h2)


def _grid_map(kind: str, source: _Family, target: _Family) -> _GridMap:
    h0, h2, h1 = _MATRICES[kind](source, target)
    _check_map(kind, source, target, h0, h2, h1)
    return _GridMap(kind, source, target,
                    np.array(h0, dtype=np.int64).reshape(target.h0_rank, source.h0_rank),
                    np.array(h2, dtype=np.int64).reshape(target.h2_rank, source.h2_rank))


def _push(mapping: _GridMap, x: _GridClass) -> _GridClass:
    _check_family(x.family, mapping.source, f"map {mapping.kind} starts elsewhere")
    h0, coords = x.family.h0_rank, x.coordinates
    return _GridClass(mapping.target, np.concatenate(
        [coords[:, :h0] @ mapping.h0.T, coords[:, h0:] @ mapping.h2.T], axis=1))


def _pair(x: _GridClass, y: _GridClass) -> _GridClass:
    """The even class (x, y) on the disjoint unions, row by row."""
    xs, ys = x.coordinates, y.coordinates
    return _GridClass(_joined("disjoint", x.family, y.family),
                      np.concatenate([xs[:, :1], ys[:, :1], xs[:, 1:], ys[:, 1:]], axis=1))


def _points(family: _Family) -> _Family:
    return _Family("point", family.genera[:, :0], 1, 0)


def _unit(family: _Family) -> _GridClass:
    """The base-point unit on every row of ``family``."""
    point = _points(family)
    return _push(_grid_map("iota_basepoint", point, family), _grid_class(point, 1))


# ---------------------------------------------------------------------------
# identity verification


class IdentityCheck(NamedTuple):
    """One verified integer identity (or asserted inequality)."""

    name: str
    g1: Optional[int]
    g2: Optional[int]
    lhs: Tuple[int, ...]
    rhs: Tuple[int, ...]
    expect_equal: bool
    ok: bool

    def describe(self) -> str:
        relation = "==" if self.expect_equal else "!="
        status = "ok" if self.ok else "MISMATCH"
        where = ""
        if self.g1 is not None:
            where = f" [g1={self.g1}, g2={self.g2}]"
        return f"{status:8s} {self.name}{where}: {self.lhs} {relation} {self.rhs}"


class IdentityBlock(NamedTuple):
    """One identity over the rows of a grid: row p checks ``lhs[p]`` against
    ``rhs[p]`` ((P, d) int64 arrays) at genus ``g1[p]`` (and ``g2[p]``), and
    ``ok[p]`` says whether they are equal exactly when ``expect_equal``.  A
    scalar check is a one-row block with no genera."""

    name: str
    g1: Optional[np.ndarray]
    g2: Optional[np.ndarray]
    lhs: np.ndarray
    rhs: np.ndarray
    expect_equal: bool
    ok: np.ndarray


def _block_checks(block: IdentityBlock, rows=slice(None)):
    """The ``IdentityCheck``s of a block's ``rows``, all leaves Python ints
    and bools."""
    g1 = repeat(None) if block.g1 is None else block.g1[rows].tolist()
    g2 = repeat(None) if block.g2 is None else block.g2[rows].tolist()
    return list(map(IdentityCheck._make, zip(
        repeat(block.name), g1, g2, map(tuple, block.lhs[rows].tolist()),
        map(tuple, block.rhs[rows].tolist()), repeat(block.expect_equal),
        block.ok[rows].tolist())))


@dataclass(frozen=True, eq=False)
class KsumReport:
    """The checked identities as grids: each grid is the blocks of one set
    of rows (the blocks share their genus columns), and its checks run
    row-major (every identity of row 0, then of row 1, …).  The first grid
    holds the scalar circle checks, then come the per-genus and the
    per-pair grid."""

    grids: Tuple[Tuple[IdentityBlock, ...], ...]

    def __len__(self) -> int:
        """The number of checks."""
        return sum(len(block.ok) for blocks in self.grids for block in blocks)

    @property
    def passed(self) -> bool:
        return all(block.ok.all() for blocks in self.grids for block in blocks)

    @property
    def failures(self) -> Tuple[IdentityCheck, ...]:
        """The failed checks, in ``checks`` order; only these are built."""
        out = []
        for blocks in self.grids:
            bad = ~np.stack([block.ok for block in blocks], axis=1)
            if not bad.any():
                continue
            # (row, block) of each failure, row-major; each block's failed
            # rows come up in ascending order
            failed = [iter(_block_checks(block, np.flatnonzero(bad[:, i])))
                      for i, block in enumerate(blocks)]
            out.extend(next(failed[i]) for i in np.nonzero(bad)[1].tolist())
        return tuple(out)

    @cached_property
    def checks(self) -> Tuple[IdentityCheck, ...]:
        """Every check as an ``IdentityCheck``, grid by grid, row-major;
        built at the first access.  Reports compare equal by it."""
        return tuple(chain.from_iterable(
            chain.from_iterable(zip(*map(_block_checks, blocks))) for blocks in self.grids))

    def __eq__(self, other):
        if not isinstance(other, KsumReport):
            return NotImplemented
        return self.checks == other.checks


def _grid_checks(identities, g1: Optional[np.ndarray] = None,
                 g2: Optional[np.ndarray] = None) -> Tuple[IdentityBlock, ...]:
    """The ``IdentityBlock`` of each (name, lhs, rhs, expect_equal) identity
    over the rows of ``g1`` (and ``g2``), every block sharing these genus
    columns.  A side is a ``_GridClass`` or a (P, d) int64 array."""
    blocks = []
    for name, lhs, rhs, expect_equal in identities:
        lhs, rhs = (getattr(side, "coordinates", side) for side in (lhs, rhs))
        blocks.append(IdentityBlock(name, g1, g2, lhs, rhs, expect_equal,
                                    (lhs == rhs).all(axis=1) == expect_equal))
    return tuple(blocks)


def verify_identities(genus_bound: int = 6) -> KsumReport:
    """Verify the complete suite of exact K-class identities.

    Runs every identity of the circle/surface addition calculus over all
    genus pairs 0 ≤ g1, g2 ≤ genus_bound, plus the asserted *inequality*
    showing H0 incompatibility of Euler terms under the ordinary
    connected sum.  All arithmetic is exact integer arithmetic; a bound
    past ``MAX_GRID_BOUND`` is refused.
    """
    if genus_bound > MAX_GRID_BOUND:
        raise ValidationError(
            f"genus_bound {genus_bound} exceeds {MAX_GRID_BOUND}, past which "
            "the grid's int64 arithmetic could overflow"
        )
    g = np.arange(genus_bound + 1, dtype=np.int64)
    # pair-major: g1 outer, g2 inner
    return KsumReport((_circle_checks(), _genus_grid(g),
                       _pair_grid(np.repeat(g, len(g)), np.tile(g, len(g)))))


def _circle_checks():
    """The two circle identities, on the scalar calculus: one-row blocks."""
    def row(x: KClassVector) -> np.ndarray:
        return np.array([x.coordinates], dtype=np.int64)

    d = dirac_circle_class()
    j_circ = identification_to_wedge(SurfaceSpace.circle(), SurfaceSpace.circle())
    return _grid_checks([
        # circle addition: both descriptions of the Dirac class sum agree in
        # the odd group of the wedge of two circles.
        ("circle-dirac-addition", row(pushforward(j_circ, disjoint_pair(d, d))),
         row(pushforward(pinch_circle_sum(), d)), True),
        # the circle's fundamental K-class is minus the Dirac class.
        ("circle-fundamental-vs-dirac", row(fundamental_k_class(SurfaceSpace.circle())),
         row(-d), True),
    ])


def _genus_grid(g: np.ndarray):
    """The two identities of each genus in ``g``."""
    surf, dol, fund = _surfaces(g)
    return _grid_checks([
        # normalization: fundamental class = Dolbeault + (g-1) point units.
        ("fundamental-class-normalization", fund,
         dol + (g - 1) * _unit(surf), True),
        # collapsing to the point recovers the Dolbeault index 1 - g.
        ("constant-map-index", _push(_grid_map("q0_constant", surf, _points(surf)), dol),
         (1 - g)[:, None], True),
    ], g)


def _pair_grid(g1: np.ndarray, g2: np.ndarray):
    """The twelve identities of each ordered genus pair (g1[p], g2[p])."""
    ((s1, dol1, fund1), (s2, dol2, fund2), (s_sharp, dol_sharp, fund_sharp),
     (s_nat, dol_nat, fund_nat)) = map(_surfaces, (g1, g2, g1 + g2, g1 + g2 - 1))
    iota_s1 = _unit(s1)

    disjoint, wedge = _joined("disjoint", s1, s2), _joined("wedge", s1, s2)
    j_wedge = _grid_map("j_disjoint_to_wedge", disjoint, wedge)
    p_sharp = _grid_map("p_pinch_connected_sum", s_sharp, wedge)
    q = _grid_map("q_crunch", wedge, s1)
    iota_wedge = _unit(wedge)

    # the wedge classes of the two Dolbeault operators.
    dol1_w = _push(j_wedge, _pair(dol1, 0 * dol2))
    dol2_w = _push(j_wedge, _pair(0 * dol1, dol2))

    # point unit, left Dolbeault, right Dolbeault form a unimodular basis
    # of the rank-3 even group of the wedge.
    det = _det3((iota_wedge.coordinates.T, dol1_w.coordinates.T, dol2_w.coordinates.T))

    pinched = _push(p_sharp, dol_sharp)
    via_composite = _push(q.compose(p_sharp), dol_sharp)

    both_fund = _pair(fund1, fund2)
    union = _joined("circle_union", s1, s2)
    j_union = _grid_map("j_disjoint_to_union", disjoint, union)
    p_nat = _grid_map("p_pinch_natural_sum", s_nat, union)

    euler_sum = (euler_characteristic(g1) + euler_characteristic(g2))[:, None]
    return _grid_checks([
        ("wedge-basis-unimodular", np.abs(det)[:, None], np.ones_like(det)[:, None], True),
        # crushing the right factor keeps the left Dolbeault class and turns
        # the right one into its index in point units.
        ("crunch-left-dolbeault", _push(q, dol1_w), dol1, True),
        ("crunch-right-dolbeault", _push(q, dol2_w), (1 - g2) * iota_s1, True),
        # pinching the connected sum costs exactly one point unit.
        ("pinch-dolbeault-defect", pinched, dol1_w + dol2_w - iota_wedge, True),
        # composite crunch∘pinch acts by composed matrices (functoriality) ...
        ("crunch-pinch-functoriality", via_composite, _push(q, pinched), True),
        # ... and sends the big Dolbeault class to the left one minus g2 units.
        ("crunch-pinch-composite", via_composite, dol1 - g2 * iota_s1, True),
        # stabilizing a class by a trivial genus-g2 block leaves the
        # normalized combination unchanged.
        ("stabilization-well-defined", via_composite + (g1 + g2 - 1) * iota_s1,
         dol1 + (g1 - 1) * iota_s1, True),
        # Euler characteristic is additive for the natural (handle) sum ...
        ("natural-sum-euler-additivity",
         euler_characteristic(g1 + g2 - 1)[:, None], euler_sum, True),
        # ... but differs by exactly 2 for the ordinary connected sum, which
        # is the asserted H0 inequality blocking a naive addition formula.
        ("connected-sum-euler-defect", euler_sum,
         euler_characteristic(g1 + g2)[:, None], False),
        # fundamental classes are compatible for the ordinary connected sum.
        ("connected-sum-fundamental-class", _push(j_wedge, both_fund),
         _push(p_sharp, fund_sharp), True),
        # identities in the union along a circle (natural sum target).
        ("dolbeault-natural-sum-addition", _push(j_union, _pair(dol1, dol2)),
         _push(p_nat, dol_nat), True),
        ("natural-sum-fundamental-class", _push(j_union, both_fund),
         _push(p_nat, fund_nat), True),
    ], g1, g2)
