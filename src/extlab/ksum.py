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
"""

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import add, mul, sub
from typing import NamedTuple, Optional, Tuple

from .errors import StructuralError, ValidationError

IntMatrix = Tuple[Tuple[int, ...], ...]

# ---------------------------------------------------------------------------
# tiny exact-integer matrix helpers (dimensions here never exceed 4)


def _identity(n: int) -> IntMatrix:
    return tuple([(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)])


def _zeros(rows: int, cols: int) -> IntMatrix:
    return ((0,) * cols,) * rows


def _matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise StructuralError("matrix dimensions do not compose")
    columns = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in columns]) for row in a])


def _matvec(a: IntMatrix, v: Tuple[int, ...]) -> Tuple[int, ...]:
    # unchecked: a map's shapes are checked when it is built
    return tuple([sum(map(mul, row, v)) for row in a])


def _det3(m: IntMatrix) -> int:
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

    # -- constructors: each returns the interned space of its fields; a
    # genus that only equals an int (True, 2.0) is never looked up, since it
    # would find the int's space

    @staticmethod
    def point() -> "SurfaceSpace":
        return _interned("point")

    @staticmethod
    def circle() -> "SurfaceSpace":
        return _interned("circle")

    @staticmethod
    def surface(genus: int) -> "SurfaceSpace":
        if type(genus) is not int:
            return SurfaceSpace("surface", genus=genus)
        return _interned("surface", genus)

    @staticmethod
    def wedge(left: "SurfaceSpace", right: "SurfaceSpace") -> "SurfaceSpace":
        return _interned("wedge", parts=(left, right))

    @staticmethod
    def circle_union(g1: int, g2: int) -> "SurfaceSpace":
        if type(g1) is not int or type(g2) is not int:
            return SurfaceSpace("circle_union", genera=(g1, g2))
        return _interned("circle_union", genera=(g1, g2))

    @staticmethod
    def disjoint(left: "SurfaceSpace", right: "SurfaceSpace") -> "SurfaceSpace":
        return _interned("disjoint", parts=(left, right))

    def describe(self) -> str:
        if self.kind == "surface":
            return f"surface(g={self.genus})"
        if self.kind == "circle_union":
            return f"circle_union(g1={self.genera[0]}, g2={self.genera[1]})"
        if self.kind in ("wedge", "disjoint"):
            inner = ", ".join(p.describe() for p in self.parts)
            return f"{self.kind}({inner})"
        return self.kind


#: spaces built by the ``SurfaceSpace`` constructors, keyed by their fields;
#: emptied when full, so equal spaces are usually, not always, one object (two
#: threads that miss at once also leave two); space checks fall back to ``==``
_SPACES: dict = {}
_MAX_SPACES = 4096


def _interned(kind: str, genus=None, parts=(), genera=()) -> SurfaceSpace:
    key = (kind, genus, parts, genera)
    space = _SPACES.get(key)
    if space is None:
        space = SurfaceSpace(kind, genus, parts, genera)
        if len(_SPACES) >= _MAX_SPACES:
            _SPACES.clear()
        _SPACES[key] = space
    return space


def _same_space(a: SurfaceSpace, b: SurfaceSpace) -> bool:
    return a is b or a == b


# ---------------------------------------------------------------------------
# classes


@dataclass(frozen=True)
class KClassVector:
    """An even (H0 ⊕ H2) or odd (H1) integer coordinate vector on a space.

    A class built here is checked: parity, length against the space's ranks
    and integer coordinates.  The calculus derives classes from checked
    ones (sums, integer multiples, pushforwards, even disjoint pairs) and
    builds those unchecked, see ``_derived``.
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

    # -- exact abelian-group arithmetic: valid classes give valid classes,
    # which are built without re-validation

    def _check_compatible(self, other: "KClassVector"):
        if not _same_space(self.space, other.space) or self.parity != other.parity:
            raise StructuralError("classes live on different spaces or parities")

    def __add__(self, other: "KClassVector") -> "KClassVector":
        self._check_compatible(other)
        coords = tuple(map(add, self.coordinates, other.coordinates))
        return _derived(self.space, self.parity, coords)

    def __sub__(self, other: "KClassVector") -> "KClassVector":
        self._check_compatible(other)
        coords = tuple(map(sub, self.coordinates, other.coordinates))
        return _derived(self.space, self.parity, coords)

    def __rmul__(self, scalar: int) -> "KClassVector":
        if not isinstance(scalar, int):
            raise ValidationError("K-class scalars must be integers")
        return _derived(
            self.space, self.parity, tuple([scalar * c for c in self.coordinates])
        )

    def __neg__(self) -> "KClassVector":
        return (-1) * self


def _derived(space: SurfaceSpace, parity: str, coordinates: Tuple[int, ...]) -> KClassVector:
    """A class the calculus computed from valid classes and maps, whose
    parity, length and integer coordinates hold by construction: built
    without ``KClassVector``'s checks."""
    x = object.__new__(KClassVector)
    x.__dict__.update(space=space, parity=parity, coordinates=coordinates)
    return x


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


def euler_characteristic(g: int) -> int:
    """Euler characteristic 2 - 2g of the genus-g surface (formal at g = -1)."""
    return 2 - 2 * g


# ---------------------------------------------------------------------------
# canonical maps


_MAP_KINDS = (
    "j_disjoint_to_wedge",
    "j_disjoint_to_union",
    "p_pinch_connected_sum",
    "p_pinch_natural_sum",
    "q_crunch",
    "q0_constant",
    "iota_basepoint",
    "identity",
    "composite",
)


@dataclass(frozen=True)
class CanonicalMap:
    """A canonical continuous map carried as one integer matrix per degree.

    Matrices act on coordinate columns: target = matrix · source.  The H1
    matrix is only present where both sides carry a fixed odd basis.  A map
    built here is checked once: its kind, integer entries and each matrix's
    shape against both spaces' ranks; so its pushforward of a valid class is
    valid.  The module's own constructors and ``compose`` check the shapes
    only, see ``_own_map``.
    """

    kind: str
    source: SurfaceSpace
    target: SurfaceSpace
    h0: IntMatrix
    h2: IntMatrix
    h1: Optional[IntMatrix] = None

    def __post_init__(self):
        if self.kind not in _MAP_KINDS:
            raise ValidationError(f"unknown map kind: {self.kind!r}")
        _check_shapes(self.source, self.target, self.h0, self.h2, self.h1)
        matrices = (self.h0, self.h2) if self.h1 is None else (self.h0, self.h2, self.h1)
        entries = chain.from_iterable(chain.from_iterable(matrices))
        if not all(map(isinstance, entries, repeat(int))):
            raise ValidationError("map matrix entries must be integers")

    def compose(self, inner: "CanonicalMap") -> "CanonicalMap":
        """The composite self ∘ inner, with matrices multiplied per degree."""
        if not _same_space(inner.target, self.source):
            raise StructuralError("maps do not compose: middle spaces differ")
        h1 = None
        if self.h1 is not None and inner.h1 is not None:
            h1 = _matmul(self.h1, inner.h1)
        return _own_map(
            "composite",
            inner.source,
            self.target,
            _matmul(self.h0, inner.h0),
            _matmul(self.h2, inner.h2),
            h1,
        )


def _check_shapes(source: SurfaceSpace, target: SurfaceSpace, h0, h2, h1):
    """Each matrix's shape against both spaces' ranks; an H1 matrix needs an
    odd basis fixed on both sides."""
    _check_shape("H0", h0, target.h0_rank, source.h0_rank)
    _check_shape("H2", h2, target.h2_rank, source.h2_rank)
    if h1 is not None:
        if source.h1_rank is None or target.h1_rank is None:
            raise StructuralError(
                f"H1 matrix given, but no odd generator basis is fixed on "
                f"{(source if source.h1_rank is None else target).describe()}"
            )
        _check_shape("H1", h1, target.h1_rank, source.h1_rank)


def _check_shape(degree: str, matrix: IntMatrix, rows: int, cols: int):
    if len(matrix) != rows or not all([len(row) == cols for row in matrix]):
        raise StructuralError(f"{degree} matrix shape does not match spaces")


def _own_map(kind: str, source: SurfaceSpace, target: SurfaceSpace,
             h0: IntMatrix, h2: IntMatrix, h1: Optional[IntMatrix] = None) -> CanonicalMap:
    """A map this module builds from a kind in ``_MAP_KINDS`` and integer
    literals, ``_identity``, ``_zeros`` or ``_matmul`` of checked maps: its
    shapes are checked, its kind and integer entries hold by construction."""
    _check_shapes(source, target, h0, h2, h1)
    m = object.__new__(CanonicalMap)
    m.__dict__.update(kind=kind, source=source, target=target, h0=h0, h2=h2, h1=h1)
    return m


def pushforward(mapping: CanonicalMap, x: KClassVector) -> KClassVector:
    """Apply a canonical map's induced integer matrices to a K-class."""
    if not _same_space(x.space, mapping.source):
        raise StructuralError(
            f"class lives on {x.space.describe()}, "
            f"map starts at {mapping.source.describe()}"
        )
    if x.parity == "even":
        # equal spaces have equal ranks, so x's split is the source's
        h0, coords = x.space.h0_rank, x.coordinates
        coords = _matvec(mapping.h0, coords[:h0]) + _matvec(mapping.h2, coords[h0:])
        return _derived(mapping.target, "even", coords)
    if mapping.h1 is None:
        raise StructuralError(
            f"map {mapping.kind} carries no odd matrix between "
            f"{mapping.source.describe()} and {mapping.target.describe()}"
        )
    return _derived(mapping.target, "odd", _matvec(mapping.h1, x.coordinates))


def identification_to_wedge(left: SurfaceSpace, right: SurfaceSpace) -> CanonicalMap:
    """Identify the two base points: disjoint(left, right) → wedge(left, right).

    Both component generators map to the single H0 generator; H1 and H2
    generators pass through unchanged.
    """
    source = SurfaceSpace.disjoint(left, right)
    target = SurfaceSpace.wedge(left, right)
    h1 = None
    if source.h1_rank is not None and target.h1_rank is not None:
        h1 = _identity(source.h1_rank)
    return _own_map(
        "j_disjoint_to_wedge", source, target, ((1, 1),), _identity(source.h2_rank), h1
    )


def identification_to_union(g1: int, g2: int) -> CanonicalMap:
    """Include both surfaces: disjoint(Σ_g1, Σ_g2) → their union along a circle."""
    source = SurfaceSpace.disjoint(SurfaceSpace.surface(g1), SurfaceSpace.surface(g2))
    target = SurfaceSpace.circle_union(g1, g2)
    return _own_map(
        "j_disjoint_to_union", source, target, ((1, 1),), _identity(2)
    )


def pinch_connected_sum(g1: int, g2: int) -> CanonicalMap:
    """Contract the gluing circle of a connected sum onto the wedge point:
    surface(g1 + g2) → wedge(surface(g1), surface(g2)).

    The fundamental class maps to the sum of the two wedge fundamental
    classes.
    """
    source = SurfaceSpace.surface(g1 + g2)
    target = SurfaceSpace.wedge(SurfaceSpace.surface(g1), SurfaceSpace.surface(g2))
    return _own_map(
        "p_pinch_connected_sum", source, target, ((1,),), ((1,), (1,))
    )


def pinch_circle_sum() -> CanonicalMap:
    """Circle instance of the connected-sum pinch: circle → wedge of two
    circles, collapsing two antipodal points' identification; the H1
    generator maps diagonally."""
    source = SurfaceSpace.circle()
    target = SurfaceSpace.wedge(SurfaceSpace.circle(), SurfaceSpace.circle())
    return _own_map(
        "p_pinch_connected_sum", source, target, ((1,),), _zeros(0, 0), ((1,), (1,))
    )


def pinch_natural_sum(g1: int, g2: int) -> CanonicalMap:
    """Collapse the tubular direction of the shared handle circle:
    surface(g1 + g2 - 1) → circle_union(g1, g2).

    The single fundamental class maps to the sum of the two surface
    fundamental classes of the union.
    """
    source = SurfaceSpace.surface(g1 + g2 - 1)
    target = SurfaceSpace.circle_union(g1, g2)
    return _own_map(
        "p_pinch_natural_sum", source, target, ((1,),), ((1,), (1,))
    )


def crunch(g1: int, g2: int) -> CanonicalMap:
    """Crush the second wedge factor to the base point:
    wedge(surface(g1), surface(g2)) → surface(g1)."""
    source = SurfaceSpace.wedge(SurfaceSpace.surface(g1), SurfaceSpace.surface(g2))
    target = SurfaceSpace.surface(g1)
    return _own_map("q_crunch", source, target, ((1,),), ((1, 0),))


def constant_map(space: SurfaceSpace) -> CanonicalMap:
    """Collapse everything to the point; H0 adds up component generators."""
    h1 = None
    if space.h1_rank is not None:
        h1 = _zeros(0, space.h1_rank)
    return _own_map(
        "q0_constant",
        space,
        SurfaceSpace.point(),
        ((1,) * space.h0_rank,),
        _zeros(0, space.h2_rank),
        h1,
    )


def basepoint_inclusion(space: SurfaceSpace) -> CanonicalMap:
    """Include the base point (in the first component) into the space."""
    h0 = ((1,),) + ((0,),) * (space.h0_rank - 1)
    h1 = None
    if space.h1_rank is not None:
        h1 = _zeros(space.h1_rank, 0)
    return _own_map(
        "iota_basepoint",
        SurfaceSpace.point(),
        space,
        h0,
        _zeros(space.h2_rank, 0),
        h1,
    )


def disjoint_pair(x: KClassVector, y: KClassVector) -> KClassVector:
    """The class (x, y) on the disjoint union of the two carrier spaces."""
    if x.parity != y.parity:
        raise StructuralError("disjoint pair requires equal parities")
    space = SurfaceSpace.disjoint(x.space, y.space)
    if x.parity == "even":
        # each operand is a circle or a surface: one H0 coordinate, then H2
        xs, ys = x.coordinates, y.coordinates
        return _derived(space, "even", xs[:1] + ys[:1] + xs[1:] + ys[1:])
    # an odd basis is fixed only when both operands are circles
    return KClassVector(space, "odd", x.coordinates + y.coordinates)


def basepoint_unit(space: SurfaceSpace) -> KClassVector:
    """The image of the point generator under the base-point inclusion."""
    return pushforward(basepoint_inclusion(space), unit_point_class())


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


@dataclass(frozen=True)
class KsumReport:
    checks: Tuple[IdentityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> Tuple[IdentityCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def _check(name, g1, g2, lhs, rhs, expect_equal=True) -> IdentityCheck:
    lhs_t = tuple(lhs.coordinates) if isinstance(lhs, KClassVector) else tuple(lhs)
    rhs_t = tuple(rhs.coordinates) if isinstance(rhs, KClassVector) else tuple(rhs)
    equal = lhs_t == rhs_t
    return IdentityCheck(name, g1, g2, lhs_t, rhs_t, expect_equal, equal == expect_equal)


class _Genus(NamedTuple):
    """One genus's surface and distinguished classes, all on that surface."""

    surface: SurfaceSpace
    dolbeault: KClassVector
    fundamental: KClassVector
    unit: KClassVector


def _genus(g: int) -> _Genus:
    dol = chern_dolbeault(g)
    return _Genus(dol.space, dol, fundamental_k_class(dol.space), basepoint_unit(dol.space))


def verify_identities(genus_bound: int = 6) -> KsumReport:
    """Verify the complete suite of exact K-class identities.

    Runs every identity of the circle/surface addition calculus over all
    genus pairs 0 ≤ g1, g2 ≤ genus_bound, plus the asserted *inequality*
    showing H0 incompatibility of Euler terms under the ordinary
    connected sum.  All arithmetic is exact integer arithmetic.
    """
    checks = []

    # circle addition: both descriptions of the Dirac class sum agree in
    # the odd group of the wedge of two circles.
    d = dirac_circle_class()
    j_circ = identification_to_wedge(SurfaceSpace.circle(), SurfaceSpace.circle())
    lhs = pushforward(j_circ, disjoint_pair(d, d))
    rhs = pushforward(pinch_circle_sum(), d)
    checks.append(_check("circle-dirac-addition", None, None, lhs, rhs))

    # the circle's fundamental K-class is minus the Dirac class.
    checks.append(
        _check(
            "circle-fundamental-vs-dirac",
            None,
            None,
            fundamental_k_class(SurfaceSpace.circle()),
            -d,
        )
    )

    # every genus the grid reaches: g1 + g2 for the connected sum and
    # g1 + g2 - 1 for the natural sum
    genera = {g: _genus(g) for g in range(-1, 2 * genus_bound + 1)}

    for g in range(genus_bound + 1):
        surf, dol, fund, iota_unit = genera[g]

        # normalization: fundamental class = Dolbeault + (g-1) point units.
        checks.append(
            _check(
                "fundamental-class-normalization",
                g,
                None,
                fund,
                dol + (g - 1) * iota_unit,
            )
        )

        # collapsing to the point recovers the Dolbeault index 1 - g.
        checks.append(
            _check(
                "constant-map-index",
                g,
                None,
                pushforward(constant_map(surf), dol),
                (1 - g,),
            )
        )

    for g1 in range(genus_bound + 1):
        for g2 in range(genus_bound + 1):
            checks.extend(_pair_checks(g1, g2, genera))

    return KsumReport(tuple(checks))


def _pair_checks(g1: int, g2: int, genera):
    """All identities attached to one ordered genus pair; ``genera`` maps
    each genus the pair reaches to its ``_Genus``."""
    checks = []
    s1, dol1, fund1, iota_s1 = genera[g1]
    s2, dol2, fund2, _ = genera[g2]
    dol_sharp = genera[g1 + g2].dolbeault
    fund_sharp = genera[g1 + g2].fundamental
    dol_nat = genera[g1 + g2 - 1].dolbeault
    fund_nat = genera[g1 + g2 - 1].fundamental

    j_wedge = identification_to_wedge(s1, s2)
    p_sharp = pinch_connected_sum(g1, g2)
    q = crunch(g1, g2)
    iota_wedge = basepoint_unit(j_wedge.target)

    # the wedge classes of the two Dolbeault operators.
    dol1_w = pushforward(j_wedge, disjoint_pair(dol1, 0 * dol2))
    dol2_w = pushforward(j_wedge, disjoint_pair(0 * dol1, dol2))

    # point unit, left Dolbeault, right Dolbeault form a unimodular basis
    # of the rank-3 even group of the wedge.
    basis = (iota_wedge.coordinates, dol1_w.coordinates, dol2_w.coordinates)
    checks.append(
        _check("wedge-basis-unimodular", g1, g2, (abs(_det3(basis)),), (1,))
    )

    # crushing the right factor keeps the left Dolbeault class and turns
    # the right one into its index in point units.
    checks.append(
        _check(
            "crunch-left-dolbeault", g1, g2, pushforward(q, dol1_w), dol1
        )
    )
    checks.append(
        _check(
            "crunch-right-dolbeault",
            g1,
            g2,
            pushforward(q, dol2_w),
            (1 - g2) * iota_s1,
        )
    )

    # pinching the connected sum costs exactly one point unit.
    pinched = pushforward(p_sharp, dol_sharp)
    checks.append(
        _check(
            "pinch-dolbeault-defect",
            g1,
            g2,
            pinched,
            dol1_w + dol2_w - iota_wedge,
        )
    )

    # composite crunch∘pinch acts by composed matrices (functoriality) ...
    qp = q.compose(p_sharp)
    via_composite = pushforward(qp, dol_sharp)
    via_stages = pushforward(q, pinched)
    checks.append(
        _check("crunch-pinch-functoriality", g1, g2, via_composite, via_stages)
    )
    # ... and sends the big Dolbeault class to the left one minus g2 units.
    checks.append(
        _check(
            "crunch-pinch-composite",
            g1,
            g2,
            via_composite,
            dol1 - g2 * iota_s1,
        )
    )

    # stabilizing a class by a trivial genus-g2 block leaves the
    # normalized combination unchanged.
    checks.append(
        _check(
            "stabilization-well-defined",
            g1,
            g2,
            via_composite + (g1 + g2 - 1) * iota_s1,
            dol1 + (g1 - 1) * iota_s1,
        )
    )

    # Euler characteristic is additive for the natural (handle) sum ...
    checks.append(
        _check(
            "natural-sum-euler-additivity",
            g1,
            g2,
            (euler_characteristic(g1 + g2 - 1),),
            (euler_characteristic(g1) + euler_characteristic(g2),),
        )
    )
    # ... but differs by exactly 2 for the ordinary connected sum, which
    # is the asserted H0 inequality blocking a naive addition formula.
    checks.append(
        _check(
            "connected-sum-euler-defect",
            g1,
            g2,
            (euler_characteristic(g1) + euler_characteristic(g2),),
            (euler_characteristic(g1 + g2),),
            expect_equal=False,
        )
    )

    # fundamental classes are compatible for the ordinary connected sum.
    both_fund = disjoint_pair(fund1, fund2)
    j_fund = pushforward(j_wedge, both_fund)
    p_fund = pushforward(p_sharp, fund_sharp)
    checks.append(_check("connected-sum-fundamental-class", g1, g2, j_fund, p_fund))

    # identities in the union along a circle (natural sum target).
    j_union = identification_to_union(g1, g2)
    p_nat = pinch_natural_sum(g1, g2)

    checks.append(
        _check(
            "dolbeault-natural-sum-addition",
            g1,
            g2,
            pushforward(j_union, disjoint_pair(dol1, dol2)),
            pushforward(p_nat, dol_nat),
        )
    )
    checks.append(
        _check(
            "natural-sum-fundamental-class",
            g1,
            g2,
            pushforward(j_union, both_fund),
            pushforward(p_nat, fund_nat),
        )
    )

    return checks
