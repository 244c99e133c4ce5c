"""Exact integer calculus of circle/surface K-classes.

Every numeric expectation below is re-derived by hand from the two facts
that pin the coordinates: the Dolbeault class of the genus-g surface has
Chern coordinates (1-g, 1), and the circle's Dirac class has coordinate -1.
Nothing here re-runs the library's own identity grid to produce expected
values.
"""

import time

from hypothesis import given
from hypothesis import strategies as st
import pytest

from extlab.errors import StructuralError, ValidationError
from extlab.ksum import (
    CanonicalMap,
    KClassVector,
    SurfaceSpace,
    basepoint_inclusion,
    basepoint_unit,
    chern_dolbeault,
    constant_map,
    crunch,
    dirac_circle_class,
    disjoint_pair,
    euler_characteristic,
    even_class,
    fundamental_k_class,
    identification_to_union,
    identification_to_wedge,
    odd_class,
    pinch_circle_sum,
    pinch_connected_sum,
    pinch_natural_sum,
    pushforward,
    unit_point_class,
    verify_identities,
)
from oracles import h0_part, h2_part


def det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# ---------------------------------------------------------------------------
# spaces


def test_space_ranks():
    pt, ci = SurfaceSpace.point(), SurfaceSpace.circle()
    s2 = SurfaceSpace.surface(2)
    assert (pt.h0_rank, pt.h1_rank, pt.h2_rank) == (1, 0, 0)
    assert (ci.h0_rank, ci.h1_rank, ci.h2_rank) == (1, 1, 0)
    assert (s2.h0_rank, s2.h1_rank, s2.h2_rank) == (1, 4, 1)
    w = SurfaceSpace.wedge(s2, SurfaceSpace.surface(0))
    assert (w.h0_rank, w.h2_rank) == (1, 2)
    assert w.h1_rank is None  # no preferred surface H1 basis
    cc = SurfaceSpace.wedge(ci, ci)
    assert cc.h1_rank == 2
    d = SurfaceSpace.disjoint(s2, ci)
    assert (d.h0_rank, d.h2_rank) == (2, 1)
    u = SurfaceSpace.circle_union(1, 3)
    assert (u.h0_rank, u.h2_rank) == (1, 2)


def _recursive_ranks(space):
    """(h0, h1, h2) by the recursive definitions: one H0 generator per
    component, one H2 generator per surface constituent, and an H1 basis only
    on points, circles, surfaces and unions of circles."""
    if space.kind == "disjoint":
        h0 = sum(_recursive_ranks(p)[0] for p in space.parts)
    else:
        h0 = 1
    if space.kind in ("wedge", "disjoint"):
        ranks = [_recursive_ranks(p) for p in space.parts]
        h2 = sum(r[2] for r in ranks)
        h1 = (sum(r[1] for r in ranks)
              if all(p.kind == "circle" for p in space.parts) else None)
    else:
        h1 = {"point": 0, "circle": 1, "circle_union": None}.get(space.kind)
        if space.kind == "surface":
            h1 = 2 * max(space.genus, 0)
        h2 = {"surface": 1, "circle_union": 2}.get(space.kind, 0)
    return h0, h1, h2


_S = SurfaceSpace


@pytest.mark.parametrize("space", [
    _S.point(),
    _S.circle(),
    *[_S.surface(g) for g in range(-1, 4)],
    _S.wedge(_S.circle(), _S.circle()),
    _S.wedge(_S.surface(2), _S.surface(-1)),
    _S.wedge(_S.circle(), _S.surface(1)),
    _S.circle_union(0, 3),
    _S.disjoint(_S.circle(), _S.circle()),
    _S.disjoint(_S.surface(3), _S.circle()),
], ids=lambda s: s.describe())
def test_stored_ranks_are_the_recursive_ranks(space):
    assert (space.h0_rank, space.h1_rank, space.h2_rank) == _recursive_ranks(space)


def test_stored_ranks_stay_out_of_equality_and_repr():
    a, b = SurfaceSpace.surface(2), SurfaceSpace.surface(2)
    assert a == b and hash(a) == hash(b)
    assert a != SurfaceSpace.surface(3)
    assert repr(a) == "SurfaceSpace(kind='surface', genus=2, parts=(), genera=())"


def test_formal_genus_minus_one():
    # the natural sum of two spheres pinches a genus -1 surface: chi = 4
    s = SurfaceSpace.surface(-1)
    assert euler_characteristic(-1) == 4
    assert chern_dolbeault(-1).coordinates == (2, 1)
    assert s.h1_rank == 0


@pytest.mark.parametrize(
    "bad",
    [
        lambda: SurfaceSpace.surface(-2),
        lambda: SurfaceSpace.circle_union(-1, 0),
        lambda: SurfaceSpace.wedge(SurfaceSpace.point(), SurfaceSpace.circle()),
        lambda: SurfaceSpace("wedge", parts=(SurfaceSpace.circle(),)),
        lambda: SurfaceSpace("torus"),
    ],
)
def test_space_validation(bad):
    with pytest.raises(ValidationError):
        bad()


def test_describe_mentions_the_genus():
    assert "2" in SurfaceSpace.surface(2).describe()


# ---------------------------------------------------------------------------
# classes


def test_distinguished_class_coordinates():
    assert unit_point_class().coordinates == (1,)
    assert dirac_circle_class().coordinates == (-1,)
    assert chern_dolbeault(0).coordinates == (1, 1)
    assert chern_dolbeault(1).coordinates == (0, 1)
    assert chern_dolbeault(3).coordinates == (-2, 1)
    assert fundamental_k_class(SurfaceSpace.circle()).coordinates == (1,)
    assert fundamental_k_class(SurfaceSpace.surface(5)).coordinates == (0, 1)


def test_fundamental_class_needs_a_fundamental_cycle():
    with pytest.raises(ValidationError):
        fundamental_k_class(SurfaceSpace.point())
    with pytest.raises(ValidationError):
        fundamental_k_class(SurfaceSpace.wedge(SurfaceSpace.surface(1), SurfaceSpace.surface(1)))


def test_a_class_built_from_a_list_is_its_tuple_twin():
    s = SurfaceSpace.surface(1)
    listed, twin = KClassVector(s, "even", [1, 2]), KClassVector(s, "even", (1, 2))
    assert listed.coordinates == (1, 2) and type(listed.coordinates) is tuple
    assert listed == twin and hash(listed) == hash(twin)
    assert len({listed, twin}) == 1
    assert disjoint_pair(listed, twin).coordinates == (1, 1, 2, 2)
    assert disjoint_pair(twin, listed) == disjoint_pair(listed, twin)
    ci = SurfaceSpace.circle()
    assert disjoint_pair(KClassVector(ci, "odd", [3]), odd_class(ci, (4,))).coordinates == (3, 4)


def test_class_arithmetic():
    a = chern_dolbeault(2)
    assert (a + a).coordinates == (-2, 2)
    assert (a - a).coordinates == (0, 0)
    assert (3 * a).coordinates == (-3, 3)
    assert (-a).coordinates == (1, -1)
    assert h0_part(a) == (-1,) and h2_part(a) == (1,)


def test_class_validation():
    s = SurfaceSpace.surface(1)
    with pytest.raises(ValidationError):
        KClassVector(s, "even", (1,))  # needs 2 coordinates
    with pytest.raises(ValidationError):
        KClassVector(s, "sideways", (0, 0))
    with pytest.raises(ValidationError):
        KClassVector(s, "even", (0.5, 1))
    with pytest.raises(ValidationError):
        odd_class(SurfaceSpace.wedge(s, s), (1,))  # no odd basis there
    with pytest.raises(ValidationError):
        2.5 * chern_dolbeault(0)
    with pytest.raises(StructuralError):
        chern_dolbeault(1) + chern_dolbeault(2)
    with pytest.raises(StructuralError):
        disjoint_pair(unit_point_class(), dirac_circle_class())


# ---------------------------------------------------------------------------
# pushforwards, one hand-computed example per map


def identity_map(space):
    """The identity of ``space``: identity matrices in every degree with a
    fixed basis."""
    def eye(n):
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    h1 = eye(space.h1_rank) if space.h1_rank is not None else None
    return CanonicalMap("identity", space, space, eye(space.h0_rank), eye(space.h2_rank), h1)


def test_identity_map_fixes_classes():
    s = SurfaceSpace.surface(2)
    x = even_class(s, (3,), (-1,))
    assert pushforward(identity_map(s), x) == x
    y = odd_class(SurfaceSpace.circle(), (4,))
    assert pushforward(identity_map(SurfaceSpace.circle()), y) == y


def test_collapse_to_point_reads_the_index():
    # (q0)_* [Dolbeault_g] = (1 - g) [unit]: for g = 4 that is -3
    got = pushforward(constant_map(SurfaceSpace.surface(4)), chern_dolbeault(4))
    assert got == (-3) * unit_point_class()


def test_basepoint_unit_hits_the_first_h0_slot():
    w = SurfaceSpace.wedge(SurfaceSpace.surface(1), SurfaceSpace.surface(2))
    assert basepoint_unit(w).coordinates == (1, 0, 0)
    assert basepoint_unit(SurfaceSpace.surface(3)).coordinates == (1, 0)


def test_wedge_identification_of_dolbeault_classes():
    # j_*(dol_1, dol_2) on wedge coordinates (H0; H2_left, H2_right):
    # H0 adds the two indices, H2 passes through
    j = identification_to_wedge(SurfaceSpace.surface(1), SurfaceSpace.surface(2))
    got = pushforward(j, disjoint_pair(chern_dolbeault(1), chern_dolbeault(2)))
    assert got.coordinates == (0 + (-1), 1, 1)


def test_wedge_basis_is_unimodular_by_hand():
    g1, g2 = 2, 5
    s1, s2 = SurfaceSpace.surface(g1), SurfaceSpace.surface(g2)
    j = identification_to_wedge(s1, s2)
    w = SurfaceSpace.wedge(s1, s2)
    rows = (
        basepoint_unit(w).coordinates,
        pushforward(j, disjoint_pair(chern_dolbeault(g1), 0 * chern_dolbeault(g2))).coordinates,
        pushforward(j, disjoint_pair(0 * chern_dolbeault(g1), chern_dolbeault(g2))).coordinates,
    )
    assert rows == ((1, 0, 0), (1 - g1, 1, 0), (1 - g2, 0, 1))
    assert det3(rows) == 1


def test_crunch_keeps_left_and_counts_right():
    g1, g2 = 3, 2
    q = crunch(g1, g2)
    s1 = SurfaceSpace.surface(g1)
    j = identification_to_wedge(s1, SurfaceSpace.surface(g2))
    left = pushforward(j, disjoint_pair(chern_dolbeault(g1), 0 * chern_dolbeault(g2)))
    right = pushforward(j, disjoint_pair(0 * chern_dolbeault(g1), chern_dolbeault(g2)))
    assert pushforward(q, left) == chern_dolbeault(g1)
    assert pushforward(q, right) == (1 - g2) * basepoint_unit(s1)


def test_pinch_costs_one_point_unit():
    # p_* [Dolbeault_{g1+g2}] = dol_1 + dol_2 - iota[1] on the wedge;
    # for (g1, g2) = (1, 2): (0,1,0) + (-1,0,1) - (1,0,0) = (-2, 1, 1)
    p = pinch_connected_sum(1, 2)
    got = pushforward(p, chern_dolbeault(3))
    assert got.coordinates == (-2, 1, 1)


def test_crunch_pinch_composite_drops_g2_units():
    # (q o p)_* [Dolbeault_{g1+g2}] = [Dolbeault_{g1}] - g2 iota[1]
    g1, g2 = 1, 2
    q, p = crunch(g1, g2), pinch_connected_sum(g1, g2)
    qp = q.compose(p)
    assert qp.kind == "composite"
    via_composite = pushforward(qp, chern_dolbeault(g1 + g2))
    via_stages = pushforward(q, pushforward(p, chern_dolbeault(g1 + g2)))
    assert via_composite == via_stages
    assert via_composite.coordinates == (0 - 2, 1)


def test_stabilization_for_a_concrete_pair():
    # adding (g1+g2-1) point units to the crunched class recovers the
    # normalized genus-g1 combination; hand values for (2, 3):
    g1, g2 = 2, 3
    s1 = SurfaceSpace.surface(g1)
    qp = crunch(g1, g2).compose(pinch_connected_sum(g1, g2))
    lhs = pushforward(qp, chern_dolbeault(g1 + g2)) + (g1 + g2 - 1) * basepoint_unit(s1)
    rhs = chern_dolbeault(g1) + (g1 - 1) * basepoint_unit(s1)
    assert lhs.coordinates == rhs.coordinates == (0, 1)


def test_circle_sum_of_dirac_classes():
    d = dirac_circle_class()
    j = identification_to_wedge(SurfaceSpace.circle(), SurfaceSpace.circle())
    both = pushforward(j, disjoint_pair(d, d))
    pinched = pushforward(pinch_circle_sum(), d)
    assert both.coordinates == pinched.coordinates == (-1, -1)


def test_natural_sum_addition_at_genus_zero():
    # (0, 0) exercises the formal genus -1 source: chi(-1) = 4 and the
    # H0 coordinate 2 matches the two sphere indices 1 + 1
    j = identification_to_union(0, 0)
    lhs = pushforward(j, disjoint_pair(chern_dolbeault(0), chern_dolbeault(0)))
    rhs = pushforward(pinch_natural_sum(0, 0), chern_dolbeault(-1))
    assert lhs == rhs
    assert lhs.coordinates == (2, 1, 1)


def test_natural_sum_euler_counts():
    for g1 in range(0, 5):
        for g2 in range(0, 5):
            assert euler_characteristic(g1 + g2 - 1) == euler_characteristic(
                g1
            ) + euler_characteristic(g2)
            # the ordinary connected sum misses by exactly 2
            assert (
                euler_characteristic(g1)
                + euler_characteristic(g2)
                - euler_characteristic(g1 + g2)
            ) == 2


def test_pushforward_rejects_wrong_space():
    with pytest.raises(StructuralError):
        pushforward(crunch(1, 2), chern_dolbeault(3))


def test_pushforward_without_odd_matrix():
    odd = odd_class(SurfaceSpace.surface(2), (1, 0, 0, 0))
    with pytest.raises(StructuralError):
        pushforward(pinch_connected_sum(1, 1), odd)


def test_compose_requires_matching_spaces():
    with pytest.raises(StructuralError):
        pinch_connected_sum(1, 1).compose(pinch_connected_sum(1, 1))


def test_canonical_map_shape_validation():
    with pytest.raises(StructuralError):
        CanonicalMap(
            "identity",
            SurfaceSpace.surface(1),
            SurfaceSpace.surface(1),
            ((1,),),
            ((1, 1),),  # wrong H2 shape
        )


# ---------------------------------------------------------------------------
# derived classes are not re-validated, so each check must hold where its
# input enters: a map's entries and shapes when it is built, an odd disjoint
# pair on its space


def test_a_map_with_a_float_entry_pushes_nothing_forward():
    s = SurfaceSpace.surface(1)
    with pytest.raises(ValidationError):
        pushforward(CanonicalMap("identity", s, s, ((1.5,),), ((1,),)), fundamental_k_class(s))


def test_an_h1_matrix_of_the_wrong_shape_is_refused():
    ci = SurfaceSpace.circle()
    with pytest.raises(StructuralError):
        # two rows where the circle has one H1 generator
        pushforward(CanonicalMap("identity", ci, ci, ((1,),), (), ((1,), (1,))),
                    dirac_circle_class())
    with pytest.raises(StructuralError):
        CanonicalMap("identity", ci, ci, ((1,),), (), ((1, 1),))  # two columns


def test_an_h1_matrix_needs_odd_bases_on_both_sides():
    s = SurfaceSpace.surface(1)
    w = SurfaceSpace.wedge(s, s)
    with pytest.raises(StructuralError):
        CanonicalMap("q_crunch", w, s, ((1,),), ((1, 0),), ((1, 0, 0, 0),) * 2)


def test_an_odd_disjoint_pair_needs_two_circles():
    x = odd_class(SurfaceSpace.surface(2), (1, 0, 0, 1))
    with pytest.raises(ValidationError):
        disjoint_pair(x, x)


def test_non_integral_genera_are_refused():
    with pytest.raises(ValidationError):
        SurfaceSpace.surface(1.0)
    with pytest.raises(ValidationError):
        SurfaceSpace.circle_union(1, 2.0)


def test_equal_spaces_built_by_the_constructors_are_one_object():
    s = SurfaceSpace.surface(3)
    assert SurfaceSpace.surface(3) is s
    assert SurfaceSpace.wedge(s, SurfaceSpace.circle()) is SurfaceSpace.wedge(
        SurfaceSpace.surface(3), SurfaceSpace.circle())
    # a space built field by field is equal, not necessarily the same object
    other = SurfaceSpace("surface", genus=3)
    assert other == s
    assert pushforward(constant_map(other), chern_dolbeault(3)) == (-2) * unit_point_class()


_GENERA = st.integers(min_value=0, max_value=12)
_INTS = st.integers(min_value=-10 ** 6, max_value=10 ** 6)


def _canonical_maps(g1, g2):
    """Every canonical map the genus pair builds, with the parity it acts on."""
    s1, s2 = SurfaceSpace.surface(g1), SurfaceSpace.surface(g2)
    maps = [
        identification_to_wedge(s1, s2),
        identification_to_union(g1, g2),
        pinch_connected_sum(g1, g2),
        pinch_natural_sum(g1, g2),
        crunch(g1, g2),
        crunch(g1, g2).compose(pinch_connected_sum(g1, g2)),
        constant_map(s1),
        basepoint_inclusion(s2),
    ]
    ci = SurfaceSpace.circle()
    return [(m, "even") for m in maps] + [
        (identification_to_wedge(ci, ci), "odd"),
        (pinch_circle_sum(), "odd"),
        (pinch_circle_sum(), "even"),
    ]


def _random_class(space, parity, draw):
    n = space.h0_rank + space.h2_rank if parity == "even" else space.h1_rank
    return KClassVector(space, parity, tuple(draw(_INTS) for _ in range(n)))


def _revalidated(x):
    """``x`` rebuilt through every check of the public constructor."""
    return KClassVector(x.space, x.parity, x.coordinates)


@given(_GENERA, _GENERA, st.data())
def test_pushforwards_are_additive_and_derive_valid_classes(g1, g2, data):
    for mapping, parity in _canonical_maps(g1, g2):
        x = _random_class(mapping.source, parity, data.draw)
        y = _random_class(mapping.source, parity, data.draw)
        k = data.draw(_INTS)
        fx, fy = pushforward(mapping, x), pushforward(mapping, y)
        assert pushforward(mapping, x + y) == fx + fy
        assert pushforward(mapping, x - k * y) == fx - k * fy
        for derived in (fx, fy, fx + fy, fx - fy, k * fx, -fy):
            assert derived.space == mapping.target
            assert _revalidated(derived) == derived
    x = _random_class(SurfaceSpace.surface(g1), "even", data.draw)
    y = _random_class(SurfaceSpace.surface(g2), "even", data.draw)
    pair = disjoint_pair(x, y)
    assert _revalidated(pair) == pair
    assert pair.coordinates == h0_part(x) + h0_part(y) + h2_part(x) + h2_part(y)


def _constructor_maps(g1, g2):
    """Every map the module's constructors and ``compose`` build for a genus
    pair, circles included."""
    return [m for m, parity in _canonical_maps(g1, g2) if parity == "even"] + [
        identification_to_wedge(SurfaceSpace.circle(), SurfaceSpace.circle()),
        pinch_circle_sum(),
        constant_map(SurfaceSpace.circle()),
        basepoint_inclusion(SurfaceSpace.circle()),
    ]


@given(st.integers(min_value=0, max_value=64), st.integers(min_value=0, max_value=64))
def test_constructor_maps_pass_every_check_of_the_public_constructor(g1, g2):
    # the constructors check shapes only; kinds and integer entries hold by
    # construction, so a rebuild through every check succeeds
    for mapping in _constructor_maps(g1, g2):
        rebuilt = CanonicalMap(mapping.kind, mapping.source, mapping.target,
                               mapping.h0, mapping.h2, mapping.h1)
        assert rebuilt == mapping


def test_the_public_map_constructor_keeps_every_check():
    s = SurfaceSpace.surface(1)
    with pytest.raises(ValidationError, match="unknown map kind"):
        CanonicalMap("sideways", s, s, ((1,),), ((1,),))
    with pytest.raises(ValidationError, match="entries must be integers"):
        CanonicalMap("identity", s, s, ((1,),), ((1.0,),))
    with pytest.raises(StructuralError, match="H0 matrix shape"):
        CanonicalMap("identity", s, s, ((1, 0),), ((1,),))


# ---------------------------------------------------------------------------
# the full identity grid


def test_identity_grid_all_pass_quickly():
    t0 = time.perf_counter()
    report = verify_identities(genus_bound=6)
    dt = time.perf_counter() - t0
    assert report.passed
    assert report.failures == ()
    assert len(report.checks) == 604
    assert dt < 1.0


@pytest.mark.parametrize("bound", range(9))
def test_identity_grid_size(bound):
    # 2 circle checks, 2 per genus, 12 per ordered genus pair
    report = verify_identities(genus_bound=bound)
    assert len(report.checks) == 2 + 2 * (bound + 1) + 12 * (bound + 1) ** 2
    assert report.passed


def test_a_grid_call_keeps_no_state_for_the_next():
    first, small, again = verify_identities(6), verify_identities(2), verify_identities(6)
    assert first == again
    assert small.checks == tuple(c for c in first.checks if c.g1 is None
                                 or (c.g1 <= 2 and (c.g2 is None or c.g2 <= 2)))


def test_identity_grid_names_cover_the_suite():
    report = verify_identities(genus_bound=2)
    names = {c.name for c in report.checks}
    assert names == {
        "circle-dirac-addition",
        "circle-fundamental-vs-dirac",
        "fundamental-class-normalization",
        "constant-map-index",
        "wedge-basis-unimodular",
        "crunch-left-dolbeault",
        "crunch-right-dolbeault",
        "pinch-dolbeault-defect",
        "crunch-pinch-functoriality",
        "crunch-pinch-composite",
        "stabilization-well-defined",
        "natural-sum-euler-additivity",
        "connected-sum-euler-defect",
        "connected-sum-fundamental-class",
        "dolbeault-natural-sum-addition",
        "natural-sum-fundamental-class",
    }


def test_inequality_checks_assert_strict_difference():
    report = verify_identities(genus_bound=1)
    defects = [c for c in report.checks if c.name == "connected-sum-euler-defect"]
    assert defects
    for c in defects:
        assert not c.expect_equal
        assert c.ok
        assert c.lhs != c.rhs
