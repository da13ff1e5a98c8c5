import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qtriang.acceptance import qt_catalog
from qtriang.charring import ClassFunction
from qtriang.cyclotomic import CycScalar, euler_phi, lift_rows, root_of_unity
from qtriang.groups import bundled_group, CATALOG_NAMES
from qtriang.hopf import GATensor, first_difference
from qtriang.linalg import Matrix
from qtriang.rmatrix import LegProducts


def koszul_tensor():
    g = bundled_group("Z2")
    h = Fraction(1, 2)
    return GATensor(g, 2, {(0, 0): h, (0, 1): h, (1, 0): h, (1, 1): -h})


def test_unit_laws():
    g = bundled_group("S3")
    unit = GATensor.unit(g, 2)
    x = GATensor(g, 2, {(1, 3): CycScalar.one(), (2, 2): root_of_unity(3)})
    assert unit * x == x
    assert x * unit == x


@pytest.mark.parametrize("arity", [0, 1, 2, 3])
def test_is_unit_matches_the_constructed_unit(arity):
    # The public constructor's unit is the oracle: equal rows at every order,
    # against scaled units, an extra term, a unit at another key and zero.
    g = bundled_group("Z3")
    e = (g.identity,) * arity
    oracle = GATensor(g, arity, {e: 1})
    unit = GATensor.unit(g, arity)
    cases = [unit, GATensor(g, arity), unit.scale(2), unit.scale(Fraction(1, 2)), -unit]
    for n in (3, 4):  # the unit held at order n, after scaling by zeta_n and back
        lifted = unit.scale(root_of_unity(n)).scale(root_of_unity(n, n - 1))
        assert lifted.order == n
        cases += [lifted, lifted.scale(root_of_unity(n))]
    if arity:
        other = GATensor.basis(g, *(1,) * arity)
        cases += [other, unit + other, unit.scale(root_of_unity(3)) + other]
    results = [t.is_unit() for t in cases]
    assert results == [t == oracle for t in cases]
    assert results.count(True) == 3  # unit and the unit at orders 3 and 4


def test_basis_refuses_indices_outside_the_group():
    g = bundled_group("Z3")
    for key in [(3,), (0, -1), (1, 2, 7)]:
        with pytest.raises(ValueError) as built:
            GATensor(g, len(key), {key: 1})
        with pytest.raises(ValueError, match="uses element indices outside the group") as basis:
            GATensor.basis(g, *key)
        assert str(basis.value) == str(built.value)


def test_group_element_inverse_product():
    g = bundled_group("D4")
    for a in g.elements():
        prod = GATensor.basis(g, a) * GATensor.basis(g, g.inverses[a])
        assert prod == GATensor.unit(g, 1)


def test_koszul_squares_to_unit():
    r = koszul_tensor()
    assert (r * r).is_unit()


def test_mismatched_operands_rejected():
    z2 = bundled_group("Z2")
    z3 = bundled_group("Z3")
    with pytest.raises(ValueError):
        GATensor.unit(z2, 2) * GATensor.unit(z2, 1)
    with pytest.raises(ValueError):
        GATensor.unit(z2, 1) * GATensor.unit(z3, 1)


def test_coproduct_of_grouplike():
    g = bundled_group("S3")
    x = GATensor.basis(g, 3)
    assert x.coproduct(1) == GATensor.basis(g, 3, 3)
    unit3 = GATensor.unit(g, 2).coproduct(1)
    assert unit3 == GATensor.unit(g, 3)


def test_coproduct_identity_on_koszul():
    r = koszul_tensor()
    r12 = r.embed_legs((1, 2), 3)
    r13 = r.embed_legs((1, 3), 3)
    assert r.coproduct(2) == r13 * r12


def test_counit_examples():
    g = bundled_group("S3")
    x = GATensor.basis(g, 4)
    assert x.counit(1) == GATensor(g, 0, {(): CycScalar.one()})
    r = koszul_tensor()
    assert r.counit(1).is_unit()
    assert r.counit(2).is_unit()
    y = GATensor.basis(g, 2).scale(2) - GATensor.basis(g, 5)
    assert y.counit(1) == GATensor(g, 0, {(): CycScalar.one()})


def test_antipode_examples():
    g = bundled_group("Q8")
    x = GATensor.basis(g, 2)  # the element i
    assert x.antipode(1) == GATensor.basis(g, 3)  # its inverse -i
    r = koszul_tensor()
    assert r.antipode(1) == r.inverse()
    assert r.antipode(1).antipode(1) == r


def test_leg_out_of_range():
    r = koszul_tensor()
    for bad in (0, 3):
        with pytest.raises(ValueError):
            r.coproduct(bad)
        with pytest.raises(ValueError):
            r.counit(bad)
        with pytest.raises(ValueError):
            r.antipode(bad)


def test_permute_legs():
    r = koszul_tensor()
    assert r.swap() == r
    g = bundled_group("S3")
    x = GATensor.basis(g, 1, 2, 3)
    assert x.permute_legs((1, 2, 0)) == GATensor.basis(g, 2, 3, 1)
    assert x.permute_legs((1, 0, 2)).permute_legs((1, 0, 2)) == x
    with pytest.raises(ValueError):
        x.permute_legs((0, 0, 1))


def test_embed_legs_golden():
    r = koszul_tensor()
    g = r.group
    h = Fraction(1, 2)
    expected = GATensor(
        g, 3, {(0, 0, 0): h, (0, 0, 1): h, (1, 0, 0): h, (1, 0, 1): -h}
    )
    assert r.embed_legs((1, 3), 3) == expected
    assert GATensor.unit(g, 2).embed_legs((1, 3), 3) == GATensor.unit(g, 3)
    assert r.embed_legs((1, 2), 3) == r @ GATensor.unit(g, 1)
    with pytest.raises(ValueError):
        r.embed_legs((2, 2), 3)


def test_adjoint_action():
    s3 = bundled_group("S3")
    x = GATensor.basis(s3, 3)  # a 3-cycle
    conj = x.adjoint_action(2, 1)  # conjugate by a transposition
    assert conj == GATensor.basis(s3, 4)
    # identity and central conjugators act trivially
    assert x.adjoint_action(0, 1) == x
    q8 = bundled_group("Q8")
    center = GATensor.basis(q8, 1)
    for g in q8.elements():
        assert center.adjoint_action(g, 1) == center


def test_is_grouplike():
    g = bundled_group("S3")
    assert GATensor.basis(g, 2).is_grouplike()
    two = GATensor.basis(g, 2) + GATensor.basis(g, 3)
    assert not two.is_grouplike()
    assert not GATensor.basis(g, 2).scale(2).is_grouplike()
    with pytest.raises(ValueError, match="arity 1"):
        GATensor.unit(g, 2).is_grouplike()

    def by_coproduct(x):
        # The definition: the counit gives 1 and the coproduct doubles x.
        eps = x.counit(1)
        if not (len(eps.terms) == 1 and eps.terms.get((), None) == 1):
            return False
        return x.coproduct(1) == x @ x

    half = Fraction(1, 2)
    cases = [
        GATensor(g, 1),
        GATensor(g, 1, {(0,): half, (2,): half}),
        GATensor.basis(g, 2).scale(root_of_unity(3)),
        -GATensor.basis(g, 2),
        *(s.markov for name in CATALOG_NAMES for s in qt_catalog(name).structures),
    ]
    outcomes = [x.is_grouplike() for x in cases]
    assert outcomes == [by_coproduct(x) for x in cases]
    # 206 of the 340 catalog data have a grouplike Markov element.
    assert outcomes[:4] == [False] * 4 and (sum(outcomes[4:]), len(outcomes[4:])) == (206, 340)


def test_projector_is_not_invertible():
    g = bundled_group("Z2")
    h = Fraction(1, 2)
    proj = GATensor(g, 2, {(0, 0): h, (0, 1): h, (1, 0): h, (1, 1): h})
    assert not proj.is_invertible()
    with pytest.raises(ValueError):
        proj.inverse()


def test_inverse_of_scaled_grouplike():
    g = bundled_group("Q8")
    x = GATensor.basis(g, 4).scale(root_of_unity(3))
    inv = x.inverse()
    assert (x * inv).is_unit()
    assert (inv * x).is_unit()


def test_first_difference_reports_smallest_key():
    g = bundled_group("Z2")
    a = GATensor(g, 1, {(0,): 1, (1,): 2})
    b = GATensor(g, 1, {(0,): 1, (1,): 3})
    key, left, right = first_difference(a, b)
    assert key == (1,)
    assert left == 2 and right == 3
    assert first_difference(a, a) is None


_names = st.sampled_from(CATALOG_NAMES)
_coeff = st.sampled_from(
    [CycScalar.one(), CycScalar.rational(-2), root_of_unity(3), root_of_unity(4, 3)]
)


@st.composite
def _arity1(draw):
    g = bundled_group(draw(_names))
    n_terms = draw(st.integers(1, 3))
    terms = {}
    for _ in range(n_terms):
        terms[(draw(st.integers(0, g.size - 1)),)] = draw(_coeff)
    return GATensor(g, 1, terms)


@settings(max_examples=40, deadline=None)
@given(_arity1())
def test_bialgebra_axioms_on_random_tensors(x):
    g = x.group
    # coassociativity and cocommutativity
    assert x.coproduct(1).coproduct(1) == x.coproduct(1).coproduct(2)
    assert x.coproduct(1).permute_legs((1, 0)) == x.coproduct(1)
    # counitarity
    assert x.coproduct(1).counit(1) == x
    assert x.coproduct(1).counit(2) == x
    # antipode axiom: multiplying the two legs of (I x S)(coproduct) gives
    # the counit times the unit
    ant = x.coproduct(1).antipode(2)
    collapsed = GATensor(
        g, 1, [((g.table[a][b],), c) for (a, b), c in ant.terms.items()]
    )
    eps = x.counit(1).terms.get((), CycScalar.zero())
    assert collapsed == GATensor.unit(g, 1).scale(eps)
    # antipode is an involution here
    assert x.antipode(1).antipode(1) == x


@settings(max_examples=30, deadline=None)
@given(_arity1(), _arity1(), _arity1())
def test_multiplication_properties(x, y, z):
    if x.group != y.group or y.group != z.group:
        return
    g = x.group
    unit = GATensor.unit(g, 1)
    assert unit * x == x
    assert x * unit == x
    assert (x * y) * z == x * (y * z)
    assert 2 * x == x.scale(2)
    assert (x * y).counit(1) == GATensor(
        g, 0, {(): x.counit(1).coeff(()) * y.counit(1).coeff(())}
    )


def _generated_by_products(group, arity, support):
    # Oracle: saturate the support under all pairwise products.
    elems = set(support) | {(group.identity,) * arity}
    while True:
        grown = elems | {
            tuple(group.table[x][y] for x, y in zip(a, b)) for a in elems for b in elems
        }
        if grown == elems:
            return sorted(elems)
        elems = grown


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["Z2", "Z3", "S3", "Q8"]), st.integers(1, 2), st.data())
def test_support_subgroup_against_brute_force(name, arity, data):
    g = bundled_group(name)
    keys = data.draw(
        st.lists(st.tuples(*[st.integers(0, g.size - 1)] * arity), min_size=1, max_size=3)
    )
    x = GATensor(g, arity, {key: CycScalar.one() for key in keys})
    assert x.support_subgroup() == _generated_by_products(g, arity, keys)


def _reference_mul(x, y):
    # The product as one CycScalar product and one running sum per term pair.
    table = x.group.table
    acc = {}
    for k1, v1 in x.terms.items():
        for k2, v2 in y.terms.items():
            key = tuple(table[a][b] for a, b in zip(k1, k2))
            prod = v1 * v2
            acc[key] = acc[key] + prod if key in acc else prod
    return GATensor(x.group, x.arity, acc)


def _stored(t):
    # The stored form: order, denominator, and the rows in stored key order.
    return t.order, t.den, list(t.rows.items())


def _assert_matches_reference(fast, slow):
    # The scalar running sum lifted to the product's order: the same keys in
    # the same order, and the same denominator and integer rows.
    assert list(fast.rows) == list(slow.rows)
    assert fast.order % slow.order == 0
    assert (fast.den, fast.rows) == (slow.den, lift_rows(slow.rows, slow.order, fast.order))


@st.composite
def _mixed_scalar(draw):
    # Non-monomial coordinates over a random denominator, at mixed orders.
    order = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12]))
    den = draw(st.integers(1, 6))
    phi = euler_phi(order)
    coords = draw(st.lists(st.integers(-3, 3), min_size=phi, max_size=phi))
    return CycScalar(order, [Fraction(c, den) for c in coords])


@st.composite
def _mixed_pair(draw):
    g = bundled_group(draw(_names))
    arity = draw(st.integers(0, 3))
    keys = st.tuples(*[st.integers(0, g.size - 1)] * arity)

    def tensor():
        return GATensor(g, arity, draw(st.dictionaries(keys, _mixed_scalar(), max_size=5)))

    x, y = tensor(), tensor()
    if arity and draw(st.booleans()):
        # (c1 - c1 h) times c2 (1 + h + ... + h^(k-1)) in the first leg is zero,
        # so every key these terms reach cancels unless x or y adds to it.
        h = draw(st.integers(0, g.size - 1).filter(lambda h: h != g.identity))
        powers = [g.identity]
        while g.table[powers[-1]][h] != g.identity:
            powers.append(g.table[powers[-1]][h])
        rest1, rest2 = draw(keys)[1:], draw(keys)[1:]
        c1, c2 = draw(_mixed_scalar().filter(bool)), draw(_mixed_scalar().filter(bool))
        cancel1 = GATensor(g, arity, {(g.identity,) + rest1: c1, (h,) + rest1: -c1})
        cancel2 = GATensor(g, arity, {(p,) + rest2: c2 for p in powers})
        assert not (cancel1 * cancel2).terms
        if draw(st.booleans()):
            x, y = cancel1, cancel2
        else:
            x, y = x + cancel1, y + cancel2
    return x, y


_Z3, _Z4 = bundled_group("Z3"), bundled_group("Z4")
_HALF, _MINUS3 = CycScalar.rational(Fraction(1, 2)), CycScalar.rational(-3, 2)
_I4, _W3 = CycScalar(4, [1, Fraction(2, 3)]), CycScalar(3, [Fraction(-1, 2), 2])


def _on_z4(*values):
    # Arity-2 tensor on Z4 whose keys collide in products.
    return GATensor(_Z4, 2, {(i % 4, 3 * i % 4): v for i, v in enumerate(values)})


@settings(max_examples=100, deadline=None)
@given(_mixed_pair())
# Orders {1, 2} x {2} and {1, 4} x {4}: every pair lcm agrees; {3} x {1, 4}:
# the pair lcms 3 and 12 differ within the cap.
@example((_on_z4(_HALF, _MINUS3, _HALF, _MINUS3, _MINUS3), _on_z4(_MINUS3, 2 * _MINUS3, _MINUS3)))
@example((_on_z4(_I4, _HALF, _I4 * _I4, _HALF, _I4), _on_z4(_I4, -_I4, _I4 * _I4)))
@example((_on_z4(_W3, _W3 * _W3, _W3, -_W3), _on_z4(_HALF, _I4, _I4, _HALF, _I4 + 1)))
# Every key cancels: (c1 - c1 h) (c2 + c2 h) at h of order 2 leaves all
# coordinates zero, and 1 + z3 + z3^2 sums to zero only once lifted.
@example((
    GATensor(_Z4, 2, {(0, 1): _I4, (2, 1): -_I4}),
    GATensor(_Z4, 2, {(0, 3): _W3, (2, 3): _W3}),
))
@example((
    GATensor(_Z3, 1, {(k,): root_of_unity(3, k) for k in range(3)}),
    GATensor(_Z3, 1, {(k,): CycScalar.one(3) for k in range(3)}),
))
def test_product_matches_scalar_reference(pair):
    x, y = pair
    for a, b in ((x, y), (y, x)):
        _assert_matches_reference(a * b, _reference_mul(a, b))


def test_products_with_one_right_term_or_no_legs_match_scalar_reference():
    # A one-term right operand maps each leg through a getter of one index;
    # arity 0 has no legs at all.
    g = bundled_group("S3")
    x = GATensor(g, 2, {(1, 2): root_of_unity(3), (4, 5): _HALF, (0, 3): _I4})
    cases = [
        (x, GATensor(g, 2, {(3, 1): _I4})),
        (GATensor(g, 2, {(5, 0): _W3}), x),
        (GATensor(g, 2, {(5, 0): _W3}), GATensor(g, 2, {(2, 2): _MINUS3})),
        (GATensor(g, 1, {(k,): _W3 for k in range(6)}), GATensor(g, 1, {(4,): _HALF})),
        (GATensor(g, 0, {(): _I4}), GATensor(g, 0, {(): _W3})),
        (GATensor(g, 0, {}), GATensor(g, 0, {(): _W3})),
    ]
    for a, b in cases:
        _assert_matches_reference(a * b, _reference_mul(a, b))


def test_catalog_products_match_scalar_reference():
    # Every distinct R of the seven catalogs: R R21, the leg products, the
    # Yang-Baxter sides and the Markov inverse guess (S x I)(R) (I x S)(R21).
    ref = _reference_mul
    for name in CATALOG_NAMES:
        catalog = qt_catalog(name)
        for members in catalog.dedup:
            r = catalog.structures[members[0]].rmatrix
            r21 = r.swap()
            legs = LegProducts(r)
            r13 = r.embed_legs((1, 3), 3)
            ref13r12, ref13r23 = ref(r13, legs.r12), ref(r13, legs.r23)
            products = [
                (r * r21, ref(r, r21)),
                (legs.r13r12, ref13r12),
                (legs.r13r23, ref13r23),
                *zip(legs.yang_baxter_sides, (ref(legs.r12, ref13r23), ref(legs.r23, ref13r12))),
                (r.antipode(1) * r21.antipode(2), ref(r.antipode(1), r21.antipode(2))),
            ]
            for fast, slow in products:
                _assert_matches_reference(fast, slow)
            # The maps that build their result with GATensor._make skip the
            # checks; each result must be one the checking constructor keeps.
            derived = [fast for fast, _ in products]
            derived += [r.embed_legs(legs, 3) for legs in ((1, 2), (2, 1), (1, 3), (3, 2))]
            for t in (r, legs.r13r12):
                derived.append(t.permute_legs(range(t.arity)[::-1]))
                for leg in range(1, t.arity + 1):
                    derived += [t.antipode(leg), t.coproduct(leg)]
                    derived += [t.adjoint_action(g, leg) for g in r.group.elements()]
            for t in derived:
                assert _stored(t) == _stored(GATensor(t.group, t.arity, t.terms)), name


def test_product_past_the_order_cap_matches_scalar_reference():
    # Operands at orders 72 and 35 are built, and their products within the
    # cap match the reference.  Where the lcm of the operands' orders passes
    # the cap (2520 for x and y, 359 * 353 for far and near) both routes
    # raise the same ValueError.
    g = bundled_group("Z2")
    x = GATensor(g, 2, {(0, 0): root_of_unity(8) + Fraction(1, 3), (1, 0): root_of_unity(9, 2)})
    y = GATensor(g, 2, {(0, 0): root_of_unity(5), (0, 1): 2 * root_of_unity(7, 3) - 1})
    assert (x.order, y.order) == (72, 35)
    for a, b in ((x, x.swap()), (y, y.swap()), (x, GATensor.unit(g, 2))):
        _assert_matches_reference(a * b, _reference_mul(a, b))
        _assert_matches_reference(b * a, _reference_mul(b, a))
    far = GATensor(g, 2, {(0, 0): root_of_unity(359), (1, 0): root_of_unity(359, 2)})
    near = GATensor(g, 2, {(0, 1): root_of_unity(353)})
    for a, b in ((x, y), (y, x), (far, near), (near, far)):
        with pytest.raises(ValueError) as fast:
            a * b
        with pytest.raises(ValueError) as slow:
            _reference_mul(a, b)
        assert str(fast.value) == str(slow.value)
        assert "exceeds the supported cap 360" in str(fast.value)
    # Equality needs no common field: values compare at their least orders.
    assert far != near and far == GATensor(g, 2, dict(far.terms))
    two = [GATensor(g, 2, {(1, 0): CycScalar.rational(2, n)}) for n in (359, 353)]
    assert two[0] == two[1] and two[0] != far


@pytest.mark.parametrize("container", ["GATensor", "Matrix", "ClassFunction"])
def test_equality_across_orders_past_the_cap(container):
    # Values stored at orders 360 and 7 have no common field within the cap
    # (their lcm is 2520), so equality compares value by value, each at its
    # least order, as CycScalar equality does.
    g = bundled_group("Z2")
    build = {
        "GATensor": lambda v: GATensor(g, 2, {(1, 0): v}),
        "Matrix": lambda v: Matrix.from_entries(2, 2, [(1, 0, v)]),
        "ClassFunction": lambda v: ClassFunction(g, [v, v]),
    }[container]
    half = [build(CycScalar.rational(Fraction(1, 2), n)) for n in (360, 7)]
    assert [x.order for x in half] == [360, 7]
    assert half[0] == half[1] and half[1] == half[0]
    assert half[0] != build(CycScalar.rational(Fraction(-1, 2), 7))
    assert build(root_of_unity(360)) != build(root_of_unity(7))


def test_values_past_one_common_order_are_refused():
    # Orders 359, 353, 349 and 347 are each within the cap; their lcm is not,
    # so the tensor is refused where it is built, and a sum meeting order
    # 2520 where it is formed.
    g = bundled_group("Z2")
    keys = [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(ValueError, match="cyclotomic order 15347019881 exceeds the supported cap 360"):
        GATensor(g, 2, {k: root_of_unity(p) for k, p in zip(keys, (359, 353, 349, 347))})
    x = GATensor(g, 2, {(0, 0): root_of_unity(8), (1, 0): root_of_unity(9, 2)})
    y = GATensor(g, 2, {(0, 1): root_of_unity(35)})
    with pytest.raises(ValueError, match="cyclotomic order 2520 exceeds"):
        x + y


def test_products_and_leg_maps_build_no_scalar(monkeypatch):
    # Products, the leg maps, sums and the unit test run on integer rows:
    # once the operands are built, no CycScalar is made.
    r = max(
        (s.rmatrix for s in qt_catalog("D4").structures), key=lambda t: (len(t.terms), t.order)
    )
    x = GATensor(r.group, 2, {(1, 2): root_of_unity(3), (4, 5): _HALF, (0, 3): _I4})
    ops = [
        lambda: r * r.swap(),
        lambda: (r * r.antipode(1)).is_unit(),
        lambda: r * x,
        lambda: x * x.swap(),
        lambda: LegProducts(r).yang_baxter_sides,
        lambda: [r.coproduct(1), r.counit(2), r.antipode(2), r.adjoint_action(3, 1)],
        lambda: [r.embed_legs((1, 3), 3), r.permute_legs((1, 0)), r @ x, r - x, r == x],
    ]
    for op in ops:
        op()  # fills the cached power and embedding tables
    made = []
    real = CycScalar._make.__func__
    monkeypatch.setattr(CycScalar, "_make", classmethod(lambda cls, *a: made.append(a) or real(cls, *a)))
    for op in ops:
        op()
    assert made == []


# -- R's fibre square against the a = a' part of the literal products -------


def _literal_fibre_square(r, leg):
    """The a = a' part of R13 R23 (leg 1) or the b = b' part of R13 R12 (leg 2), as a product.

    R13 R23 = sum a x a' x r_a r_a' and R13 R12 = sum s_b s_b' x b' x b, so
    the part on the diagonal of legs (1, 2) or (2, 3), re-keyed to its two
    distinct legs, is sum_a a x r_a^2 or sum_b s_b^2 x b.
    """
    r13 = r.embed_legs((1, 3), 3)
    product = r13 * r.embed_legs((2, 3), 3) if leg == 1 else r13 * r.embed_legs((1, 2), 3)
    if leg == 1:
        rows = {(a, x): row for (a, b, x), row in product.rows.items() if a == b}
    else:
        rows = {(x, b): row for (x, a, b), row in product.rows.items() if a == b}
    return GATensor._make(r.group, 2, product.order, product.den, rows)


def _fibre_pairs(r, leg):
    # The keys sum_a |r_a|^2 term pairs reach, before any cancels.
    i, table = leg - 1, r.group.table
    reached = set()
    for k1 in r.rows:
        for k2 in r.rows:
            if k1[i] == k2[i]:
                x = table[k1[1 - i]][k2[1 - i]]
                reached.add((k1[i], x) if i == 0 else (x, k1[i]))
    return reached


def _fibre_cases(order):
    # Seeded random arity-2 tensors on Z2, Z3, Z4 and S3 with small integer
    # rows at ``order``, and some whose squares cancel: on Z3 the slice
    # 2e + g - 2g^2, as a left and as a right slice, squares to 0 e + ...,
    # and at order 4 the slice e + i g of Z2 squares to 2i g.
    rng = random.Random(order)
    phi = euler_phi(order)
    cases = []
    for name in ("Z2", "Z3", "Z4", "S3"):
        g = bundled_group(name)
        for _ in range(6):
            keys = {(rng.randrange(g.size), rng.randrange(g.size)) for _ in range(rng.randint(1, 8))}
            rows = {k: tuple(rng.randint(-2, 2) for _ in range(phi)) for k in keys}
            rows = {k: row for k, row in rows.items() if any(row)}
            cases.append(GATensor._make(g, 2, order if rows else 1, rng.randint(1, 4), rows))
    z3, z2 = bundled_group("Z3"), bundled_group("Z2")
    slice_z3 = {b: (c,) + (0,) * (phi - 1) for b, c in ((0, 2), (1, 1), (2, -2))}
    cases.append(GATensor._make(z3, 2, order, 1, {(1, b): c for b, c in slice_z3.items()}))
    cases.append(GATensor._make(z3, 2, order, 1, {(b, 1): c for b, c in slice_z3.items()}))
    if order == 4:
        cases.append(GATensor._make(z2, 2, 4, 1, {(0, 0): (1, 0), (0, 1): (0, 1)}))
        cases.append(GATensor._make(z2, 2, 4, 1, {(0, 0): (1, 0), (1, 0): (0, 1)}))
    return cases


def _projector_cases(order):
    """Tensors sum_a a x p_a on Z2, Z3 and Z4 at ``order``, each p_a a sum of character
    projectors e_j = (1/n) sum_k zeta_n^(-jk) g^k with values at that order, so every
    left slice is idempotent; their leg swaps; and each with one slice doubled.  The p_a
    are seeded subsets and, where every e_j has its values at that order, a seeded
    partition of them, so the p_a sum to 1.

    On Z4 at orders 4 and 8, e_0 + e_1 = (2e + (1 - i) g + (1 + i) g^3)/4 has no g^2
    term, yet g g and g^3 g^3 reach g^2 in its square, and cancel there."""
    rng = random.Random(f"projectors/{order}")
    cases = []
    for n in (2, 3, 4):
        group = bundled_group(f"Z{n}")
        projectors = {}
        for j in range(n):
            m = n // math.gcd(n, j)  # the order of zeta_n^j
            if m <= 2 or order % m == 0:
                values = {(k,): root_of_unity(n, -j * k % n).reduced() for k in range(n)}
                projectors[j] = GATensor(group, 1, values).scale(Fraction(1, n))
        subsets = [[rng.sample(sorted(projectors), rng.randint(1, len(projectors))) for _ in range(n)]]
        if len(projectors) == n:
            owner = [rng.randrange(n) for _ in range(n)]
            subsets.append([[j for j in range(n) if owner[j] == a] for a in range(n)])
        if n == 4 and 1 in projectors:
            subsets.append([[0, 1], [], [2, 3], []])
        for chosen in subsets:
            slices = [sum((projectors[j] for j in js), GATensor(group, 1)) for js in chosen]
            terms = {(a, b): c for a, p in enumerate(slices) for (b,), c in p.terms.items()}
            left = GATensor(group, 2, terms)
            a = min(terms)[0]
            doubled = left + GATensor(group, 2, {(a, b): c for (b,), c in slices[a].terms.items()})
            for t in (left, left.swap(), doubled, doubled.swap()):
                rows = lift_rows(t.rows, t.order if t.order > 2 else 1, order)
                cases.append(GATensor._make(group, 2, order, t.den, rows))
    return cases


@pytest.mark.parametrize("order", [1, 2, 3, 4, 8])
def test_fibre_square_matches_the_diagonal_of_the_literal_products(order):
    # ``_partition_of_unity(leg)`` decides whether R's counit on ``leg`` is 1
    # and R equals its fibre square sum_a a x r_a^2 (sum_b s_b^2 x b at leg 2),
    # which is the a = a' part of R13 R23 (the b = b' part of R13 R12) formed
    # as a product.  Both answers occur at every order, and so do idempotent
    # slices that do not sum to 1; at orders 4 and 8 an idempotent slice's
    # square reaches a key that cancels.
    outcomes, unsummed = Counter(), 0
    for r in _fibre_cases(order) + _projector_cases(order):
        for leg in (1, 2):
            holds, idempotent = r._partition_of_unity(leg), _literal_fibre_square(r, leg) == r
            assert holds == (r.counit(leg).is_unit() and idempotent)
            outcomes[holds, len(_fibre_pairs(r, leg)) > len(r.rows)] += 1
            unsummed += idempotent and not holds
    assert outcomes[True, False] and outcomes[False, False] and outcomes[False, True]
    assert bool(outcomes[True, True]) == (order in (4, 8))
    assert unsummed
