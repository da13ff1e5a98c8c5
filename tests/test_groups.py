import gc
import hashlib
import itertools
import json
import math
import types

import pytest
from hypothesis import given, settings, strategies as st

from qtriang import jsonio
from qtriang.cyclotomic import root_of_unity
from qtriang.groups import (
    AbelianGroup,
    BiForm,
    FiniteGroup,
    Inclusion,
    abelian_normal_subgroups,
    bundled_group,
    CATALOG_NAMES,
    _invariant_factors,
    abelian_factors,
    cyclic_group,
    dihedral_group,
    direct_product,
    enumerate_biforms,
    normal_inclusions,
    quaternion_group,
    same_module_structure,
    subgroup_structure,
    symmetric_group,
)


# SHA-256 prefixes of json.dumps(table) for each catalog group: element
# indices in stored documents keep their meaning.
_TABLE_DIGESTS = {
    "Z2": "c1b92cfd1182059c",
    "Z3": "17d0eee91e6333e1",
    "Z4": "817530d43b21cd6b",
    "Z2xZ2": "90b5779b7e261488",
    "S3": "d306f7f3933e7339",
    "D4": "60c77acc971de59e",
    "Q8": "d9860ecae8b0c6b0",
}


def test_bundled_groups_match_builders():
    builders = {
        "Z2": cyclic_group(2),
        "Z3": cyclic_group(3),
        "Z4": cyclic_group(4),
        "Z2xZ2": direct_product(cyclic_group(2), cyclic_group(2)),
        "S3": symmetric_group(3),
        "D4": dihedral_group(4),
        "Q8": quaternion_group(),
    }
    assert tuple(_TABLE_DIGESTS) == CATALOG_NAMES
    for name in CATALOG_NAMES:
        group = bundled_group(name)
        assert group.table == builders[name].table
        assert group.name == name
        table = json.dumps([list(row) for row in group.table]).encode()
        assert hashlib.sha256(table).hexdigest()[:16] == _TABLE_DIGESTS[name]


# The constructors as they were before ``table_group``, kept verbatim as the
# reference: each numbers its elements and fills its table by index arithmetic.

def _reference_cyclic_group(n: int, name: str | None = None) -> FiniteGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, name or f"Z{n}")


def _reference_direct_product(g1: FiniteGroup, g2: FiniteGroup, name: str | None = None) -> FiniteGroup:
    # Element (a, b) gets index a * |g2| + b.
    n1, n2 = g1.size, g2.size
    table = []
    for a1 in range(n1):
        for a2 in range(n2):
            row = []
            for b1 in range(n1):
                for b2 in range(n2):
                    row.append(g1.table[a1][b1] * n2 + g2.table[a2][b2])
            table.append(row)
    return FiniteGroup(table, name or f"{g1.name}x{g2.name}")


def _reference_symmetric_group(n: int, name: str | None = None) -> FiniteGroup:
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(n))] for q in perms]
        for p in perms
    ]
    return FiniteGroup(table, name or f"S{n}")


def _reference_dihedral_group(n: int, name: str | None = None) -> FiniteGroup:
    # Element s^m r^k with index m*n + k; r^k s = s r^(-k).
    def mul(m1, k1, m2, k2):
        if m2:
            return (m1 ^ m2, (-k1 + k2) % n)
        return (m1, (k1 + k2) % n)

    table = []
    for m1 in range(2):
        for k1 in range(n):
            row = []
            for m2 in range(2):
                for k2 in range(n):
                    m, k = mul(m1, k1, m2, k2)
                    row.append(m * n + k)
            table.append(row)
    return FiniteGroup(table, name or f"D{n}")


def _reference_quaternion_group(name: str = "Q8") -> FiniteGroup:
    # Indices: 1, -1, i, -i, j, -j, k, -k.
    base = {
        ("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1), ("1", "k"): ("k", 1),
        ("i", "1"): ("i", 1), ("j", "1"): ("j", 1), ("k", "1"): ("k", 1),
        ("i", "i"): ("1", -1), ("j", "j"): ("1", -1), ("k", "k"): ("1", -1),
        ("i", "j"): ("k", 1), ("j", "i"): ("k", -1),
        ("j", "k"): ("i", 1), ("k", "j"): ("i", -1),
        ("k", "i"): ("j", 1), ("i", "k"): ("j", -1),
    }
    units = ["1", "i", "j", "k"]

    def decode(idx):
        return units[idx // 2], -1 if idx % 2 else 1

    def encode(unit, sign):
        return units.index(unit) * 2 + (0 if sign == 1 else 1)

    table = []
    for a in range(8):
        ua, sa = decode(a)
        row = []
        for b in range(8):
            ub, sb = decode(b)
            uc, sc = base[(ua, ub)]
            row.append(encode(uc, sa * sb * sc))
        table.append(row)
    return FiniteGroup(table, name)


def _reference_catalog_group(name: str) -> FiniteGroup:
    z = _reference_cyclic_group
    return {
        "Z2": lambda: z(2),
        "Z3": lambda: z(3),
        "Z4": lambda: z(4),
        "Z2xZ2": lambda: _reference_direct_product(z(2), z(2)),
        "S3": lambda: _reference_symmetric_group(3),
        "D4": lambda: _reference_dihedral_group(4),
        "Q8": _reference_quaternion_group,
    }[name]()


def _same_group(built: FiniteGroup, reference: FiniteGroup) -> bool:
    return (built.table, built.name) == (reference.table, reference.name)


def test_table_group_constructors_match_the_index_arithmetic_reference():
    for n in range(1, 13):
        assert _same_group(cyclic_group(n), _reference_cyclic_group(n)), n
    for n in range(3, 9):
        assert _same_group(dihedral_group(n), _reference_dihedral_group(n)), n
    for n in (3, 4):
        assert _same_group(symmetric_group(n), _reference_symmetric_group(n)), n
    assert _same_group(quaternion_group(), _reference_quaternion_group())
    reference = _factor_test_groups(
        _reference_cyclic_group,
        _reference_direct_product,
        _reference_symmetric_group,
        _reference_dihedral_group,
        _reference_catalog_group,
    )
    built = _factor_test_groups()
    assert len(built) == len(reference) == 20
    for group, expected in zip(built, reference):
        assert _same_group(group, expected), expected.name


def test_invalid_tables_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])  # not a Latin square
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1, 2], [2, 0, 1], [1, 2, 0]])  # no two-sided identity
    # Latin square without associativity: order-5 loop from a near-cyclic table
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(ValueError):
        FiniteGroup(table)


# Oracle: conjugacy classes by naive orbit scan straight off the table.
def _classes_oracle(g):
    seen, out = set(), []
    for x in g.elements():
        if x in seen:
            continue
        orbit = {g.table[g.table[h][x]][g.inverses[h]] for h in g.elements()}
        seen |= orbit
        out.append(tuple(sorted(orbit)))
    return sorted(out)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_conjugacy_classes_against_orbit_oracle(name):
    g = bundled_group(name)
    assert sorted(g.conjugacy_classes()) == _classes_oracle(g)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_class_map_indexes_the_classes(name):
    # One tuple, built once per group: entry x is the index of the class holding x.
    g = bundled_group(name)
    classes = g.conjugacy_classes()
    assert g.class_map == tuple(
        next(idx for idx, cls in enumerate(classes) if x in cls) for x in g.elements()
    )
    assert g.class_map is g.class_map
    assert [g.class_index(x) for x in g.elements()] == list(g.class_map)
    for bad in (-1, g.size):
        with pytest.raises(ValueError, match="out of range"):
            g.class_index(bad)


def derived_test_groups():
    """The bundled groups, then two loaded from JSON: by abelian factors and by table."""
    by_table = {"name": "D3", "table": [list(row) for row in dihedral_group(3).table]}
    loaded = [jsonio.group_from_json({"abelian": [2, 4]}), jsonio.group_from_json(by_table)]
    return [bundled_group(name) for name in CATALOG_NAMES] + loaded


def _span_oracle(g, gens):
    """All products of gens, grown one factor at a time from the identity."""
    span = {g.identity}
    while True:
        grown = span | {g.mul(x, s) for x in span for s in gens}
        if grown == span:
            return span
        span = grown


@pytest.mark.parametrize("g", derived_test_groups(), ids=lambda g: g.name)
def test_generating_set_is_grown_greedily_in_element_order(g):
    # g is a generator exactly when the generators before it miss it, and
    # together they give the whole group; the set is kept on the group.
    gens = g.generating_set
    for x in g.elements():
        before = [s for s in gens if s < x]
        assert (x in gens) == (x not in _span_oracle(g, before)), x
    assert _span_oracle(g, gens) == set(g.elements())
    assert g.generating_set is gens


@pytest.mark.parametrize("g", derived_test_groups(), ids=lambda g: g.name)
def test_group_tables_match_a_recomputation_and_are_built_once(g):
    elements = g.elements()
    conj = tuple(tuple(g.conjugate(x, h) for x in elements) for h in elements)
    center = tuple(z for z in elements if all(g.mul(z, h) == g.mul(h, z) for h in elements))
    tables = {
        "conj": (lambda: g.conj, conj),
        "center": (g.center, center),
        "central_involutions": (
            g.central_involutions, tuple(z for z in center if g.mul(z, z) == g.identity)
        ),
        "conjugacy_classes": (g.conjugacy_classes, tuple(_classes_oracle(g))),
    }
    for name, (read, expected) in tables.items():
        first = read()
        assert first == expected, name
        assert read() is first, name


def test_conjugacy_class_examples():
    assert cyclic_group(1).conjugacy_classes() == ((0,),)
    sizes = sorted(len(c) for c in bundled_group("S3").conjugacy_classes())
    assert sizes == [1, 2, 3]
    for name in ("Z2", "Z3", "Z4", "Z2xZ2"):
        g = bundled_group(name)
        assert all(len(c) == 1 for c in g.conjugacy_classes())


# Oracle: abelian normal subgroups by scanning all subsets (order <= 8).
def _abelian_normal_oracle(g):
    out = []
    for r in range(1, g.size + 1):
        for subset in itertools.combinations(range(g.size), r):
            s = set(subset)
            if g.identity not in s:
                continue
            if any(g.table[a][b] not in s for a in s for b in s):
                continue
            if any(g.table[a][b] != g.table[b][a] for a in s for b in s):
                continue
            if any({g.conjugate(x, h) for x in s} != s for h in g.elements()):
                continue
            out.append(frozenset(s))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


@pytest.mark.parametrize("name", ["Z4", "S3", "D4", "Q8"])
def test_abelian_normal_subgroups_against_subset_oracle(name):
    g = bundled_group(name)
    assert abelian_normal_subgroups(g) == _abelian_normal_oracle(g)


def test_abelian_normal_subgroup_examples():
    z4 = bundled_group("Z4")
    assert [sorted(s) for s in abelian_normal_subgroups(z4)] == [[0], [0, 2], [0, 1, 2, 3]]
    s3 = bundled_group("S3")
    assert [sorted(s) for s in abelian_normal_subgroups(s3)] == [[0], [0, 3, 4]]
    q8 = bundled_group("Q8")
    subs = abelian_normal_subgroups(q8)
    assert len(subs) == 5  # trivial, center, three cyclic order-4 subgroups
    assert frozenset({0, 1}) in subs


def test_subgroup_structure_examples():
    s3 = bundled_group("S3")
    assert subgroup_structure(s3, {0}).domain.factors == ()
    a3 = subgroup_structure(s3, {0, 3, 4})
    assert a3.domain.factors == (3,)
    d4 = bundled_group("D4")
    klein = subgroup_structure(d4, {0, 2, 4, 6})
    assert klein.domain.factors == (2, 2)
    # the tabulated map is a group isomorphism onto the subgroup
    for a in klein.domain.elements():
        for b in klein.domain.elements():
            lhs = klein.apply(klein.domain.add(a, b))
            rhs = d4.table[klein.apply(a)][klein.apply(b)]
            assert lhs == rhs


# Reference: the cyclic decomposition of each p-part from its order
# statistics, as groups._invariant_factors computed it before count matching.
def _log_exact(value: int, p: int) -> int:
    out = 0
    while value > 1:
        if value % p:
            raise AssertionError("count is not a prime power")
        value //= p
        out += 1
    return out


def _reference_invariant_factors(group: FiniteGroup, subgroup: frozenset) -> tuple[int, ...]:
    # Cyclic decomposition of each p-part from the order statistics
    # c_j = #{x : x^(p^j) = e} = p^(sum_i min(lambda_i, j)).
    size = len(subgroup)
    if size == 1:
        return ()
    primes = []
    m = size
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    partitions = {}
    for p in primes:
        conjugate = []  # entry j-1 counts the parts of the partition that are >= j
        prev_log = 0
        j = 1
        while True:
            c = sum(1 for x in subgroup if group.power(x, p**j) == group.identity)
            cur_log = _log_exact(c, p)
            if cur_log == prev_log:
                break
            conjugate.append(cur_log - prev_log)
            prev_log = cur_log
            j += 1
        parts = conjugate[0] if conjugate else 0
        partitions[p] = [sum(1 for v in conjugate if v >= k) for k in range(1, parts + 1)]
    r = max(len(v) for v in partitions.values())
    descending = []
    for slot in range(r):
        n = 1
        for p, lam in partitions.items():
            if slot < len(lam):
                n *= p ** lam[slot]
        descending.append(n)
    return tuple(reversed(descending))


def _factor_test_groups(
    z=cyclic_group, x=direct_product, s=symmetric_group, d=dihedral_group, catalog=bundled_group
):
    return [
        *(catalog(name) for name in CATALOG_NAMES),
        z(8),
        x(z(4), z(2)),
        x(x(z(2), z(2)), z(2)),
        x(z(3), s(3)),
        d(6),
        z(12),
        x(z(4), z(4)),
        x(x(z(4), z(4)), z(4)),
        x(x(x(z(2), z(2)), x(z(2), z(2))), x(z(2), z(2))),
        x(z(2), z(32)),
        x(z(6), z(6)),
        z(60),
        x(x(z(2), z(4)), z(8)),
    ]


def test_invariant_factors_match_reference():
    # Every abelian normal subgroup below order 64; the whole group at 64,
    # where the subgroup lattices of Z4^3 and Z2^6 are large.
    checked = 0
    for g in _factor_test_groups():
        subgroups = abelian_normal_subgroups(g) if g.size < 64 else [frozenset(g.elements())]
        for sub in subgroups:
            assert _invariant_factors(g, sub) == _reference_invariant_factors(g, sub), (g.name, sorted(sub))
            checked += 1
    assert checked == 127
    whole = [_invariant_factors(g, frozenset(g.elements())) for g in _factor_test_groups()[-4:]]
    assert whole == [(2, 32), (6, 6), (60,), (2, 4, 8)]


def test_inclusion_searches_leave_no_function_in_garbage():
    # The invariant-factor chains and the generator search recurse.  A
    # nested generator that calls itself through its closure cell is a
    # reference cycle: each call would leave its function, with the cell,
    # for the collector.
    flags, saved = gc.get_debug(), gc.garbage[:]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for group in (
            cyclic_group(4),
            direct_product(cyclic_group(2), cyclic_group(2)),
            symmetric_group(3),
            dihedral_group(4),
            quaternion_group(),
        ):
            for sub in abelian_normal_subgroups(group):
                normal_inclusions(subgroup_structure(group, sub).domain, group)
        gc.collect()
        functions = [x for x in gc.garbage if isinstance(x, types.FunctionType)]
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = saved
    assert functions == []


def test_subgroup_structure_rejects_nonabelian():
    s3 = bundled_group("S3")
    with pytest.raises(ValueError):
        subgroup_structure(s3, set(range(6)))


def test_abelian_factors_match_subgroup_structure_and_refuse_alike():
    for name in CATALOG_NAMES:
        g = bundled_group(name)
        for sub in abelian_normal_subgroups(g):
            assert abelian_factors(g, sub) == subgroup_structure(g, sub).domain.factors
    s3 = bundled_group("S3")
    for subset in ({1, 2}, {0, 3}, set(range(6))):
        with pytest.raises(ValueError) as slow:
            subgroup_structure(s3, subset)
        with pytest.raises(ValueError) as fast:
            abelian_factors(s3, subset)
        assert str(fast.value) == str(slow.value)


@pytest.mark.parametrize("name", ["S3", "D4", "Q8"])
def test_conjugation_automorphisms_are_built_once_per_inclusion(name):
    g = bundled_group(name)
    for sub in abelian_normal_subgroups(g):
        incl = subgroup_structure(g, sub)
        autos = incl.conjugation_automorphisms()
        assert incl.conjugation_automorphisms() is autos
        # a -> h^-1 a h over every h, from the group's own product
        domain = list(incl.domain.elements())
        expected = {
            tuple(incl.preimage(g.conjugate(incl.apply(a), g.inverses[h])) for a in domain)
            for h in g.elements()
        }
        assert set(autos) == expected and len(autos) == len(expected)


# Oracle: inclusions by scanning every generator-image tuple directly.
def _inclusions_oracle(domain, g):
    out = []
    for images in itertools.product(range(g.size), repeat=domain.rank):
        try:
            incl = Inclusion(g, domain, images)
        except ValueError:
            continue
        if all(g.power(img, n) == g.identity for img, n in zip(images, domain.factors)):
            if incl.is_normal():
                out.append(images)
    return sorted(out)


@pytest.mark.parametrize(
    "factors,name", [((3,), "S3"), ((2,), "D4"), ((4,), "Q8"), ((2, 2), "Z2xZ2")]
)
def test_normal_inclusions_against_scan_oracle(factors, name):
    domain = AbelianGroup(factors)
    g = bundled_group(name)
    got = sorted(i.gen_images for i in normal_inclusions(domain, g))
    assert got == _inclusions_oracle(domain, g)


def test_normal_inclusion_examples():
    assert len(normal_inclusions(AbelianGroup(()), bundled_group("S3"))) == 1
    incls = normal_inclusions(AbelianGroup((3,)), bundled_group("S3"))
    assert sorted(i.gen_images for i in incls) == [(3,), (4,)]
    assert len(normal_inclusions(AbelianGroup((2,)), bundled_group("Z2"))) == 1


def test_same_module_structure():
    s3 = bundled_group("S3")
    incls = normal_inclusions(AbelianGroup((3,)), s3)
    assert same_module_structure(incls[0], incls[0])
    assert same_module_structure(incls[0], incls[1])
    v4 = bundled_group("Z2xZ2")
    z2incls = normal_inclusions(AbelianGroup((2,)), v4)
    assert len(z2incls) == 3
    for a in z2incls:
        for b in z2incls:
            assert same_module_structure(a, b)
    # reflexive and symmetric across the whole list
    q8 = bundled_group("Q8")
    q8incls = normal_inclusions(AbelianGroup((4,)), q8)
    for a in q8incls:
        assert same_module_structure(a, a)
        for b in q8incls:
            assert same_module_structure(a, b) == same_module_structure(b, a)


def test_q8_cross_image_inclusions_differ():
    q8 = bundled_group("Q8")
    incls = normal_inclusions(AbelianGroup((4,)), q8)
    by_image = {}
    for i in incls:
        by_image.setdefault(tuple(sorted(i.image)), []).append(i)
    images = sorted(by_image)
    assert len(images) == 3
    a = by_image[images[0]][0]
    b = by_image[images[1]][0]
    assert not same_module_structure(a, b)


def test_character_group_separates_points():
    for factors in [(2,), (3,), (4,), (2, 2), (2, 4)]:
        domain = AbelianGroup(factors)
        for a in domain.elements():
            if a == domain.zero:
                continue
            assert any(domain.pairing(chi, a) != 0 for chi in domain.elements())


def test_character_multiplicativity():
    domain = AbelianGroup((2, 4))
    e = domain.exponent
    for chi in domain.elements():
        for a in domain.elements():
            for b in domain.elements():
                k = domain.pairing(chi, domain.add(a, b))
                assert k == (domain.pairing(chi, a) + domain.pairing(chi, b)) % e
                assert root_of_unity(e, k) == root_of_unity(e, domain.pairing(chi, a)) * (
                    root_of_unity(e, domain.pairing(chi, b))
                )
                # The same tuples as characters, paired with chi as a point.
                left = domain.pairing(domain.add(a, b), chi)
                assert left == (domain.pairing(a, chi) + domain.pairing(b, chi)) % e


def test_character_count():
    domain = AbelianGroup((2, 4))
    elements = list(domain.elements())
    values = {tuple(domain.pairing(chi, a) for a in elements) for chi in elements}
    assert len(values) == domain.order == 8


# Oracle: biform predicates evaluated directly over all character pairs.
def _nondeg_oracle(form):
    chars = list(form.parent.elements())
    images = set()
    for chi in chars:
        row = tuple(form.exponent_of(chi, xi) for xi in chars)
        images.add(row)
    return len(images) == len(chars)


def _skew_oracle(form):
    chars = list(form.parent.elements())
    e = form.parent.exponent
    return all(
        (form.exponent_of(a, b) + form.exponent_of(b, a)) % e == 0 for a in chars for b in chars
    )


def test_biform_enumeration_z2():
    domain = AbelianGroup((2,))
    forms = [b for b in enumerate_biforms(domain) if b.is_nondegenerate() and b.is_skewsymmetric()]
    assert len(forms) == 1
    # beta(chi, chi) = -1 = zeta_2^1 on the nontrivial character.
    assert forms[0].exponent_of((1,), (1,)) == 1


def test_biform_enumeration_trivial():
    forms = enumerate_biforms(AbelianGroup(()))
    assert len(forms) == 1
    assert forms[0].is_nondegenerate() and forms[0].is_skewsymmetric()


def test_biform_enumeration_v4_against_oracle():
    domain = AbelianGroup((2, 2))
    all_forms = enumerate_biforms(domain)
    assert len(all_forms) == 16
    expect = [f for f in all_forms if _nondeg_oracle(f) and _skew_oracle(f)]
    got = [f for f in all_forms if f.is_nondegenerate() and f.is_skewsymmetric()]
    assert got == expect
    assert len(got) == 4
    assert sum(f.is_nondegenerate() for f in all_forms) == 6


def test_biform_value_order_divides_gcd():
    domain = AbelianGroup((2, 4))
    e = domain.exponent
    gens = domain.generators()
    for form in filter(BiForm.is_nondegenerate, enumerate_biforms(domain)):
        for i, a in enumerate(gens):
            for j, b in enumerate(gens):
                # beta(chi_i, chi_j)^g = 1 with g = gcd(n_i, n_j).
                g = math.gcd(domain.factors[i], domain.factors[j])
                assert (g * form.exponent_of(a, b)) % e == 0


def test_skew_diagonal_is_sign():
    domain = AbelianGroup((2, 2))
    e = domain.exponent
    for form in filter(BiForm.is_skewsymmetric, enumerate_biforms(domain)):
        for chi in domain.elements():
            assert (2 * form.exponent_of(chi, chi)) % e == 0


def test_no_nondegenerate_skew_form_on_z3_or_z4():
    for factors in ((3,), (4,)):
        forms = enumerate_biforms(AbelianGroup(factors))
        assert not any(f.is_nondegenerate() and f.is_skewsymmetric() for f in forms)


def test_form_exponent_is_the_pairing_at_the_point():
    # beta(chi, xi) = xi(a_chi): the matrix formula of exponent_of against
    # pairing at the point read off by point, for every form on every shape.
    shapes = {(2, 4), (8,), (6,)}
    for name in CATALOG_NAMES:
        group = bundled_group(name)
        shapes.update(abelian_factors(group, s) for s in abelian_normal_subgroups(group))
    assert {(), (2,), (3,), (4,), (2, 2)} <= shapes
    for factors in sorted(shapes):
        domain = AbelianGroup(factors)
        chars = list(domain.elements())
        for form in enumerate_biforms(domain):
            for chi in chars:
                point = form.point(chi)
                for xi in chars:
                    assert form.exponent_of(chi, xi) == domain.pairing(xi, point), (form, chi, xi)


def test_inclusions_round_trip_with_subgroups():
    for name in CATALOG_NAMES:
        g = bundled_group(name)
        subgroup_sets = set(abelian_normal_subgroups(g))
        shapes = {subgroup_structure(g, s).domain.factors for s in subgroup_sets}
        for factors in shapes:
            for incl in normal_inclusions(AbelianGroup(factors), g):
                assert incl.image in subgroup_sets


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(CATALOG_NAMES), st.integers(0, 63), st.integers(0, 63))
def test_group_axioms_hold_pointwise(name, a, b):
    g = bundled_group(name)
    a %= g.size
    b %= g.size
    assert g.table[a][g.inverses[a]] == g.identity
    assert g.table[g.table[a][b]][g.inverses[b]] == a
    assert g.power(a, g.element_order(a)) == g.identity
