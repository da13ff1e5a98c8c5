import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from qtriang.acceptance import qt_catalog, triangular_catalog
from qtriang.cyclotomic import CycScalar, root_of_unity, root_power_table
from qtriang.groups import (
    CATALOG_NAMES,
    AbelianGroup,
    BiForm,
    Inclusion,
    bundled_group,
    enumerate_biforms,
    normal_inclusions,
    subgroup_structure,
)
from qtriang.hopf import GATensor, difference_witness
from qtriang.rmatrix import (
    DatumError,
    VerificationReport,
    _character_sum,
    QTDatum,
    build_r,
    commutes_with_diagonal,
    koszul_twist,
    LegProducts,
    markov_element,
    markov_element_flipped,
    minimal_support,
    span_of_elements,
    verify_markov,
    verify_markov_equation,
    verify_qt,
    verify_unitary,
)
from qtriang import linalg, rmatrix


def z2_datum():
    g = bundled_group("Z2")
    a = AbelianGroup((2,))
    incl = normal_inclusions(a, g)[0]
    beta = [b for b in enumerate_biforms(a) if b.is_nondegenerate() and b.is_skewsymmetric()][0]
    return QTDatum(g, a, incl, incl, beta)


def s3_datum(form_index=0):
    g = bundled_group("S3")
    a = AbelianGroup((3,))
    incl = normal_inclusions(a, g)[0]
    autos = incl.conjugation_automorphisms()
    forms = [b for b in enumerate_biforms(a) if b.is_nondegenerate() and b.is_invariant(autos)]
    return QTDatum(g, a, incl, incl, forms[form_index])


def trivial_datum(name="S3"):
    g = bundled_group(name)
    a = AbelianGroup(())
    incl = normal_inclusions(a, g)[0]
    beta = BiForm(a, ())
    return QTDatum(g, a, incl, incl, beta)


def golden_koszul():
    g = bundled_group("Z2")
    h = Fraction(1, 2)
    return GATensor(g, 2, {(0, 0): h, (0, 1): h, (1, 0): h, (1, 1): -h})


def test_build_r_trivial_datum():
    assert build_r(trivial_datum()) == GATensor.unit(bundled_group("S3"), 2)


def test_build_r_koszul_golden():
    assert build_r(z2_datum()) == golden_koszul()


def test_build_r_s3_passes_verifier():
    r = build_r(s3_datum())
    assert len(r.terms) == 9
    assert verify_qt(r).all_passed


def test_datum_validation_errors():
    # Each of the eight checks, by its exact message.  Each bad datum comes
    # after a valid datum sharing its inclusions and forms, so a fact an
    # Inclusion or a BiForm keeps cannot hide the failure.
    def rejects(message, *args):
        for _ in range(2):
            with pytest.raises(DatumError) as info:
                QTDatum(*args)
            assert str(info.value) == message

    z2, d4, q8, v4 = (bundled_group(n) for n in ("Z2", "D4", "Q8", "Z2xZ2"))
    a2 = AbelianGroup((2,))
    incl = normal_inclusions(a2, z2)[0]
    beta2 = [b for b in enumerate_biforms(a2) if b.is_nondegenerate()][0]
    QTDatum(z2, a2, incl, incl, beta2)
    rejects("inclusions do not land in the datum's group", v4, a2, incl, incl, beta2)
    a4 = AbelianGroup((4,))
    rejects("inclusions do not start from the datum's abelian group", z2, a4, incl, incl, beta2)
    beta3 = BiForm(AbelianGroup((3,)), ((1,),))
    rejects("form lives on the wrong character group", z2, a2, incl, incl, beta3)
    # The centre of D4 is normal; the subgroup of one reflection is not.
    centre = normal_inclusions(a2, d4)[0]
    QTDatum(d4, a2, centre, centre, beta2)
    reflection = Inclusion(d4, a2, (4,))
    assert not reflection.is_normal()
    rejects("left inclusion image is not normal", d4, a2, reflection, centre, beta2)
    rejects("right inclusion image is not normal", d4, a2, centre, reflection, beta2)
    # Q8's cyclic subgroups of order 4 are each normal, with different actions.
    first, last = normal_inclusions(a4, q8)[0], normal_inclusions(a4, q8)[-1]
    autos = first.conjugation_automorphisms()
    beta4 = [b for b in enumerate_biforms(a4) if b.is_nondegenerate() and b.is_invariant(autos)][0]
    QTDatum(q8, a4, first, first, beta4)
    QTDatum(q8, a4, last, last, beta4)
    message = "inclusions induce different conjugation maps on the domain"
    rejects(message, q8, a4, first, last, beta4)
    degenerate = BiForm(a2, ((0,),))
    assert not degenerate.is_nondegenerate()
    rejects("form is degenerate", z2, a2, incl, incl, degenerate)
    # A form on the Klein group that D4's conjugation moves is valid on Z2xZ2.
    klein = subgroup_structure(d4, {0, 2, 4, 6})
    autos = klein.conjugation_automorphisms()
    candidates = [b for b in enumerate_biforms(klein.domain) if b.is_nondegenerate()]
    moved = next(f for f in candidates if not f.is_invariant(autos))
    whole = subgroup_structure(v4, set(range(4)))
    QTDatum(v4, klein.domain, whole, whole, moved)
    rejects("form is not conjugation-invariant", d4, klein.domain, klein, klein, moved)
    # The automorphisms an inclusion keeps cannot be changed through a caller.
    with pytest.raises(TypeError):
        autos[0] = autos[-1]
    with pytest.raises(TypeError):
        autos[-1][0] = autos[-1][1]
    assert klein.conjugation_automorphisms() == autos
    assert len(autos) == 2


def test_triangular_flag():
    assert z2_datum().triangular
    assert not s3_datum().triangular  # the zeta3 diagonal form is not skew
    assert trivial_datum().triangular


def test_verify_qt_on_unit_and_projector():
    g = bundled_group("Z2")
    assert verify_qt(GATensor.unit(g, 2)).all_passed
    h = Fraction(1, 2)
    proj = GATensor(g, 2, {(0, 0): h, (0, 1): h, (1, 0): h, (1, 1): h})
    report = verify_qt(proj)
    assert not report.all_passed
    assert not report["invertible"].passed
    assert len(report.checks) == 1  # remaining checks skipped


def test_verify_qt_failure_carries_witness():
    g = bundled_group("Z2")
    h = Fraction(1, 2)
    broken = GATensor(g, 2, {(0, 0): 1, (0, 1): h, (1, 0): h, (1, 1): -h})
    report = verify_qt(broken)
    assert not report.all_passed
    failed = report.failed()
    assert failed
    assert any(c.witness and "tuple" in c.witness for c in failed)


def test_unitarity():
    assert verify_unitary(build_r(z2_datum()))
    assert verify_unitary(GATensor.unit(bundled_group("Z3"), 2))
    # the zeta3-diagonal form is not skewsymmetric, so its element is not unitary
    assert not verify_unitary(build_r(s3_datum()))


def test_markov_element_examples():
    g = bundled_group("Z2")
    assert markov_element(GATensor.unit(g, 2)) == GATensor.unit(g, 1)
    u = markov_element(build_r(z2_datum()))
    assert u == GATensor.basis(g, 1)
    assert markov_element_flipped(build_r(z2_datum())) == u
    assert verify_markov(build_r(z2_datum())).all_passed


def test_markov_equation_on_z4():
    # inside Z4 the only nontrivial triangular datum uses the order-2 subgroup
    g = bundled_group("Z4")
    incl = subgroup_structure(g, {0, 2})
    a = incl.domain
    beta = [b for b in enumerate_biforms(a) if b.is_nondegenerate() and b.is_skewsymmetric()][0]
    datum = QTDatum(g, a, incl, incl, beta)
    u = markov_element(build_r(datum))
    assert u == GATensor.basis(g, 2)
    assert verify_markov_equation(datum, u)
    # uniqueness: no other grouplike satisfies the value equation
    chars = list(a.elements())
    matches = [
        x
        for x in a.elements()
        if all(a.pairing(chi, x) == beta.exponent_of(chi, chi) for chi in chars)
    ]
    assert matches == [incl.preimage(2)]


def test_markov_equation_trivial_datum():
    d = trivial_datum("Z3")
    u = markov_element(build_r(d))
    assert verify_markov_equation(d, u)


def test_markov_equation_rejects_outsiders():
    d = z2_datum()
    with pytest.raises(ValueError):
        verify_markov_equation(d, GATensor.basis(d.group, 0).scale(2))
    nontriangular = s3_datum()
    with pytest.raises(DatumError):
        verify_markov_equation(nontriangular, GATensor.basis(nontriangular.group, 0))


def test_minimal_support_unit():
    g = bundled_group("Z3")
    sup = minimal_support(GATensor.unit(g, 2))
    assert sup.left_dim == sup.right_dim == 1
    assert sup.all_passed
    assert sup.left_basis[0] == GATensor.unit(g, 1)


def test_minimal_support_koszul():
    d = z2_datum()
    sup = minimal_support(build_r(d), d)
    assert sup.left_dim == sup.right_dim == 2
    assert sup.all_passed


def test_minimal_support_s3():
    d = s3_datum()
    sup = minimal_support(build_r(d), d)
    assert sup.left_dim == sup.right_dim == 3
    assert sup.all_passed
    rows = [[t.coeff((g,)) for g in d.group.elements()] for t in sup.left_basis]
    assert rows == span_of_elements(d.group, {0, 3, 4})


PAIRING_CHECKS = [
    "alpha_reverses_products",
    "alpha_respects_coproducts",
    "alpha_dual_equals_antipode_composite",
]


def test_pairing_checks_unit_and_koszul():
    g = bundled_group("Z2")
    unit_support = minimal_support(GATensor.unit(g, 2))
    assert unit_support.left_dim == 1
    assert list(unit_support.checks)[-4:] == ["supports_coincide_when_unitary", *PAIRING_CHECKS]
    r = build_r(z2_datum())
    support = minimal_support(r)
    assert support.left_dim == 2
    assert support.all_passed
    assert list(support.checks)[-3:] == PAIRING_CHECKS
    half = Fraction(1, 2)
    # the pairing map sends delta_1 and delta_u to (1 + u)/2 and (1 - u)/2
    assert r.coeff((0, 0)) == half and r.coeff((1, 0)) == half
    assert r.coeff((0, 1)) == half and r.coeff((1, 1)) == -half


def test_pairing_checks_s3():
    # not unitary: no dual-map check
    support = minimal_support(build_r(s3_datum()))
    assert support.left_dim == 3
    assert support.all_passed
    assert list(support.checks)[-2:] == PAIRING_CHECKS[:2]


def test_pairing_dual_check_is_not_plain_symmetry():
    # T = 1x1 - 2 e_chi x e_chi on Z3, with e_chi = (1/3) sum_g zeta^(-g) g an
    # idempotent: T is symmetric with T^2 = 1, so unitary, but its coefficient
    # d_(g,h),(0,0) - (2/9) zeta^(-(g+h)) is not fixed by (g, h) -> (h^-1, g).
    g = bundled_group("Z3")
    terms = {
        (a, b): (1 if a == b == 0 else 0) + Fraction(-2, 9) * root_of_unity(3, -(a + b) % 3)
        for a in range(3)
        for b in range(3)
    }
    t = GATensor(g, 2, terms)
    assert verify_unitary(t)
    assert minimal_support(t).checks["alpha_dual_equals_antipode_composite"] is False


def _twist(datum):
    r = build_r(datum)
    return koszul_twist(datum, r, markov_element(r))


def test_koszul_twist_z2_is_trivial():
    result = _twist(z2_datum())
    assert result.all_passed
    assert result.twist.is_unit()
    assert result.gamma.matrix == ((0,),)
    assert result.base == build_r(z2_datum())


def test_koszul_twist_rejects_nontriangular():
    with pytest.raises(DatumError):
        _twist(s3_datum())


def _v4_datum(matrix):
    g = bundled_group("Z2xZ2")
    incl = subgroup_structure(g, set(range(4)))
    a = incl.domain
    return QTDatum(g, a, incl, incl, BiForm(a, matrix))


def test_koszul_twist_with_trivial_markov():
    # antidiagonal form: trivial diagonal, so the Markov element is the identity
    datum = _v4_datum(((0, 1), (1, 0)))
    assert datum.triangular
    result = _twist(datum)
    assert result.all_passed
    assert markov_element(build_r(datum)).grouplike_index() == datum.group.identity
    assert result.base.is_unit()
    assert not result.twist.is_unit()  # genuine twist into the trivial braiding
    r = build_r(datum)
    assert r * result.twist.swap() == result.twist


def test_koszul_twist_with_nontrivial_markov():
    datum = _v4_datum(((1, 0), (0, 1)))
    assert datum.triangular
    u = markov_element(build_r(datum)).grouplike_index()
    assert u != datum.group.identity
    result = _twist(datum)
    assert result.all_passed
    assert result.beta_u.matrix == ((1, 1), (1, 1))
    assert not result.base.is_unit()


def test_koszul_twist_d4_klein():
    d4 = bundled_group("D4")
    incl = subgroup_structure(d4, {0, 2, 4, 6})
    a = incl.domain
    autos = incl.conjugation_automorphisms()
    forms = [
        b
        for b in enumerate_biforms(a)
        if b.is_nondegenerate() and b.is_skewsymmetric() and b.is_invariant(autos)
    ]
    assert forms
    for beta in forms:
        datum = QTDatum(d4, a, incl, incl, beta)
        result = _twist(datum)
        assert result.all_passed


def test_koszul_twist_diagonals_agree_on_every_triangular_datum():
    # beta(chi, chi) = chi(u) = beta_u(chi, chi), so beta / beta_u is
    # alternating and its upper-triangular split is exact on every datum.
    for name in CATALOG_NAMES:
        for datum in triangular_catalog(name).data:
            result = _twist(datum)
            assert result.all_passed, (name, datum)
            for chi in datum.domain.elements():
                assert datum.beta.exponent_of(chi, chi) == result.beta_u.exponent_of(chi, chi)


def test_twist_commutation_matches_the_literal_products():
    # ``commutes_with_markov_pair`` is read off the twist's rows by
    # ``commutes_with_diagonal``; (u x u) F and F (u x u) are formed only for
    # a failure's witness.  A real u is central, so every g of the group
    # stands in for u here, and the non-central ones reach the failing route.
    outcomes = set()
    for name in CATALOG_NAMES:
        for datum in triangular_catalog(name).data:
            r = build_r(datum)
            result = koszul_twist(datum, r, markov_element(r))
            group, twist = datum.group, result.twist
            for g in group.elements():
                report = rmatrix._twist_report(datum, r, result.base, g, twist)
                gg = GATensor.basis(group, g, g)
                witness = difference_witness(gg * twist, twist * gg)
                check = report["commutes_with_markov_pair"]
                assert (check.passed, check.witness) == (witness is None, witness)
                outcomes.add(check.passed)
    assert outcomes == {False, True}


def test_cross_inclusion_datum_builds_valid_element():
    # distinct images for the two inclusions still give a verified structure
    g = bundled_group("Z2xZ2")
    a = AbelianGroup((2,))
    incls = normal_inclusions(a, g)
    beta = [b for b in enumerate_biforms(a) if b.is_nondegenerate()][0]
    datum = QTDatum(g, a, incls[0], incls[1], beta)
    assert not datum.triangular
    r = build_r(datum)
    assert verify_qt(r).all_passed
    sup = minimal_support(r, datum)
    assert sup.all_passed
    assert sup.left_dim == sup.right_dim == 2


def _s3_transposition_tensor():
    s3 = bundled_group("S3")
    a = min(g for g in s3.elements() if s3.element_order(g) == 2)
    assert a == 1 and a not in s3.center()
    return GATensor.basis(s3, a, s3.identity)


def test_commutation_witness_pins_first_noncommuting_diagonal():
    report = verify_qt(_s3_transposition_tensor())
    check = report["commutes_with_diagonals"]
    assert not check.passed
    assert check.witness == {"element": 2, "tuple": [3, 2], "left": "0", "right": "1"}
    assert list(check.witness) == ["element", "tuple", "left", "right"]
    assert [c.name for c in report.checks][:2] == ["invertible", "commutes_with_diagonals"]


def test_central_witness_pins_first_noncommuting_element():
    report = verify_markov(_s3_transposition_tensor())
    check = report["central"]
    assert not check.passed
    assert check.witness == {"element": 2, "tuple": [3], "left": "0", "right": "1"}
    assert list(check.witness) == ["element", "tuple", "left", "right"]
    assert [c.name for c in report.checks] == [
        "conventions_agree", "invertible", "coproduct_identity", "central",
    ]


# -- diagonal commutation against the two products ---------------------------


def _diagonal(x, g):
    return GATensor.basis(x.group, *(g,) * x.arity)


def _add_product_commutation(report, name, x):
    """``add_commutation`` with (g x ... x g) x and x (g x ... x g) formed for every g."""
    for g in x.group.elements():
        b = _diagonal(x, g)
        witness = difference_witness(x * b, b * x)
        if witness is not None:
            report.add(name, False, {"element": g, **witness})
            return
    report.add(name, True)


def _commutation_candidates():
    rng = random.Random("commutation")
    yield _s3_transposition_tensor()
    for name in CATALOG_NAMES:
        group = bundled_group(name)
        catalog = qt_catalog(name)
        for members in catalog.dedup:
            yield catalog.structures[members[0]].rmatrix
            yield catalog.structures[members[0]].markov
        for _ in range(3):
            yield _sparse_tensor(rng, group)
            yield GATensor(
                group,
                1,
                {(rng.randrange(group.size),): CycScalar.rational(rng.choice([1, -2]))
                 for _ in range(3)},
            )


def test_commutes_with_diagonal_agrees_with_the_products():
    # Every distinct catalog structure and its Markov element commute; the
    # S3 transposition and the random sparse tensors mostly do not.
    outcomes = set()
    for x in _commutation_candidates():
        for g in x.group.elements():
            b = _diagonal(x, g)
            commutes = x * b == b * x
            assert commutes_with_diagonal(x, g) == commutes, (x, g)
            outcomes.add(commutes)
        fast, slow = VerificationReport(), VerificationReport()
        fast.add_commutation("commutes", x)
        _add_product_commutation(slow, "commutes", x)
        assert _report_rows(fast) == _report_rows(slow)
    assert outcomes == {True, False}


def _scanned_commutation(report, name, x):
    """``add_commutation`` scanning every g in element order, not only the generators."""
    for g in x.group.elements():
        if not commutes_with_diagonal(x, g):
            b = _diagonal(x, g)
            report.add(name, False, {"element": g, **difference_witness(x * b, b * x)})
            return
    report.add(name, True)


def _off_center_tensors(group):
    """Every basis tensor g and g x h, and each distinct catalog R plus (1/3) a x e, a not central."""
    center = set(group.center())
    for a in group.elements():
        yield GATensor.basis(group, a)
        for b in group.elements():
            yield GATensor.basis(group, a, b)
    catalog = qt_catalog(group.name)
    for members in catalog.dedup:
        r = catalog.structures[members[0]].rmatrix
        for a in sorted(set(group.elements()) - center):
            yield r + GATensor.basis(group, a, group.identity).scale(Fraction(1, 3))


def test_add_commutation_by_generators_equals_the_element_scan(monkeypatch):
    # Same report rows and witnesses as the scan over every g, on the
    # candidates above and on tensors off the centre of S3, D4 and Q8, and
    # so for ``verify_qt`` and ``verify_markov`` of the first failing arity-2
    # tensor with several terms on each group (each of these solves for an
    # inverse in k[G]^2).  The g
    # that fail include non-generators, and some tensors pass at the first
    # generator but fail at a later one.  The least failing g is always a
    # generator (``FiniteGroup.generating_set``): a tensor whose first
    # failing element is not a generator does not exist.
    seen = {"non-generator": 0, "later generator": 0}
    perturbed = []
    candidates = list(_commutation_candidates())
    for name in ("S3", "D4", "Q8"):
        candidates += _off_center_tensors(bundled_group(name))
    for x in candidates:
        fast, slow = VerificationReport(), VerificationReport()
        fast.add_commutation("commutes", x)
        _scanned_commutation(slow, "commutes", x)
        assert _report_rows(fast) == _report_rows(slow)
        gens = x.group.generating_set
        failing = [g for g in x.group.elements() if not commutes_with_diagonal(x, g)]
        if failing:
            assert failing[0] in gens and fast.checks[0].witness["element"] == failing[0]
            seen["non-generator"] += any(g not in gens for g in failing)
            seen["later generator"] += failing[0] != gens[0]
            if x.arity == 2 and len(x.terms) > 1 and x.group not in {y.group for y in perturbed}:
                perturbed.append(x)
    assert all(seen.values()) and perturbed

    def reports():
        return [(_report_rows(verify_qt(x)), _rows_or_error(verify_markov, x)) for x in perturbed]

    fast = reports()
    assert any(isinstance(m, list) and not m[3][1] for _, m in fast)  # u not central
    monkeypatch.setattr(VerificationReport, "add_commutation", _scanned_commutation)
    assert fast == reports()


def _rows_or_error(verify, x):
    try:
        return _report_rows(verify(x))
    except ValueError as exc:  # R21 R not invertible
        return str(exc)


# -- minimal supports and the pairing map against a reference ----------------
#
# The reference keeps the design that reduces a subspace again for every
# question: each membership test runs one elimination of the spanning rows
# with the vector tagged on top, and two spans are equal when each basis lies
# in the other.  The pairing checks are made on the raw columns of R.


def _ref_in_span(rows, vector):
    one, zero = CycScalar.one(), CycScalar.zero()
    reduced, _ = linalg.rref([[one, *vector]] + [[zero, *row] for row in rows])
    return not any(reduced[0][1:])


def _ref_same_span(a, b):
    return len(a) == len(b) and all(_ref_in_span(b, row) for row in a)


def _ref_vector(tensor):
    n = tensor.group.size
    vec = [CycScalar.zero()] * n**tensor.arity
    for key, c in tensor.terms.items():
        vec[key[0] if tensor.arity == 1 else key[0] * n + key[1]] = c
    return vec


def _ref_closure(group, basis, side):
    tensors = [GATensor(group, 1, {(g,): c for g, c in enumerate(row) if c}) for row in basis]

    def inside(rows, tensor):
        return _ref_in_span(rows, _ref_vector(tensor))

    pairs = [_ref_vector(x @ y) for x in tensors for y in tensors]
    return {
        f"{side}_closed_under_product": all(
            inside(basis, x * y) for x in tensors for y in tensors
        ) and inside(basis, GATensor.unit(group, 1)),
        f"{side}_closed_under_coproduct": all(inside(pairs, x.coproduct(1)) for x in tensors),
        f"{side}_closed_under_antipode": all(inside(basis, x.antipode(1)) for x in tensors),
        f"{side}_conjugation_invariant": all(
            inside(basis, x.adjoint_action(g, 1)) for x in tensors for g in group.elements()
        ),
    }


def _reference_support(candidate, datum):
    """(left dimension, right dimension, checks) of ``minimal_support``."""
    group = candidate.group
    n = group.size
    left = linalg.row_basis([[candidate.coeff((g, h)) for g in range(n)] for h in range(n)])
    right = linalg.row_basis([[candidate.coeff((h, g)) for g in range(n)] for h in range(n)])
    checks = {**_ref_closure(group, left, "left"), **_ref_closure(group, right, "right")}
    if datum is not None:
        for side, basis, image in (
            ("left", left, datum.incl_left.image),
            ("right", right, datum.incl_right.image),
        ):
            span = [_ref_vector(GATensor.basis(group, g)) for g in image]
            checks[f"{side}_equals_{side}_inclusion_span"] = _ref_same_span(basis, span)
    if verify_unitary(candidate):
        checks["supports_coincide_when_unitary"] = _ref_same_span(left, right)
    return len(left), len(right), checks


def _reference_pairing(candidate):
    """The pairing-map checks of ``minimal_support``."""
    group = candidate.group
    n = group.size
    cols = [
        GATensor(group, 1, {(h,): candidate.coeff((h, g)) for h in range(n)}) for g in range(n)
    ]
    checks = {
        "alpha_reverses_products": all(
            cols[h] * cols[g] == (cols[g] if g == h else GATensor(group, 1))
            for g in range(n)
            for h in range(n)
        ),
        "alpha_respects_coproducts": all(
            cols[g].coproduct(1)
            == sum(
                (cols[a] @ cols[b] for a in range(n) for b in range(n) if group.table[a][b] == g),
                GATensor(group, 2),
            )
            for g in range(n)
        ),
    }
    if verify_unitary(candidate):
        checks["alpha_dual_equals_antipode_composite"] = all(
            candidate.coeff((g, h)) == candidate.coeff((group.inverses[h], g))
            for g in range(n)
            for h in range(n)
        )
    return checks


def _assert_matches_reference(candidate, datum):
    support = minimal_support(candidate, datum)
    left_dim, right_dim, checks = _reference_support(candidate, datum)
    assert (support.left_dim, support.right_dim) == (left_dim, right_dim)
    checks.update(_reference_pairing(candidate))
    assert list(support.checks.items()) == list(checks.items())
    return support


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_supports_and_pairing_match_reference_on_every_distinct_element(name):
    catalog = qt_catalog(name)
    for members in catalog.dedup:
        first = members[0]
        support = _assert_matches_reference(catalog.structures[first].rmatrix, catalog.data[first])
        assert support.all_passed


def _open_support_tensor(rng, group):
    # sum_k a_k x b_k with each a_k, b_k a combination of two elements: its
    # supports are spans of at most two such combinations.
    scalars = [CycScalar.one(), -CycScalar.one(), CycScalar.rational(2)]
    scalars += [root_of_unity(3), root_of_unity(4)]
    terms = {}
    for _ in range(2):
        left = {rng.randrange(group.size): rng.choice(scalars) for _ in range(2)}
        right = {rng.randrange(group.size): rng.choice(scalars) for _ in range(2)}
        for g, a in left.items():
            for h, b in right.items():
                terms[(g, h)] = terms.get((g, h), CycScalar.zero()) + a * b
    return GATensor(group, 2, {k: c for k, c in terms.items() if c})


def test_supports_and_pairing_match_reference_on_open_supports():
    rng = random.Random(20261018)
    open_count = 0
    for name in CATALOG_NAMES:
        datum = qt_catalog(name).data[-1]
        for _ in range(2):
            candidate = _open_support_tensor(rng, datum.group)
            support = _assert_matches_reference(candidate, datum)
            closed = [v for k, v in support.checks.items() if "_closed_under_" in k]
            open_count += not all(closed)
    assert open_count >= 6


def _perturbed(r):
    # 2R and R + g x e break the coproduct identities; R21 keeps every identity.
    group = r.group
    return [r.scale(2), r.swap(), r + GATensor.basis(group, group.size - 1, group.identity)]


def _twisted_unitary(group, a, b):
    # F21^-1 F is unitary for every invertible F = 1 x 1 + (1/2) a x b.
    f = GATensor.unit(group, 2) + GATensor(group, 2, {(a, b): Fraction(1, 2)})
    return f.swap().inverse() * f


def test_pairing_checks_match_reference_passing_and_failing():
    outcomes = {check: set() for check in PAIRING_CHECKS}
    for name in CATALOG_NAMES:
        catalog = qt_catalog(name)
        group = catalog.data[0].group
        candidates = [_twisted_unitary(group, a, group.size - 1 - a) for a in range(2)]
        for members in catalog.dedup[:2]:
            candidates += _perturbed(catalog.structures[members[0]].rmatrix)
        for candidate in candidates:
            support = _assert_matches_reference(candidate, None)
            for check in PAIRING_CHECKS:
                if check in support.checks:
                    outcomes[check].add(support.checks[check])
    assert outcomes == {check: {False, True} for check in PAIRING_CHECKS}


# Oracle: the literal quadruple sum over a, b, chi and xi that build_r
# evaluated before the sum over xi was collapsed by bimultiplicativity.
def _character_double_sum(
    domain: AbelianGroup,
    incl_left: Inclusion,
    incl_right: Inclusion,
    form: BiForm,
) -> GATensor:
    # (1/|A|^2) sum over a, b, chi, xi of form(chi, xi) chi(a) xi(b) (i(a) x j(b)),
    # evaluated in the exponent domain: per (a, b), histogram the exponent of
    # zeta_e and assemble one scalar from the power table.
    group = incl_left.group
    e = domain.exponent
    powers = root_power_table(e)
    norm = domain.order**2
    terms = {}
    elements = chars = list(domain.elements())
    chi_at = {chi: {a: domain.pairing(chi, a) for a in elements} for chi in chars}
    form_exp = {(chi, xi): form.exponent_of(chi, xi) for chi in chars for xi in chars}
    for a in elements:
        for b in elements:
            histogram = [0] * e
            for chi in chars:
                ca = chi_at[chi][a]
                for xi in chars:
                    k = (form_exp[(chi, xi)] + ca + chi_at[xi][b]) % e
                    histogram[k] += 1
            coeffs = [0] * len(powers[0])
            for k, count in enumerate(histogram):
                if count:
                    for idx, c in enumerate(powers[k]):
                        coeffs[idx] += count * c
            scalar = CycScalar._make(e, norm, tuple(coeffs))
            if scalar:
                terms[(incl_left.apply(a), incl_right.apply(b))] = scalar
    return GATensor(group, 2, terms)


def _stored_form(tensor):
    return [(key, c.order, c.den, c.num) for key, c in tensor.terms.items()]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_character_sum_matches_quadruple_sum(name):
    # Same keys, in the same order, and the same stored coefficients: on every
    # datum of the catalog through build_r, on the twist F of every triangular
    # datum, and on every bimultiplicative form (degenerate ones included) of
    # each catalog domain with one inclusion pair.
    pairs = {}
    for datum in qt_catalog(name).data:
        oracle = _character_double_sum(datum.domain, datum.incl_left, datum.incl_right, datum.beta)
        assert _stored_form(build_r(datum)) == _stored_form(oracle)
        pairs.setdefault(datum.domain, (datum.incl_left, datum.incl_right))
    for datum in triangular_catalog(name).data:
        result = _twist(datum)
        oracle = _character_double_sum(datum.domain, datum.incl_left, datum.incl_left, result.gamma)
        assert _stored_form(result.twist) == _stored_form(oracle)
    for domain, (left, right) in pairs.items():
        for form in enumerate_biforms(domain):
            assert _stored_form(_character_sum(domain, left, right, form)) == _stored_form(
                _character_double_sum(domain, left, right, form)
            )


# -- verify_qt against the three-leg products formed one by one --------------


def _reference_verify_qt(candidate):
    """``verify_qt`` with both Yang-Baxter sides multiplied out from R12, R13, R23."""
    report = VerificationReport()
    try:
        inverse = candidate.inverse()
    except ValueError:
        report.add("invertible", False, {"reason": "no two-sided inverse exists"})
        return report
    report.add("invertible", True)
    group = candidate.group
    _add_product_commutation(report, "commutes_with_diagonals", candidate)
    r12 = candidate.embed_legs((1, 2), 3)
    r13 = candidate.embed_legs((1, 3), 3)
    r23 = candidate.embed_legs((2, 3), 3)
    report.add_equality("coproduct_on_right_leg", candidate.coproduct(2), r13 * r12)
    report.add_equality("coproduct_on_left_leg", candidate.coproduct(1), r13 * r23)
    report.add_equality("yang_baxter", r12 * r13 * r23, r23 * r13 * r12)
    report.add_equality("counit_left", candidate.counit(1), GATensor.unit(group, 1))
    report.add_equality("counit_right", candidate.counit(2), GATensor.unit(group, 1))
    report.add_equality("antipode_left", candidate.antipode(1), inverse)
    report.add_equality("antipode_right", candidate.antipode(2), inverse)
    report.add_equality("antipode_both", candidate.antipode(1).antipode(2), candidate)
    return report


def _sparse_tensor(rng, group):
    terms = {(group.identity, group.identity): CycScalar.one()}
    for _ in range(2):
        key = (rng.randrange(group.size), rng.randrange(group.size))
        terms[key] = CycScalar.rational(rng.choice([Fraction(1, 2), Fraction(-1, 3)]))
    return GATensor(group, 2, terms)


def _report_rows(report):
    return [(c.name, c.passed, c.witness) for c in report.checks]


def _record_one_sided_inverses(monkeypatch):
    """Record, for each guess ``_inverse_or_solve`` tests, whether x guess and guess x are the unit.

    ``_inverse_or_solve`` forms only x guess: in k[G]^n a one-sided inverse
    is two-sided, so the two flags must agree.
    """
    sides = []
    inverse_or_solve = rmatrix._inverse_or_solve

    def recording(x, guess):
        sides.append(((x * guess).is_unit(), (guess * x).is_unit()))
        return inverse_or_solve(x, guess)

    monkeypatch.setattr(rmatrix, "_inverse_or_solve", recording)
    return sides


def _s3_hexagon_not_invariant():
    """R = 1/2 (e x e + e x y + x x e - x x y) on S3, x = 1 and y = 2 its first two involutions.

    R passes both hexagons, both counits and every antipode check, but
    commutes with no g x g for g = x and fails Yang-Baxter: the left
    hexagon alone does not give Yang-Baxter (fact (b) of ``verify_qt``).
    """
    s3 = bundled_group("S3")
    e, half = s3.identity, Fraction(1, 2)
    return GATensor(s3, 2, {(e, e): half, (e, 2): half, (1, e): half, (1, 2): -half})


def _z3_slices_not_fixed_by_the_antipodes():
    """R = 1 x e_1 + h x e_0 + h^2 x e_2 on Z3, e_k = (1/3) sum_j w^(-jk) h^j, w = zeta_3.

    Its left slices e_1, e_0, e_2 are idempotents summing to 1, so (S x I)(R)
    is its inverse (fact (a)), but S(e_k) = e_(-k): (S x S)(R) != R, and
    (I x eps)(R) = h.  So ``antipode_right``, ``antipode_both`` and
    ``counit_right`` fail with the literal witnesses (fact (e) fails).
    """
    z3 = bundled_group("Z3")
    h = next(g for g in z3.elements() if g != z3.identity)  # either one generates Z3
    powers = [z3.identity, h, z3.table[h][h]]
    terms = {}
    for a, k in zip(powers, (1, 0, 2)):
        for j, b in enumerate(powers):
            terms[a, b] = root_of_unity(3, -j * k % 3) * CycScalar.rational(Fraction(1, 3))
    return GATensor(z3, 2, terms)


def _right_slices_sum_to_one(r):
    """R with 1/2 e x e moved to e x x, x the last element: (I x eps)(R) stays 1,
    but R's right slices are no longer all idempotent (leg 2 of fact (c))."""
    group = r.group
    e, x = group.identity, group.size - 1
    return r + GATensor(group, 2, {(e, x): Fraction(1, 2), (e, e): Fraction(-1, 2)})


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_verify_qt_matches_reference(name, monkeypatch):
    # Every distinct R of the catalog, its perturbations, random sparse
    # tensors and, on S3, a tensor that passes the left hexagon but not
    # invariance: names, flags and witnesses agree check by check.  So do
    # the fallbacks of facts (d) and (e): a tensor whose right slices sum to
    # 1 without being idempotent, and on Z3 one whose left slices are a
    # partition of unity but whose rows are not fixed by S x S.
    sides = _record_one_sided_inverses(monkeypatch)
    catalog = qt_catalog(name)
    group = catalog.data[0].group
    rng = random.Random(f"verify_qt/{name}")
    candidates = [_sparse_tensor(rng, group) for _ in range(4)]
    # 0 and e x p, p the mean of G, pass the left hexagon but not the
    # counit, and have no inverse.
    mean = GATensor(group, 2, {(group.identity, g): Fraction(1, group.size) for g in group.elements()})
    candidates += [GATensor(group, 2), mean]
    # The route each candidate takes to ``invertible``: the left hexagon
    # (fact (a) of ``verify_qt``), or the fallback that tests R (S x I)(R).
    routes = ["fallback"] * 6
    for members in catalog.dedup:
        r = catalog.structures[members[0]].rmatrix
        candidates += [r, *_perturbed(r)]
        routes += ["hexagon", "fallback", "hexagon", "fallback"]  # R, 2R, R21, R + g x e
    if name == "S3":
        candidates.append(_s3_hexagon_not_invariant())
        routes.append("hexagon")
    first = catalog.structures[catalog.dedup[0][0]].rmatrix
    moved = _right_slices_sum_to_one(first)
    assert moved.counit(2).is_unit() and not LegProducts(moved).right_partition
    candidates.append(moved)
    routes.append("fallback")
    if name == "Z3":
        candidates.append(_z3_slices_not_fixed_by_the_antipodes())
        routes.append("hexagon")
    failing, taken = set(), []
    for candidate in candidates:
        tested = len(sides)
        report = verify_qt(candidate)
        taken.append("fallback" if len(sides) > tested else "hexagon")
        assert _report_rows(report) == _report_rows(_reference_verify_qt(candidate))
        failing.update(c.name for c in report.failed())
        if taken[-1] == "hexagon":  # (S x I)(R) is R's two-sided inverse, as (a) says
            guess = candidate.antipode(1)
            assert (candidate * guess).is_unit() and (guess * candidate).is_unit()
    assert taken == routes
    if name == "Z3":
        report = verify_qt(candidates[-1])
        assert report["invertible"].passed and report["antipode_left"].passed
        failed = [c.name for c in report.failed()]
        assert {"counit_right", "antipode_right", "antipode_both"} <= set(failed)
    assert {"coproduct_on_right_leg", "coproduct_on_left_leg", "invertible"} <= failing
    assert all(LegProducts(c).left_hexagon for c in candidates[4:6])
    # k[G]^3 is commutative for abelian G, so there every tensor solves Yang-Baxter.
    assert ("yang_baxter" in failing) != group.is_abelian()
    # No candidate that fails the left hexagon has (S x I)(R) as its inverse.
    assert set(sides) == {(False, False)}


def test_left_hexagon_without_invariance_leaves_yang_baxter_literal():
    # Fact (a) holds, so ``invertible`` and the antipode checks pass with
    # R^-1 = (S x I)(R); fact (b) needs invariance, which fails at x = 1,
    # so both Yang-Baxter sides are formed and compared.
    r = _s3_hexagon_not_invariant()
    assert LegProducts(r).left_hexagon and r.counit(1).is_unit()
    report = verify_qt(r)
    assert [c.name for c in report.failed()] == ["commutes_with_diagonals", "yang_baxter"]
    assert report["commutes_with_diagonals"].witness["element"] == 1
    assert report["yang_baxter"].witness == {"tuple": [0, 3, 0], "left": "-1/4", "right": "0"}
    assert _report_rows(report) == _report_rows(_reference_verify_qt(r))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_leg_products_are_the_literal_products(name):
    # R13 R12 and R12 R13 agree on every R-matrix of a cocommutative algebra,
    # so only tensors that are not R-matrices tell the factor order apart.
    catalog = qt_catalog(name)
    group = catalog.data[0].group
    rng = random.Random(f"leg_products/{name}")
    candidates = [_sparse_tensor(rng, group) for _ in range(4)]
    candidates.append(catalog.structures[catalog.dedup[-1][0]].rmatrix)
    for r in candidates:
        r12, r13, r23 = (r.embed_legs(legs, 3) for legs in ((1, 2), (1, 3), (2, 3)))
        products = LegProducts(r)
        formed = (products.r12, products.r13, products.r23, products.r13r12, products.r13r23)
        assert formed == (r12, r13, r23, r13 * r12, r13 * r23)
        assert products.yang_baxter_sides == (r12 * r13 * r23, r23 * r13 * r12)


# -- both hexagons from R's slices, against the literal products ------------


def _literal_hexagon_verify_qt(candidate):
    """``verify_qt`` with both hexagons compared with R13 R23 and R13 R12 formed as products.

    Facts (a) and (b) of ``verify_qt`` are read off the literal left
    hexagon, and every other check is as in ``verify_qt``.
    """
    r12, r13, r23 = (candidate.embed_legs(legs, 3) for legs in ((1, 2), (1, 3), (2, 3)))
    r13r23, r13r12 = r13 * r23, r13 * r12
    left = candidate.coproduct(1) == r13r23
    report = VerificationReport()
    guess = candidate.antipode(1)
    if left and candidate.counit(1).is_unit():
        inverse = guess
    else:
        try:
            inverse = guess if (candidate * guess).is_unit() else candidate.inverse()
        except ValueError:
            report.add("invertible", False, {"reason": "no two-sided inverse exists"})
            return report
    report.add("invertible", True)
    group = candidate.group
    invariant = report.add_commutation("commutes_with_diagonals", candidate)
    report.add_equality("coproduct_on_right_leg", candidate.coproduct(2), r13r12)
    report.add_equality("coproduct_on_left_leg", candidate.coproduct(1), r13r23)
    if invariant and left:
        report.add("yang_baxter", True)
    else:
        report.add_equality("yang_baxter", r12 * r13r23, r23 * r13r12)
    report.add_equality("counit_left", candidate.counit(1), GATensor.unit(group, 1))
    report.add_equality("counit_right", candidate.counit(2), GATensor.unit(group, 1))
    report.add_equality("antipode_left", guess, inverse)
    report.add_equality("antipode_right", candidate.antipode(2), inverse)
    report.add_equality("antipode_both", guess.antipode(2), candidate)
    return report


def _hexagon_oracle_candidates():
    """Every distinct catalog R, 2R and R with one coefficient changed; the
    first R of each group with 1/2 e x e moved to x x e, x the last element;
    the S3 tensor that fails invariance; e x e + g x e and g x g on Z2; and all
    625 arity-2 tensors on Z2 with coefficients in {0, +-1/2, +-1}."""
    candidates = []
    for name in CATALOG_NAMES:
        catalog = qt_catalog(name)
        for members in catalog.dedup:
            r = catalog.structures[members[0]].rmatrix
            moved = GATensor(r.group, 2, {min(r.rows): Fraction(1, 2)})
            candidates += [r, r.scale(2), r + moved]
        # Moving 1/2 e x e to x x e keeps (eps x I)(R) = 1 but not the left
        # slices: the first structure of each group fails the left hexagon
        # on its slices, which sum to 1 but are not all idempotent.
        group = catalog.group
        e, x = group.identity, group.size - 1
        shifted = GATensor(group, 2, {(x, e): Fraction(1, 2), (e, e): Fraction(-1, 2)})
        candidates.append(catalog.structures[catalog.dedup[0][0]].rmatrix + shifted)
    z2 = bundled_group("Z2")
    candidates += [_s3_hexagon_not_invariant(), GATensor(z2, 2, {(0, 0): 1, (1, 0): 1})]
    candidates.append(GATensor.basis(z2, 1, 1))
    keys, values = [(0, 0), (0, 1), (1, 0), (1, 1)], [0, Fraction(1, 2), Fraction(-1, 2), 1, -1]
    for coefficients in itertools.product(values, repeat=4):
        candidates.append(GATensor(z2, 2, dict(zip(keys, coefficients))))
    return candidates


def test_hexagons_from_slices_match_the_literal_products():
    # Fact (c) of ``verify_qt``: where a counit is the unit, each hexagon is
    # read off R's slices on that leg; elsewhere it is compared literally.  Either
    # way it equals the comparison with R13 R23 (or R13 R12) formed as a
    # product, and ``verify_qt`` gives the literal verifier's check names,
    # outcomes and witnesses.
    candidates = _hexagon_oracle_candidates()
    assert len(candidates) == 3 * 44 + 7 + 3 + 625
    routes = Counter()
    for r in candidates:
        legs = LegProducts(r)
        r13 = r.embed_legs((1, 3), 3)
        literal = (
            r.coproduct(1) == r13 * r.embed_legs((2, 3), 3),
            r.coproduct(2) == r13 * r.embed_legs((1, 2), 3),
        )
        assert (legs.left_hexagon, legs.right_hexagon) == literal
        assert _report_rows(verify_qt(r)) == _report_rows(_literal_hexagon_verify_qt(r))
        for leg, holds in zip((1, 2), literal):
            routes[leg, "slices" if r.counit(leg).is_unit() else "literal", holds] += 1
    # Both routes are taken, and each accepts and rejects.
    assert routes == {
        (1, "slices", True): 49, (1, "slices", False): 18,
        (1, "literal", True): 5, (1, "literal", False): 695,
        (2, "slices", True): 49, (2, "slices", False): 11,
        (2, "literal", True): 9, (2, "literal", False): 698,
    }


def test_verify_qt_forms_no_product_on_a_catalog_structure(monkeypatch):
    # Fact (c) decides both coproduct checks, and (a) and (b) the inverse
    # and Yang-Baxter, so no GATensor product is formed on any of the 44
    # distinct structures (two each when R13 R23 and R13 R12 were formed).
    # Facts (d) and (e) decide the counits and antipodes on R's rows: no
    # counit tensor, no (I x S)(R) and no (S x S)(R); (S x I)(R) is R's
    # inverse and is still formed.
    rmats = []
    for name in CATALOG_NAMES:
        catalog = qt_catalog(name)
        rmats += [catalog.structures[members[0]].rmatrix for members in catalog.dedup]
    assert len(rmats) == 44

    def no_product(*args):
        raise AssertionError("a GATensor product was formed")

    def no_counit(*args):
        raise AssertionError("a counit tensor was formed")

    antipode = GATensor.antipode

    def left_antipode_only(self, leg):
        assert leg == 1, "an antipode on leg 2 was formed"
        return antipode(self, leg)

    monkeypatch.setattr(GATensor, "__mul__", no_product)
    monkeypatch.setattr(GATensor, "counit", no_counit)
    monkeypatch.setattr(GATensor, "antipode", left_antipode_only)
    assert all(verify_qt(r).all_passed for r in rmats)


# -- inverses from the antipode, with the linear solve as the fallback -------


def test_every_catalog_structure_is_verified_without_the_solve(monkeypatch):
    # R^-1 = (S x I)(R), u^-1 = S(mu(R)) and (R21 R)^-1 = (S x I)(R) (I x S)(R21)
    # hold for every R-matrix, so no catalog structure reaches the solve.
    def no_solve(self):
        raise AssertionError("GATensor.inverse reached on an R-matrix")

    monkeypatch.setattr(GATensor, "inverse", no_solve)
    for name in CATALOG_NAMES:
        catalog = qt_catalog(name)
        for members in catalog.dedup:
            r = catalog.structures[members[0]].rmatrix
            assert verify_qt(r).all_passed
            assert verify_markov(r).all_passed


def _reference_verify_markov(candidate):
    """``verify_markov`` with u^-1 and (R21 R)^-1 both from the linear solve."""
    report = VerificationReport()
    u = markov_element(candidate)
    report.add_equality("conventions_agree", u, markov_element_flipped(candidate))
    if not u.is_invertible():
        report.add("invertible", False, {"reason": "markov element is not invertible"})
        return report
    report.add("invertible", True)
    r21r = candidate.swap() * candidate
    report.add_equality("coproduct_identity", u.coproduct(1), r21r.inverse() * (u @ u))
    group = candidate.group
    _add_product_commutation(report, "central", u)
    if r21r.is_unit():
        report.add("grouplike_when_unitary", u.is_grouplike())
        report.add_equality("involution_when_unitary", u * u, GATensor.unit(group, 1))
    return report


def _markov_rows(verify, candidate):
    # A non-invertible R21 R raises from both versions alike.
    try:
        return _report_rows(verify(candidate))
    except ValueError as exc:
        return ("raises", str(exc))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_verify_markov_matches_reference(name, monkeypatch):
    sides = _record_one_sided_inverses(monkeypatch)
    catalog = qt_catalog(name)
    group = catalog.data[0].group
    rng = random.Random(f"verify_markov/{name}")
    candidates = [_sparse_tensor(rng, group) for _ in range(4)]
    candidates += [_twisted_unitary(group, a, group.size - 1 - a) for a in range(2)]
    for members in catalog.dedup:
        r = catalog.structures[members[0]].rmatrix
        candidates += [r, *_perturbed(r)]
    solve = GATensor.inverse
    solves = []

    def counting_solve(self):
        solves.append(self)
        return solve(self)

    for candidate in candidates:
        expected = _markov_rows(_reference_verify_markov, candidate)
        monkeypatch.setattr(GATensor, "inverse", counting_solve)
        assert _markov_rows(verify_markov, candidate) == expected
        monkeypatch.setattr(GATensor, "inverse", solve)
    assert solves, "no candidate took the fallback"
    assert set(sides) == {(True, True), (False, False)}
