from fractions import Fraction

import pytest

from qtriang.groups import (
    AbelianGroup,
    BiForm,
    bundled_group,
    enumerate_biforms,
    normal_inclusions,
    subgroup_structure,
)
from qtriang.hopf import GATensor
from qtriang.rmatrix import (
    DatumError,
    QTDatum,
    alpha_map,
    build_r,
    koszul_twist,
    markov_element,
    markov_element_flipped,
    minimal_support,
    span_of_elements,
    verify_markov,
    verify_markov_equation,
    verify_qt,
    verify_unitary,
)
from qtriang import linalg


def z2_datum():
    g = bundled_group("Z2")
    a = AbelianGroup((2,))
    incl = normal_inclusions(a, g)[0]
    beta = enumerate_biforms(a, nondegenerate=True, skewsymmetric=True)[0]
    return QTDatum(g, a, incl, incl, beta)


def s3_datum(form_index=0):
    g = bundled_group("S3")
    a = AbelianGroup((3,))
    incl = normal_inclusions(a, g)[0]
    autos = incl.conjugation_automorphisms()
    forms = enumerate_biforms(a, autos, nondegenerate=True, g_invariant=True)
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
    from qtriang.groups import Inclusion

    s3 = bundled_group("S3")
    a2 = AbelianGroup((2,))
    # order-2 subgroups of S3 are not normal
    assert normal_inclusions(a2, s3) == []
    nonnormal = Inclusion(s3, a2, (2,))
    beta2 = enumerate_biforms(a2, nondegenerate=True)[0]
    with pytest.raises(DatumError):
        QTDatum(s3, a2, nonnormal, nonnormal, beta2)
    # degenerate form rejected
    g = bundled_group("Z2")
    a = AbelianGroup((2,))
    incl = normal_inclusions(a, g)[0]
    with pytest.raises(DatumError):
        QTDatum(g, a, incl, incl, BiForm(a, ((0,),)))


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
    beta = enumerate_biforms(a, nondegenerate=True, skewsymmetric=True)[0]
    datum = QTDatum(g, a, incl, incl, beta)
    u = markov_element(build_r(datum))
    assert u == GATensor.basis(g, 2)
    assert verify_markov_equation(datum, u)
    # uniqueness: no other grouplike satisfies the value equation
    chars = a.characters()
    matches = [
        x
        for x in a.elements()
        if all(chi.exponent_at(x) == beta.exponent_of(chi, chi) for chi in chars)
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
    assert linalg.row_space_equal(rows, span_of_elements(d.group, {0, 3, 4}))


def test_alpha_map_unit_and_koszul():
    g = bundled_group("Z2")
    unit_map = alpha_map(GATensor.unit(g, 2))
    assert unit_map.rank == 1
    r = build_r(z2_datum())
    pairing = alpha_map(r)
    assert pairing.rank == 2
    assert pairing.all_passed
    half = Fraction(1, 2)
    # columns are (1 + u)/2 and (1 - u)/2
    assert pairing.matrix[0][0] == half and pairing.matrix[1][0] == half
    assert pairing.matrix[0][1] == half and pairing.matrix[1][1] == -half


def test_alpha_map_s3():
    pairing = alpha_map(build_r(s3_datum()))
    assert pairing.rank == 3
    assert pairing.all_passed


def test_koszul_twist_z2_is_trivial():
    result = koszul_twist(z2_datum())
    assert result.all_passed
    assert result.twist.is_unit()
    assert result.gamma.matrix == ((0,),)
    assert result.base == build_r(z2_datum())


def test_koszul_twist_rejects_nontriangular():
    with pytest.raises(DatumError):
        koszul_twist(s3_datum())


def _v4_datum(matrix):
    g = bundled_group("Z2xZ2")
    incl = subgroup_structure(g, set(range(4)))
    a = incl.domain
    return QTDatum(g, a, incl, incl, BiForm(a, matrix))


def test_koszul_twist_with_trivial_markov():
    # antidiagonal form: trivial diagonal, so the Markov element is the identity
    datum = _v4_datum(((0, 1), (1, 0)))
    assert datum.triangular
    result = koszul_twist(datum)
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
    result = koszul_twist(datum)
    assert result.all_passed
    assert result.beta_u.matrix == ((1, 1), (1, 1))
    assert not result.base.is_unit()


def test_koszul_twist_d4_klein():
    d4 = bundled_group("D4")
    incl = subgroup_structure(d4, {0, 2, 4, 6})
    a = incl.domain
    autos = incl.conjugation_automorphisms()
    forms = enumerate_biforms(
        a, autos, nondegenerate=True, skewsymmetric=True, g_invariant=True
    )
    assert forms
    for beta in forms:
        datum = QTDatum(d4, a, incl, incl, beta)
        result = koszul_twist(datum)
        assert result.all_passed


def test_cross_inclusion_datum_builds_valid_element():
    # distinct images for the two inclusions still give a verified structure
    g = bundled_group("Z2xZ2")
    a = AbelianGroup((2,))
    incls = normal_inclusions(a, g)
    beta = enumerate_biforms(a, nondegenerate=True)[0]
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
