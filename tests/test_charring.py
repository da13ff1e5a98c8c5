import pytest

from qtriang.cyclotomic import CycScalar, root_of_unity
from qtriang.groups import (
    AbelianGroup,
    bundled_group,
    enumerate_biforms,
    normal_inclusions,
    subgroup_structure,
)
from qtriang.hopf import GATensor
from qtriang.linalg import Matrix
from qtriang.rmatrix import QTDatum, build_r, markov_element
from qtriang.charring import (
    BraidedAction,
    ClassFunction,
    MatrixRep,
    adams_standard,
    adams_twisted,
    cyclic_operation_char,
    exterior_power_char,
    lambda_from_adams,
    linear_characters,
    linear_character_reps,
    qtrace,
    regular_rep,
    sigma_from_lambda,
    verify_lambda_ring,
)


def koszul():
    g = bundled_group("Z2")
    a = AbelianGroup((2,))
    incl = normal_inclusions(a, g)[0]
    beta = enumerate_biforms(a, nondegenerate=True, skewsymmetric=True)[0]
    return build_r(QTDatum(g, a, incl, incl, beta))


def sign_rep():
    return linear_character_reps(bundled_group("Z2"))[1]


def test_regular_rep_characters():
    from qtriang.groups import cyclic_group

    triv = regular_rep(cyclic_group(1, "triv"))
    assert triv.dim == 1
    assert triv.character() == ClassFunction.constant(triv.group, 1)
    z2 = regular_rep(bundled_group("Z2"))
    assert z2.character().values == (CycScalar.rational(2), CycScalar.zero())
    s3 = regular_rep(bundled_group("S3"))
    assert s3.dim == 6
    assert [str(v) for v in s3.character().values] == ["6", "0", "0"]


def test_matrix_rep_validates_homomorphism():
    g = bundled_group("Z2")
    bad = [Matrix.identity(1), Matrix.from_entries(1, 1, [(0, 0, CycScalar.rational(2))])]
    with pytest.raises(ValueError):
        MatrixRep(g, bad)


def test_linear_characters():
    assert len(linear_characters(bundled_group("Z2xZ2"))) == 4
    assert len(linear_characters(bundled_group("S3"))) == 2  # trivial and parity
    assert len(linear_characters(bundled_group("D4"))) == 4
    assert len(linear_characters(bundled_group("Q8"))) == 4
    for chi in linear_characters(bundled_group("Q8")):
        g = chi.group
        for a in g.elements():
            for b in g.elements():
                assert chi.evaluate(g.table[a][b]) == chi.evaluate(a) * chi.evaluate(b)


def test_adams_standard_examples():
    z2 = bundled_group("Z2")
    x = regular_rep(z2).character()
    assert adams_standard(x, 1) == x
    assert adams_standard(x, 2) == ClassFunction.constant(z2, 2)
    s3 = bundled_group("S3")
    y = regular_rep(s3).character()
    assert adams_standard(y, 6) == ClassFunction.constant(s3, 6)
    assert adams_standard(y, 12) == ClassFunction.constant(s3, 6)


def test_adams_twisted_examples():
    z2 = bundled_group("Z2")
    sign = linear_characters(z2)[1]
    # k = 1 is the identity operation because u squares to the identity
    assert adams_twisted(sign, 1, 1) == sign
    # u = identity reduces to the standard operation
    for k in (1, 2, 3, 5):
        assert adams_twisted(sign, 0, k) == adams_standard(sign, k)
    assert adams_twisted(sign, 1, 2) == ClassFunction.constant(z2, -1)


def test_adams_twisted_rejects_bad_u():
    s3 = bundled_group("S3")
    x = regular_rep(s3).character()
    with pytest.raises(ValueError):
        adams_twisted(x, 2, 2)  # a transposition is not central


def test_lambda_base_cases():
    z2 = bundled_group("Z2")
    sign = linear_characters(z2)[1]
    assert lambda_from_adams(sign, 0, 1) == ClassFunction.constant(z2, 1)
    assert lambda_from_adams(sign, 1, 1) == sign


def test_lambda_of_odd_line_against_exterior_oracle():
    # independent oracle: the braided exterior power at n = 2
    sign = linear_characters(bundled_group("Z2"))[1]
    lam2 = lambda_from_adams(sign, 2, 1)
    assert lam2 == exterior_power_char(sign_rep(), koszul(), 2)
    assert lam2 == ClassFunction.constant(bundled_group("Z2"), 1)


def test_geometric_series_oracle_for_sigma():
    # rank-1 classical case: lambda^2 = 0 forces sigma^n = x^n
    z2 = bundled_group("Z2")
    sign = linear_characters(z2)[1]
    assert lambda_from_adams(sign, 2, 0) == ClassFunction.constant(z2, 0)
    power = ClassFunction.constant(z2, 1)
    for n in range(5):
        assert sigma_from_lambda(sign, n, 0) == power
        power = power * sign


def test_sigma_base_case_and_inversion():
    q8 = bundled_group("Q8")
    x = regular_rep(q8).character()
    assert sigma_from_lambda(x, 1, 1) == x
    lams = [lambda_from_adams(x, i, 1) for i in range(7)]
    sigmas = [sigma_from_lambda(x, i, 1) for i in range(7)]
    for n in range(1, 7):
        acc = ClassFunction.constant(q8, 0)
        for i in range(n + 1):
            term = lams[i] * sigmas[n - i]
            acc = acc + term if i % 2 == 0 else acc - term
        assert acc == ClassFunction.constant(q8, 0)


def test_verify_lambda_ring_classical_and_twisted():
    z2 = bundled_group("Z2")
    chars = linear_characters(z2) + [regular_rep(z2).character()]
    for u in (0, 1):
        checks = verify_lambda_ring(u, chars, depth=6)
        assert all(checks.values()), checks


def test_braided_action_trivial_r_gives_plain_swaps():
    z2 = bundled_group("Z2")
    rep = regular_rep(z2)
    action = BraidedAction(rep, GATensor.unit(z2, 2), 2)
    d = rep.dim
    swap = Matrix(
        d * d,
        d * d,
        {a * d + b: {b * d + a: CycScalar.one()} for a in range(d) for b in range(d)},
    )
    assert action.generators[0] == swap


def test_braided_action_on_odd_line():
    action = BraidedAction(sign_rep(), koszul(), 2)
    assert action.generators[0] == Matrix.identity(1).scale(-1)


def test_braided_action_rejects_nonunitary():
    s3 = bundled_group("S3")
    a3 = AbelianGroup((3,))
    incl = normal_inclusions(a3, s3)[0]
    autos = incl.conjugation_automorphisms()
    beta = enumerate_biforms(a3, autos, nondegenerate=True, g_invariant=True)[0]
    r = build_r(QTDatum(s3, a3, incl, incl, beta))
    with pytest.raises(ValueError):
        BraidedAction(regular_rep(s3), r, 2)


def test_braided_action_dimension_cap():
    q8 = bundled_group("Q8")
    with pytest.raises(ValueError):
        BraidedAction(regular_rep(q8), GATensor.unit(q8, 2), 5)


def test_generators_square_to_identity_on_catalog_example():
    d4 = bundled_group("D4")
    incl = subgroup_structure(d4, {0, 2})
    beta = enumerate_biforms(incl.domain, nondegenerate=True, skewsymmetric=True)[0]
    r = build_r(QTDatum(d4, incl.domain, incl, incl, beta))
    action = BraidedAction(regular_rep(d4), r, 3)  # validates on construction
    assert len(action.generators) == 2


def _reference_validate(action):
    """The message of the first failing check, each made on the d^n generators."""
    ident = Matrix.identity(action.rep.dim**action.power)
    gens = action.generators
    if any(s @ s != ident for s in gens):
        return "a braided generator fails to square to the identity"
    if any(a @ b @ a != b @ a @ b for a, b in zip(gens, gens[1:])):
        return "adjacent generators fail the braid relation"
    if any(a @ b != b @ a for i, a in enumerate(gens) for b in gens[i + 2 :]):
        return "distant generators fail to commute"
    for g in action.rep.group.elements():
        diag = action.rep.kron_power(g, action.power)
        if any(s @ diag != diag @ s for s in gens):
            return "the braided action is not equivariant"
    return None


def _with_braid(rep, power, braid):
    # An unvalidated action whose generators are I (x) braid (x) I.
    action = BraidedAction(rep, GATensor.unit(rep.group, 2), power, validate=False)
    d = rep.dim
    action.braid = braid
    action.generators = [
        Matrix.identity(d ** (slot - 1)).kron(braid).kron(Matrix.identity(d ** (power - slot - 1)))
        for slot in range(1, power)
    ]
    return action


def _sign_flip_braid():
    # diag(1, -1) (x) I: an involution that does not commute with the swap rho(1) (x) rho(1).
    one = CycScalar.one()
    return Matrix(2, 2, {0: {0: one}, 1: {1: -one}}).kron(Matrix.identity(2))


@pytest.mark.parametrize(
    "power, make_braid, message",
    [
        (3, lambda action: action.braid, None),
        (3, lambda action: action.braid.scale(2), "square to the identity"),
        (2, lambda action: _sign_flip_braid(), "not equivariant"),
        (3, lambda action: _sign_flip_braid(), "braid relation"),
    ],
    ids=["valid", "scaled", "not-equivariant", "braid-relation"],
)
def test_validate_on_braid_matches_reference_checks(power, make_braid, message):
    rep = regular_rep(bundled_group("Z2"))
    plain = BraidedAction(rep, koszul(), power, validate=False)
    action = _with_braid(rep, power, make_braid(plain))
    expected = _reference_validate(action)
    if message is None:
        assert expected is None
        action.validate()
        return
    assert message in expected
    with pytest.raises(ValueError) as info:
        action.validate()
    assert str(info.value) == expected


def test_exterior_power_base_cases():
    rep = regular_rep(bundled_group("Z4"))
    r = GATensor.unit(bundled_group("Z4"), 2)
    assert exterior_power_char(rep, r, 0) == ClassFunction.constant(rep.group, 1)
    assert exterior_power_char(rep, r, 1) == rep.character()


def test_exterior_power_of_odd_line():
    ext = exterior_power_char(sign_rep(), koszul(), 2)
    assert ext == ClassFunction.constant(bundled_group("Z2"), 1)
    assert ext.dim() == 1


def test_classical_exterior_dimension():
    # with the trivial braiding, Lambda^2 of the regular rep has dim d(d-1)/2
    z4 = bundled_group("Z4")
    rep = regular_rep(z4)
    ext = exterior_power_char(rep, GATensor.unit(z4, 2), 2)
    assert ext.dim() == 6


def test_qtrace_examples():
    r = koszul()
    rep = sign_rep()
    assert qtrace(rep, r, rep.matrix(0)) == -1  # categorical rank of the odd line
    z2 = bundled_group("Z2")
    reg = regular_rep(z2)
    assert qtrace(reg, GATensor.unit(z2, 2), reg.matrix(0)) == 2  # plain trace
    assert qtrace(reg, r, reg.matrix(0)) == 0  # fixed-point-free translation


def test_qtrace_rejects_nonequivariant():
    z2 = bundled_group("Z2")
    reg = regular_rep(z2)
    skew = Matrix.from_entries(2, 2, [(0, 0, CycScalar.one())])
    with pytest.raises(ValueError):
        qtrace(reg, koszul(), skew)


def test_cyclic_operation_symmetric_square_dimension():
    z2 = bundled_group("Z2")
    reg = regular_rep(z2)
    values = cyclic_operation_char(reg, GATensor.unit(z2, 2), 2, CycScalar.one())
    assert values[0] == 3  # d(d+1)/2 with d = 2


def test_cyclic_operation_rejects_bad_root():
    z2 = bundled_group("Z2")
    with pytest.raises(ValueError):
        cyclic_operation_char(
            regular_rep(z2), GATensor.unit(z2, 2), 2, root_of_unity(3)
        )


def test_cyclic_difference_reproduces_twisted_adams():
    r = koszul()
    z2 = bundled_group("Z2")
    u = markov_element(r).grouplike_index()
    for rep in (sign_rep(), regular_rep(z2)):
        char = rep.character()
        for p in (2, 3):
            eps = root_of_unity(p)
            plus = cyclic_operation_char(rep, r, p, CycScalar.one())
            minus = cyclic_operation_char(rep, r, p, eps)
            for z in z2.center():
                uz = z2.table[u][z]
                assert plus[uz] - minus[uz] == adams_twisted(char, u, p).evaluate(z)


def test_cyclic_values_on_odd_line_koszul_split():
    values = cyclic_operation_char(sign_rep(), koszul(), 2, CycScalar.rational(-1))
    assert values == {0: CycScalar.one(), 1: CycScalar.one()}
    plus = cyclic_operation_char(sign_rep(), koszul(), 2, CycScalar.one())
    assert plus == {0: CycScalar.zero(), 1: CycScalar.zero()}


def test_newton_formula_valid_only_at_central_elements_for_klein_support():
    # For structures supported on a noncentral subgroup, the twisted-Adams
    # description of exterior powers is a central-element statement: the
    #  braided exterior square of the regular representation agrees with the
    # Newton value at central elements and on every linear character, but
    # genuinely differs at noncentral classes.  Frozen from the projector
    # trace; one value hand-checked via Tr(c (g x g)) = 8 at g = r.
    d4 = bundled_group("D4")
    reg = regular_rep(d4)
    incl = subgroup_structure(d4, {0, 2, 4, 6})
    beta = enumerate_biforms(
        incl.domain,
        incl.conjugation_automorphisms(),
        nondegenerate=True,
        skewsymmetric=True,
        g_invariant=True,
    )[0]
    assert beta.matrix == ((0, 1), (1, 0))
    r = build_r(QTDatum(d4, incl.domain, incl, incl, beta))
    u = markov_element(r).grouplike_index()
    assert u == d4.identity
    ext = exterior_power_char(reg, r, 2)
    newton = lambda_from_adams(reg.character(), 2, u)
    assert [str(v) for v in ext.values] == ["28", "-4", "-4", "-4", "0"]
    assert [str(v) for v in newton.values] == ["28", "0", "-4", "-4", "-4"]
    for z in d4.center():
        assert ext.evaluate(z) == newton.evaluate(z)
    for rep in linear_character_reps(d4):
        assert exterior_power_char(rep, r, 2) == lambda_from_adams(
            rep.character(), 2, u
        )
