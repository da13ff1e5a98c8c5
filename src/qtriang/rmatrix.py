"""Construction and exact verification of R-matrices on group algebras.

A classification datum is a finite abelian group A, a pair of normal
inclusions of A into G inducing the same conjugation maps on A, and a
nondegenerate conjugation-invariant bimultiplicative form on the character
group of A.  ``build_r`` evaluates the associated element of k[G]^2 by the
character quadruple sum, ``verify_qt`` checks every quasitriangularity
identity bit-exactly, and the remaining operations extract the Markov
element, the minimal supports with their dual pairing map, and the twist
into the sign-braided category of Z/2-graded spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cyclotomic import CycScalar, root_power_table
from .groups import (
    AbelianGroup,
    BiForm,
    FiniteGroup,
    Inclusion,
    enumerate_biforms,
    same_module_structure,
)
from .hopf import GATensor, first_difference


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: dict | None = None


class VerificationReport:
    """Named identity checks with an explicit witness for each failure."""

    def __init__(self, checks=()):
        self.checks = list(checks)

    def add(self, name: str, passed: bool, witness: dict | None = None):
        self.checks.append(CheckResult(name, bool(passed), witness))

    def add_equality(self, name: str, left: GATensor, right: GATensor, **extra):
        diff = first_difference(left, right)
        if diff is None:
            self.add(name, True)
        else:
            key, a, b = diff
            witness = {"tuple": list(key), "left": str(a), "right": str(b)}
            witness.update(extra)
            self.add(name, False, witness)

    def add_commutation(self, name: str, x: GATensor, basis):
        """Whether x commutes with basis(g) for every g, witnessing the first g that fails."""
        for g in x.group.elements():
            b = basis(g)
            diff = first_difference(x * b, b * x)
            if diff is not None:
                key, left, right = diff
                self.add(
                    name,
                    False,
                    {"element": g, "tuple": list(key), "left": str(left), "right": str(right)},
                )
                return
        self.add(name, True)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __repr__(self):
        bad = self.failed()
        if not bad:
            return f"VerificationReport({len(self.checks)} checks, all passed)"
        return f"VerificationReport(failed: {', '.join(c.name for c in bad)})"


class DatumError(ValueError):
    """A classification datum violates one of its invariants."""


class QTDatum:
    """Classification datum (G, A, i, j, beta) for an R-matrix on k[G].

    Every invariant is validated once, at construction, so a QTDatum that
    exists is valid; ``validate`` raises DatumError on the first violation.
    """

    __slots__ = ("group", "domain", "incl_left", "incl_right", "beta")

    def __init__(
        self,
        group: FiniteGroup,
        domain: AbelianGroup,
        incl_left: Inclusion,
        incl_right: Inclusion,
        beta: BiForm,
    ):
        self.group = group
        self.domain = domain
        self.incl_left = incl_left
        self.incl_right = incl_right
        self.beta = beta
        self.validate()

    def validate(self):
        if self.incl_left.group != self.group or self.incl_right.group != self.group:
            raise DatumError("inclusions do not land in the datum's group")
        if self.incl_left.domain != self.domain or self.incl_right.domain != self.domain:
            raise DatumError("inclusions do not start from the datum's abelian group")
        if self.beta.parent != self.domain:
            raise DatumError("form lives on the wrong character group")
        if not self.incl_left.is_normal():
            raise DatumError("left inclusion image is not normal")
        if not self.incl_right.is_normal():
            raise DatumError("right inclusion image is not normal")
        if not same_module_structure(self.incl_left, self.incl_right):
            raise DatumError("inclusions induce different conjugation maps on the domain")
        if not self.beta.is_nondegenerate():
            raise DatumError("form is degenerate")
        if not self.beta.is_invariant(self.incl_left.conjugation_automorphisms()):
            raise DatumError("form is not conjugation-invariant")

    @property
    def triangular(self) -> bool:
        return self.incl_left == self.incl_right and self.beta.is_skewsymmetric()

    def __eq__(self, other):
        if not isinstance(other, QTDatum):
            return NotImplemented
        return (
            self.group == other.group
            and self.domain == other.domain
            and self.incl_left == other.incl_left
            and self.incl_right == other.incl_right
            and self.beta == other.beta
        )

    def __hash__(self):
        return hash((self.group.table, self.domain.factors,
                     self.incl_left.gen_images, self.incl_right.gen_images,
                     self.beta.matrix))

    def __repr__(self):
        return (
            f"QTDatum({self.group.name}, A={self.domain.factors}, "
            f"i={self.incl_left.gen_images}, j={self.incl_right.gen_images}, "
            f"beta={self.beta.matrix})"
        )


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
    chars = domain.characters()
    char_exps = {chi.exps: chi for chi in chars}
    norm = Fraction(1, domain.order**2)
    terms = {}
    elements = list(domain.elements())
    chi_at = {
        chi.exps: {a: chi.exponent_at(a) for a in elements} for chi in chars
    }
    form_exp = {
        (chi.exps, xi.exps): form.exponent_of(chi, xi) for chi in chars for xi in chars
    }
    for a in elements:
        for b in elements:
            histogram = [0] * e
            for chi in chars:
                ca = chi_at[chi.exps][a]
                for xi in chars:
                    k = (form_exp[(chi.exps, xi.exps)] + ca + chi_at[xi.exps][b]) % e
                    histogram[k] += 1
            coeffs = [Fraction(0)] * len(powers[0])
            for k, count in enumerate(histogram):
                if count:
                    for idx, c in enumerate(powers[k]):
                        coeffs[idx] += count * c
            scalar = CycScalar(e, [c * norm for c in coeffs])
            if scalar:
                terms[(incl_left.apply(a), incl_right.apply(b))] = scalar
    return GATensor(group, 2, terms)


def build_r(datum: QTDatum) -> GATensor:
    """The R-matrix attached to a classification datum.

    The datum was validated when it was constructed, so this only builds.
    """
    return _character_double_sum(
        datum.domain, datum.incl_left, datum.incl_right, datum.beta
    )


def verify_qt(candidate: GATensor) -> VerificationReport:
    """Exact check of every quasitriangularity identity for an arity-2 tensor.

    Covers invertibility, commutation with all diagonals g x g, both
    coproduct expansion identities, the quantum Yang-Baxter equation, the
    counit normalizations and the antipode identities.  If the tensor is
    not invertible the remaining checks are skipped.
    """
    if candidate.arity != 2:
        raise ValueError("R-matrices live in arity 2")
    report = VerificationReport()
    try:
        inverse = candidate.inverse()
    except ValueError:
        report.add("invertible", False, {"reason": "no two-sided inverse exists"})
        return report
    report.add("invertible", True)

    group = candidate.group
    report.add_commutation(
        "commutes_with_diagonals", candidate, lambda g: GATensor.basis(group, g, g)
    )

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


def verify_unitary(candidate: GATensor) -> bool:
    """R times its leg swap equals the unit of k[G]^2."""
    return (candidate * candidate.swap()).is_unit()


def _multiply_out(tensor: GATensor) -> GATensor:
    # mu: arity 2 -> arity 1, (g, h) -> g*h.
    table = tensor.group.table
    return GATensor(
        tensor.group,
        1,
        [((table[g][h],), c) for (g, h), c in tensor.terms.items()],
    )


def markov_element(candidate: GATensor) -> GATensor:
    """mu (S x I) applied to R."""
    return _multiply_out(candidate.antipode(1))


def markov_element_flipped(candidate: GATensor) -> GATensor:
    """mu (S x I) applied to the leg swap of R (the dual convention)."""
    return _multiply_out(candidate.swap().antipode(1))


def verify_markov(candidate: GATensor) -> VerificationReport:
    """Validate the structural properties of the Markov element of R."""
    report = VerificationReport()
    u = markov_element(candidate)
    report.add_equality("conventions_agree", u, markov_element_flipped(candidate))
    try:
        u_inv = u.inverse()
        report.add("invertible", True)
    except ValueError:
        report.add("invertible", False, {"reason": "markov element is not invertible"})
        return report
    r21r = candidate.swap() * candidate
    report.add_equality(
        "coproduct_identity", u.coproduct(1), r21r.inverse() * (u @ u)
    )
    group = candidate.group
    report.add_commutation("central", u, lambda g: GATensor.basis(group, g))
    if verify_unitary(candidate):
        report.add("grouplike_when_unitary", u.is_grouplike())
        report.add_equality("involution_when_unitary", u * u, GATensor.unit(group, 1))
    return report


def verify_markov_equation(datum: QTDatum, u: GATensor) -> bool:
    """chi(u) = beta(chi, chi) for every character, with u unique among grouplikes."""
    if not datum.triangular:
        raise DatumError("the Markov equation applies to triangular data")
    if not u.is_grouplike():
        raise ValueError("u is not a group element")
    idx = u.grouplike_index()
    if idx not in datum.incl_left.image:
        raise ValueError("u lies outside the image of the inclusion")
    incl = datum.incl_left
    chars = datum.domain.characters()

    def satisfies(a) -> bool:
        return all(
            chi.exponent_at(a) == datum.beta.exponent_of(chi, chi) for chi in chars
        )

    if not satisfies(incl.preimage(idx)):
        return False
    matches = [a for a in datum.domain.elements() if satisfies(a)]
    return matches == [incl.preimage(idx)]


def _element_vector(tensor: GATensor) -> list[CycScalar]:
    zero = CycScalar.zero()
    vec = [zero] * tensor.group.size
    for (g,), c in tensor.terms.items():
        vec[g] = c
    return vec


def _vector_tensor(group: FiniteGroup, vec) -> GATensor:
    return GATensor(group, 1, {(g,): c for g, c in enumerate(vec) if c})


def span_of_elements(group: FiniteGroup, elements) -> list[list[CycScalar]]:
    """Canonical basis of the span of a set of group elements inside k[G]."""
    rows = [_element_vector(GATensor.basis(group, g)) for g in sorted(elements)]
    return linalg.row_basis(rows)


@dataclass
class SupportReport:
    """Left/right minimal supports of an R-matrix with their closure checks."""

    left_basis: list[GATensor]
    right_basis: list[GATensor]
    checks: dict[str, bool]

    @property
    def left_dim(self) -> int:
        return len(self.left_basis)

    @property
    def right_dim(self) -> int:
        return len(self.right_basis)

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())


def _hopf_closure_checks(group: FiniteGroup, basis_rows, side: str, checks: dict):
    basis_tensors = [_vector_tensor(group, row) for row in basis_rows]
    ok_mul = all(
        linalg.in_row_span(basis_rows, _element_vector(x * y))
        for x in basis_tensors
        for y in basis_tensors
    )
    checks[f"{side}_closed_under_product"] = ok_mul and linalg.in_row_span(
        basis_rows, _element_vector(GATensor.unit(group, 1))
    )
    pair_rows = []
    for x in basis_tensors:
        for y in basis_tensors:
            outer = x @ y
            vec = [CycScalar.zero()] * (group.size**2)
            for (g, h), c in outer.terms.items():
                vec[g * group.size + h] = c
            pair_rows.append(vec)
    ok_cop = True
    for x in basis_tensors:
        vec = [CycScalar.zero()] * (group.size**2)
        for (g, h), c in x.coproduct(1).terms.items():
            vec[g * group.size + h] = c
        if not linalg.in_row_span(pair_rows, vec):
            ok_cop = False
            break
    checks[f"{side}_closed_under_coproduct"] = ok_cop
    checks[f"{side}_closed_under_antipode"] = all(
        linalg.in_row_span(basis_rows, _element_vector(x.antipode(1)))
        for x in basis_tensors
    )
    checks[f"{side}_conjugation_invariant"] = all(
        linalg.in_row_span(basis_rows, _element_vector(x.adjoint_action(g, 1)))
        for x in basis_tensors
        for g in group.elements()
    )


def minimal_support(candidate: GATensor, datum: QTDatum | None = None) -> SupportReport:
    """Spans of the two partial evaluations of R, with Hopf-closure checks.

    The left support collects (I x l)(R) over coordinate functionals l, the
    right support (l x I)(R).  Both must be Hopf subalgebras invariant under
    conjugation; when the datum is supplied the spans are also compared with
    the spans of the two inclusion images, and for unitary R the two supports
    must coincide.
    """
    group = candidate.group
    zero = CycScalar.zero()
    n = group.size
    left_rows, right_rows = [], []
    for h in group.elements():
        left = [zero] * n
        right = [zero] * n
        for (g1, g2), c in candidate.terms.items():
            if g2 == h:
                left[g1] = left[g1] + c
            if g1 == h:
                right[g2] = right[g2] + c
        left_rows.append(left)
        right_rows.append(right)
    left_basis = linalg.row_basis(left_rows)
    right_basis = linalg.row_basis(right_rows)
    checks: dict[str, bool] = {}
    _hopf_closure_checks(group, left_basis, "left", checks)
    _hopf_closure_checks(group, right_basis, "right", checks)
    if datum is not None:
        checks["left_equals_left_inclusion_span"] = linalg.row_space_equal(
            left_basis, span_of_elements(group, datum.incl_left.image)
        )
        checks["right_equals_right_inclusion_span"] = linalg.row_space_equal(
            right_basis, span_of_elements(group, datum.incl_right.image)
        )
    if verify_unitary(candidate):
        checks["supports_coincide_when_unitary"] = linalg.row_space_equal(
            left_basis, right_basis
        )
    return SupportReport(
        left_basis=[_vector_tensor(group, row) for row in left_basis],
        right_basis=[_vector_tensor(group, row) for row in right_basis],
        checks=checks,
    )


@dataclass
class AlphaMap:
    """The pairing map from functionals on the right support to the left support.

    ``matrix[h][g]`` is the coefficient of group element h in the image of
    the coordinate functional at g, i.e. exactly the coefficient matrix of R.
    """

    matrix: list[list[CycScalar]]
    rank: int
    checks: dict[str, bool]

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())


def alpha_map(candidate: GATensor) -> AlphaMap:
    """Matrix of the functional-pairing map with its structural checks.

    Validates that the map reverses products on the coordinate functional
    basis, respects coproducts, and is a bijection onto the left support;
    for unitary R the dual map must agree with the antipode composite.
    """
    group = candidate.group
    n = group.size
    zero = CycScalar.zero()
    matrix = [[zero] * n for _ in range(n)]
    for (g, h), c in candidate.terms.items():
        matrix[g][h] = c
    columns = [
        GATensor(group, 1, {(h,): matrix[h][g] for h in range(n) if matrix[h][g]})
        for g in range(n)
    ]
    checks: dict[str, bool] = {}
    # Coordinate functionals multiply pointwise: delta_g * delta_h vanishes
    # unless g = h, so the product reversal collapses to these relations.
    ok = True
    for g in range(n):
        for h in range(n):
            expected = columns[g] if g == h else GATensor(group, 1)
            if columns[h] * columns[g] != expected:
                ok = False
                break
        if not ok:
            break
    checks["reverses_products"] = ok
    ok = True
    for g in range(n):
        lhs = columns[g].coproduct(1)
        rhs = GATensor(group, 2)
        for a in range(n):
            for b in range(n):
                if group.table[a][b] == g:
                    rhs = rhs + (columns[a] @ columns[b])
        if lhs != rhs:
            ok = False
            break
    checks["respects_coproducts"] = ok
    left_rows = [[matrix[h][g] for h in range(n)] for g in range(n)]
    map_rank = linalg.rank(left_rows)
    checks["bijective_onto_left_support"] = map_rank == len(linalg.row_basis(left_rows))
    if verify_unitary(candidate):
        checks["dual_equals_antipode_composite"] = all(
            matrix[g][h] == matrix[group.inverses[h]][g]
            for g in range(n)
            for h in range(n)
        )
    return AlphaMap(matrix=matrix, rank=map_rank, checks=checks)


@dataclass
class KoszulTwist:
    """Twist datum carrying F, the solved cocycle form, and its checks."""

    twist: GATensor
    gamma: BiForm
    beta_u: BiForm
    base: GATensor
    report: VerificationReport

    @property
    def all_passed(self) -> bool:
        return self.report.all_passed


def _koszul_base(group: FiniteGroup, u_idx: int) -> GATensor:
    if u_idx == group.identity:
        return GATensor.unit(group, 2)
    half = Fraction(1, 2)
    e = group.identity
    return GATensor(
        group,
        2,
        {(e, e): half, (e, u_idx): half, (u_idx, e): half, (u_idx, u_idx): -half},
    )


def _twist_report(
    datum: QTDatum, r: GATensor, base: GATensor, u_idx: int, twist: GATensor
) -> VerificationReport:
    group = datum.group
    report = VerificationReport()
    report.add_equality("exchanges_braidings", r * twist.swap(), base * twist)
    uu = GATensor.basis(group, u_idx, u_idx)
    report.add_equality("commutes_with_markov_pair", uu * twist, twist * uu)
    lhs = twist.embed_legs((2, 3), 3) * twist.coproduct(2)
    rhs = twist.embed_legs((1, 2), 3) * twist.coproduct(1)
    report.add_equality("cocycle_identity", lhs, rhs)
    return report


def koszul_twist(datum: QTDatum) -> KoszulTwist:
    """Twist from a triangular datum into the sign-braided Z/2-graded category.

    Builds the comparison form beta_u through restriction to the subgroup
    generated by the Markov element, splits the ratio beta / beta_u by the
    upper-triangular rule into a bimultiplicative gamma, and assembles
    F = (1/|A|^2) sum gamma(chi, xi) chi(a) xi(b) (a x b).  All three twist
    conditions are verified exactly; if the direct construction fails, an
    exhaustive search over bimultiplicative forms runs before giving up.
    """
    if not datum.triangular:
        raise DatumError("the twist construction applies to triangular data")
    r = build_r(datum)
    u = markov_element(r)
    u_idx = u.grouplike_index()
    incl = datum.incl_left
    domain = datum.domain
    u_in_a = incl.preimage(u_idx)
    gens = domain.dual_generators()
    # beta_u(chi, xi) = -1 exactly when both characters are nontrivial on u.
    odd = [chi.exponent_at(u_in_a) != 0 for chi in gens]
    beta_u_matrix = []
    for i in range(domain.rank):
        row = []
        for j in range(domain.rank):
            g = math.gcd(domain.factors[i], domain.factors[j])
            row.append((g // 2) if (odd[i] and odd[j]) else 0)
        beta_u_matrix.append(tuple(row))
    beta_u = BiForm(domain, beta_u_matrix)
    delta = BiForm(
        domain,
        [
            [
                (datum.beta.matrix[i][j] - beta_u.matrix[i][j])
                for j in range(domain.rank)
            ]
            for i in range(domain.rank)
        ],
    )
    gamma = BiForm(
        domain,
        [
            [delta.matrix[i][j] if i < j else 0 for j in range(domain.rank)]
            for i in range(domain.rank)
        ],
    )
    base = _koszul_base(datum.group, u_idx)
    twist = _character_double_sum(domain, incl, incl, gamma)
    report = _twist_report(datum, r, base, u_idx, twist)
    if report.all_passed:
        return KoszulTwist(twist=twist, gamma=gamma, beta_u=beta_u, base=base, report=report)
    # Fallback: exhaust bimultiplicative forms whose skew ratio matches delta.
    e = domain.exponent
    for candidate_gamma in enumerate_biforms(domain):
        ok = all(
            (candidate_gamma.exponent_of(a, b) - candidate_gamma.exponent_of(b, a)) % e
            == delta.exponent_of(a, b)
            for a in gens
            for b in gens
        )
        if not ok:
            continue
        twist = _character_double_sum(domain, incl, incl, candidate_gamma)
        report = _twist_report(datum, r, base, u_idx, twist)
        if report.all_passed:
            return KoszulTwist(
                twist=twist, gamma=candidate_gamma, beta_u=beta_u, base=base, report=report
            )
    raise ValueError("no bimultiplicative twist satisfies the three conditions")
