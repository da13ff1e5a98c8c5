"""Construction and exact verification of R-matrices on group algebras.

A classification datum is a finite abelian group A, a pair of normal
inclusions of A into G inducing the same conjugation maps on A, and a
nondegenerate conjugation-invariant bimultiplicative form on the character
group of A.  ``build_r`` evaluates the associated element of k[G]^2 as
one character sum, (1/|A|) sum over a, chi of chi(a) (i(a) x j(-a_chi)),
where a_chi is the point of A with beta(chi, xi) = xi(a_chi) for every xi.
``verify_qt`` checks every quasitriangularity identity bit-exactly, reading
the three-leg ones from ``LegProducts``, which the pairing-map checks and
the braid relation of ``charring`` share.  Three facts, true for every
arity-2 tensor on the cocommutative k[G] and proved in ``verify_qt``, spare
its five products and a ``Braiding``'s R R21 on an R-matrix, changing no
outcome or witness.  (a) If (Delta x I)(R) = R13 R23 and (eps x I)(R) = 1, (S x I)(R)
is R's inverse.  (b) If (Delta x I)(R) = R13 R23 and R commutes with every
g x g, R solves Yang-Baxter.  (c) If (eps x I)(R) = 1, then
(Delta x I)(R) = R13 R23 = sum a x a' x r_a r_a' exactly when each slice
r_a of R = sum_a a x r_a is idempotent: idempotents summing to 1 are
orthogonal, as left multiplications by them have ranks |G| r_a(1) summing
to |G|; (I x Delta)(R) = R13 R12 mirrors it.  Two more, (d) and (e), read
its passing counit and antipode checks off R's rows.  The remaining operations
extract the Markov element, the minimal supports with their dual pairing
map, and the twist into the sign-braided category of Z/2-graded spaces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cyclotomic import CycScalar, root_power_table, summed
from .groups import (
    AbelianGroup,
    BiForm,
    FiniteGroup,
    Inclusion,
    same_module_structure,
)
from .hopf import GATensor, difference_witness


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
        witness = difference_witness(left, right, **extra)
        self.add(name, witness is None, witness)

    def add_equality_unless(self, name: str, shown: bool, sides):
        """A passing check where ``shown``; else ``add_equality`` of the pair ``sides()`` forms."""
        if shown:
            self.add(name, True)
        else:
            self.add_equality(name, *sides())

    def add_commutation(self, name: str, x: GATensor) -> bool:
        """Whether x commutes with g x ... x g for every g, witnessing the first g that fails.

        The test is ``commutes_with_diagonal``; both products are formed only
        for the first failing g, whose first differing term is the witness.
        The g that commute with x form a subgroup, so the least g that fails
        is one of the group's ``generating_set``: only those are tested.
        Returns whether the check passed.
        """
        for g in x.group.generating_set:
            if not commutes_with_diagonal(x, g):
                b = GATensor.basis(x.group, *(g,) * x.arity)
                self.add(name, False, {"element": g, **difference_witness(x * b, b * x)})
                return False
        self.add(name, True)
        return True

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


def rows_fixed_by(x: GATensor, key_map) -> bool:
    """Whether each key's row is also the row at key_map(key).

    For a permutation of the keys this is x equal to x re-keyed by it, read
    off the rows: key_map sends x's support one to one into itself, so onto it.
    """
    rows = x.rows
    return all(rows.get(key_map(key)) == row for key, row in rows.items())


def commutes_with_diagonal(x: GATensor, g: int) -> bool:
    """x (g x ... x g) == (g x ... x g) x, without forming either product.

    Both sides are equal exactly when conjugating every leg by g fixes x.
    Conjugation permutes the keys, so it suffices that each term's
    conjugate key carries the same coefficient.
    """
    conj = x.group.conj[g]
    return rows_fixed_by(x, lambda key: tuple([conj[h] for h in key]))


class DatumError(ValueError):
    """A classification datum violates one of its invariants."""


class QTDatum:
    """Classification datum (G, A, i, j, beta) for an R-matrix on k[G].

    Every invariant is validated once, at construction, so a QTDatum that
    exists is valid; ``validate`` raises DatumError on the first violation.
    ``_checked`` builds a datum without ``validate``, for a caller that has
    decided every invariant already (``classify``'s enumeration).
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

    @classmethod
    def _checked(cls, group, domain, incl_left, incl_right, beta) -> "QTDatum":
        self = object.__new__(cls)
        self.group, self.domain, self.beta = group, domain, beta
        self.incl_left, self.incl_right = incl_left, incl_right
        return self

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


def character_table(domain: AbelianGroup, form: BiForm) -> list[tuple[tuple, tuple[int, ...]]]:
    """((a, b), coordinates) for each nonzero term a x b of the character sum, in (a, b) order.

    The coordinates are integers over the basis of Q(zeta_e) at the exponent
    e of A; divided by |A| they give the coefficient of i(a) x j(b).
    """
    # The literal sum is (1/|A|^2) sum over a, b, chi, xi of
    # form(chi, xi) chi(a) xi(b) (i(a) x j(b)).  By bimultiplicativity
    # form(chi, -) is xi -> xi(a_chi) for one point a_chi of A, so the sum over
    # xi is |A| at b = -a_chi and 0 elsewhere.  Characters and points share
    # the exponent tuples, and chi(a) is zeta_e^(sum (e/n_k) chi_k a_k).
    e = domain.exponent
    powers = root_power_table(e)
    scales = [e // n for n in domain.factors]
    elements, terms = list(domain.elements()), []
    for chi in elements:
        b = tuple(-x % n for x, n in zip(form.point(chi), domain.factors))
        for a in elements:
            terms.append(((a, b), powers[sum(s * c * x for s, c, x in zip(scales, chi, a)) % e]))
    return sorted(summed(terms).items())


def character_rows(table, incl_left: Inclusion, incl_right: Inclusion) -> dict:
    """{(i(a), j(b)): coordinates} for the ``character_table`` of a form."""
    left, right = incl_left.forward, incl_right.forward
    return {(left[a], right[b]): c for (a, b), c in table}


def _character_sum(
    domain: AbelianGroup, incl_left: Inclusion, incl_right: Inclusion, form: BiForm, rows=None
) -> GATensor:
    if rows is None:
        rows = character_rows(character_table(domain, form), incl_left, incl_right)
    return GATensor._make(incl_left.group, 2, domain.exponent, domain.order, rows)


def build_r(datum: QTDatum, rows: dict | None = None) -> GATensor:
    """The R-matrix attached to a classification datum.

    The datum was validated when it was constructed, so this only builds.
    ``rows``, when given, are the datum's ``character_rows``, not formed again.
    """
    return _character_sum(datum.domain, datum.incl_left, datum.incl_right, datum.beta, rows)


class LegProducts:
    """R12, R13, R23, R13 R12, R13 R23, R's counits and (S x I)(R), each formed once, on first use.

    ``left_hexagon`` and ``right_hexagon``, (Delta x I)(R) = R13 R23 and
    (I x Delta)(R) = R13 R12, hold where R's slices on that leg are idempotents
    summing to 1 (``left_partition``, ``right_partition``), fail where only
    their sum is 1 (fact (c) of ``verify_qt``), and compare the
    ``hexagon_sides`` elsewhere: an R-matrix forms no product.  A partition
    also shows that leg's counit is 1 (fact (d)), so the counit tensors are
    formed only where it fails.  ``left_partition`` is fact (a)'s premise too,
    read by ``Braiding.unitary``; ``yang_baxter_by_hexagon`` reads fact (b).
    ``antipode`` is read by ``verify_qt`` and a ``Braiding``'s u.
    """

    def __init__(self, r: GATensor):
        self.rmatrix = r

    @functools.cached_property
    def r12(self) -> GATensor:
        return self.rmatrix.embed_legs((1, 2), 3)

    @functools.cached_property
    def r13(self) -> GATensor:
        return self.rmatrix.embed_legs((1, 3), 3)

    @functools.cached_property
    def r23(self) -> GATensor:
        return self.rmatrix.embed_legs((2, 3), 3)

    @functools.cached_property
    def r13r12(self) -> GATensor:
        return self.r13 * self.r12

    @functools.cached_property
    def r13r23(self) -> GATensor:
        return self.r13 * self.r23

    left_counit = functools.cached_property(lambda self: self.rmatrix.counit(1))
    right_counit = functools.cached_property(lambda self: self.rmatrix.counit(2))
    left_partition = functools.cached_property(lambda self: self.rmatrix._partition_of_unity(1))
    right_partition = functools.cached_property(lambda self: self.rmatrix._partition_of_unity(2))

    @functools.cached_property
    def antipode(self) -> GATensor:
        """(S x I)(R)."""
        return self.rmatrix.antipode(1)

    def hexagon_sides(self, leg: int) -> tuple[GATensor, GATensor]:
        """R's coproduct on ``leg``, and R13 R23 at leg 1 or R13 R12 at leg 2."""
        return self.rmatrix.coproduct(leg), self.r13r23 if leg == 1 else self.r13r12

    def _hexagon(self, leg: int) -> bool:
        partition = self.left_partition if leg == 1 else self.right_partition
        if partition or (self.left_counit if leg == 1 else self.right_counit).is_unit():  # fact (c)
            return partition
        left, right = self.hexagon_sides(leg)
        return left == right

    left_hexagon = functools.cached_property(lambda self: self._hexagon(1))
    right_hexagon = functools.cached_property(lambda self: self._hexagon(2))

    def yang_baxter_by_hexagon(self, invariant: bool) -> bool:
        """Whether R12 R13 R23 = R23 R13 R12 follows with no product formed.

        It does when R commutes with every g x g (``invariant``) and
        ``left_hexagon`` holds: fact (b) of ``verify_qt``.
        """
        return invariant and self.left_hexagon

    @functools.cached_property
    def yang_baxter_sides(self) -> tuple[GATensor, GATensor]:
        """R12 (R13 R23) and R23 (R13 R12): equal exactly when R solves Yang-Baxter."""
        return self.r12 * self.r13r23, self.r23 * self.r13r12


def _inverse_or_solve(x: GATensor, guess: GATensor) -> GATensor:
    """``guess`` when x * guess is the unit, else the solve ``x.inverse()``.

    A one-sided inverse in the finite-dimensional k[G]^n is two-sided.
    """
    if (x * guess).is_unit():
        return guess
    return x.inverse()


def check_arity(candidate: GATensor):
    """Raise ValueError unless ``candidate`` has arity 2, where R-matrices live."""
    if candidate.arity != 2:
        raise ValueError("R-matrices live in arity 2")


def verify_qt(candidate: GATensor, products: LegProducts | None = None) -> VerificationReport:
    """Exact check of every quasitriangularity identity for an arity-2 tensor.

    Covers invertibility, commutation with all diagonals g x g, both
    coproduct expansion identities, the quantum Yang-Baxter equation, the
    counit normalizations and the antipode identities.  If the tensor is
    not invertible the remaining checks are skipped.  ``products``, when
    given, are the candidate's ``LegProducts``, read and kept there.

    Three facts about every arity-2 tensor on the cocommutative k[G] spare all
    five products on an R-matrix.  (c) If (eps x I)(R) = 1, then
    (Delta x I)(R) = R13 R23 exactly when each left slice r_a = sum_b c_ab b
    of R = sum_a a x r_a is idempotent: R13 R23 = sum a x a' x r_a r_a' has
    a = a' part sum_a a x a x r_a^2, and idempotents of k[G] summing to 1 are
    orthogonal, as left multiplication by r_a has trace |G| r_a(1), its rank,
    the ranks sum to |G| and k[G] = sum_a r_a k[G], so that sum is direct.
    Mirrored, (I x eps)(R) = 1 and idempotent right slices s_b = sum_a c_ab a
    give (I x Delta)(R) = R13 R12.  So R13 R23 and R13 R12 are formed only
    where that counit is not 1, or for a failing coproduct check's witness.
    (a) If (Delta x I)(R) = R13 R23 and (eps x I)(R) = 1, then (S x I)(R)
    is R's inverse: apply (m (S x id)) x id to the hexagon; the left side gives
    1 x (eps x I)(R) = 1 x 1, the right side (S x I)(R) R.  By (c) the premise
    is ``left_partition``, which ``Braiding.unitary`` reads too; where it fails,
    R (S x I)(R) is tested for the unit, and the solve runs.
    (b) If (Delta x I)(R) = R13 R23 and R commutes with every g x g,
    Yang-Baxter holds: X = (Delta x I)(R) = sum c_ab a x a x b commutes with
    R12 and is fixed by the swap of legs 1 and 2, so R13 R23 = X = R23 R13
    and R12 R13 R23 = R12 X = X R12 = R23 R13 R12 (``yang_baxter_by_hexagon``);
    else both sides are formed and compared.
    Two more facts spare the counit and antipode tensors.  (d) (eps x I)(R) =
    sum_a r_a, the sum of R's left slices, so ``left_partition``, whose first
    step is that sum being 1, shows ``counit_left``; ``right_partition``
    likewise shows ``counit_right``.  Where a partition fails, its counit
    tensor is formed and compared with 1.  (e) Where R's inverse is
    (S x I)(R), ``antipode_left`` holds as it stands, and (I x S)(R), with
    c_ab at (a, b^-1), equals (S x I)(R), with c_ab at (a^-1, b), exactly
    when c(a, b) = c(a^-1, b^-1) for every key; (S x S)(R), with c_ab at
    (a^-1, b^-1), equals R under the same condition.  The antipodes permute
    the keys, so one scan of R's rows (``rows_fixed_by``) decides both.
    Where that scan fails, or the inverse came from the solve, all three
    antipode checks are compared literally.  Every other check is literal, and
    a tensor with no inverse forms no product but R (S x I)(R).
    """
    check_arity(candidate)
    products = LegProducts(candidate) if products is None else products
    report = VerificationReport()
    left_antipode = products.antipode
    if products.left_partition:
        inverse = left_antipode
    else:
        try:
            inverse = _inverse_or_solve(candidate, left_antipode)
        except ValueError:
            report.add("invertible", False, {"reason": "no two-sided inverse exists"})
            return report
    report.add("invertible", True)

    group = candidate.group
    invariant = report.add_commutation("commutes_with_diagonals", candidate)
    for leg, holds in ((2, products.right_hexagon), (1, products.left_hexagon)):
        name = f"coproduct_on_{('left', 'right')[leg - 1]}_leg"
        report.add_equality_unless(name, holds, lambda: products.hexagon_sides(leg))
    report.add_equality_unless(
        "yang_baxter", products.yang_baxter_by_hexagon(invariant),
        lambda: products.yang_baxter_sides,
    )
    one = GATensor.unit(group, 1)
    report.add_equality_unless(  # fact (d)
        "counit_left", products.left_partition, lambda: (products.left_counit, one))
    report.add_equality_unless(
        "counit_right", products.right_partition, lambda: (products.right_counit, one))
    inv = group.inverses
    shown = inverse is left_antipode and rows_fixed_by(  # fact (e)
        candidate, lambda key: (inv[key[0]], inv[key[1]]))
    report.add_equality_unless("antipode_left", shown, lambda: (left_antipode, inverse))
    report.add_equality_unless("antipode_right", shown, lambda: (candidate.antipode(2), inverse))
    report.add_equality_unless(
        "antipode_both", shown, lambda: (left_antipode.antipode(2), candidate)
    )
    return report


def verify_unitary(candidate: GATensor) -> bool:
    """R times its leg swap equals the unit of k[G]^2."""
    return (candidate * candidate.swap()).is_unit()


def swap_is_antipode(x: GATensor) -> bool:
    """R21 == (S x I)(R), both R re-keyed one to one: each key (a, b) needs its row at (b^-1, a)."""
    inv = x.group.inverses
    return rows_fixed_by(x, lambda key: (inv[key[1]], key[0]))


def _multiply_out(tensor: GATensor) -> GATensor:
    # mu: arity 2 -> arity 1, (g, h) -> g*h.
    table = tensor.group.table
    return tensor._map_keys(1, lambda key: (table[key[0]][key[1]],))


def markov_element(candidate: GATensor, antipode: GATensor | None = None) -> GATensor:
    """mu (S x I) applied to R; ``antipode``, when given, is (S x I)(R), not formed again."""
    return _multiply_out(candidate.antipode(1) if antipode is None else antipode)


def markov_element_flipped(candidate: GATensor) -> GATensor:
    """mu (S x I) applied to the leg swap of R (the dual convention)."""
    return _multiply_out(candidate.swap().antipode(1))


def verify_markov(candidate: GATensor, u=None, flipped=None) -> VerificationReport:
    """Validate the structural properties of the Markov element of R.

    ``u`` and ``flipped``, when given, are R's ``markov_element`` and
    ``markov_element_flipped``, which are then not formed again.
    S^2 = I and R^-1 = (S x I)(R) give u^-1 = S(mu(R)) and (R21 R)^-1 =
    (S x I)(R) (I x S)(R21), or c^-1 (g^-1 x h^-1) when R21 R is one term
    c (g x h); each is used once the element times it is the unit.
    """
    report = VerificationReport()
    u = markov_element(candidate) if u is None else u
    flipped = markov_element_flipped(candidate) if flipped is None else flipped
    report.add_equality("conventions_agree", u, flipped)
    try:
        _inverse_or_solve(u, _multiply_out(candidate).antipode(1))
    except ValueError:
        report.add("invertible", False, {"reason": "markov element is not invertible"})
        return report
    report.add("invertible", True)
    group = candidate.group
    r21r = candidate.swap() * candidate
    if len(r21r.terms) == 1:
        (key, c), = r21r.terms.items()
        guess = GATensor.basis(group, *(group.inverses[g] for g in key)).scale(c.inverse())
    else:
        guess = candidate.antipode(1) * candidate.swap().antipode(2)
    inverse = _inverse_or_solve(r21r, guess)
    report.add_equality("coproduct_identity", u.coproduct(1), inverse * (u @ u))
    report.add_commutation("central", u)
    # R R21 = 1 exactly when R21 R = 1: a one-sided inverse is two-sided.
    if r21r.is_unit():
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
    domain = datum.domain
    diagonal = [(chi, datum.beta.exponent_of(chi, chi)) for chi in domain.elements()]
    matches = [
        a
        for a in domain.elements()
        if all(domain.pairing(chi, a) == k for chi, k in diagonal)
    ]
    return matches == [datum.incl_left.preimage(idx)]


def _element_vector(tensor: GATensor) -> list[CycScalar]:
    # Coordinates in k[G]^(arity); g x h sits at g * |G| + h.
    n = tensor.group.size
    vec = [CycScalar.zero()] * n**tensor.arity
    for key, c in tensor.terms.items():
        vec[sum(g * n**k for k, g in enumerate(reversed(key)))] = c
    return vec


def _coefficient_matrix(candidate: GATensor) -> list[list[CycScalar]]:
    # Row g, column h: the coefficient of g x h.
    n = candidate.group.size
    matrix = [[CycScalar.zero()] * n for _ in range(n)]
    for (g, h), c in candidate.terms.items():
        matrix[g][h] = c
    return matrix


def span_of_elements(group: FiniteGroup, elements) -> list[list[CycScalar]]:
    """Canonical basis of the span of a set of group elements inside k[G].

    The unit vectors of the sorted elements are already in reduced form.
    """
    return [_element_vector(GATensor.basis(group, g)) for g in sorted(elements)]


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
    """Add the four closure checks of one support; return its basis tensors."""
    basis_tensors = [GATensor(group, 1, {(g,): c for g, c in enumerate(row) if c}) for row in basis_rows]

    def closed(tensors, rows=basis_rows) -> bool:
        return all(linalg.in_row_span(rows, _element_vector(t)) for t in tensors)

    products = (x * y for x in basis_tensors for y in basis_tensors)
    checks[f"{side}_closed_under_product"] = closed(products) and closed(
        [GATensor.unit(group, 1)]
    )
    # Kronecker products of reduced rows are reduced: a basis of the square.
    # A zero factor is the entry itself; only nonzero pairs are multiplied.
    pair_rows = [[a and b and a * b for a in x for b in y] for x in basis_rows for y in basis_rows]
    checks[f"{side}_closed_under_coproduct"] = closed(
        (x.coproduct(1) for x in basis_tensors), pair_rows
    )
    checks[f"{side}_closed_under_antipode"] = closed(x.antipode(1) for x in basis_tensors)
    checks[f"{side}_conjugation_invariant"] = closed(
        x.adjoint_action(g, 1) for x in basis_tensors for g in group.elements()
    )
    return basis_tensors


def minimal_support(
    candidate: GATensor,
    datum: QTDatum | None = None,
    products: LegProducts | None = None,
    unitary: bool | None = None,
) -> SupportReport:
    """Spans of the two partial evaluations of R, with Hopf-closure and pairing checks.

    The left support collects (I x l)(R) over coordinate functionals l, the
    right support (l x I)(R).  Both must be Hopf subalgebras invariant under
    conjugation; when the datum is supplied the spans are also compared with
    the spans of the two inclusion images, and for unitary R the two supports
    must coincide.  Each support is eliminated once into its canonical basis
    (``linalg.row_basis``): the closure checks read membership from its
    pivots, the coproduct check from the pivots of its Kronecker square, and
    subspaces compare equal exactly when their canonical bases do.

    The ``alpha_*`` checks cover the pairing map l -> (I x l)(R) from
    functionals on the right support to the left support: it reverses
    products, respects coproducts, and for unitary R its dual is the
    antipode composite.  As delta_g maps to (I x delta_g)(R), these say
    (I x Delta)(R) = R13 R12, (Delta x I)(R) = R13 R23 and R = (I x S)(R21).
    Row rank equals column rank, so the map is always a bijection onto the
    left support, of rank ``left_dim``.  ``products`` and ``unitary``, when
    given, are R's ``LegProducts`` and ``verify_unitary(R)``, read instead
    of formed again, as ``verify_qt`` reads ``products``.
    """
    group = candidate.group
    matrix = _coefficient_matrix(candidate)
    left_rows = linalg.row_basis([list(col) for col in zip(*matrix)])
    right_rows = linalg.row_basis(matrix)
    checks: dict[str, bool] = {}
    left_basis = _hopf_closure_checks(group, left_rows, "left", checks)
    right_basis = _hopf_closure_checks(group, right_rows, "right", checks)
    if datum is not None:
        checks["left_equals_left_inclusion_span"] = left_rows == span_of_elements(
            group, datum.incl_left.image
        )
        checks["right_equals_right_inclusion_span"] = right_rows == span_of_elements(
            group, datum.incl_right.image
        )
    unitary = verify_unitary(candidate) if unitary is None else unitary
    if unitary:
        checks["supports_coincide_when_unitary"] = left_rows == right_rows
    products = LegProducts(candidate) if products is None else products
    checks["alpha_reverses_products"] = products.right_hexagon
    checks["alpha_respects_coproducts"] = products.left_hexagon
    if unitary:
        checks["alpha_dual_equals_antipode_composite"] = swap_is_antipode(candidate)
    return SupportReport(left_basis=left_basis, right_basis=right_basis, checks=checks)


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
    report.add_equality_unless(
        "commutes_with_markov_pair", commutes_with_diagonal(twist, u_idx),
        lambda: (uu * twist, twist * uu),
    )
    lhs = twist.embed_legs((2, 3), 3) * twist.coproduct(2)
    rhs = twist.embed_legs((1, 2), 3) * twist.coproduct(1)
    report.add_equality("cocycle_identity", lhs, rhs)
    return report


def koszul_twist(datum: QTDatum, r: GATensor, u: GATensor) -> KoszulTwist:
    """Twist from a triangular datum into the sign-braided Z/2-graded category.

    Builds the comparison form beta_u through restriction to the subgroup
    generated by the Markov element, splits the ratio beta / beta_u by the
    upper-triangular rule into a bimultiplicative gamma, and assembles
    F = (1/|A|) sum chi(a) (a x -a_chi) with gamma(chi, xi) = xi(a_chi); gamma
    may be degenerate, so several chi can share a point.  The split is
    exact: beta(chi, chi) = chi(u) = beta_u(chi, chi) for every character, so
    the ratio is alternating.  The caller supplies R = ``build_r(datum)`` and
    u = ``markov_element(r)``.  All three twist conditions are verified
    exactly and reported; a failure shows as failed checks with witnesses.
    """
    if not datum.triangular:
        raise DatumError("the twist construction applies to triangular data")
    u_idx = u.grouplike_index()
    incl = datum.incl_left
    domain = datum.domain
    u_in_a = incl.preimage(u_idx)
    # beta_u(chi, xi) = -1 exactly when both characters are nontrivial on u;
    # dual generator i is nontrivial on u when u's coordinate i is nonzero.
    odd = [x != 0 for x in u_in_a]
    beta_u_matrix = []
    for i in range(domain.rank):
        row = []
        for j in range(domain.rank):
            g = math.gcd(domain.factors[i], domain.factors[j])
            row.append((g // 2) if (odd[i] and odd[j]) else 0)
        beta_u_matrix.append(tuple(row))
    beta_u = BiForm(domain, beta_u_matrix)
    # gamma keeps the strictly upper-triangular part of beta / beta_u.
    gamma = BiForm(
        domain,
        [
            [
                datum.beta.matrix[i][j] - beta_u.matrix[i][j] if i < j else 0
                for j in range(domain.rank)
            ]
            for i in range(domain.rank)
        ],
    )
    base = _koszul_base(datum.group, u_idx)
    twist = _character_sum(domain, incl, incl, gamma)
    report = _twist_report(datum, r, base, u_idx, twist)
    return KoszulTwist(twist=twist, gamma=gamma, beta_u=beta_u, base=base, report=report)
