import contextlib
import functools
import io
import itertools
import json
import math
import operator
import random
from collections import Counter
from fractions import Fraction

import long_cycles
import pytest
from long_cycles import compose, operator_traces
from matrix_ops import add, kron, scale, zero
from test_groups import derived_test_groups
from test_rmatrix import _hexagon_oracle_candidates

from qtriang import acceptance, charring, cli, jsonio
from qtriang.cyclotomic import CycScalar, euler_phi, root_of_unity
from qtriang.groups import (
    CATALOG_NAMES,
    AbelianGroup,
    FiniteGroup,
    bundled_group,
    cyclic_group,
    enumerate_biforms,
    normal_inclusions,
    subgroup_structure,
)
from qtriang.hopf import GATensor, difference_witness
from qtriang.linalg import Matrix
from qtriang.rmatrix import (
    QTDatum,
    build_r,
    commutes_with_diagonal,
    LegProducts,
    markov_element,
    verify_qt,
    verify_unitary,
)
from qtriang.charring import (
    BraidedAction,
    Braiding,
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
    standard_reps,
    verify_lambda_ring,
)


def koszul():
    g = bundled_group("Z2")
    a = AbelianGroup((2,))
    incl = normal_inclusions(a, g)[0]
    beta = [b for b in enumerate_biforms(a) if b.is_nondegenerate() and b.is_skewsymmetric()][0]
    return build_r(QTDatum(g, a, incl, incl, beta))


def sign_rep():
    return linear_character_reps(bundled_group("Z2"))[1]


@functools.cache
def _kron_power(rep, g, n):
    """rho(g)^(x)n, built by n Kronecker products and kept per (rep, g, n)."""
    out = Matrix.identity(1)
    for _ in range(n):
        out = kron(out, rep.matrix(g))
    return out


def _adjacent_word(perm) -> list[int]:
    """Slots j of adjacent swaps whose product s_j1 s_j2 ..., left to right, realizes perm.

    Bubble sort: one swap per inversion, so the word's length has perm's sign.
    """
    arr = list(perm)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(arr) - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                word.append(i + 1)
                changed = True
    return word


def _permutation_matrix(action, perm):
    """Operator of a permutation: the d^n generators multiplied along its adjacent word."""
    word = _adjacent_word(perm)
    if not word:
        return Matrix.identity(action.rep.dim**action.power)
    out = action.generators[word[0] - 1]
    for slot in word[1:]:
        out = out @ action.generators[slot - 1]
    return out


def _word_operators(r, n):
    """The (X, pi) of words in the braided letters of R on n legs, memoized by prefix.

    The letter s_j is (R in legs j and j+1, the transposition of slots j-1
    and j, 0-based); a word is its prefix and its last letter folded with
    ``long_cycles.compose``, starting from the unit (1, identity).
    """
    ident = tuple(range(n))

    @functools.cache
    def word(w):
        if not w:
            return GATensor.unit(r.group, n), ident
        swap = list(ident)
        swap[w[-1] - 1], swap[w[-1]] = w[-1], w[-1] - 1
        letter = r.embed_legs((w[-1], w[-1] + 1), n), tuple(swap)
        return compose(word(w[:-1]), letter)

    return word


def _word_sum_exterior_power_char(rep, r, n):
    """(1/n!) sum of sign(w) tr(g^(x)n T_w) over all n! permutations w.

    Each T_w is the (X, pi) of its word in R's letters and each trace a
    character sum of ``long_cycles.operator_traces``.
    """
    group, chi = rep.group, rep.character()
    classes = [cls_[0] for cls_ in group.conjugacy_classes()]
    ops = _word_operators(r, n)
    acc = ClassFunction.constant(group, 0)
    for perm in itertools.permutations(range(n)):
        word = tuple(_adjacent_word(perm))
        traced = ClassFunction(group, operator_traces(chi, ops(word), classes))
        acc = acc - traced if len(word) % 2 else acc + traced
    return acc.scale(Fraction(1, math.factorial(n)))


def _antisymmetrizer(action):
    """The alternating projector (1/n!) sum of sign(s) times ``_permutation_matrix(s)``."""
    n = action.power
    dim = action.rep.dim**n
    acc = zero(dim, dim)
    count = 0
    for perm in itertools.permutations(range(n)):
        sign = -1 if len(_adjacent_word(perm)) % 2 else 1
        mat = _permutation_matrix(action, perm)
        acc = add(acc, mat if sign > 0 else scale(mat, -1))
        count += 1
    return scale(acc, Fraction(1, count))


def test_regular_rep_characters():
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


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_matrix_rep_checks_the_law_on_every_generator(name):
    # The law is checked only on a generating set.  Doubling rho(g) at one
    # element g != e, generator or not, must be caught, and so must doubling
    # rho off the cyclic subgroup <s>: that keeps rho(s) rho(h) = rho(sh) for
    # every h, since sh and h lie in one right coset of <s>.
    group = bundled_group(name)
    mats = regular_rep(group).mats
    for s in group.elements():
        cyclic = {group.power(s, k) for k in range(group.size)}
        doubled = [{s}] if s != group.identity else []
        if len(cyclic) < group.size:
            doubled.append(set(group.elements()) - cyclic)
        for off in doubled:
            bad = [scale(m, 2) if g in off else m for g, m in enumerate(mats)]
            if off != {s}:
                assert all(bad[s] @ bad[h] == bad[group.table[s][h]] for h in group.elements())
            with pytest.raises(ValueError, match="homomorphism law"):
                MatrixRep(group, bad)


def _no_product(*args):
    raise AssertionError("the law check formed a matrix product")


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_matrix_rep_column_maps_name_the_matrix_law_failure(name, monkeypatch):
    # Swapping rho(a) and rho(b) in the regular rep keeps a homomorphism
    # exactly when the transposition of a and b is an automorphism.  The
    # column maps, composed without a matrix product, must name the same
    # (g, h) as the matrix products do.
    group = bundled_group(name)
    mats = regular_rep(group).mats
    others = [g for g in group.elements() if g != group.identity]

    def failure(swapped):
        try:
            MatrixRep(group, swapped)
        except ValueError as exc:
            return str(exc)
        return None

    for a, b in itertools.combinations(others, 2):
        swap = {a: b, b: a}
        swapped = [mats[swap.get(g, g)] for g in group.elements()]
        with monkeypatch.context() as patch:
            patch.setattr(Matrix, "__matmul__", _no_product)
            by_maps = failure(swapped)
        with monkeypatch.context() as patch:
            patch.setattr(charring, "_column_map", lambda m: None)
            assert failure(swapped) == by_maps
        automorphism = all(
            group.table[swap.get(g, g)][swap.get(h, h)] == swap.get(k, k)
            for g, row in enumerate(group.table) for h, k in enumerate(row)
        )
        assert (by_maps is None) == automorphism


def _first_law_failure(group, mats):
    """The (s, h) the law check names, found by matrix products: s over the generating set."""
    for s in group.generating_set:
        for h in group.elements():
            if mats[s] @ mats[h] != mats[group.table[s][h]]:
                return f"matrices fail the homomorphism law on ({s}, {h})"
    return None


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_one_dimensional_reps_check_the_law_on_scalars(name, monkeypatch):
    # Each linear rep with rho(g) doubled or turned by zeta_3 at one element
    # g != e, or off the cyclic subgroup <s>, is refused with the (s, h)
    # that matrix products name first; the rep itself passes.  The check
    # reads integer coordinates and forms no matrix product.
    group = bundled_group(name)
    turn = Matrix.from_entries(1, 1, [(0, 0, root_of_unity(3))])
    real_matmul = Matrix.__matmul__
    for rep in linear_character_reps(group):
        mats = rep.mats
        for s in group.elements():
            cyclic = {group.power(s, k) for k in range(group.size)}
            offs = [{s}] if s != group.identity else []
            if len(cyclic) < group.size:
                offs.append(set(group.elements()) - cyclic)
            for off in offs:
                for bad_value in (lambda m: scale(m, 2), lambda m: real_matmul(m, turn)):
                    bad = [bad_value(m) if g in off else m for g, m in enumerate(mats)]
                    expected = _first_law_failure(group, bad)
                    assert expected is not None
                    with monkeypatch.context() as patch:
                        patch.setattr(Matrix, "__matmul__", _no_product)
                        with pytest.raises(ValueError) as caught:
                            MatrixRep(group, bad)
                    assert str(caught.value) == expected
        with monkeypatch.context() as patch:
            patch.setattr(Matrix, "__matmul__", _no_product)
            assert MatrixRep(group, mats).character() == rep.character()


def test_matrix_rep_keeps_its_column_maps():
    # The regular rep and the trivial rep keep one column map per element,
    # shared by renamed copies; a rep with an entry other than 1 keeps none.
    group = bundled_group("S3")
    regular = regular_rep(group)
    assert regular.maps == tuple(
        tuple(group.table[g][h] for h in group.elements()) for g in group.elements()
    )
    assert regular.renamed("other").maps is regular.maps
    trivial, sign = linear_character_reps(group)
    assert trivial.maps == ((0,),) * group.size
    assert sign.maps is None


def _reference_abelianization(group):
    # The quotient table as it was hand-built before ``table_group``, kept
    # verbatim as the reference: cosets numbered in order of first meeting,
    # each row read at the cosets' least members.
    commutator = charring._commutator_subgroup(group)
    cosets: list[frozenset] = []
    coset_of = {}
    for g in group.elements():
        if g in coset_of:
            continue
        coset = frozenset(group.table[g][c] for c in commutator)
        for x in coset:
            coset_of[x] = len(cosets)
        cosets.append(coset)
    table = []
    for a in cosets:
        rep_a = min(a)
        table.append(
            [coset_of[group.table[rep_a][min(b)]] for b in cosets]
        )
    return table, [coset_of[g] for g in group.elements()]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_abelianization_matches_the_hand_built_quotient(name):
    group = bundled_group(name)
    quotient, coset = charring._abelianization(group)
    table, expected = _reference_abelianization(group)
    assert quotient.table == tuple(map(tuple, table))
    assert quotient.name == f"{name}_ab"
    assert coset == expected


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
    assert -x == x.scale(-1)
    s3 = bundled_group("S3")
    y = regular_rep(s3).character()
    assert adams_standard(y, 6) == ClassFunction.constant(s3, 6)
    assert adams_standard(y, 12) == ClassFunction.constant(s3, 6)
    # Oracle: precompose with the k-th power map, value at g is chi(g^k).
    for name in CATALOG_NAMES:
        group = bundled_group(name)
        for chi in (rep.character() for rep in standard_reps(group)):
            for k in range(5):
                expected = ClassFunction.from_function(
                    group, lambda g: chi.evaluate(group.power(g, k))
                )
                assert adams_standard(chi, k) == expected


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


def test_one_series_gives_every_sigma():
    # The series inversion of lambda^1..lambda^6 (the per-value reference)
    # gives sigma^0..sigma^6, which ``sigma_from_lambda`` reads as
    # (-1)^n lambda^n(-x).
    for name, u in (("Q8", 1), ("D4", 0), ("Z4", 2)):
        group = bundled_group(name)
        x = regular_rep(group).character() - linear_characters(group)[-1].scale(2)
        lams = charring._lambda_sequence(x, 6, u)
        series = _reference_recursive_series(group, lams[1:], newton=False)
        assert series == [sigma_from_lambda(x, n, u) for n in range(7)]
        assert lams == [lambda_from_adams(x, n, u) for n in range(7)]


def test_long_lambda_sequences_hold_small_integers(monkeypatch):
    # lambda^n_u of the regular character of Z4 at u = 2 to n = 800: u splits
    # k[Z4] into two eigenspaces of dimension 2, for the eigenvalues +1 and
    # -1, so lambda^n_u(e) = sum_i C(2, i) (n - i + 1) = 4n.  Each a_m is
    # reduced as it is formed, so every integer handed to ``_make`` stays
    # within 64 bits, where m! D^m would not.
    z4 = bundled_group("Z4")
    chi = regular_rep(z4).character()
    real = ClassFunction._make.__func__

    def make(cls, group, order, den, rows):
        assert den < 2**64 and all(abs(x) < 2**64 for r in rows for x in r)
        return real(cls, group, order, den, rows)

    monkeypatch.setattr(ClassFunction, "_make", classmethod(make))
    lams = charring._lambda_sequence(chi, 800, 2)
    assert [lam.dim() for lam in lams[1:]] == [CycScalar.rational(4 * n) for n in range(1, 801)]


def test_newton_forms_one_period_of_power_sums(monkeypatch):
    # psi^k_u and the braided p_k repeat in k with period P = lcm(2, exp G),
    # so lambda^n and Lambda^n form them only for k <= min(n, P).
    periods = {name: bundled_group(name).period for name in CATALOG_NAMES}
    assert periods == {"Z2": 2, "Z3": 6, "Z4": 4, "Z2xZ2": 2, "S3": 6, "D4": 4, "Q8": 4}
    formed = []
    adams, power_sum = charring.adams_twisted, charring._power_sum
    monkeypatch.setattr(
        charring, "adams_twisted", lambda x, u, k: formed.append(k) or adams(x, u, k)
    )
    monkeypatch.setattr(
        charring, "_power_sum", lambda r, chi, k, at: formed.append(k) or power_sum(r, chi, k, at)
    )
    for name, n in (("Z4", 3), ("Z4", 40), ("S3", 40)):
        group = bundled_group(name)
        formed.clear()
        lambda_from_adams(regular_rep(group).character(), n, group.central_involutions()[-1])
        assert formed == list(range(1, min(n, group.period) + 1))
    structure = next(
        s for name, _, _, s in acceptance._triangular_classes()
        if name == "Z2xZ2" and len(s.rmatrix.terms) > 1
    )
    for rep in linear_character_reps(bundled_group("Z2xZ2")):
        expected = lambda_from_adams(rep.character(), 6, structure.markov_index)
        formed.clear()
        assert structure.exterior_power_char(rep, 6) == expected
        assert formed == [2]  # p_1 is the character


@pytest.mark.parametrize("group", derived_test_groups(), ids=lambda g: g.name)
def test_standard_tables_match_a_recomputation_and_are_built_once(group, monkeypatch):
    # A new group object over the same table builds every table again.
    fresh = FiniteGroup(group.table, group.name)
    chars = [(r.name, r.character()) for r in standard_reps(group)]
    assert chars == [(r.name, r.character()) for r in standard_reps(fresh)]
    reps = standard_reps(group)
    assert [(rep.name, rep.mats) for rep in reps] == [
        (rep.name, rep.mats) for rep in standard_reps(fresh)
    ]
    regular = [Matrix.from_permutation(group.table[g]) for g in group.elements()]
    assert list(regular_rep(group).mats) == regular
    for chi in linear_characters(group):
        for a, b in itertools.product(group.elements(), repeat=2):
            assert chi.evaluate(group.table[a][b]) == chi.evaluate(a) * chi.evaluate(b)
    # Later calls build nothing and hand out the same objects.
    for name in ("_commutator_subgroup", "closure"):
        monkeypatch.setattr(charring, name, None)
    monkeypatch.setattr(charring.Matrix, "from_permutation", None)
    monkeypatch.setattr(charring.Matrix, "trace", None)
    assert all(x is y for x, y in zip(linear_characters(group), (chi for _, chi in chars)))
    kept = [(r.name, r.character()) for r in standard_reps(group)]
    assert [chi for _, chi in kept] == [chi for _, chi in chars]
    assert all(x[1] is y[1] for x, y in zip(kept, chars))
    again = standard_reps(group)
    assert [rep.name for rep in again] == [rep.name for rep in reps]
    assert all(x.mats is y.mats for x, y in zip(again, reps))
    assert all(x.mats is y.mats for x, y in zip(linear_character_reps(group), reps))
    assert regular_rep(group).mats is reps[-1].mats


def test_groups_with_equal_tables_report_their_own_names():
    first, second = (FiniteGroup(bundled_group("S3").table, name) for name in ("first", "second"))
    assert first == second

    def names(group):
        return [rep.name for rep in standard_reps(group)]

    for group in (first, second, first):
        expected = [f"linear0({group.name})", f"linear1({group.name})", f"regular({group.name})"]
        assert names(group) == expected
        assert [rep.name for rep in standard_reps(group)] == expected
        assert regular_rep(group).name == expected[-1]
    # A group renamed after its tables are built, as ``group_from_json`` does.
    first.name = "renamed"
    assert names(first) == ["linear0(renamed)", "linear1(renamed)", "regular(renamed)"]
    assert [rep.name for rep in standard_reps(first)] == names(first)
    assert names(second)[0] == "linear0(second)"


def test_standard_reps_split_between_the_criteria():
    for name in CATALOG_NAMES:
        group = bundled_group(name)
        names = [rep.name for rep in charring.standard_reps(group)]
        linear = [rep.name for rep in linear_character_reps(group)]
        assert names == linear + [f"regular({name})"]
        standard = [(rep.name, rep.character()) for rep in charring.standard_reps(group)]
        assert [(r.name, r.character()) for r in standard_reps(group)] == standard
        power = [rep.name for rep in acceptance._power_test_reps(name)]
        assert power == (names if name in acceptance.REGULAR_REP_GROUPS else linear)


@pytest.mark.parametrize("group", derived_test_groups(), ids=lambda g: g.name)
def test_kept_characters_equal_a_fresh_trace(group):
    for rep in standard_reps(group):
        fresh = ClassFunction.from_function(group, lambda g: rep.matrix(g).trace())
        assert rep.character() == fresh
        assert rep.renamed("x").character() is rep.character()


def test_exterior_and_character_requests_trace_no_matrix_once_reps_exist(
    monkeypatch, tmp_path
):
    # The standard reps are built before Matrix.trace is made to raise; every
    # later call, on a fresh Braiding, must read their kept characters.
    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
        return status, out.getvalue()

    calls = []
    for name in ("D4", "Q8"):
        group = bundled_group(name)
        reps, u = standard_reps(group), str(group.central_involutions()[-1])
        catalog = acceptance.triangular_catalog(name)
        r = catalog.structures[catalog.dedup[-1][0]].rmatrix
        datum = tmp_path / f"{name}.json"
        datum.write_text(json.dumps(jsonio.datum_to_json(catalog.data[catalog.dedup[-1][0]])))
        for rep in reps:
            calls.append(lambda r=r, rep=rep: Braiding(r).exterior_power_char(rep, 2))
            calls.append(lambda r=r, rep=rep: Braiding(r).long_cycle_traces(rep, 2))
        for argv in (
            ["adams", "--group", name, "--u", u, "--n", "3"],
            ["lambda", "--group", name, "--u", u, "--n", "3"],
            ["exterior", "--datum", str(datum), "--n", "2", "--p", "2"],
        ):
            calls.append(lambda argv=argv: run(argv))
    before = [call() for call in calls]

    def traced(self):
        raise AssertionError("a matrix was traced")

    monkeypatch.setattr(Matrix, "trace", traced)
    assert [call() for call in calls] == before


def test_verify_lambda_ring_classical_and_twisted():
    z2 = bundled_group("Z2")
    chars = linear_characters(z2) + [regular_rep(z2).character()]
    for u in (0, 1):
        checks = verify_lambda_ring(u, chars)
        assert all(checks.values()), checks


# -- class functions one CycScalar at a time: the reference for the row form --

def _reference_pointwise(op, x, y):
    """x op y one value at a time, as a tuple of CycScalars."""
    assert x.group == y.group
    return ClassFunction(x.group, list(map(op, x.values, y.values)))


def _reference_adams_twisted(x, u, k):
    """Value at g is x(u^(k+1) g^k), one value at a time, its class found by a scan."""
    group = x.group
    shift = group.power(u, k + 1)

    def value(g):
        h = group.table[shift][group.power(g, k)]
        return x.values[next(j for j, cls_ in enumerate(group.conjugacy_classes()) if h in cls_)]

    return ClassFunction.from_function(group, value)


def _reference_recursive_series(group, coeffs, newton):
    """s[0] = 1, s[m] = w_m sum_k (-1)^(k-1) coeffs[k-1] s[m-k], one class and one
    CycScalar at a time, with the Fraction weight w_m = 1/m (Newton) or 1."""
    weights = [CycScalar.rational(Fraction(1, m)) for m in range(1, len(coeffs) + 1)]
    columns = []
    for j in range(len(group.conjugacy_classes())):
        values, series = [c.values[j] for c in coeffs], [CycScalar.one()]
        for m, weight in enumerate(weights, start=1):
            acc = CycScalar.zero()
            for k in range(1, m + 1):
                term = values[k - 1] * series[m - k]
                acc = acc + term if k % 2 else acc - term
            series.append(weight * acc if newton else acc)
        columns.append(series)
    return [ClassFunction(group, degree) for degree in zip(*columns)]


def _assert_same_class_function(got, expected):
    # Equal values, the same report bytes, and a row form in lowest terms.
    assert got == expected and got.values == expected.values
    assert jsonio.canonical_dumps(jsonio.class_function_to_json(got)) == jsonio.canonical_dumps(
        jsonio.class_function_to_json(expected)
    )
    phi = euler_phi(got.order)
    assert all(len(r) == phi and all(type(x) is int for x in r) for r in got.rows)
    assert got.den >= 1 and math.gcd(got.den, *(x for r in got.rows for x in r)) == 1


def _virtual_characters(group):
    """Pairs (row form, per-value reference): the standard characters, then sums,
    differences, products, a 1/3-scaled character and, on Z3 and Z4, functions
    whose values mix order 1 and order e."""
    chars = [rep.character() for rep in standard_reps(group)]
    first, last = chars[1], chars[-1]
    out = [(chi, chi) for chi in chars]
    for x, y in ((first, last), (chars[0], first)):
        for op in (operator.add, operator.sub, operator.mul):
            out.append((op(x, y), _reference_pointwise(op, x, y)))
    out.append((last.scale(Fraction(1, 3)), ClassFunction(group, [v / 3 for v in last.values])))
    if group.name in ("Z3", "Z4"):
        e = group.size
        mixed = [CycScalar.rational(2), root_of_unity(e), Fraction(-1, 3), root_of_unity(e, 3)]
        x = ClassFunction(group, mixed[:e])
        out += [(x, x), (x * first, _reference_pointwise(operator.mul, x, first))]
        out.append((x - last, _reference_pointwise(operator.sub, x, last)))
    return out


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_row_form_matches_the_per_value_reference(name):
    group = bundled_group(name)
    for x, reference in _virtual_characters(group):
        _assert_same_class_function(x, reference)
        for u in group.central_involutions():
            # n = 12 is past the period lcm(2, exponent) <= 6 of every group,
            # where lambda reads psi^1..psi^P again.
            psis = [adams_twisted(x, u, k) for k in range(13)]
            expected = [_reference_adams_twisted(x, u, k) for k in range(13)]
            for got, want in zip(psis, expected):
                _assert_same_class_function(got, want)
            lams = charring._lambda_sequence(x, 12, u)
            ref_lams = _reference_recursive_series(group, expected[1:], newton=True)
            sigmas = [sigma_from_lambda(x, n, u) for n in range(13)]
            ref_sigmas = _reference_recursive_series(group, ref_lams[1:], newton=False)
            for got, want in zip(lams + sigmas, ref_lams + ref_sigmas):
                _assert_same_class_function(got, want)
            assert lambda_from_adams(x, 12, u) == ref_lams[12]


def test_adams_twisted_carries_the_values_it_reindexes():
    # Re-indexing shares x's CycScalars once x has built them, so a report of
    # psi reads the reduced forms those scalars already keep.
    for name in ("Z4", "D4"):
        group = bundled_group(name)
        for chi in (rep.character() for rep in standard_reps(group)):
            assert chi.values  # built here, if not given
            for u in group.central_involutions():
                psi = adams_twisted(chi, u, 3)
                assert all(any(v is w for w in chi.values) for v in psi.values)
                assert psi == _reference_adams_twisted(chi, u, 3)


@pytest.mark.parametrize("name", ["Z3", "Z4", "D4"])
def test_equality_and_hash_do_not_depend_on_the_stored_order(name):
    group = bundled_group(name)
    for x, _ in _virtual_characters(group):
        lifted = ClassFunction(group, [v.embed(24) for v in x.values])
        assert lifted.order == 24 and x.order != 24
        assert lifted == x and x == lifted and hash(lifted) == hash(x)
        assert lifted.den == x.den
        assert lifted - x == ClassFunction.constant(group, 0)
        assert lifted != x + ClassFunction.constant(group, root_of_unity(3))
        half = x.scale(Fraction(1, 2))
        assert half != x and half != lifted and half.scale(2) == lifted
    one = ClassFunction.constant(group, 1)
    half = one.scale(Fraction(1, 2))  # the rows of one, at denominator 2
    assert half.rows == one.rows and (half.den, one.den) == (2, 1) and half != one


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
    assert action.generators[0] == scale(Matrix.identity(1), -1)


def test_braided_action_rejects_nonunitary():
    s3 = bundled_group("S3")
    a3 = AbelianGroup((3,))
    incl = normal_inclusions(a3, s3)[0]
    autos = incl.conjugation_automorphisms()
    beta = [b for b in enumerate_biforms(a3) if b.is_nondegenerate() and b.is_invariant(autos)][0]
    r = build_r(QTDatum(s3, a3, incl, incl, beta))
    with pytest.raises(ValueError):
        BraidedAction(regular_rep(s3), r, 2)


def test_braided_action_dimension_cap():
    # ``Braiding.generators`` refuses a tensor power over the cap before it
    # builds anything; ``Braiding.check`` refuses a rep over another group
    # first, then a non-unitary R.
    q8 = bundled_group("Q8")
    with pytest.raises(ValueError, match="tensor power dimension 32768 exceeds the cap 4096"):
        BraidedAction(regular_rep(q8), GATensor.unit(q8, 2), 5)
    doubled = Braiding(GATensor.unit(q8, 2).scale(2))
    with pytest.raises(ValueError, match="different groups"):
        doubled.check(regular_rep(bundled_group("D4")))
    with pytest.raises(ValueError, match="needs a unitary R-matrix"):
        doubled.check(regular_rep(q8))


@pytest.mark.parametrize("power", [0, 1])
def test_validate_below_power_two_has_nothing_to_refuse(power):
    # No braided generator acts on rho^(x)power for power < 2: ``validate``
    # returns even for a non-unitary R, which ``check`` alone refuses.
    q8 = bundled_group("Q8")
    doubled = Braiding(GATensor.unit(q8, 2).scale(2))
    assert doubled.validate(regular_rep(q8), power) is None
    assert not doubled.unitary


def test_generators_square_to_identity_on_catalog_example():
    d4 = bundled_group("D4")
    incl = subgroup_structure(d4, {0, 2})
    beta = [
        b for b in enumerate_biforms(incl.domain) if b.is_nondegenerate() and b.is_skewsymmetric()
    ][0]
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
        diag = _kron_power(action.rep, g, action.power)
        if any(s @ diag != diag @ s for s in gens):
            return "the braided action is not equivariant"
    return None


def _with_rmatrix(rep, power, rmatrix):
    """An unvalidated action whose braid, generators and ``Braiding`` are rebuilt from ``rmatrix``.

    They are formed the way the constructor forms them, without its
    unitarity check, so a non-unitary R can reach ``validate``.
    """
    action = BraidedAction(rep, GATensor.unit(rep.group, 2), power, validate=False)
    d = rep.dim
    acted = zero(d * d, d * d)
    for (g, h), c in rmatrix.terms.items():
        acted = add(acted, scale(kron(rep.matrix(g), rep.matrix(h)), c))
    swap = Matrix.from_permutation([b * d + a for a in range(d) for b in range(d)])
    action.braiding = Braiding(rmatrix)
    action.braid = acted @ swap
    action.generators = [
        kron(kron(Matrix.identity(d ** (slot - 1)), action.braid), Matrix.identity(d ** (power - slot - 1)))
        for slot in range(1, power)
    ]
    return action


def _reference_image(rep, tensor):
    """rho^(x)k of a tensor by recursion on the first leg: each rho(g1) is
    Kronecker-multiplied with the image of the terms after it, and the
    products are summed pairwise."""
    if tensor.arity == 0:
        return scale(Matrix.identity(1), tensor.coeff(()))
    rests = {}
    for (g, *rest), c in tensor.terms.items():
        rests.setdefault(g, {})[tuple(rest)] = c
    dim = rep.dim**tensor.arity
    acc = zero(dim, dim)
    for g, rest in rests.items():
        image = _reference_image(rep, GATensor(tensor.group, tensor.arity - 1, rest))
        acc = add(acc, kron(rep.matrix(g), image))
    return acc


def _assert_image_matches_reference(rep, tensor):
    got, expected = charring._image(rep, tensor), _reference_image(rep, tensor)
    assert got == expected and got.den == expected.den, (rep.name, tensor)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_image_matches_kron_reference_on_catalog(name):
    # Every distinct structure, its R R21, its Yang-Baxter sides (arity 3)
    # and R - R21, whose terms cancel on every linear rep, on every standard
    # rep within the cap.
    catalog = acceptance.qt_catalog(name)
    for members in catalog.dedup:
        r = catalog.structures[members[0]].rmatrix
        for tensor in (r, r * r.swap(), *LegProducts(r).yang_baxter_sides, r - r.swap()):
            for rep in standard_reps(bundled_group(name)):
                if rep.dim**tensor.arity <= charring.DIMENSION_CAP:
                    _assert_image_matches_reference(rep, tensor)


@pytest.mark.parametrize("name", ["Z4", "Q8"])
def test_image_matches_kron_reference_at_mixed_orders_and_denominators(name):
    # R scaled by zeta_3 or 1/3 on linear reps stored at order 4 (Z4) or 2
    # (Q8): coefficients and matrices lift to one order and one denominator.
    catalog = acceptance.qt_catalog(name)
    reps = linear_character_reps(catalog.group)
    assert {rep.matrix(1).order for rep in reps} == {4 if name == "Z4" else 2}
    for members in catalog.dedup:
        r = catalog.structures[members[0]].rmatrix
        for scaled in (r.scale(root_of_unity(3)), r.scale(Fraction(1, 3))):
            for rep in reps:
                _assert_image_matches_reference(rep, scaled)


def test_image_edge_cases():
    group = bundled_group("Z4")
    third = root_of_unity(3) * CycScalar.rational(Fraction(1, 3))
    tensors = [
        GATensor(group, 2),
        GATensor(group, 0),
        GATensor(group, 0, {(): third}),
        GATensor(group, 1, {(1,): third, (3,): Fraction(-1, 2), (0,): 1}),
        GATensor(group, 1, {(1,): 1, (3,): -1}),  # zero on the reps where 1 and 3 agree
    ]
    for rep in standard_reps(group):
        for tensor in tensors:
            _assert_image_matches_reference(rep, tensor)
    assert charring._image(regular_rep(group), GATensor(group, 2)) == zero(16, 16)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_generators_match_kron_route(name):
    # B and the s_j, placed by re-indexing, equal (rho (x) rho)(R) times the
    # swap matrix and I (x) B (x) I formed by Kronecker products.
    catalog = acceptance.triangular_catalog(name)
    for members in catalog.dedup:
        r = catalog.structures[members[0]].rmatrix
        for rep in standard_reps(bundled_group(name)):
            for power in (2, 3):
                if rep.dim**power <= charring.DIMENSION_CAP:
                    action, expected = BraidedAction(rep, r, power), _with_rmatrix(rep, power, r)
                    assert action.braid == expected.braid
                    assert action.generators == expected.generators


def _transposition_square():
    # s (x) s for a transposition s of S3: unitary, satisfies the braid
    # relation, and is not conjugation invariant.
    return GATensor.basis(bundled_group("S3"), 1, 1)


def _noncommuting_twist():
    # R = F21^-1 F with F = 1 (x) 1 + 1/2 s (x) t for non-commuting
    # transpositions s, t of S3: unitary, but fails the braid relation.
    f = GATensor(bundled_group("S3"), 2, {(0, 0): 1, (1, 2): Fraction(1, 2)})
    return f.swap().inverse() * f


def _check_against_reference(action):
    """Assert validate raises exactly when the d^n reference fails, with its message."""
    expected = _reference_validate(action)
    if expected is None:
        action.validate()
        return None
    with pytest.raises(ValueError) as info:
        action.validate()
    assert str(info.value) == expected
    return info.value


@pytest.mark.parametrize(
    "group, reps, powers, make_r, message",
    [
        ("Z2", "regular", (3,), koszul, None),
        ("Z2", "regular", (3,), lambda: koszul().scale(2), "square to the identity"),
        ("S3", "regular", (2, 3), _transposition_square, "not equivariant"),
        ("S3", "regular", (3,), _noncommuting_twist, "braid relation"),
        ("S3", "linear", (2, 3), _transposition_square, None),
    ],
    ids=["valid", "scaled", "not-equivariant", "braid-relation", "non-faithful"],
)
def test_validate_on_braid_matches_reference_checks(group, reps, powers, make_r, message):
    # Each case perturbs R and rebuilds the generators from it; the d^n
    # reference reads only the generators.  The non-faithful case has a
    # nonzero universal equivariance difference that every linear rep of
    # S3 sends to zero, so both sides must pass.
    group = bundled_group(group)
    for rep in [regular_rep(group)] if reps == "regular" else linear_character_reps(group):
        for power in powers:
            error = _check_against_reference(_with_rmatrix(rep, power, make_r()))
            if message is None:
                assert error is None
            else:
                assert message in str(error)


def test_validate_failures_carry_witnesses():
    z2_regular = regular_rep(bundled_group("Z2"))
    with pytest.raises(ValueError) as info:
        _with_rmatrix(z2_regular, 2, koszul().scale(2)).validate()
    # R R21 = 4 (1 (x) 1) against the unit
    assert info.value.witness == {"tuple": [0, 0], "left": "4", "right": "1"}

    s3_regular = regular_rep(bundled_group("S3"))
    action = _with_rmatrix(s3_regular, 2, _transposition_square())
    with pytest.raises(ValueError) as info:
        action.validate()
    witness = info.value.witness
    g = witness["element"]
    diag = _kron_power(s3_regular, g, 2)
    assert action.braid @ diag != diag @ action.braid
    # s (x) s against its conjugate by g, which puts gsg^-1 (x) gsg^-1 first
    t = s3_regular.group.conjugate(1, g)
    assert witness["tuple"] == [min(1, t)] * 2
    assert {witness["left"], witness["right"]} == {"0", "1"}

    with pytest.raises(ValueError) as info:
        _with_rmatrix(s3_regular, 3, _noncommuting_twist()).validate()
    witness = info.value.witness
    assert len(witness["tuple"]) == 3 and witness["left"] != witness["right"]


def _perturbations(group):
    """2 (1 (x) 1), s (x) s for each involution s, and on a nonabelian group
    F21^-1 F with F = 1 (x) 1 + 1/2 s (x) t for the first non-commuting s, t."""
    table, e, elements = group.table, group.identity, group.elements()
    out = [GATensor.unit(group, 2).scale(2)]
    out += [GATensor.basis(group, s, s) for s in elements if s != e and table[s][s] == e]
    pairs = [(s, t) for s in elements for t in elements if table[s][t] != table[t][s]]
    if pairs:
        f = GATensor(group, 2, {(e, e): 1, pairs[0]: Fraction(1, 2)})
        out.append(f.swap().inverse() * f)
    return out


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_validate_matches_reference_on_catalog_and_perturbed_r(name):
    # Every distinct triangular R on the linear and regular reps at n = 2
    # and 3, and at n = 4 wherever d^4 fits under the cap, so that distant
    # generators are compared too; then perturbed R at n = 2 and 3.  A
    # reference run at the cap itself (d = 8, n = 4) takes 1-8 s, so there
    # it runs once per group, on the first structure that is not the unit.
    catalog = acceptance.triangular_catalog(name)
    reps = standard_reps(bundled_group(name))
    cap, at_cap = charring.DIMENSION_CAP, []
    for members in catalog.dedup:
        r = catalog.structures[members[0]].rmatrix
        for rep in reps:
            for power in (2, 3, 4):
                dim = rep.dim**power
                if dim > cap or (dim == cap and (at_cap or r.is_unit())):
                    continue
                if dim == cap:
                    at_cap.append(r)
                action = BraidedAction(rep, r, power, validate=False)
                assert _check_against_reference(action) is None
    # R12 and R34 always commute, so no R fails the distant-generator check.
    failures = set()
    for r in _perturbations(catalog.group):
        for rep in reps:
            for power in (2, 3):
                error = _check_against_reference(_with_rmatrix(rep, power, r))
                failures.add(str(error).split()[-1] if error else None)
    abelian = catalog.group.is_abelian()
    assert ({"identity"} if abelian else {"identity", "relation", "equivariant"}) <= failures


def _without_maps(rep):
    """The same checked rep with its column maps dropped: ``_image`` takes its general route."""
    out = rep.renamed(rep.name)
    out.maps = None
    return out


def _stored(m):
    return m.nrows, m.ncols, m.order, m.den, m.cols


def _assert_image_routes_agree(rep, tensor):
    got = charring._image(rep, tensor)
    assert _stored(got) == _stored(charring._image(_without_maps(rep), tensor)), (rep.name, tensor)
    return got


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_image_by_column_maps_stores_what_the_general_route_stores(name):
    # On every standard rep within the cap (the trivial and regular reps
    # keep column maps), the column-map route of ``_image`` stores the
    # general route's order, den and columns: for every distinct catalog
    # structure R, R R21, its Yang-Baxter sides and R - R21, and on S3 for
    # the left - right of every braided difference of the perturbed R that
    # fail a braided identity (2 (1 (x) 1), s (x) s, F21^-1 F).
    group = bundled_group(name)
    reps = standard_reps(group)
    assert reps[0].maps is not None and reps[-1].maps is not None
    catalog = acceptance.qt_catalog(name)
    tensors = []
    for members in catalog.dedup:
        r = catalog.structures[members[0]].rmatrix
        tensors += [r, r * r.swap(), *LegProducts(r).yang_baxter_sides, r - r.swap()]
    if name == "S3":
        kinds = set()
        for r in _perturbations(group):
            for left, right, message, _ in Braiding(r).differences(3):
                tensors.append(left - right)
                kinds.add(message)
        assert len(kinds) == 3
    for tensor in tensors:
        for rep in reps:
            if rep.dim**tensor.arity <= charring.DIMENSION_CAP:
                _assert_image_routes_agree(rep, tensor)


def test_image_by_column_maps_sums_the_terms_that_meet():
    # On the trivial rep every term lands on the one entry: R's terms sum to
    # its counit, 1, and R - R21 cancels to an empty matrix at R's order.
    catalog = acceptance.triangular_catalog("D4")
    r = max((catalog.structures[m[0]].rmatrix for m in catalog.dedup), key=lambda t: len(t.terms))
    trivial = linear_character_reps(catalog.group)[0]
    assert len(r.terms) == 16 and trivial.maps is not None
    assert _assert_image_routes_agree(trivial, r).cols == {0: {0: (1,)}}
    for tensor in (r - r.swap(), GATensor(catalog.group, 2, {(1, 2): 1, (2, 1): -1})):
        empty = _assert_image_routes_agree(trivial, tensor)
        assert empty.cols == {} and (empty.nrows, empty.ncols) == (1, 1)
    zero_tensor = GATensor(catalog.group, 2)
    assert _assert_image_routes_agree(regular_rep(catalog.group), zero_tensor).cols == {}


def test_generators_at_power_two_are_the_braid_itself():
    catalog = acceptance.triangular_catalog("Q8")
    for members in catalog.dedup:
        r = catalog.structures[members[0]].rmatrix
        for rep in standard_reps(catalog.group):
            braid, gens = Braiding(r).generators(rep, 2)
            assert len(gens) == 1 and gens[0] is braid
            action = BraidedAction(rep, r, 2)
            assert action.generators[0] is action.braid


def _scanned_differences(braiding, power):
    """``Braiding._differences`` scanning every g in element order, without the generators first."""
    r = braiding.rmatrix
    out = [d for d in braiding.differences(power) if "element" not in d[3]]
    for g in r.group.elements():
        if not commutes_with_diagonal(r, g):
            conj = r.adjoint_action(g, 1).adjoint_action(g, 2)
            out.append((r, conj, "the braided action is not equivariant", {"element": g}))
    return out


def _conjugation_perturbed(group):
    """Each distinct catalog structure plus one term c (a (x) b), for every (a, b) off the centre.

    Such a term moves under conjugation by some g, so the sum fails
    equivariance at a set of g that in general holds non-generators.
    """
    center = set(group.center())
    catalog = acceptance.qt_catalog(group.name)
    for members in catalog.dedup:
        r = catalog.structures[members[0]].rmatrix
        yield r
        for a in group.elements():
            for b in (group.identity, a):
                if a not in center:
                    yield r + GATensor.basis(group, a, b).scale(Fraction(1, 3))


def test_differences_by_generators_equal_the_element_scan():
    # Same difference lists, in the same order, with the same elements, on
    # the catalog structures, the S3 perturbations and every structure of
    # each nonabelian catalog plus a term off the centre.  The failing g
    # include non-generators, and some tensors pass at the first generator
    # but fail at a later one.  The least failing g is always a generator
    # (``FiniteGroup.generating_set``), so the first witness is one too.
    seen = Counter()
    candidates = list(_perturbations(bundled_group("S3")))
    for name in ("S3", "D4", "Q8"):
        candidates += _conjugation_perturbed(bundled_group(name))
    for r in candidates:
        braiding = Braiding(r)
        gens = r.group.generating_set
        for power in (2, 3):
            got = braiding.differences(power)
            assert got == _scanned_differences(braiding, power)
        failing = [d[3]["element"] for d in got if "element" in d[3]]
        if failing:
            assert failing[0] in gens
            seen["non-generator"] += any(g not in gens for g in failing)
            seen["later generator"] += failing[0] != gens[0]
        else:
            seen["passes"] += 1
    assert seen["non-generator"] and seen["later generator"] and seen["passes"]


def _literal_differences(r, power):
    """``Braiding._differences`` from literal products: R R21, R12 R13 R23 and R23 R13 R12, every g."""
    group = r.group
    pairs = [(r * r.swap(), GATensor.unit(group, 2), "a braided generator fails to square to the identity", {})]
    if power >= 3:
        r12, r13, r23 = (r.embed_legs(legs, 3) for legs in ((1, 2), (1, 3), (2, 3)))
        message = "adjacent generators fail the braid relation"
        pairs.append((r12 * r13 * r23, r23 * r13 * r12, message, {}))
    for g in group.elements():
        conj = r.adjoint_action(g, 1).adjoint_action(g, 2)
        pairs.append((r, conj, "the braided action is not equivariant", {"element": g}))
    return [pair for pair in pairs if pair[0] != pair[1]]


def test_braid_relation_is_left_out_only_where_the_hexagon_and_invariance_show_it():
    # R = 1/2 (e x e + e x y + x x e - x x y) on S3, x = 1 and y = 2, passes
    # the left hexagon but commutes with no g x g for g = 1 .. 5, so its
    # Yang-Baxter difference stays, formed from the literal sides: R R21,
    # the braid relation, then equivariance at 1 .. 5.  Every distinct
    # catalog structure and the S3 perturbations give the literal lists too,
    # at n = 2 and 3.
    s3 = bundled_group("S3")
    e, half = s3.identity, Fraction(1, 2)
    r = GATensor(s3, 2, {(e, e): half, (e, 2): half, (1, e): half, (1, 2): -half})
    got = Braiding(r).differences(3)
    assert [(message, extra) for _, _, message, extra in got] == [
        ("a braided generator fails to square to the identity", {}),
        ("adjacent generators fail the braid relation", {}),
        *(("the braided action is not equivariant", {"element": g}) for g in range(1, 6)),
    ]
    candidates = [r, *_perturbations(s3)]
    for catalog in map(acceptance.qt_catalog, CATALOG_NAMES):
        candidates += [catalog.structures[members[0]].rmatrix for members in catalog.dedup]
    for candidate in candidates:
        braiding = Braiding(candidate)
        for power in (2, 3):
            assert braiding.differences(power) == _literal_differences(candidate, power)


def test_validate_forms_no_matrix_product_when_identities_hold(monkeypatch):
    # R's rows decide unitarity, so construction forms no GATensor product
    # (1, R R21, when unitarity was read off the product); with every
    # universal difference zero, validate never maps one to matrices.
    catalog = acceptance.triangular_catalog("D4")
    r = max((catalog.structures[m[0]].rmatrix for m in catalog.dedup), key=lambda t: len(t.terms))
    rep = regular_rep(catalog.group)
    counts = Counter()
    real_matmul, real_mul = Matrix.__matmul__, GATensor.__mul__

    def counting(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(GATensor, "__mul__", counting("tensor", real_mul))
    BraidedAction(rep, r, 2)
    assert counts["tensor"] == 0
    actions = [BraidedAction(rep, r, power, validate=False) for power in (3, 4)]
    monkeypatch.setattr(Matrix, "__matmul__", counting("matrix", real_matmul))
    for action in actions:
        action.validate()
    assert counts["matrix"] == 0


def test_exterior_power_base_cases():
    rep = regular_rep(bundled_group("Z4"))
    r = GATensor.unit(bundled_group("Z4"), 2)
    assert exterior_power_char(rep, r, 0) == ClassFunction.constant(rep.group, 1)
    assert exterior_power_char(rep, r, 1) == rep.character()


def test_exterior_powers_through_degree_16_against_lambda_from_adams(monkeypatch):
    # No degree is capped: Lambda^n at n = 2 .. 16 on every distinct
    # triangular structure and standard rep, D4's regular rep (8^16) too,
    # against the Newton value lambda^n_u.  A triangular R has no braided
    # difference, so no tensor-power image is built.  They agree except on
    # D4's regular rep at its four Klein-supported 16-term structures, at
    # even n: all four at n = 2, 4 and 6, two of them from n = 8 on (the
    # README's scope note).
    def no_image(*args):
        raise AssertionError("a tensor-power image was built")

    monkeypatch.setattr(charring, "_image", no_image)
    values, differ = 0, set()
    for name, catalog, members, structure in acceptance._triangular_classes():
        u, index = structure.markov.grouplike_index(), catalog.dedup.index(members)
        for rep in standard_reps(bundled_group(name)):
            chi = rep.character()
            for n in range(2, 17):
                values += 1
                if structure.exterior_power_char(rep, n) != lambda_from_adams(chi, n, u):
                    differ.add((name, index, rep.name, n))
    assert values == 1545
    klein = {2: (2, 4, 6), 3: range(2, 17, 2), 4: (2, 4, 6), 5: range(2, 17, 2)}
    assert differ == {("D4", i, "regular(D4)", n) for i, degrees in klein.items() for n in degrees}


def test_cyclic_identities_at_primes_5_and_7():
    # Criterion 7's identities at p = 5 and 7 on every distinct triangular
    # structure and standard rep.  d^p passes 4096 on the regular reps of
    # order 6 and 8 at p = 5, and of order 4 and up at p = 7, yet the
    # long-cycle tables are powers of power sums and build no d^p matrix.
    cases = 0
    for name, catalog, _, structure in acceptance._triangular_classes():
        u = structure.markov.grouplike_index()
        for rep in standard_reps(catalog.group):
            for p in (5, 7):
                for k, tags in enumerate(
                    acceptance._cyclic_root_tags(catalog.group, rep, structure, u, p), start=1
                ):
                    assert tags == [], (name, rep.name, p, k)
                    cases += 1
    assert cases == 1030


def test_dimension_cap_applies_only_where_a_matrix_is_built():
    # 17^3 = 4913 is past the cap: Lambda^3 of Z17's regular rep under
    # R = 1 (x) 1 builds no image and equals lambda^3, while the image of an
    # arity-3 tensor on that rep is refused.
    group = cyclic_group(17)
    rep = regular_rep(group)
    ext = exterior_power_char(rep, GATensor.unit(group, 2), 3)
    assert ext == lambda_from_adams(rep.character(), 3, group.identity)
    with pytest.raises(ValueError, match="tensor power dimension 4913 exceeds the cap 4096"):
        charring._image(rep, GATensor.unit(group, 3))


def test_braiding_forms_what_it_reads_once(monkeypatch):
    # Read twice, ``report``, ``markov``, ``unitary`` and ``markov_index``
    # make one ``verify_qt`` call, one ``markov_element`` call and no
    # GATensor product outside them: ``report`` hands ``verify_qt`` R's leg
    # products unformed, to be formed there on first use (four products,
    # R's leg products and Yang-Baxter sides, when ``report`` formed them
    # first).  ``unitary`` reads R's slices and rows and forms no R R21.
    r = koszul()
    formed, calls = {"verify_qt": verify_qt(r), "markov_element": markov_element(r)}, Counter()

    def formed_once(name):
        def stub(tensor, *shared):
            assert tensor is r
            if name == "verify_qt":
                assert shared == (braiding.legs,)
            calls[name] += 1
            return formed[name]

        monkeypatch.setattr(charring, name, stub)

    formed_once("verify_qt")
    formed_once("markov_element")
    real_mul = GATensor.__mul__

    def mul(left, right):
        calls["product"] += 1
        return real_mul(left, right)

    monkeypatch.setattr(GATensor, "__mul__", mul)
    braiding = Braiding(r)
    for _ in range(2):
        assert braiding.report is formed["verify_qt"] and braiding.report.all_passed
        assert braiding.markov is formed["markov_element"]
        assert braiding.unitary is True
        assert braiding.markov_index == 1
    assert calls == {"verify_qt": 1, "markov_element": 1}
    assert not {"r12", "r13", "r23", "r13r12", "r13r23"} & set(vars(braiding.legs))


def test_unitary_matches_verify_unitary_with_and_without_the_report():
    # Read before or after ``report``, ``unitary`` gives what the product
    # ``verify_unitary`` gives.  Off the catalog: g (x) g and -(e (x) e) on
    # Z2 pass ``antipode_left``; e (x) e + g (x) e has no inverse; on Z3,
    # g (x) g^2 (unitary) and 2 (e (x) e) (not unitary) take their inverses
    # from the solve and fail it.
    z2, z3 = bundled_group("Z2"), bundled_group("Z3")
    distinct = [
        catalog.structures[members[0]].rmatrix
        for catalog in map(acceptance.qt_catalog, CATALOG_NAMES)
        for members in catalog.dedup
    ]
    assert len(distinct) == 44
    others = [
        GATensor.basis(z2, 1, 1),
        -GATensor.unit(z2, 2),
        GATensor(z2, 2, {(0, 0): 1, (1, 0): 1}),
        GATensor.basis(z3, 1, 2),
        GATensor.unit(z3, 2).scale(2),
    ]
    left_antipode = []
    for r in distinct + others:
        expected = verify_unitary(r)
        assert Braiding(r).unitary == expected
        braiding = Braiding(r)
        report = braiding.report
        assert braiding.unitary == expected
        left_antipode.append(any(c.name == "antipode_left" and c.passed for c in report.checks))
    assert all(left_antipode[:44]) and left_antipode[44:] == [True, True, False, False, False]
    assert [verify_unitary(r) for r in others] == [True, True, False, True, False]


def _slice_function_tensors(name):
    """sum_chi f(chi) (x) e_chi on the cyclic group ``name``, for every map f from
    characters to elements: its left slices are orthogonal idempotents summing to
    1, the preconditions of ``Braiding.unitary``'s row route."""
    group = bundled_group(name)
    n = group.size
    projectors = [
        GATensor(group, 1, {(k,): root_of_unity(n, -j * k % n) for k in range(n)}).scale(Fraction(1, n))
        for j in range(n)
    ]
    return [
        sum((GATensor.basis(group, a) @ p for a, p in zip(f, projectors)), GATensor(group, 2))
        for f in itertools.product(range(n), repeat=n)
    ]


def _left_slices_idempotent(r):
    """Whether every r_a of R = sum_a a x r_a squares to itself, by GATensor products."""
    slices = {}
    for (a, b), row in r.rows.items():
        slices.setdefault(a, {})[(b,)] = row
    tensors = [GATensor._make(r.group, 1, r.order, r.den, rows) for rows in slices.values()]
    return all(s * s == s for s in tensors)


def test_unitary_from_rows_matches_verify_unitary(monkeypatch):
    # Where R's left counit is the unit and its left slices are idempotent,
    # (S x I)(R) is R's inverse and ``unitary`` compares R21 with it on R's
    # rows ("rows"); elsewhere it forms R R21 ("product").  The literal
    # ``verify_unitary`` is the oracle on the hexagon oracle's candidates
    # (every distinct catalog R, 2R, R with one coefficient changed by 1/2,
    # R with 1/2 e x e moved to x x e, e x e + g x e and g x g on Z2, all
    # 625 tensors on Z2 with coefficients in {0, +-1/2, +-1}, and an S3
    # tensor that fails invariance), g x g^2 and 2 (e x e) on Z3, and every
    # sum_chi f(chi) x e_chi on Z3 and Z4.  Each route gives both answers,
    # the row route at orders 1 and 2 and above them; the product route is
    # taken exactly where the preconditions fail and forms R R21 alone, and
    # the row route forms no product.
    z3 = bundled_group("Z3")
    candidates = _hexagon_oracle_candidates() + [GATensor.basis(z3, 1, 2), GATensor.unit(z3, 2).scale(2)]
    candidates += _slice_function_tensors("Z3") + _slice_function_tensors("Z4")
    expected = [verify_unitary(r) for r in candidates]
    rows_route = [r.counit(1).is_unit() and _left_slices_idempotent(r) for r in candidates]
    products, real_mul = [], GATensor.__mul__
    monkeypatch.setattr(GATensor, "__mul__", lambda left, right: products.append(left) or real_mul(left, right))
    routes = Counter()
    for r, unitary, rows in zip(candidates, expected, rows_route):
        route = "rows" if rows else "product"
        before = len(products)
        assert Braiding(r).unitary == unitary
        assert products[before:] == ([] if route == "rows" else [r])
        routes[route, unitary, r.order > 2] += 1
    assert routes == {
        ("rows", True, False): 24, ("rows", False, False): 11,
        ("rows", True, True): 3, ("rows", False, True): 294,
        ("product", True, False): 8, ("product", False, False): 684,
        ("product", False, True): 28,
    }


def test_markov_index_refusals_come_before_check():
    # u not grouplike, then u not a central involution, are refused before
    # ``check`` would refuse the rep of another group.
    z2, z4 = bundled_group("Z2"), bundled_group("Z4")
    half = Fraction(1, 2)
    cases = [
        (GATensor(z2, 2, {(0, 0): half, (0, 1): half}), z4, "no grouplike Markov element"),
        (GATensor(z4, 2, {(1, 0): 1}), z2, "not a central involution"),
    ]
    for r, other, message in cases:
        rep = regular_rep(other)
        with pytest.raises(ValueError, match=message):
            Braiding(r).long_cycle_traces(rep, 2)
        with pytest.raises(ValueError, match=message):
            cyclic_operation_char(rep, r, 2, 1)
        own = regular_rep(r.group)
        with pytest.raises(ValueError, match=message):
            qtrace(own, r, Matrix.identity(own.dim))


def _reference_exterior_power_char(rep, rmatrix, n):
    # The d^n route: the antisymmetrizer as a matrix, traced against g^(x)n.
    projector = _antisymmetrizer(BraidedAction(rep, rmatrix, n, validate=False))
    return ClassFunction.from_function(
        rep.group, lambda g: (_kron_power(rep, g, n) @ projector).trace()
    )


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_exterior_power_matches_dense_reference(name):
    catalog = acceptance.triangular_catalog(name)
    for members in catalog.dedup:
        r = catalog.structures[members[0]].rmatrix
        for rep in standard_reps(bundled_group(name)):
            for n in (2, 3):
                if rep.dim**n <= charring.DIMENSION_CAP:
                    expected = _reference_exterior_power_char(rep, r, n)
                    assert exterior_power_char(rep, r, n) == expected, (rep.name, n)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_exterior_power_matches_the_signed_word_sum(name):
    # The n! signed words, each traced as a character sum over its (X, pi),
    # against Newton's identity over one power sum per degree: every
    # distinct triangular structure and standard rep at n <= 4, and at n = 5
    # on the 1-term and 4-term structures, within the d^n cap.
    catalog = acceptance.triangular_catalog(name)
    for members in catalog.dedup:
        structure = catalog.structures[members[0]]
        r = structure.rmatrix
        for rep in standard_reps(bundled_group(name)):
            for n in range(2, 6 if len(r.terms) <= 4 else 5):
                if rep.dim**n <= charring.DIMENSION_CAP:
                    expected = _word_sum_exterior_power_char(rep, r, n)
                    assert structure.exterior_power_char(rep, n) == expected, (rep.name, n)


def test_exterior_power_fallback_passes_on_a_non_faithful_rep(monkeypatch):
    # s (x) s is unitary and solves Yang-Baxter but is not conjugation
    # invariant: ``Braiding.differences`` holds only equivariance
    # differences.  Every linear rep of S3 kills them, so ``validate``
    # passes, and at n = 2 Newton's identity gives the d^n projector's
    # trace without building the d^n generators.  At n = 3 the power sums
    # need the hexagon identities, which s (x) s fails, so after ``validate``
    # the cube is refused, naming R's first failed check.
    r = _transposition_square()
    reps = linear_character_reps(r.group)
    expected = {rep.name: _reference_exterior_power_char(rep, r, 2) for rep in reps}
    differences = []
    real_differences = Braiding._differences

    def no_generators(self, rep, power):
        raise AssertionError("the d^n generators were built")

    def recording_differences(self, power):
        differences.append(real_differences(self, power))
        return differences[-1]

    monkeypatch.setattr(Braiding, "generators", no_generators)
    monkeypatch.setattr(Braiding, "_differences", recording_differences)
    for rep in reps:
        for n in (2, 3):
            differences.clear()
            if n == 2:
                assert exterior_power_char(rep, r, n) == expected[rep.name]
            else:
                refusal = (
                    "^braided power sums of degree 3 need an R-matrix; "
                    "R fails commutes_with_diagonals$"
                )
                with pytest.raises(ValueError, match=refusal) as caught:
                    exterior_power_char(rep, r, n)
                assert caught.value.witness["check"] == "commutes_with_diagonals"
            [found] = differences
            assert found and {message for _, _, message, _ in found} == {
                "the braided action is not equivariant"
            }


def test_exterior_power_fallback_forms_r_r21_once(monkeypatch):
    # ``check``, ``validate`` and the long cycle share one Braiding, so
    # R R21 is the only GATensor product at n = 2 on an R with differences.
    rep = linear_character_reps(bundled_group("S3"))[1]
    r = _transposition_square()
    expected = _reference_exterior_power_char(rep, r, 2)
    products = []
    real_mul = GATensor.__mul__

    def counting(left, right):
        products.append((left, right))
        return real_mul(left, right)

    monkeypatch.setattr(GATensor, "__mul__", counting)
    assert exterior_power_char(rep, r, 2) == expected
    assert products == [(r, r.swap())]


def test_catalog_traces_form_no_matrix_product(monkeypatch):
    calls = Counter()
    real = Matrix.__matmul__

    def counting(left, right):
        calls["matmul"] += 1
        return real(left, right)

    cases = []
    for name in CATALOG_NAMES:
        catalog = acceptance.triangular_catalog(name)
        reps = standard_reps(bundled_group(name))
        cases += [(rep, catalog.structures[m[0]].rmatrix) for m in catalog.dedup for rep in reps]
    monkeypatch.setattr(Matrix, "__matmul__", counting)
    for rep, r in cases:
        for n in (2, 3):
            if rep.dim**n <= charring.DIMENSION_CAP:
                exterior_power_char(rep, r, n)
                cyclic_operation_char(rep, r, n, root_of_unity(n))
    assert calls["matmul"] == 0


def test_braided_items_form_no_tensor_product(monkeypatch):
    # The braided symmetric-group action at n = 2 and 3, the exterior square
    # and the cyclic operation at p = 2, on the regular representation of
    # each of the 22 distinct triangular structures, each on a fresh
    # Braiding: unitarity is read off R's rows, so none forms a GATensor
    # product (each formed one, R R21, when unitarity was the product).
    cases = [
        (regular_rep(catalog.group), catalog.structures[members[0]].rmatrix)
        for catalog in map(acceptance.triangular_catalog, CATALOG_NAMES)
        for members in catalog.dedup
    ]
    assert len(cases) == 22
    products, real_mul = [], GATensor.__mul__
    monkeypatch.setattr(GATensor, "__mul__", lambda left, right: products.append(left) or real_mul(left, right))
    for rep, r in cases:
        BraidedAction(rep, r, 2)
        BraidedAction(rep, r, 3)
        exterior_power_char(rep, r, 2)
        cyclic_operation_char(rep, r, 2, root_of_unity(2, 1))
    assert products == []


def test_exterior_projector_failures_carry_witnesses():
    # A unitary R that fails the braid relation is refused at the cube with
    # the first term where the Yang-Baxter sides differ; s (x) s satisfies
    # it but is not conjugation invariant, and is refused at the square with
    # the first element g whose g (x) g moves R, and the first term where R
    # and its conjugate differ.  The regular rep is faithful, so both
    # differences have a nonzero image.
    rep = regular_rep(bundled_group("S3"))
    r = _noncommuting_twist()
    with pytest.raises(ValueError, match="^adjacent generators fail the braid relation$") as caught:
        exterior_power_char(rep, r, 3)
    assert caught.value.witness == difference_witness(*LegProducts(r).yang_baxter_sides)

    r = _transposition_square()
    g = next(g for g in rep.group.elements() if not commutes_with_diagonal(r, g))
    conj = r.adjoint_action(g, 1).adjoint_action(g, 2)
    with pytest.raises(ValueError, match="^the braided action is not equivariant$") as caught:
        exterior_power_char(rep, r, 2)
    assert caught.value.witness == difference_witness(r, conj, element=g)


def _reference_checked_exterior_power_char(rep, rmatrix, n):
    """The d^n projector from generator products: checked idempotent and
    equivariant, raising ValueError if it is not, then traced."""
    projector = _antisymmetrizer(BraidedAction(rep, rmatrix, n, validate=False))
    if projector @ projector != projector:
        raise ValueError("antisymmetrizer is not idempotent")
    for g in rep.group.elements():
        diag = _kron_power(rep, g, n)
        if projector @ diag != diag @ projector:
            raise ValueError("antisymmetrizer is not equivariant")
    return ClassFunction.from_function(
        rep.group, lambda g: (_kron_power(rep, g, n) @ projector).trace()
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc), getattr(exc, "witness", None)


def test_exterior_fallback_matches_generator_product_reference():
    # Every perturbed R on each catalog group, on the linear and regular
    # reps, at n = 2 and 3 wherever d^n <= 216, against the d^n projector
    # built from generator products, checked and traced: where it passes,
    # the same character; where it refuses, the refusal of ``check`` and
    # then ``validate``, message and witness.  The cases include non-faithful
    # reps that kill R's differences, projectors that are not idempotent or
    # not equivariant, and non-unitary R refused before any matrix is built.
    # At n = 3 a projector that passes is still refused, after ``validate``,
    # when R fails ``verify_qt``: the power sums need the hexagon identities.
    # That refuses 63 cubes; on 29 of them Newton's identity over the closed
    # form would differ from the projector's trace.
    outcomes = Counter()
    for name in CATALOG_NAMES:
        group = bundled_group(name)
        for r in _perturbations(group):
            braiding = Braiding(r)
            for rep in standard_reps(bundled_group(name)):
                for n in (2, 3):
                    if rep.dim**n > 216:
                        continue
                    actual = _outcome(exterior_power_char, rep, r, n)
                    expected = _outcome(_reference_checked_exterior_power_char, rep, r, n)
                    if isinstance(expected, tuple):
                        expected = (
                            _outcome(braiding.check, rep) or _outcome(braiding.validate, rep, n)
                        )
                        assert expected is not None, (name, rep.name, n)
                    elif n == 3 and not braiding.report.all_passed:
                        expected = _outcome(braiding._check_hexagons, n)
                    assert actual == expected, (name, rep.name, n)
                    outcomes[actual[0] if isinstance(actual, tuple) else "passed"] += 1
    hexagons = "braided power sums of degree 3 need an R-matrix; R fails "
    assert outcomes == {
        "passed": 65,
        hexagons + "commutes_with_diagonals": 32,
        hexagons + "coproduct_on_right_leg": 31,
        "the braided action is not equivariant": 13,
        "adjacent generators fail the braid relation": 1,
        "the symmetric-group action needs a unitary R-matrix": 58,
    }


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


def _reference_cyclic_operation_char(rep, rmatrix, p, eps):
    # The projector (1/p) sum eps^i tau^i formed as a matrix, tau built from
    # the identity by the generators of its word, then traced against
    # u^(x)p z^(x)p for each central z.
    action = BraidedAction(rep, rmatrix, p, validate=False)
    dim = rep.dim**p
    tau = Matrix.identity(dim)
    for slot in _adjacent_word(tuple(range(1, p)) + (0,)):
        tau = tau @ action.generators[slot - 1]
    acc = zero(dim, dim)
    power = Matrix.identity(dim)
    weight = CycScalar.one()
    for _ in range(p):
        acc = add(acc, scale(power, weight))
        power = power @ tau
        weight = weight * eps
    projector = scale(acc, Fraction(1, p))
    u_power = _kron_power(rep, markov_element(rmatrix).grouplike_index(), p)
    return {
        z: (u_power @ _kron_power(rep, z, p) @ projector).trace()
        for z in rep.group.center()
    }


@pytest.mark.parametrize("name", acceptance.REGULAR_REP_GROUPS)
def test_cyclic_operation_matches_projector_reference(name):
    catalog = acceptance.triangular_catalog(name)
    rep = regular_rep(catalog.group)
    for members in catalog.dedup:
        r = catalog.structures[members[0]].rmatrix
        for p in (2, 3):
            for k in range(p):
                eps = root_of_unity(p, k)
                expected = _reference_cyclic_operation_char(rep, r, p, eps)
                assert cyclic_operation_char(rep, r, p, eps) == expected, (name, p, k)


def test_cyclic_value_matches_the_literal_weighted_sum():
    # (1/p) sum eps^i t_i by scalar arithmetic, on traces at mixed orders with
    # denominators past 1 and eps at an order no trace has: the weights eps^i
    # are lifted to the traces' order and carry none of their denominator.
    rng = random.Random(1997)
    orders, dens = (1, 2, 3, 4, 6, 8, 12), set()
    for eps_order in (5, 7, 9, 10):
        for p in range(1, 6):
            traces = []
            for _ in range(p):
                order = rng.choice(orders)
                coeffs = [Fraction(rng.randint(-6, 6), rng.randint(2, 9)) for _ in range(euler_phi(order))]
                traces.append(CycScalar(order, coeffs))
            dens.update(t.den for t in traces)
            eps = root_of_unity(eps_order, rng.randrange(1, eps_order))
            want = sum((eps**i * t for i, t in enumerate(traces)), CycScalar.zero()) * Fraction(1, p)
            got = charring._cyclic_value(traces, eps)
            assert (got.order, got.den, got.num) == (want.order, want.den, want.num), (eps, traces)
    assert max(dens) > 1


def _fresh_catalogs():
    """Enumerate the catalogs again, with no structure read yet.

    Each dedup class is one ``Braiding``, built with its catalog, and a
    ``Braiding`` binds its methods when it is built, so a patch of the class
    reaches only the catalogs enumerated after it; fresh catalogs also keep
    the counts below from depending on which tests ran first.
    """
    acceptance.qt_catalog.cache_clear()
    for name in CATALOG_NAMES:
        acceptance.triangular_catalog(name)
        standard_reps(bundled_group(name))


def _count_work(monkeypatch, criteria, **counted):
    """Install counters, enumerate fresh catalogs, then run criteria in order.

    Counts GATensor and Matrix products, ``BraidedAction`` builds and the
    calls of each ``Braiding`` method named in ``counted`` (a name mapped
    to the argument index that is recorded).  Returns the counts of the
    enumeration, then of each criterion, and the recorded arguments."""
    counts, recorded = Counter(), {name: [] for name in counted}

    def counting(owner, attr, key):
        real = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if key in counted:
                recorded[key].append(args[counted[key]])
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counting(GATensor, "__mul__", "tensor")
    counting(Matrix, "__matmul__", "matrix")
    counting(charring, "BraidedAction", "action")
    for name in counted:
        counting(Braiding, name, name)
    _fresh_catalogs()
    out = [counts.copy()]
    for criterion in criteria:
        before = counts.copy()
        assert criterion().passed
        out.append(counts - before)
    return out, recorded


def _count_criterion_work(monkeypatch, criterion, **counted):
    """Run one criterion on fresh catalogs and count its work (``_count_work``)."""
    (_, counts), recorded = _count_work(monkeypatch, [criterion], **counted)
    return counts, recorded


def test_criterion_06_forms_each_structures_braided_data_once(monkeypatch):
    # One Braiding per distinct triangular structure, shared by its reps,
    # and no GATensor product: unitarity is read off R's rows (22, one R R21
    # per structure, when it was the product).  Both hexagons are read off
    # R's slices (fact (c) of ``verify_qt``), so the braid relation at n = 3
    # (``yang_baxter_by_hexagon``) and the report, read once at n = 3, form
    # no product.  The power sums form none.  With R13 R23 and R13 R12
    # formed for the hexagons it took 66; forming the Yang-Baxter sides and
    # R (S x I)(R) too took 132; with ``verify_qt`` forming its own leg
    # products and sides it took 220; the long cycle at n = 3 as a product
    # took 1, 132 in all with no report read, the words of all permutations
    # at n = 3 took 176, and forming them per (structure, rep) took 837.
    counts, _ = _count_criterion_work(monkeypatch, acceptance.criterion_6)
    assert counts["tensor"] == 0
    assert counts["matrix"] == counts["action"] == 0


def test_criterion_07_reads_one_trace_table_per_structure_rep_and_prime(monkeypatch):
    # One long-cycle trace table for each of the 186 distinct (R, rep, p)
    # triples, shared by all roots, and no matrix action built for any.  The
    # categorical trace of z^p is read from the character, and unitarity
    # from R's rows: no GATensor product (22, one R R21 per structure, when
    # unitarity was the product), none for tau or its powers.  The report,
    # read once at p = 3, forms none: R's slices
    # decide both hexagons, and those with invariance decide the inverse
    # and Yang-Baxter.  With the report forming R's two leg products it
    # took 66, and with it forming the Yang-Baxter sides and R (S x I)(R)
    # too, 132.  Forming
    # tau and tau^i = tau^(i-1) tau as products took 66 with no report read
    # (88 when tau^i was the word of tau repeated i times), and forming them
    # per (structure, rep) took 372 GATensor and 574 Matrix products.
    counts, recorded = _count_criterion_work(
        monkeypatch, acceptance.criterion_7, long_cycle_traces=2
    )
    assert Counter(recorded["long_cycle_traces"]) == {2: 93, 3: 93}  # 186 tables
    assert counts["tensor"] == 0
    assert counts["matrix"] == counts["action"] == 0


def _products_inside_verify_qt(monkeypatch):
    """Count GATensor products, keyed "verify_qt" inside ``charring.verify_qt`` and None outside."""
    real_verify, real_mul = charring.verify_qt, GATensor.__mul__
    inside, products_at = [], Counter()

    def verify(tensor, *shared):
        inside.append("verify_qt")
        try:
            return real_verify(tensor, *shared)
        finally:
            inside.pop()

    def mul(left, right):
        products_at[inside[-1] if inside else None] += 1
        return real_mul(left, right)

    monkeypatch.setattr(charring, "verify_qt", verify)
    monkeypatch.setattr(GATensor, "__mul__", mul)
    return products_at


def test_long_cycle_powers_form_no_product(monkeypatch):
    # At p = 3 on a fresh Braiding no GATensor product: unitarity is read off
    # R's rows (R R21 outside ``verify_qt`` when it was the product), and the
    # report, read for the hexagon identities, whose ``verify_qt`` forms no
    # product: R's slices decide both hexagons (2 inside when it formed R's
    # leg products), and the left hexagon and invariance decide the inverse
    # and Yang-Baxter (5 outside and 1 inside when the report formed them).
    # tau and tau^2 form no GATensor product (one each when they were built
    # as products).
    catalog = acceptance.triangular_catalog("D4")
    rmats = (catalog.structures[m[0]].rmatrix for m in catalog.dedup)
    r = next(t for t in rmats if len(t.terms) == 16)
    rep = regular_rep(catalog.group)
    expected = _reference_cyclic_operation_char(rep, r, 3, root_of_unity(3))
    products_at = _products_inside_verify_qt(monkeypatch)
    assert cyclic_operation_char(rep, r, 3, root_of_unity(3)) == expected
    assert products_at == {}


def test_criterion_10_forms_braiding_differences_once_per_structure_and_power(monkeypatch):
    # One list of R's braided differences for each of the 22 distinct
    # triangular structures and n = 2, 3, validated on every rep with no
    # matrix action built and no GATensor product: unitarity is read off R's
    # rows (22, one R R21 per structure, when it was the product).  The
    # left hexagon, read off R's slices, with invariance leaves out the
    # Yang-Baxter difference.  Forming R13 R23 for the hexagon took 44;
    # forming R's leg products and Yang-Baxter sides too took 110; building
    # one action per (structure, rep, power) took 316 GATensor and 206
    # Matrix products.
    counts, recorded = _count_criterion_work(
        monkeypatch, acceptance.criterion_10, _differences=1
    )
    assert Counter(recorded["_differences"]) == {2: 22, 3: 22}  # 44 formations
    assert counts["tensor"] == 0
    assert counts["matrix"] == counts["action"] == 0


def test_criteria_06_07_10_share_each_structures_braiding(monkeypatch):
    # On the same catalogs the three criteria read one ``Braiding`` per
    # distinct triangular structure, the one its catalog built for its dedup
    # class, and build none.  None forms a GATensor product: unitarity is
    # read off R's rows (criterion 6 formed 22, R R21 per structure, when it
    # was the product); the differences at n <= 3 and, at n = 3, the report
    # (``verify_qt``) read both hexagons off R's slices and form nothing,
    # nor do criteria 7 and 10.  With the
    # hexagons compared with R13 R23 and R13 R12, criterion 6 took 66, 22
    # of them inside ``verify_qt``.  With the differences forming the
    # Yang-Baxter sides, criterion 6 took 132 products, 22 of them inside
    # ``verify_qt``; with ``verify_qt`` forming its own leg products and
    # sides, 220, 110 of them inside it.  Each building
    # its own ``Braiding`` took 220, 132 and 110 products.  With the long
    # cycle and its powers formed as products the counts were 132, 22
    # (tau^2 at p = 3) and 0, and no report was read.
    products_at = _products_inside_verify_qt(monkeypatch)
    criteria = [acceptance.criterion_6, acceptance.criterion_7, acceptance.criterion_10]
    (build, *per_criterion), recorded = _count_work(
        monkeypatch, criteria, __init__=0, exterior_power_char=0, long_cycle_traces=0, check=0
    )
    assert build["tensor"] == 0 and build["__init__"] == 44  # one per distinct structure
    assert [c["tensor"] for c in per_criterion] == [0, 0, 0]
    assert products_at == {}
    assert [c["__init__"] for c in per_criterion] == [0, 0, 0]
    triangular = {
        id(s) for name in CATALOG_NAMES for s in acceptance.triangular_catalog(name).structures
    }
    assert len(triangular) == 22
    for method in ("exterior_power_char", "long_cycle_traces", "check"):
        assert {id(b) for b in recorded[method]} == triangular, method
    assert all(c["matrix"] == c["action"] == 0 for c in per_criterion)


def _leg_permutation_matrix(d, perm):
    """T_pi on the len(perm)-th tensor power of k^d: slot i moves to slot perm[i]."""
    n = len(perm)
    images = []
    for digits in itertools.product(range(d), repeat=n):
        moved = [0] * n
        for i, a in enumerate(digits):
            moved[perm[i]] = a
        images.append(sum(a * d ** (n - 1 - k) for k, a in enumerate(moved)))
    return Matrix.from_permutation(images)


@pytest.mark.parametrize(
    "group, make_r",
    [("Z2", koszul), ("S3", _noncommuting_twist), ("S3", _transposition_square)],
    ids=["koszul", "noncommuting-twist", "transposition-square"],
)
def test_word_operators_equal_the_generator_products(group, make_r):
    # For every permutation of three legs, the (X, pi) of its word, R's
    # letters folded with ``long_cycles.compose``, maps to rho(X) T_pi, the
    # product of the d^3 generators along the word, and its character sum
    # against each g equals the trace of g^(x)3 times that product; R need
    # not be an R-matrix for either to hold.
    r = make_r()
    rep = regular_rep(bundled_group(group))
    action = _with_rmatrix(rep, 3, r)
    ops = _word_operators(r, 3)
    elements = list(rep.group.elements())
    for perm in itertools.permutations(range(3)):
        op = ops(tuple(_adjacent_word(perm)))
        x, pi = op
        operator = _permutation_matrix(action, perm)
        assert charring._image(rep, x) @ _leg_permutation_matrix(rep.dim, pi) == operator
        traces = operator_traces(rep.character(), op, elements)
        assert traces == [(_kron_power(rep, g, 3) @ operator).trace() for g in elements], perm


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
    autos = incl.conjugation_automorphisms()
    beta = [
        b
        for b in enumerate_biforms(incl.domain)
        if b.is_nondegenerate() and b.is_skewsymmetric() and b.is_invariant(autos)
    ][0]
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


def test_power_sums_and_exterior_powers_against_twisted_adams():
    # An oracle outside the braided layer: the power sum p_k(g) =
    # tr(g^(x)k tau_k) against psi^k_u(chi)(g) = chi(u^(k+1) g^k), 2 <= k <= 6,
    # and Lambda^n against the Newton value lambda^n_u(chi), n <= 6, on every
    # distinct triangular structure and standard rep.  Neither ``_power_sum``
    # nor ``exterior_power_char`` builds a d^n matrix, so no d^n is skipped;
    # skipping d^n past ``DIMENSION_CAP`` left out k = 5, 6 on the regular
    # reps of S3, D4 and Q8 (497 p and 703 lambda).  They agree except on
    # D4's regular rep at its four Klein-supported 16-term structures (see
    # the test above): p_2, and p_6, which equals it on both sides as D4 has
    # exponent 4, and so Lambda^2, Lambda^4 and Lambda^6, differ at
    # noncentral classes.
    counts, differ = Counter(), set()
    for name, catalog, members, structure in acceptance._triangular_classes():
        u = structure.markov.grouplike_index()
        at = (name, catalog.dedup.index(members), len(structure.rmatrix.terms))
        for rep in standard_reps(bundled_group(name)):
            chi = rep.character()
            classes = [cls_[0] for cls_ in rep.group.conjugacy_classes()]
            for k in range(7):
                if k >= 2:
                    power_sum = ClassFunction._make(
                        rep.group, *charring._power_sum(structure.rmatrix, chi, k, classes)
                    )
                    counts["p"] += 1
                    if power_sum != adams_twisted(chi, u, k):
                        differ.add(("p", *at, rep.name, k))
                counts["lambda"] += 1
                if structure.exterior_power_char(rep, k) != lambda_from_adams(chi, k, u):
                    differ.add(("lambda", *at, rep.name, k))
    assert counts == {"p": 515, "lambda": 721}
    klein = [("D4", index, 16, "regular(D4)") for index in (2, 3, 4, 5)]
    assert differ == {("p", *case, k) for case in klein for k in (2, 6)} | {
        ("lambda", *case, n) for case in klein for n in (2, 4, 6)
    }


def test_exterior_powers_form_no_long_cycle(monkeypatch):
    # On the first 16-term Z2xZ2 structure, all five standard reps at
    # n = 2 .. 6 form no GATensor product on one Braiding: unitarity is read
    # off R's rows (1, R R21, when it was the product).  R's slices
    # decide both hexagons, for the differences at every n >= 3 and for the
    # report's ``verify_qt``; the left one with invariance leaves out the
    # Yang-Baxter sides and gives R's inverse.  Forming R13 R23 and R13 R12
    # for the hexagons took 3; forming the sides and R (S x I)(R) too took 6
    # (16 when each n formed the sides; 10 when ``verify_qt`` formed its
    # own).  The power sums form
    # none: tau_k at one product per letter after the first took 10, and the
    # n! signed words took at least 714 at n = 6 alone, and over a minute.
    catalog = acceptance.triangular_catalog("Z2xZ2")
    r = next(s.rmatrix for s in catalog.structures if len(s.rmatrix.terms) == 16)
    braiding, reps = Braiding(r), standard_reps(bundled_group("Z2xZ2"))
    products_at = _products_inside_verify_qt(monkeypatch)
    for n in range(2, 7):
        for rep in reps:
            braiding.exterior_power_char(rep, n)
    assert len(reps) == 5 and products_at == {}


def test_power_sums_and_cycle_tables_match_the_long_cycle_products():
    # The closed forms against the GATensor-product oracle (``long_cycles``),
    # which traces the long cycle and its powers without any hexagon
    # identity: on the 22 unitary catalog structures and every standard rep,
    # p_k at k = 2 .. 5 on every class, and the long-cycle trace table at
    # p = 2 .. 4 wherever d^p <= DIMENSION_CAP.
    unitary = [
        catalog.structures[members[0]]
        for catalog in map(acceptance.qt_catalog, CATALOG_NAMES)
        for members in catalog.dedup
        if catalog.structures[members[0]].unitary
    ]
    assert len(unitary) == 22
    counts = Counter()
    for structure in unitary:
        r = structure.rmatrix
        classes = [cls_[0] for cls_ in r.group.conjugacy_classes()]
        for rep in standard_reps(r.group):
            chi = rep.character()
            for k in range(2, 6):
                closed = ClassFunction._make(r.group, *charring._power_sum(r, chi, k, classes))
                assert closed == long_cycles.power_sum(r, chi, k), (rep.name, k)
                counts["p"] += 1
            for p in range(2, 5):
                if rep.dim**p <= charring.DIMENSION_CAP:
                    expected = long_cycles.long_cycle_traces(rep, r, p)
                    assert structure.long_cycle_traces(rep, p) == expected, (rep.name, p)
                    counts["table"] += 1
    assert counts == {"p": 412, "table": 309}


def test_power_sums_on_a_warm_braiding_form_no_product(monkeypatch):
    # Once R's report, R R21 and braided differences exist, the first
    # exterior power at n = 2 .. 5 and the first long-cycle table at
    # p = 2 .. 5 form no GATensor product on any standard rep: the power
    # sums are read from R's terms.  With tau_k formed as a product, every
    # degree >= 3 formed at least one.
    catalog = acceptance.triangular_catalog("Z2xZ2")
    r = next(s.rmatrix for s in catalog.structures if len(s.rmatrix.terms) == 16)
    braiding = Braiding(r)
    assert braiding.report.all_passed and braiding.unitary
    for n in range(2, 6):
        braiding.differences(n)
    reps = standard_reps(r.group)
    expected = {
        (rep.name, n): long_cycles.long_cycle_traces(rep, r, n) for rep in reps for n in range(2, 6)
    }

    def no_product(*args):
        raise AssertionError("a GATensor product was formed")

    monkeypatch.setattr(GATensor, "__mul__", no_product)
    for rep in reps:
        for n in range(2, 6):
            braiding.exterior_power_char(rep, n)
            assert braiding.long_cycle_traces(rep, n) == expected[rep.name, n]


def test_power_sums_past_degree_two_refuse_an_r_that_fails_the_hexagons():
    # R = g (x) g on Z2 is unitary, solves Yang-Baxter, commutes with every
    # diagonal and has Markov element e, but fails both hexagons (and both
    # counit laws).  At degree
    # 2 the closed form is the literal trace; at degree 3 it is not: the
    # literal p_3(h) is chi(h^3) and the closed form gives chi(h^3 g).  So
    # the cube and the table at p = 3 are refused (they returned the literal
    # values when the long cycle was formed as a product).
    z2 = bundled_group("Z2")
    r, rep = GATensor.basis(z2, 1, 1), regular_rep(z2)
    braiding, chi = Braiding(r), rep.character()
    assert braiding.unitary and braiding.markov_index == z2.identity
    assert braiding.differences(3) == []
    failed = [c.name for c in braiding.report.failed()]
    assert failed == [
        "coproduct_on_right_leg", "coproduct_on_left_leg", "counit_left", "counit_right"
    ]
    assert long_cycles.power_sum(r, chi, 3) == ClassFunction(z2, [2, 0])
    assert ClassFunction._make(z2, *charring._power_sum(r, chi, 3, [0, 1])) == ClassFunction(
        z2, [0, 2]
    )
    assert exterior_power_char(rep, r, 2) == _reference_exterior_power_char(rep, r, 2)
    assert braiding.long_cycle_traces(rep, 2) == long_cycles.long_cycle_traces(rep, r, 2)
    message = "^braided power sums of degree 3 need an R-matrix; R fails coproduct_on_right_leg$"
    with pytest.raises(ValueError, match=message) as caught:
        exterior_power_char(rep, r, 3)
    assert caught.value.witness["check"] == "coproduct_on_right_leg"
    with pytest.raises(ValueError, match=message):
        braiding.long_cycle_traces(rep, 3)
    with pytest.raises(ValueError, match=message):
        cyclic_operation_char(rep, r, 3, root_of_unity(3))
