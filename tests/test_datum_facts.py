"""The datum layer's shared facts against the per-datum routes they replace.

An inclusion decides normality, its conjugation action on the domain and
its automorphisms once; a form decides nondegeneracy once and invariance
once per automorphism set; the character sum reads a_chi and chi(a) as
integer exponents; and a catalog keys each dedup class by the character
sum's integer table, building R once per class.  Each is compared here
with the route it replaced: the g x a conjugation loop, ``exponent_of``
on the dual basis with chi(a) from a formula of this file (shared with
no code under test), and the dedup keyed by every datum's stored
element.  The groups are the seven catalog groups plus Z6, Z8, Z4xZ2, the
dihedral group of order 12 and A4, whose 3-cycles act on the Klein group
by automorphisms of order 3, so listing the rows by g and by g^-1 gives
different orders.
"""

import itertools
from functools import lru_cache

import pytest

from qtriang import jsonio
from qtriang.classify import _catalog, _enumerate_data
from qtriang.cyclotomic import CycScalar, root_power_table
from qtriang.groups import (
    CATALOG_NAMES,
    FiniteGroup,
    Inclusion,
    _generator_tuples,
    bundled_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    enumerate_biforms,
    same_module_structure,
)
from qtriang.hopf import GATensor
from qtriang.rmatrix import QTDatum, _character_sum, koszul_twist

EXTRA = ("Z6", "Z8", "Z4xZ2", "D6", "A4")
# (data, dedup classes) on the groups beyond the catalog.
EXTRA_SIZES = {"Z6": (18, 6), "Z8": (74, 8), "Z4xZ2": (770, 32), "D6": (18, 6), "A4": (55, 4)}


def _alternating_group_4():
    perms = [p for p in itertools.permutations(range(4)) if _is_even(p)]
    index = {p: i for i, p in enumerate(perms)}
    return FiniteGroup([[index[tuple(p[q[x]] for x in range(4))] for q in perms] for p in perms])


def _is_even(perm):
    return sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 == 0


# The group files that the classify and group tests read.
GROUP_FILES = {
    "Z2xZ4-file": {"abelian": [2, 4]},
    "D3-file": {"name": "D3", "table": [list(row) for row in dihedral_group(3).table]},
}


@lru_cache(maxsize=None)
def _group(name):
    if name in CATALOG_NAMES:
        return bundled_group(name)
    if name in GROUP_FILES:
        return jsonio.group_from_json(GROUP_FILES[name])
    return {
        "Z6": lambda: cyclic_group(6),
        "Z8": lambda: cyclic_group(8),
        "Z4xZ2": lambda: direct_product(cyclic_group(4), cyclic_group(2)),
        "D6": lambda: dihedral_group(6),
        "A4": _alternating_group_4,
    }[name]()


@lru_cache(maxsize=None)
def _data(name):
    return tuple(_enumerate_data(_group(name)))


# -- the per-datum routes ------------------------------------------------------


def _reference_is_normal(incl):
    group = incl.group
    return all(
        {group.conjugate(x, g) for x in incl.image} == incl.image for g in group.elements()
    )


def _reference_same_module_structure(first, second):
    if first.group != second.group or first.domain != second.domain:
        return False
    group = first.group
    for g in group.elements():
        for a in first.domain.elements():
            left = first.backward[group.conjugate(first.forward[a], g)]
            right = second.backward[group.conjugate(second.forward[a], g)]
            if left != right:
                return False
    return True


def _reference_automorphisms(incl):
    """Distinct maps a -> g^-1 a g, as dicts, in order of g."""
    group = incl.group
    autos, seen = [], set()
    for g in group.elements():
        mapping = {
            a: incl.backward[group.conjugate(incl.forward[a], group.inverses[g])]
            for a in incl.domain.elements()
        }
        key = tuple(sorted(mapping.items()))
        if key not in seen:
            seen.add(key)
            autos.append(mapping)
    return autos


def _chi_at(parent, chi, a):
    """k with chi(a) = zeta_e^k: chi_i(a) = zeta_(n_i)^(chi_i a_i), zeta_(n_i) = zeta_e^(e/n_i)."""
    e = parent.exponent
    return sum((k * x % n) * (e // n) for k, x, n in zip(chi, a, parent.factors)) % e


def _reference_is_nondegenerate(form):
    gens = form.parent.generators()
    kernel = [
        chi for chi in form.parent.elements() if all(form.exponent_of(chi, g) == 0 for g in gens)
    ]
    return len(kernel) == 1


def _reference_is_invariant(form, automorphisms):
    parent = form.parent
    e = parent.exponent
    gens = parent.generators()
    for auto in automorphisms:
        twisted = []
        for chi in gens:
            exps = []
            for i, n in enumerate(parent.factors):
                k = _chi_at(parent, chi, auto[gens[i]])
                assert k % (e // n) == 0
                exps.append((k // (e // n)) % n)
            twisted.append(tuple(exps))
        for a, ta in zip(gens, twisted):
            for b, tb in zip(gens, twisted):
                if form.exponent_of(ta, tb) != form.exponent_of(a, b):
                    return False
    return True


def _reference_character_sum(domain, incl_left, incl_right, form):
    """The character sum with a_chi from ``exponent_of`` and chi(a) from ``_chi_at``."""
    e = domain.exponent
    powers = root_power_table(e)
    gens = domain.generators()
    elements = list(domain.elements())
    sums = {}
    for chi in elements:
        b = tuple(
            -(form.exponent_of(chi, g) // (e // n)) % n for g, n in zip(gens, domain.factors)
        )
        for a in elements:
            acc = sums.setdefault((a, b), [0] * len(powers[0]))
            for idx, c in enumerate(powers[_chi_at(domain, chi, a)]):
                acc[idx] += c
    terms = {}
    for (a, b), coeffs in sorted(sums.items()):
        scalar = CycScalar._make(e, domain.order, tuple(coeffs))
        if scalar:
            terms[(incl_left.apply(a), incl_right.apply(b))] = scalar
    return GATensor(incl_left.group, 2, terms)


def _stored_form(tensor):
    return tuple((key, c.order, c.den, c.num) for key, c in tensor.terms.items())


# -- comparisons -----------------------------------------------------------------


def _shapes(name):
    return list(dict.fromkeys(d.domain for d in _data(name)))


@pytest.mark.parametrize("name", [*CATALOG_NAMES, *EXTRA, *GROUP_FILES])
def test_every_enumerated_datum_validates(name, monkeypatch):
    # The enumeration decides each datum's invariants from its inclusions and
    # forms and builds it without ``validate``; ``validate`` agrees on each.
    def no_validate(datum):
        raise AssertionError("an enumerated datum was validated again")

    with monkeypatch.context() as patched:
        patched.setattr(QTDatum, "validate", no_validate)
        data = _enumerate_data(_group(name))
    assert len(data) == len(_data(name)) > 0
    for datum in data:
        datum.validate()


@pytest.mark.parametrize("name", [*CATALOG_NAMES, *EXTRA])
def test_inclusion_facts_match_the_conjugation_loop(name):
    group = _group(name)
    nonnormal = 0
    for domain in _shapes(name):
        # Every inclusion of the domain, normal or not.
        every = [
            Inclusion(group, domain, gens)
            for gens in _generator_tuples(group, domain.factors, group.elements())
        ]
        for incl in every:
            assert incl.is_normal() == _reference_is_normal(incl)
        normal = [i for i in every if _reference_is_normal(i)]
        nonnormal += len(every) - len(normal)
        for incl in normal:
            rows = tuple(
                tuple(auto[a] for a in domain.elements()) for auto in _reference_automorphisms(incl)
            )
            assert incl.conjugation_automorphisms() == rows
        for first in normal:
            for second in normal:
                assert same_module_structure(first, second) == _reference_same_module_structure(
                    first, second
                )
    if name in ("D4", "D6"):
        assert nonnormal  # the reflections generate non-normal subgroups of order 2


@pytest.mark.parametrize("name", [*CATALOG_NAMES, *EXTRA])
def test_form_facts_match_the_character_route(name):
    data = _data(name)
    autos = {}
    for datum in data:
        incl = datum.incl_left
        autos.setdefault(datum.domain, {})[incl.conjugation_automorphisms()] = (
            _reference_automorphisms(incl)
        )
    for domain, sets in autos.items():
        for form in enumerate_biforms(domain):
            assert form.is_nondegenerate() == _reference_is_nondegenerate(form)
            for rows, dicts in sets.items():
                assert form.is_invariant(rows) == _reference_is_invariant(form, dicts)


@pytest.mark.parametrize("name", [*CATALOG_NAMES, *EXTRA])
def test_dedup_and_character_sums_match_the_stored_form_route(name):
    # Oracle: every datum built through the exponent_of route and grouped by
    # its stored element, classes in order of their first member.
    data = list(_data(name))
    builds = [
        _reference_character_sum(d.domain, d.incl_left, d.incl_right, d.beta) for d in data
    ]
    classes = {}
    for idx, built in enumerate(builds):
        classes.setdefault(tuple(sorted(_stored_form(built))), []).append(idx)
    catalog = _catalog(_group(name), data)
    assert catalog.dedup == list(classes.values())
    for members in catalog.dedup:
        # The class's R is its first member's build, term order included.
        shared = catalog.structures[members[0]].rmatrix
        assert _stored_form(shared) == _stored_form(builds[members[0]])
        for idx in members:
            assert catalog.structures[idx] is catalog.structures[members[0]]
    if name in EXTRA_SIZES:
        assert (len(data), len(classes)) == EXTRA_SIZES[name]
    # The twist's gamma, which may be degenerate, and every form on each
    # domain (degenerate ones included) through one inclusion pair.
    gammas = []
    for idx, datum in enumerate(data):
        if not datum.triangular:
            continue
        structure = catalog.structures[idx]
        gamma = koszul_twist(datum, structure.rmatrix, structure.markov).gamma
        gammas.append(gamma)
        incl = datum.incl_left
        assert _stored_form(_character_sum(datum.domain, incl, incl, gamma)) == _stored_form(
            _reference_character_sum(datum.domain, incl, incl, gamma)
        )
    pairs = {d.domain: (d.incl_left, d.incl_right) for d in data}
    for domain, (left, right) in pairs.items():
        for form in enumerate_biforms(domain):
            assert _stored_form(_character_sum(domain, left, right, form)) == _stored_form(
                _reference_character_sum(domain, left, right, form)
            )
    if name == "Z2xZ2":
        assert any(not gamma.is_nondegenerate() for gamma in gammas)
