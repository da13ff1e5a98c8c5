"""Exhaustive enumeration of R-matrices on k[G] for small groups.

The enumeration walks abelian normal subgroups, takes one abstract abelian
group per invariant-factor shape, pairs up normal inclusions that induce
the same conjugation maps, and attaches every nondegenerate
conjugation-invariant form.  Each inclusion decides its normality and
conjugation action once, and each form its nondegeneracy and
skew-symmetry once and its invariance once per automorphism set, so a
datum's checks and its triangular flag are lookups.
Distinct data that build the same element bit-for-bit are grouped into
dedup classes rather than being interpreted away.  A class is keyed by
(e, |A|, the rows {(i(a), j(b)): c} of the character sum's integer table)
with e the exponent of A.  R fixes e and |A|: it stores those rows at order
e over the denominator |A|, in lowest terms, and its left support is i(A),
so keys are equal exactly when the stored elements are, and R is built
once per class, from its first member's rows.  Each class
is one ``charring.Braiding`` of its R, whose report, Markov element,
unitarity and braided data are formed once, on first use.  The triangular
catalog is a view of the full one.  A group with more than ``DATA_CAP``
data is refused before any datum is built.

Completeness of this parametrization is inherited from the classification
theorem for group algebras and is not re-verified by search (the ground
field is infinite); the artifact checks soundness and distinctness only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .charring import Braiding
from .groups import (
    AbelianGroup,
    FiniteGroup,
    abelian_factors,
    abelian_normal_subgroups,
    enumerate_biforms,
    normal_inclusions,
    same_module_structure,
)
from .rmatrix import QTDatum, build_r, character_rows, character_table

COMPLETENESS_NOTE = (
    "every listed structure is verified exactly; completeness of the list "
    "follows from the classification of R-matrices on group algebras by "
    "subgroup data and is not re-verified by search over the infinite field"
)

#: Most classification data ``enumerate_qt`` builds for one group.
DATA_CAP = 32768


class DataCapError(ValueError):
    """A group with more classification data than ``DATA_CAP``."""


@dataclass
class Catalog:
    """All structures found on one group; the data of a dedup class share one ``Braiding``."""

    group: FiniteGroup
    data: list[QTDatum] = field(default_factory=list)
    structures: list[Braiding] = field(default_factory=list)
    dedup: list[list[int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.data)

    @property
    def all_verified(self) -> bool:
        return all(s.report.all_passed for s in self.structures)

    @cached_property
    def triangular(self) -> Catalog:
        """The triangular data in order, with their structures, grouped by structure."""
        keep = [i for i, datum in enumerate(self.data) if datum.triangular]
        structures = [self.structures[i] for i in keep]
        dedup = [[i for i, t in enumerate(structures) if t is s] for s in dict.fromkeys(structures)]
        return Catalog(self.group, [self.data[i] for i in keep], structures, dedup)


def _enumerate_data(group: FiniteGroup) -> list[QTDatum]:
    shapes: list[AbelianGroup] = []
    seen = set()
    for subgroup in abelian_normal_subgroups(group):
        factors = abelian_factors(group, subgroup)
        if factors not in seen:
            seen.add(factors)
            shapes.append(AbelianGroup(factors))
    # Per left inclusion, its compatible right inclusions and invariant forms.
    plan = []
    for domain in shapes:
        inclusions = sorted(normal_inclusions(domain, group), key=lambda i: i.gen_images)
        nondegenerate = [beta for beta in enumerate_biforms(domain) if beta.is_nondegenerate()]
        for left in inclusions:
            autos = left.conjugation_automorphisms()
            forms = [beta for beta in nondegenerate if beta.is_invariant(autos)]
            rights = [r for r in inclusions if r is left or same_module_structure(left, r)]
            plan.append((domain, left, rights, forms))
    count = sum(len(rights) * len(forms) for _, _, rights, forms in plan)
    if count > DATA_CAP:
        raise DataCapError(f"{group.name} has {count} classification data, past the cap {DATA_CAP}")
    # Each datum's eight checks were decided above: normality by
    # ``normal_inclusions``, the rest by the filters of ``plan``.
    return [QTDatum._checked(group, domain, left, right, beta)
            for domain, left, rights, forms in plan for right in rights for beta in forms]


def _catalog(group: FiniteGroup, data: list[QTDatum]) -> Catalog:
    catalog = Catalog(group=group, data=data)
    # The integer table is formed once per form and carried through each
    # datum's inclusions into R's rows; (a, b) -> (i(a), j(b)) is injective,
    # so the rows hold the table's terms unmerged.  Classes come out ordered
    # by their first member, whose rows build the class's R.
    tables: dict = {}
    classes: dict = {}
    for idx, datum in enumerate(data):
        domain, beta = datum.domain, datum.beta
        if beta not in tables:
            tables[beta] = character_table(domain, beta)
        rows = character_rows(tables[beta], datum.incl_left, datum.incl_right)
        key = (domain.exponent, domain.order, frozenset(rows.items()))
        if key not in classes:
            classes[key] = (Braiding(build_r(datum, rows)), [])
        structure, members = classes[key]
        catalog.structures.append(structure)
        members.append(idx)
    catalog.dedup = [members for _, members in classes.values()]
    return catalog


def enumerate_qt(group: FiniteGroup) -> Catalog:
    """Catalog of all structures on k[G]; deterministic over iteration order."""
    return _catalog(group, _enumerate_data(group))
