"""Exhaustive enumeration of R-matrices on k[G] for small groups.

The enumeration walks abelian normal subgroups, takes one abstract abelian
group per invariant-factor shape, pairs up normal inclusions that induce
the same conjugation maps, and attaches every nondegenerate
conjugation-invariant form.  Every datum is built; each distinct element
is one ``Structure``, shared by the data that build it, whose checks are
run once, on first use.  The triangular catalog is a view of the full one.
Distinct data that build the same element bit-for-bit are grouped into
dedup classes rather than being interpreted away.

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
    abelian_normal_subgroups,
    enumerate_biforms,
    normal_inclusions,
    same_module_structure,
    subgroup_structure,
)
from .hopf import GATensor
from .rmatrix import QTDatum, VerificationReport, build_r, markov_element, verify_qt

COMPLETENESS_NOTE = (
    "every listed structure is verified exactly; completeness of the list "
    "follows from the classification of R-matrices on group algebras by "
    "subgroup data and is not re-verified by search over the infinite field"
)


@dataclass(eq=False)
class Structure:
    """One distinct element of a catalog; what is read from it is formed on first use."""

    rmatrix: GATensor

    @cached_property
    def report(self) -> VerificationReport:
        return verify_qt(self.rmatrix)

    @cached_property
    def markov(self) -> GATensor:
        return markov_element(self.rmatrix)

    @cached_property
    def braiding(self) -> Braiding:
        return Braiding(self.rmatrix)

    @cached_property
    def unitary(self) -> bool:
        """R R21 = 1 (``verify_unitary``), from the R R21 the braiding keeps."""
        return self.braiding.square.is_unit()


@dataclass
class Catalog:
    """All structures found on one group; the data of a dedup class share one ``Structure``."""

    group: FiniteGroup
    data: list[QTDatum] = field(default_factory=list)
    structures: list[Structure] = field(default_factory=list)
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
    if group.size > 64:
        raise ValueError("enumeration is capped at groups of order 64")
    shapes: list[AbelianGroup] = []
    seen = set()
    for subgroup in abelian_normal_subgroups(group):
        factors = subgroup_structure(group, subgroup).domain.factors
        if factors not in seen:
            seen.add(factors)
            shapes.append(AbelianGroup(factors) if factors else AbelianGroup(()))
    data: list[QTDatum] = []
    for domain in shapes:
        inclusions = sorted(normal_inclusions(domain, group), key=lambda i: i.gen_images)
        for left in inclusions:
            autos = left.conjugation_automorphisms()
            forms = enumerate_biforms(domain, autos, nondegenerate=True, g_invariant=True)
            for right in inclusions:
                if right is not left and not same_module_structure(left, right):
                    continue
                for beta in forms:
                    data.append(QTDatum(group, domain, left, right, beta))
    return data


def _catalog(group: FiniteGroup, data: list[QTDatum]) -> Catalog:
    catalog = Catalog(group=group, data=data)
    # Data that build the same element store it bit-identically: build_r
    # stores every coefficient at the exponent of A, and R fixes A through its
    # left support i(A).  So the stored form keys both the shared ``Structure``
    # and the dedup classes, which come out ordered by their first member.
    classes: dict = {}
    for idx, datum in enumerate(data):
        built = build_r(datum)
        exact = tuple(sorted((key, c.order, c.den, c.num) for key, c in built.terms.items()))
        if exact not in classes:
            classes[exact] = (Structure(built), [])
        structure, members = classes[exact]
        catalog.structures.append(structure)
        members.append(idx)
    catalog.dedup = [members for _, members in classes.values()]
    return catalog


def enumerate_qt(group: FiniteGroup) -> Catalog:
    """Catalog of all structures on k[G]; deterministic over iteration order."""
    return _catalog(group, _enumerate_data(group))
