"""Exhaustive enumeration of R-matrices on k[G] for small groups.

The enumeration walks abelian normal subgroups, takes one abstract abelian
group per invariant-factor shape, pairs up normal inclusions that induce
the same conjugation maps, and attaches every nondegenerate
conjugation-invariant form.  Every datum is built, and each distinct
element is verified in full once; the data that build it share that
verification.  Distinct data that build the same element bit-for-bit are
grouped into dedup classes rather than being interpreted away.

Completeness of this parametrization is inherited from the classification
theorem for group algebras and is not re-verified by search (the ground
field is infinite); the artifact checks soundness and distinctness only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .rmatrix import (
    QTDatum,
    VerificationReport,
    build_r,
    markov_element,
    verify_qt,
    verify_unitary,
)

COMPLETENESS_NOTE = (
    "every listed structure is verified exactly; completeness of the list "
    "follows from the classification of R-matrices on group algebras by "
    "subgroup data and is not re-verified by search over the infinite field"
)


@dataclass
class Catalog:
    """All structures found on one group, with their verification results."""

    group: FiniteGroup
    data: list[QTDatum] = field(default_factory=list)
    rmats: list[GATensor] = field(default_factory=list)
    reports: list[VerificationReport] = field(default_factory=list)
    markovs: list[GATensor] = field(default_factory=list)
    unitary: list[bool] = field(default_factory=list)
    dedup: list[list[int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.data)

    @property
    def all_verified(self) -> bool:
        return all(r.all_passed for r in self.reports)

    def dedup_class_of(self, index: int) -> int:
        for cls_id, members in enumerate(self.dedup):
            if index in members:
                return cls_id
        raise IndexError(index)


def _enumerate_data(group: FiniteGroup, triangular_only: bool) -> list[QTDatum]:
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
            rights = [left] if triangular_only else inclusions
            autos = left.conjugation_automorphisms()
            forms = enumerate_biforms(
                domain,
                autos,
                nondegenerate=True,
                skewsymmetric=triangular_only,
                g_invariant=True,
            )
            for right in rights:
                if right is not left and not same_module_structure(left, right):
                    continue
                for beta in forms:
                    data.append(QTDatum(group, domain, left, right, beta))
    return data


def enumerate_qt(group: FiniteGroup, *, triangular_only: bool = False) -> Catalog:
    """Catalog of all structures on k[G]; deterministic over iteration order.

    With ``triangular_only`` the inclusions are forced to coincide and the
    forms to be skewsymmetric.
    """
    catalog = Catalog(group=group, data=_enumerate_data(group, triangular_only))
    # The checks are deterministic in the stored terms, so data that build the
    # same stored form share them.  canonical_key would also merge forms that
    # store a scalar at another order, whose failure witnesses print differently.
    verified: dict = {}
    classes: dict = {}
    for idx, datum in enumerate(catalog.data):
        built = build_r(datum)
        exact = tuple(sorted((key, c.order, c.coeffs) for key, c in built.terms.items()))
        if exact not in verified:
            verified[exact] = (
                built.canonical_key(),
                verify_qt(built),
                markov_element(built),
                verify_unitary(built),
            )
        canonical, report, markov, unitary = verified[exact]
        catalog.rmats.append(built)
        catalog.reports.append(report)
        catalog.markovs.append(markov)
        catalog.unitary.append(unitary)
        classes.setdefault(canonical, []).append(idx)
    catalog.dedup = sorted(classes.values(), key=lambda members: members[0])
    return catalog


def enumerate_triangular(group: FiniteGroup) -> Catalog:
    """The unitary part of the catalog: coinciding inclusions, skew forms."""
    return enumerate_qt(group, triangular_only=True)
