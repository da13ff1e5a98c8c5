"""Finite-group machinery on explicit Cayley tables.

Groups of order at most 64 enter as multiplication tables with 0-based
element indices; no presentations or permutation-group algorithms are
used, so every structural question below is answered by exhaustive
search.  ``table_group`` builds a table from element labels, in index
order, and their product; the catalog constructors state only those.
The module also provides finite abelian groups in invariant factor
coordinates, whose characters are exponent tuples on the dual basis, and
bimultiplicative forms on those character groups together with the
nondegeneracy, skewsymmetry and conjugation-invariance predicates needed
to classify R-matrices.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache

from .cyclotomic import divisors

SIZE_CAP = 64


def check_group_order(n: int):
    """Raise ValueError when a group of order n exceeds ``SIZE_CAP``."""
    if n > SIZE_CAP:
        raise ValueError(f"group order {n} exceeds the supported cap {SIZE_CAP}")


class FiniteGroup:
    """A finite group given by its Cayley table (table[g][h] = g*h)."""

    def __init__(self, table, name: str = "G"):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0:
            raise ValueError("a group has at least one element")
        check_group_order(n)
        for row in table:
            if len(row) != n or any(not (0 <= v < n) for v in row):
                raise ValueError("table is not square over element indices")
        for row in table:
            if len(set(row)) != n:
                raise ValueError("table rows are not permutations (not a Latin square)")
        for col in range(n):
            if len({row[col] for row in table}) != n:
                raise ValueError("table columns are not permutations (not a Latin square)")
        identity = next(
            (e for e in range(n) if all(table[e][g] == g and table[g][e] == g for g in range(n))),
            None,
        )
        if identity is None:
            raise ValueError("table has no identity element")
        inverses = [None] * n
        for g in range(n):
            inv = next((h for h in range(n) if table[g][h] == identity), None)
            if inv is None or table[inv][g] != identity:
                raise ValueError(f"element {g} has no two-sided inverse")
            inverses[g] = inv
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                for c in range(n):
                    if table[ab][c] != table[a][table[b][c]]:
                        raise ValueError(f"associativity fails on ({a}, {b}, {c})")
        self.name = name
        self.size = n
        self.table = table
        self.identity = identity
        self.inverses = tuple(inverses)
        self._derived = {}

    def elements(self) -> range:
        return range(self.size)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conjugate(self, x: int, g: int) -> int:
        """g * x * g^-1."""
        return self.table[self.table[g][x]][self.inverses[g]]

    def power(self, g: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverses[g], -k)
        result = self.identity
        base = g
        while k:
            if k & 1:
                result = self.table[result][base]
            base = self.table[base][base]
            k >>= 1
        return result

    def element_order(self, g: int) -> int:
        x = g
        n = 1
        while x != self.identity:
            x = self.table[x][g]
            n += 1
        return n

    def is_abelian(self) -> bool:
        return all(
            self.table[a][b] == self.table[b][a]
            for a in self.elements()
            for b in self.elements()
        )

    # Tables derived from the multiplication table are worked out on first
    # use and kept on this group object.

    @cached_property
    def conj(self) -> tuple[tuple[int, ...], ...]:
        """Row g: g x g^-1 for every element x, in element order."""
        table = self.table
        return tuple(
            tuple(table[gx][inv] for gx in row) for row, inv in zip(table, self.inverses)
        )

    @cached_property
    def generating_set(self) -> tuple[int, ...]:
        """Generators grown greedily in element order: g joins when the earlier ones miss it.

        When the g with some property form a subgroup, it holds on every g once
        it holds on these, and the least g failing it is one of them: a
        non-generator lies in the span of the generators before it.
        """
        gens: list[int] = []
        span = frozenset((self.identity,))
        for g in self.elements():
            if g not in span:
                gens.append(g)
                span = closure(gens, self.identity, self.mul)
        return tuple(gens)

    @cached_property
    def period(self) -> int:
        """lcm(2, exponent): k -> u^(k+1) g^k repeats with this period for every involution u."""
        return math.lcm(2, *map(self.element_order, self.elements()))

    @cached_property
    def _center(self) -> tuple[int, ...]:
        return tuple(z for z in self.elements() if all(row[z] == z for row in self.conj))

    def center(self) -> tuple[int, ...]:
        return self._center

    @cached_property
    def _central_involutions(self) -> tuple[int, ...]:
        return tuple(z for z in self._center if self.table[z][z] == self.identity)

    def central_involutions(self) -> tuple[int, ...]:
        """Central elements squaring to the identity (the identity included)."""
        return self._central_involutions

    @cached_property
    def _classes(self) -> tuple[tuple[int, ...], ...]:
        seen = [False] * self.size
        classes = []
        for g in self.elements():
            if not seen[g]:
                orbit = sorted({row[g] for row in self.conj})
                for x in orbit:
                    seen[x] = True
                classes.append(tuple(orbit))
        return tuple(classes)

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Partition of the elements into conjugacy classes, sorted by least member."""
        return self._classes

    @cached_property
    def class_map(self) -> tuple[int, ...]:
        """Element g -> the index of its class in ``conjugacy_classes``."""
        out = [0] * self.size
        for idx, cls in enumerate(self._classes):
            for g in cls:
                out[g] = idx
        return tuple(out)

    def derived(self, build):
        """``build(self)`` for a module-level ``build``, worked out once and kept here.

        The tables kept hold no name, as a group may be renamed after it is built.
        """
        try:
            return self._derived[build]
        except KeyError:
            out = self._derived[build] = build(self)
            return out

    def class_index(self, g: int) -> int:
        if g not in self.elements():
            raise ValueError(f"element {g} out of range")
        return self.class_map[g]

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {self.size})"


# ---------------------------------------------------------------------------
# Constructors for the bundled groups.

def table_group(labels, mul, name: str) -> FiniteGroup:
    """The group whose element i is ``labels[i]``, ``mul`` multiplying two labels."""
    labels = list(labels)
    index = {x: i for i, x in enumerate(labels)}
    return FiniteGroup([[index[mul(a, b)] for b in labels] for a in labels], name)


def cyclic_group(n: int, name: str | None = None) -> FiniteGroup:
    return table_group(range(n), lambda a, b: (a + b) % n, name or f"Z{n}")


def direct_product(g1: FiniteGroup, g2: FiniteGroup, name: str | None = None) -> FiniteGroup:
    t1, t2 = g1.table, g2.table
    return table_group(
        itertools.product(g1.elements(), g2.elements()),
        lambda x, y: (t1[x[0]][y[0]], t2[x[1]][y[1]]),
        name or f"{g1.name}x{g2.name}",
    )


def symmetric_group(n: int, name: str | None = None) -> FiniteGroup:
    # Permutations in lexicographic order; (p q)(x) = p(q(x)).
    perms = sorted(itertools.permutations(range(n)))
    return table_group(perms, lambda p, q: tuple(p[x] for x in q), name or f"S{n}")


def dihedral_group(n: int, name: str | None = None) -> FiniteGroup:
    # s^m r^k as (m, k); r^k s = s r^(-k).
    def mul(x, y):
        (m1, k1), (m2, k2) = x, y
        return m1 ^ m2, (k2 - k1 if m2 else k1 + k2) % n

    return table_group(itertools.product(range(2), range(n)), mul, name or f"D{n}")


def quaternion_group(name: str = "Q8") -> FiniteGroup:
    # +-1, +-i, +-j, +-k as (unit, sign bit) with units 1, i, j, k = 0..3: the
    # unit of a product is the xor of the units, and a product of two of i, j,
    # k is negative unless it runs i -> j -> k -> i.
    def mul(x, y):
        (u, s), (v, t) = x, y
        return u ^ v, s ^ t ^ bool(u and v and v != u % 3 + 1)

    return table_group(itertools.product(range(4), range(2)), mul, name)


_CATALOG_BUILDERS = {
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z4": lambda: cyclic_group(4),
    "Z2xZ2": lambda: direct_product(cyclic_group(2), cyclic_group(2)),
    "S3": lambda: symmetric_group(3),
    "D4": lambda: dihedral_group(4),
    "Q8": quaternion_group,
}
CATALOG_NAMES = tuple(_CATALOG_BUILDERS)


@lru_cache(maxsize=None)
def bundled_group(name: str) -> FiniteGroup:
    """One of the catalog groups by name, built once per process."""
    if name not in CATALOG_NAMES:
        raise KeyError(f"no bundled group named {name!r}; available: {', '.join(CATALOG_NAMES)}")
    return _CATALOG_BUILDERS[name]()


# ---------------------------------------------------------------------------
# Abelian groups in invariant factor coordinates.

class AbelianGroup:
    """Direct sum of cyclic groups Z/n_1 x ... x Z/n_r with n_1 | n_2 | ... | n_r.

    Elements are residue tuples (a_1, ..., a_r), and so are characters: the
    exponent tuple (k_1, ..., k_r) is a -> prod zeta_(n_i)^(k_i a_i).
    """

    def __init__(self, factors):
        factors = tuple(int(n) for n in factors)
        if any(n < 2 for n in factors):
            raise ValueError("invariant factors must be at least 2")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError(f"invariant factors must form a divisibility chain, got {factors}")
        self.factors = factors
        self.rank = len(factors)
        self.order = math.prod(factors) if factors else 1
        self.exponent = factors[-1] if factors else 1

    def elements(self):
        return itertools.product(*(range(n) for n in self.factors))

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.factors))

    def generators(self) -> list[tuple[int, ...]]:
        return [tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)]

    def pairing(self, chi, a) -> int:
        """k with chi(a) = zeta_e^k at the group exponent e."""
        e = self.exponent
        return sum((e // n) * k * x for k, x, n in zip(chi, a, self.factors)) % e

    def __eq__(self, other):
        if not isinstance(other, AbelianGroup):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        if not self.factors:
            return "AbelianGroup(trivial)"
        return "AbelianGroup(%s)" % " x ".join(f"Z{n}" for n in self.factors)


class BiForm:
    """Bimultiplicative form on the character group of an AbelianGroup.

    Determined by its values on the dual basis characters chi_1, ..., chi_r:
    beta(chi_i, chi_j) = zeta_g^(m[i][j]) with g = gcd(n_i, n_j), extended
    bimultiplicatively.  The entry bound is forced: beta(chi_i^(n_i), -) = 1.
    Nondegeneracy and skew-symmetry are decided once per form, invariance
    once per form and automorphism set; all are kept on the form.
    """

    __slots__ = ("parent", "matrix", "_nondegenerate", "_skewsymmetric", "_invariant")

    def __init__(self, parent: AbelianGroup, matrix):
        self.parent = parent
        if len(matrix) != parent.rank or any(len(r) != parent.rank for r in matrix):
            raise ValueError("exponent matrix has wrong shape")
        gcds = _gcd_table(parent.factors)
        self.matrix = tuple(
            tuple(int(m) % gcds[i][j] for j, m in enumerate(row))
            for i, row in enumerate(matrix)
        )
        self._nondegenerate = self._skewsymmetric = None
        self._invariant = {}

    def exponent_of(self, chi, xi) -> int:
        """k with beta(chi, xi) = zeta_e^k at the group exponent e, read off the matrix."""
        e = self.parent.exponent
        gcds = _gcd_table(self.parent.factors)
        total = 0
        for i, ki in enumerate(chi):
            if not ki:
                continue
            row = self.matrix[i]
            for j, lj in enumerate(xi):
                if lj and row[j]:
                    total += (e // gcds[i][j]) * row[j] * ki * lj
        return total % e

    def point(self, chi_exps) -> tuple[int, ...]:
        """a_chi, with beta(chi, xi) = xi(a_chi) for every xi, read off the matrix."""
        factors, gcds = self.parent.factors, _gcd_table(self.parent.factors)
        rows = list(enumerate(zip(self.matrix, chi_exps)))
        return tuple(
            sum((n // gcds[i][j]) * row[j] * k for i, (row, k) in rows) % n
            for j, n in enumerate(factors)
        )

    def is_nondegenerate(self) -> bool:
        """chi -> beta(chi, .) has trivial kernel (hence is bijective)."""
        if self._nondegenerate is None:
            zero = self.parent.zero
            self._nondegenerate = sum(self.point(k) == zero for k in self.parent.elements()) == 1
        return self._nondegenerate

    def is_skewsymmetric(self) -> bool:
        """beta(chi, xi) * beta(xi, chi) = 1; enough to check dual generators."""
        if self._skewsymmetric is None:
            e = self.parent.exponent
            gens = self.parent.generators()
            self._skewsymmetric = all(
                (self.exponent_of(a, b) + self.exponent_of(b, a)) % e == 0
                for a in gens
                for b in gens
            )
        return self._skewsymmetric

    def is_invariant(self, automorphisms) -> bool:
        """beta(chi o s, xi o s) = beta(chi, xi) for each automorphism s of A.

        Each s is a row of A's images in element order (``Inclusion.action``).
        """
        autos = tuple(automorphisms)
        if autos not in self._invariant:
            self._invariant[autos] = all(self._fixed_by(s) for s in autos)
        return self._invariant[autos]

    def _fixed_by(self, auto) -> bool:
        parent = self.parent
        e, factors = parent.exponent, parent.factors
        # Generator j sits at index n_(j+1) ... n_r of the element order, and
        # chi_i o s takes it to zeta_(n_i)^(s(e_j)_i), an n_j-th root of unity.
        images = [auto[math.prod(factors[j + 1:])] for j in range(parent.rank)]
        twisted = []
        for i, ni in enumerate(factors):
            exps = []
            for image, nj in zip(images, factors):
                k, rest = divmod((e // ni) * image[i] % e, e // nj)
                if rest:
                    raise ValueError("map is not an automorphism compatible with the factor orders")
                exps.append(k)
            twisted.append(exps)
        gens = parent.generators()
        return all(
            self.exponent_of(ta, tb) == self.exponent_of(a, b)
            for a, ta in zip(gens, twisted)
            for b, tb in zip(gens, twisted)
        )

    def __eq__(self, other):
        if not isinstance(other, BiForm):
            return NotImplemented
        return self.parent == other.parent and self.matrix == other.matrix

    def __hash__(self):
        return hash((self.parent.factors, self.matrix))

    def __repr__(self):
        return f"BiForm({self.matrix})"


@lru_cache(maxsize=None)
def _gcd_table(factors: tuple[int, ...]) -> tuple:
    return tuple(
        tuple(math.gcd(a, b) for b in factors) for a in factors
    )


def enumerate_biforms(parent: AbelianGroup) -> list[BiForm]:
    """All bimultiplicative forms on the dual of ``parent``.

    One form per exponent matrix, entry (i, j) running over Z/gcd(n_i, n_j);
    callers filter with the ``BiForm`` predicates.
    """
    r = parent.rank
    gcds = _gcd_table(parent.factors)
    ranges = [range(gcds[i][j]) for i in range(r) for j in range(r)]
    return [
        BiForm(parent, tuple(tuple(flat[i * r + j] for j in range(r)) for i in range(r)))
        for flat in itertools.product(*ranges)
    ]


# ---------------------------------------------------------------------------
# Subgroup enumeration and inclusions.

def closure(seed, identity, mul) -> frozenset:
    """The subgroup generated by ``seed`` in a finite group with product ``mul``.

    Grows from the identity by right multiplication with the seed elements;
    in a finite group the monoid they generate is already the subgroup.
    """
    gens = set(seed)
    elems = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for a in frontier:
            for s in gens:
                c = mul(a, s)
                if c not in elems:
                    elems.add(c)
                    new.append(c)
        frontier = new
    return frozenset(elems)


def abelian_normal_subgroups(group: FiniteGroup) -> list[frozenset]:
    """Every abelian subgroup invariant under conjugation, the trivial one included.

    Complete by construction: abelian subgroups are grown one centralizing
    generator at a time, then filtered for normality.
    """
    trivial = frozenset({group.identity})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            for g in group.elements():
                if g in sub:
                    continue
                if any(group.table[g][s] != group.table[s][g] for s in sub):
                    continue
                grown = closure(sub | {g}, group.identity, group.mul)
                if grown not in found:
                    found.add(grown)
                    nxt.append(grown)
        frontier = nxt
    normal = [s for s in found if all(s.issuperset(map(row.__getitem__, s)) for row in group.conj)]
    return sorted(normal, key=lambda s: (len(s), sorted(s)))


def _invariant_factors(group: FiniteGroup, subgroup: frozenset) -> tuple[int, ...]:
    # A finite abelian group is determined by its counts #{x : x^k = e}, and
    # Z/n_1 x ... x Z/n_r has prod gcd(n_i, k) of them: take the one
    # divisibility chain with product |H| that matches the count at every
    # divisor k of |H|.
    size = len(subgroup)
    ks = divisors(size)
    orders = [group.element_order(x) for x in subgroup]
    counts = [sum(1 for o in orders if k % o == 0) for k in ks]
    for chain in _chains(size, 1):
        if all(math.prod(math.gcd(n, k) for n in chain) == c for k, c in zip(ks, counts)):
            return chain
    raise AssertionError("no abelian group has these element counts")


def _chains(m: int, least: int):
    """Divisibility chains n_1 | n_2 | ... of factors > 1 with product m and least | n_1."""
    if m == 1:
        yield ()
    for n in divisors(m)[1:]:
        if n % least == 0 and (m == n or (m // n) % n == 0):
            for rest in _chains(m // n, n):
                yield (n, *rest)


class Inclusion:
    """Injective homomorphism from an AbelianGroup into a FiniteGroup.

    Stored by the images of the invariant-factor generators; the full
    element map is tabulated at construction and validated to be injective.
    The conjugation action pulled back to the domain is worked out once, on
    first use; normality and the conjugation automorphisms are read from it.
    """

    def __init__(self, group: FiniteGroup, domain: AbelianGroup, gen_images):
        gen_images = tuple(gen_images)
        if len(gen_images) != domain.rank:
            raise ValueError("one generator image per invariant factor required")
        forward = {}
        for a in domain.elements():
            g = group.identity
            for img, x in zip(gen_images, a):
                g = group.table[g][group.power(img, x)]
            forward[a] = g
        if len(set(forward.values())) != domain.order:
            raise ValueError("generator images do not define an injective homomorphism")
        self.group = group
        self.domain = domain
        self.gen_images = gen_images
        self.forward = forward
        self.backward = {g: a for a, g in forward.items()}
        self.image = frozenset(forward.values())

    def apply(self, a) -> int:
        return self.forward[tuple(a)]

    def preimage(self, g: int) -> tuple[int, ...]:
        try:
            return self.backward[g]
        except KeyError:
            raise ValueError(f"element {g} is outside the image of the inclusion") from None

    @cached_property
    def action(self) -> tuple | None:
        """Row g: the preimages of g a g^-1 over the domain's elements, in element order.

        None when the image is not normal, so some conjugate leaves it.
        """
        backward, image = self.backward, tuple(self.forward.values())
        rows = []
        for conj in self.group.conj:
            row = tuple(backward.get(conj[x]) for x in image)
            if None in row:
                return None
            rows.append(row)
        return tuple(rows)

    def is_normal(self) -> bool:
        return self.action is not None

    @cached_property
    def _automorphisms(self) -> tuple:
        inverses = self.group.inverses
        return tuple(dict.fromkeys(self.action[inverses[g]] for g in self.group.elements()))

    def conjugation_automorphisms(self) -> tuple:
        """Distinct maps a -> g^-1 a g over all g, in order of g, each a row of ``action``."""
        return self._automorphisms

    def __eq__(self, other):
        if not isinstance(other, Inclusion):
            return NotImplemented
        return (
            self.group == other.group
            and self.domain == other.domain
            and self.gen_images == other.gen_images
        )

    def __hash__(self):
        return hash((self.group.table, self.domain.factors, self.gen_images))

    def __repr__(self):
        return f"Inclusion({self.domain!r} -> {self.group.name}, gens {self.gen_images})"


def _generator_tuples(group: FiniteGroup, factors, candidates):
    """Independent commuting generator tuples of the given orders, depth first.

    Slot k takes an element of ``candidates`` (in the order given) of order
    factors[k] that commutes with the earlier choices and whose powers meet
    their span only in the identity, so each tuple spans a subgroup of
    order prod(factors).
    """
    by_order: dict[int, list[int]] = {}
    for g in candidates:
        by_order.setdefault(group.element_order(g), []).append(g)
    return _extend(group, factors, by_order, [], {group.identity})


def _extend(group: FiniteGroup, factors, by_order: dict, chosen: list[int], span: set[int]):
    """The tuples of ``_generator_tuples`` that start with ``chosen``, whose powers span ``span``."""
    if len(chosen) == len(factors):
        yield tuple(chosen)
        return
    needed = factors[len(chosen)]
    for g in by_order.get(needed, ()):
        if any(group.table[g][c] != group.table[c][g] for c in chosen):
            continue
        new_span = set()
        h = group.identity
        for _ in range(needed):
            for s in span:
                new_span.add(group.table[s][h])
            h = group.table[h][g]
        if len(new_span) != len(span) * needed:
            continue
        yield from _extend(group, factors, by_order, chosen + [g], new_span)


def abelian_factors(group: FiniteGroup, subgroup) -> tuple[int, ...]:
    """The invariant factors of an abelian subgroup, with no generator search.

    Raises ValueError when the subset lacks the identity, is not closed
    under the product or is not abelian.
    """
    subgroup = frozenset(subgroup)
    if group.identity not in subgroup:
        raise ValueError("subset does not contain the identity")
    for a in subgroup:
        for b in subgroup:
            if group.table[a][b] not in subgroup:
                raise ValueError("subset is not closed under the product")
            if group.table[a][b] != group.table[b][a]:
                raise ValueError("subset is not abelian")
    return _invariant_factors(group, subgroup)


def subgroup_structure(group: FiniteGroup, subgroup) -> Inclusion:
    """Invariant-factor coordinates for an abelian subgroup.

    Returns the inclusion realizing the isomorphism between the abstract
    AbelianGroup and the subgroup, found by brute-force generator search;
    refuses a subset as ``abelian_factors`` does.
    """
    subgroup = frozenset(subgroup)
    factors = abelian_factors(group, subgroup)
    gens = next(_generator_tuples(group, factors, sorted(subgroup)), None)
    if gens is None:
        raise AssertionError("generator search failed on a valid abelian subgroup")
    return Inclusion(group, AbelianGroup(factors), gens)


def normal_inclusions(domain: AbelianGroup, group: FiniteGroup) -> list[Inclusion]:
    """All injective homomorphisms of ``domain`` into ``group`` with normal image.

    Brute force over generator images respecting element orders, pairwise
    commutativity and partial injectivity.
    """
    if domain.order > group.size:
        return []
    results = []
    for gens in _generator_tuples(group, domain.factors, group.elements()):
        incl = Inclusion(group, domain, gens)
        if incl.is_normal():
            results.append(incl)
    return results


def same_module_structure(first: Inclusion, second: Inclusion) -> bool:
    """Whether two normal inclusions pull conjugation back to the same maps on the domain."""
    if first.group != second.group or first.domain != second.domain:
        return False
    return first.action is not None and first.action == second.action
