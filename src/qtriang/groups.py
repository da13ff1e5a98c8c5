"""Finite-group machinery on explicit Cayley tables.

Groups of order at most 64 enter as multiplication tables with 0-based
element indices; no presentations or permutation-group algorithms are
used, so every structural question below is answered by exhaustive
search.  The module also provides finite abelian groups in invariant
factor coordinates, their character groups, and bimultiplicative forms
on those character groups together with the nondegeneracy, skewsymmetry
and conjugation-invariance predicates needed to classify R-matrices.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache
from importlib import resources

from .cyclotomic import CycScalar, root_of_unity

SIZE_CAP = 64


class FiniteGroup:
    """A finite group given by its Cayley table (table[g][h] = g*h)."""

    def __init__(self, table, name: str = "G"):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0:
            raise ValueError("a group has at least one element")
        if n > SIZE_CAP:
            raise ValueError(f"group order {n} exceeds the supported cap {SIZE_CAP}")
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
        self._classes = None
        self._center = None

    def elements(self) -> range:
        return range(self.size)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

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

    def center(self) -> tuple[int, ...]:
        if self._center is None:
            self._center = tuple(
                z
                for z in self.elements()
                if all(self.table[z][g] == self.table[g][z] for g in self.elements())
            )
        return self._center

    def central_involutions(self) -> tuple[int, ...]:
        """Central elements squaring to the identity (the identity included)."""
        return tuple(z for z in self.center() if self.table[z][z] == self.identity)

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Partition of the elements into conjugacy classes, sorted by least member."""
        if self._classes is None:
            seen = [False] * self.size
            classes = []
            for g in self.elements():
                if seen[g]:
                    continue
                orbit = sorted({self.conjugate(g, h) for h in self.elements()})
                for x in orbit:
                    seen[x] = True
                classes.append(tuple(orbit))
            self._classes = tuple(sorted(classes))
        return self._classes

    def class_index(self, g: int) -> int:
        for idx, cls in enumerate(self.conjugacy_classes()):
            if g in cls:
                return idx
        raise ValueError(f"element {g} out of range")

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

def cyclic_group(n: int, name: str | None = None) -> FiniteGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, name or f"Z{n}")


def direct_product(g1: FiniteGroup, g2: FiniteGroup, name: str | None = None) -> FiniteGroup:
    # Element (a, b) gets index a * |g2| + b.
    n1, n2 = g1.size, g2.size
    table = []
    for a1 in range(n1):
        for a2 in range(n2):
            row = []
            for b1 in range(n1):
                for b2 in range(n2):
                    row.append(g1.table[a1][b1] * n2 + g2.table[a2][b2])
            table.append(row)
    return FiniteGroup(table, name or f"{g1.name}x{g2.name}")


def symmetric_group(n: int, name: str | None = None) -> FiniteGroup:
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(n))] for q in perms]
        for p in perms
    ]
    return FiniteGroup(table, name or f"S{n}")


def dihedral_group(n: int, name: str | None = None) -> FiniteGroup:
    # Element s^m r^k with index m*n + k; r^k s = s r^(-k).
    def mul(m1, k1, m2, k2):
        if m2:
            return (m1 ^ m2, (-k1 + k2) % n)
        return (m1, (k1 + k2) % n)

    table = []
    for m1 in range(2):
        for k1 in range(n):
            row = []
            for m2 in range(2):
                for k2 in range(n):
                    m, k = mul(m1, k1, m2, k2)
                    row.append(m * n + k)
            table.append(row)
    return FiniteGroup(table, name or f"D{n}")


def quaternion_group(name: str = "Q8") -> FiniteGroup:
    # Indices: 1, -1, i, -i, j, -j, k, -k.
    base = {
        ("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1), ("1", "k"): ("k", 1),
        ("i", "1"): ("i", 1), ("j", "1"): ("j", 1), ("k", "1"): ("k", 1),
        ("i", "i"): ("1", -1), ("j", "j"): ("1", -1), ("k", "k"): ("1", -1),
        ("i", "j"): ("k", 1), ("j", "i"): ("k", -1),
        ("j", "k"): ("i", 1), ("k", "j"): ("i", -1),
        ("k", "i"): ("j", 1), ("i", "k"): ("j", -1),
    }
    units = ["1", "i", "j", "k"]

    def decode(idx):
        return units[idx // 2], -1 if idx % 2 else 1

    def encode(unit, sign):
        return units.index(unit) * 2 + (0 if sign == 1 else 1)

    table = []
    for a in range(8):
        ua, sa = decode(a)
        row = []
        for b in range(8):
            ub, sb = decode(b)
            uc, sc = base[(ua, ub)]
            row.append(encode(uc, sa * sb * sc))
        table.append(row)
    return FiniteGroup(table, name)


CATALOG_NAMES = ("Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8")


@lru_cache(maxsize=None)
def bundled_group(name: str) -> FiniteGroup:
    """Load one of the groups shipped with the package by name."""
    if name not in CATALOG_NAMES:
        raise KeyError(f"no bundled group named {name!r}; available: {', '.join(CATALOG_NAMES)}")
    text = resources.files("qtriang").joinpath(f"data/{name}.json").read_text()
    doc = json.loads(text)
    return FiniteGroup(doc["table"], doc["name"])


# ---------------------------------------------------------------------------
# Abelian groups in invariant factor coordinates.

class AbelianGroup:
    """Direct sum of cyclic groups Z/n_1 x ... x Z/n_r with n_1 | n_2 | ... | n_r.

    Elements are residue tuples (a_1, ..., a_r).
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

    def element_order(self, a) -> int:
        return math.lcm(*(n // math.gcd(n, x) for x, n in zip(a, self.factors))) if self.rank else 1

    def characters(self) -> list["Character"]:
        return [Character(self, exps) for exps in self.elements()]

    def dual_generators(self) -> list["Character"]:
        return [Character(self, g) for g in self.generators()]

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


class Character:
    """Character of an AbelianGroup: a -> prod zeta_{n_i}^(k_i * a_i)."""

    __slots__ = ("parent", "exps")

    def __init__(self, parent: AbelianGroup, exps):
        exps = tuple(k % n for k, n in zip(exps, parent.factors))
        if len(exps) != parent.rank:
            raise ValueError("character exponent tuple has wrong length")
        self.parent = parent
        self.exps = exps

    def exponent_at(self, a) -> int:
        """k with value zeta_e^k at the group exponent e."""
        e = self.parent.exponent
        return sum(
            (e // n) * k * x for k, x, n in zip(self.exps, a, self.parent.factors)
        ) % e

    def evaluate(self, a) -> CycScalar:
        return root_of_unity(self.parent.exponent, self.exponent_at(a))

    def __mul__(self, other: "Character") -> "Character":
        if self.parent != other.parent:
            raise ValueError("characters of different groups")
        return Character(self.parent, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def inverse(self) -> "Character":
        return Character(self.parent, tuple(-k for k in self.exps))

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        return self.parent == other.parent and self.exps == other.exps

    def __hash__(self):
        return hash((self.parent.factors, self.exps))

    def __repr__(self):
        return f"Character{self.exps}"


class BiForm:
    """Bimultiplicative form on the character group of an AbelianGroup.

    Determined by its values on the dual basis characters chi_1, ..., chi_r:
    beta(chi_i, chi_j) = zeta_g^(m[i][j]) with g = gcd(n_i, n_j), extended
    bimultiplicatively.  The entry bound is forced: beta(chi_i^(n_i), -) = 1.
    """

    __slots__ = ("parent", "matrix")

    def __init__(self, parent: AbelianGroup, matrix):
        self.parent = parent
        gcds = _gcd_table(parent.factors)
        self.matrix = tuple(
            tuple(int(m) % gcds[i][j] for j, m in enumerate(row))
            for i, row in enumerate(matrix)
        )
        if len(self.matrix) != parent.rank or any(len(r) != parent.rank for r in self.matrix):
            raise ValueError("exponent matrix has wrong shape")

    def exponent_of(self, chi: Character, xi: Character) -> int:
        """k with beta(chi, xi) = zeta_e^k at the group exponent e."""
        e = self.parent.exponent
        gcds = _gcd_table(self.parent.factors)
        total = 0
        for i, ki in enumerate(chi.exps):
            if not ki:
                continue
            row = self.matrix[i]
            for j, lj in enumerate(xi.exps):
                if lj and row[j]:
                    total += (e // gcds[i][j]) * row[j] * ki * lj
        return total % e

    def evaluate(self, chi: Character, xi: Character) -> CycScalar:
        return root_of_unity(self.parent.exponent, self.exponent_of(chi, xi))

    def is_nondegenerate(self) -> bool:
        """chi -> beta(chi, .) has trivial kernel (hence is bijective)."""
        gens = self.parent.dual_generators()
        kernel = 0
        for chi in self.parent.characters():
            if all(self.exponent_of(chi, g) == 0 for g in gens):
                kernel += 1
        return kernel == 1

    def is_skewsymmetric(self) -> bool:
        """beta(chi, xi) * beta(xi, chi) = 1; enough to check dual generators."""
        e = self.parent.exponent
        gens = self.parent.dual_generators()
        return all(
            (self.exponent_of(a, b) + self.exponent_of(b, a)) % e == 0
            for a in gens
            for b in gens
        )

    def is_invariant(self, automorphisms) -> bool:
        """beta(chi o s, xi o s) = beta(chi, xi) for each automorphism s of A."""
        gens = self.parent.dual_generators()
        for auto in automorphisms:
            twisted = [_char_pullback(chi, auto) for chi in gens]
            for a, ta in zip(gens, twisted):
                for b, tb in zip(gens, twisted):
                    if self.exponent_of(ta, tb) != self.exponent_of(a, b):
                        return False
        return True

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


def _char_pullback(chi: Character, auto: dict) -> Character:
    """chi o auto as a Character, where auto maps generator tuples."""
    parent = chi.parent
    e = parent.exponent
    exps = []
    for i, n in enumerate(parent.factors):
        image = auto[parent.generators()[i]]
        k = chi.exponent_at(image)
        if k % (e // n):
            raise ValueError("map is not an automorphism compatible with the factor orders")
        exps.append((k // (e // n)) % n)
    return Character(parent, tuple(exps))


def enumerate_biforms(
    parent: AbelianGroup,
    automorphisms=(),
    *,
    nondegenerate: bool = False,
    skewsymmetric: bool = False,
    g_invariant: bool = False,
) -> list[BiForm]:
    """All bimultiplicative forms on the dual of ``parent`` passing the flags.

    Exhausts every exponent matrix (entry (i, j) runs over Z/gcd(n_i, n_j)),
    then filters.  With ``g_invariant`` the conjugation automorphisms of the
    ambient group must be supplied.
    """
    r = parent.rank
    gcds = _gcd_table(parent.factors)
    ranges = [range(gcds[i][j]) for i in range(r) for j in range(r)]
    out = []
    for flat in itertools.product(*ranges):
        matrix = tuple(tuple(flat[i * r + j] for j in range(r)) for i in range(r))
        form = BiForm(parent, matrix)
        if nondegenerate and not form.is_nondegenerate():
            continue
        if skewsymmetric and not form.is_skewsymmetric():
            continue
        if g_invariant and not form.is_invariant(automorphisms):
            continue
        out.append(form)
    return out


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
    normal = [
        s
        for s in found
        if all({group.conjugate(x, g) for x in s} == s for g in group.elements())
    ]
    return sorted(normal, key=lambda s: (len(s), sorted(s)))


def _log_exact(value: int, p: int) -> int:
    out = 0
    while value > 1:
        if value % p:
            raise AssertionError("count is not a prime power")
        value //= p
        out += 1
    return out


def _invariant_factors(group: FiniteGroup, subgroup: frozenset) -> tuple[int, ...]:
    # Cyclic decomposition of each p-part from the order statistics
    # c_j = #{x : x^(p^j) = e} = p^(sum_i min(lambda_i, j)).
    size = len(subgroup)
    if size == 1:
        return ()
    primes = []
    m = size
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    partitions = {}
    for p in primes:
        conjugate = []  # entry j-1 counts the parts of the partition that are >= j
        prev_log = 0
        j = 1
        while True:
            c = sum(1 for x in subgroup if group.power(x, p**j) == group.identity)
            cur_log = _log_exact(c, p)
            if cur_log == prev_log:
                break
            conjugate.append(cur_log - prev_log)
            prev_log = cur_log
            j += 1
        parts = conjugate[0] if conjugate else 0
        partitions[p] = [sum(1 for v in conjugate if v >= k) for k in range(1, parts + 1)]
    r = max(len(v) for v in partitions.values())
    descending = []
    for slot in range(r):
        n = 1
        for p, lam in partitions.items():
            if slot < len(lam):
                n *= p ** lam[slot]
        descending.append(n)
    return tuple(reversed(descending))


class Inclusion:
    """Injective homomorphism from an AbelianGroup into a FiniteGroup.

    Stored by the images of the invariant-factor generators; the full
    element map is tabulated at construction and validated to be injective.
    """

    __slots__ = ("group", "domain", "gen_images", "forward", "backward", "image")

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

    def is_normal(self) -> bool:
        return all(
            {self.group.conjugate(x, g) for x in self.image} == self.image
            for g in self.group.elements()
        )

    def conjugation_automorphisms(self) -> list[dict]:
        """Distinct maps a -> g^-1 a g read inside the domain, over all g."""
        autos = []
        seen = set()
        for g in self.group.elements():
            mapping = {}
            for a in self.domain.elements():
                x = self.forward[a]
                conj = self.group.conjugate(x, self.group.inverses[g])
                mapping[a] = self.backward[conj]
            key = tuple(sorted(mapping.items()))
            if key not in seen:
                seen.add(key)
                autos.append(mapping)
        return autos

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

    def search(slot: int, chosen: list[int], span: set[int]):
        if slot == len(factors):
            yield tuple(chosen)
            return
        needed = factors[slot]
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
            yield from search(slot + 1, chosen + [g], new_span)

    return search(0, [], {group.identity})


def subgroup_structure(group: FiniteGroup, subgroup) -> Inclusion:
    """Invariant-factor coordinates for an abelian subgroup.

    Returns the inclusion realizing the isomorphism between the abstract
    AbelianGroup and the subgroup, found by brute-force generator search.
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
    factors = _invariant_factors(group, subgroup)
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
    """Whether two inclusions pull conjugation back to the same maps on the domain."""
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
