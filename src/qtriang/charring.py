"""Character rings and the twisted exterior-power structure they carry.

For a unitary R-matrix with Markov element u, the braided action of the
symmetric group on tensor powers of a representation defines exterior
powers whose classes depend only on u.  This module realizes both sides
of that statement concretely: matrix representations with their braided
symmetric-group actions, antisymmetrizers and cyclic projectors on one
side; class functions with twisted Adams operations and the Newton-type
lambda/sigma recursions on the other.  Everything is exact.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .cyclotomic import CycScalar
from .groups import FiniteGroup, closure, subgroup_structure
from .hopf import GATensor
from .linalg import Matrix
from .rmatrix import markov_element, verify_unitary

#: Largest tensor-power dimension handled by the braided-action machinery.
DIMENSION_CAP = 4096


class ClassFunction:
    """A function on conjugacy classes with cyclotomic values."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteGroup, values):
        values = tuple(
            v if isinstance(v, CycScalar) else CycScalar.rational(v) for v in values
        )
        if len(values) != len(group.conjugacy_classes()):
            raise ValueError("one value per conjugacy class required")
        self.group = group
        self.values = values

    @classmethod
    def constant(cls, group: FiniteGroup, value) -> "ClassFunction":
        return cls(group, [value] * len(group.conjugacy_classes()))

    @classmethod
    def from_function(cls, group: FiniteGroup, fn) -> "ClassFunction":
        return cls(group, [fn(cls_[0]) for cls_ in group.conjugacy_classes()])

    def evaluate(self, g: int) -> CycScalar:
        return self.values[self.group.class_index(g)]

    def dim(self) -> CycScalar:
        return self.evaluate(self.group.identity)

    def _check(self, other: "ClassFunction"):
        if self.group != other.group:
            raise ValueError("class functions on different groups")

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        return ClassFunction(self.group, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        return ClassFunction(self.group, [a - b for a, b in zip(self.values, other.values)])

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            self._check(other)
            return ClassFunction(
                self.group, [a * b for a, b in zip(self.values, other.values)]
            )
        return self.scale(other)

    def scale(self, scalar) -> "ClassFunction":
        if not isinstance(scalar, CycScalar):
            scalar = CycScalar.rational(scalar)
        return ClassFunction(self.group, [scalar * v for v in self.values])

    __rmul__ = __mul__

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return self.group == other.group and self.values == other.values

    def __hash__(self):
        return hash((self.group.table, tuple(v.key() for v in self.values)))

    def __repr__(self):
        return f"ClassFunction({', '.join(str(v) for v in self.values)})"


class MatrixRep:
    """A matrix representation of a finite group over cyclotomic scalars."""

    __slots__ = ("group", "dim", "mats", "name", "_kron_cache")

    def __init__(self, group: FiniteGroup, mats, name: str = "rep"):
        mats = tuple(mats)
        if len(mats) != group.size:
            raise ValueError("one matrix per group element required")
        dim = mats[group.identity].nrows
        if mats[group.identity] != Matrix.identity(dim):
            raise ValueError("identity element must act as the identity matrix")
        for g in group.elements():
            if mats[g].nrows != dim or mats[g].ncols != dim:
                raise ValueError("all matrices must share the representation dimension")
            for h in group.elements():
                if mats[g] @ mats[h] != mats[group.table[g][h]]:
                    raise ValueError(f"matrices fail the homomorphism law on ({g}, {h})")
        self.group = group
        self.dim = dim
        self.mats = mats
        self.name = name
        self._kron_cache: dict = {}

    def matrix(self, g: int) -> Matrix:
        return self.mats[g]

    def kron_power(self, g: int, n: int) -> Matrix:
        """The action of a group element on the n-th tensor power."""
        key = (g, n)
        cached = self._kron_cache.get(key)
        if cached is None:
            cached = Matrix.identity(1)
            for _ in range(n):
                cached = cached.kron(self.mats[g])
            self._kron_cache[key] = cached
        return cached

    def character(self) -> ClassFunction:
        return ClassFunction.from_function(self.group, lambda g: self.mats[g].trace())

    def __repr__(self):
        return f"MatrixRep({self.name}, dim {self.dim} over {self.group.name})"


def regular_rep(group: FiniteGroup) -> MatrixRep:
    """Permutation matrices of left translation."""
    mats = [
        Matrix.from_permutation([group.table[g][h] for h in group.elements()])
        for g in group.elements()
    ]
    return MatrixRep(group, mats, name=f"regular({group.name})")


def _commutator_subgroup(group: FiniteGroup) -> frozenset:
    seeds = {
        group.table[group.table[g][h]][
            group.table[group.inverses[g]][group.inverses[h]]
        ]
        for g in group.elements()
        for h in group.elements()
    }
    return closure(seeds, group.identity, group.mul)


def linear_characters(group: FiniteGroup) -> list[ClassFunction]:
    """All one-dimensional characters, pulled back from the abelianization."""
    commutator = _commutator_subgroup(group)
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
    quotient = FiniteGroup(table, name=f"{group.name}_ab")
    structure = subgroup_structure(quotient, frozenset(quotient.elements()))
    out = []
    for chi in structure.domain.characters():
        values = [
            chi.evaluate(structure.preimage(coset_of[cls_[0]]))
            for cls_ in group.conjugacy_classes()
        ]
        out.append(ClassFunction(group, values))
    return out


def linear_character_reps(group: FiniteGroup) -> list[MatrixRep]:
    reps = []
    for k, chi in enumerate(linear_characters(group)):
        mats = [
            Matrix.from_entries(1, 1, [(0, 0, chi.evaluate(g))])
            for g in group.elements()
        ]
        reps.append(MatrixRep(group, mats, name=f"linear{k}({group.name})"))
    return reps


# ---------------------------------------------------------------------------
# Adams operations and the lambda/sigma recursions.

def adams_standard(x: ClassFunction, k: int) -> ClassFunction:
    """Precompose with the k-th power map: value at g is x(g^k)."""
    group = x.group
    return ClassFunction.from_function(group, lambda g: x.evaluate(group.power(g, k)))


def _check_central_involution(group: FiniteGroup, u: int):
    if u not in group.central_involutions():
        raise ValueError(f"element {u} is not a central involution of {group.name}")


def adams_twisted(x: ClassFunction, u: int, k: int) -> ClassFunction:
    """Twisted Adams operation: value at g is x(u^(k+1) g^k)."""
    group = x.group
    _check_central_involution(group, u)
    shift = group.power(u, k + 1)
    return ClassFunction.from_function(
        group, lambda g: x.evaluate(group.table[shift][group.power(g, k)])
    )


def _lambda_sequence(x: ClassFunction, n: int, u: int) -> list[ClassFunction]:
    # Newton-type recursion: m * lam[m] = sum_{k=1..m} (-1)^(k-1) psi_u^k(x) lam[m-k].
    group = x.group
    lams = [ClassFunction.constant(group, 1)]
    psis = [None] + [adams_twisted(x, u, k) for k in range(1, n + 1)]
    for m in range(1, n + 1):
        acc = ClassFunction.constant(group, 0)
        sign = 1
        for k in range(1, m + 1):
            term = psis[k] * lams[m - k]
            acc = acc + term if sign > 0 else acc - term
            sign = -sign
        lams.append(acc.scale(Fraction(1, m)))
    return lams


def lambda_from_adams(x: ClassFunction, n: int, u: int) -> ClassFunction:
    """n-th exterior-power class function from the twisted Adams operations."""
    if n < 0:
        raise ValueError("negative exterior powers are not defined")
    return _lambda_sequence(x, n, u)[n]


def sigma_from_lambda(x: ClassFunction, n: int, u: int) -> ClassFunction:
    """n-th symmetric-power class function by series inversion of the lambdas."""
    if n < 0:
        raise ValueError("negative symmetric powers are not defined")
    group = x.group
    lams = _lambda_sequence(x, n, u)
    sigmas = [ClassFunction.constant(group, 1)]
    for m in range(1, n + 1):
        acc = ClassFunction.constant(group, 0)
        sign = 1
        for i in range(1, m + 1):
            term = lams[i] * sigmas[m - i]
            acc = acc + term if sign > 0 else acc - term
            sign = -sign
        sigmas.append(acc)
    return sigmas[n]


def verify_lambda_ring(u: int, characters, depth: int = 6) -> dict[str, bool]:
    """Exact checks that the twisted operations give a lambda-ring structure.

    On the supplied characters and all n, m up to ``depth``: additivity and
    multiplicativity of the twisted Adams operations, their composition law
    psi^n psi^m = psi^(nm), and the convolution form of lambda-additivity.
    """
    characters = list(characters)
    if not characters:
        raise ValueError("at least one character required")
    group = characters[0].group
    _check_central_involution(group, u)
    checks = {
        "adams_additive": True,
        "adams_multiplicative": True,
        "adams_composition": True,
        "lambda_additive": True,
    }
    for x in characters:
        for y in characters:
            for n in range(1, depth + 1):
                if adams_twisted(x + y, u, n) != adams_twisted(x, u, n) + adams_twisted(y, u, n):
                    checks["adams_additive"] = False
                if adams_twisted(x * y, u, n) != adams_twisted(x, u, n) * adams_twisted(y, u, n):
                    checks["adams_multiplicative"] = False
    for x in characters:
        for n in range(1, depth + 1):
            for m in range(1, depth + 1):
                if adams_twisted(adams_twisted(x, u, m), u, n) != adams_twisted(x, u, n * m):
                    checks["adams_composition"] = False
    for x in characters:
        for y in characters:
            lx = _lambda_sequence(x, depth, u)
            ly = _lambda_sequence(y, depth, u)
            lxy = _lambda_sequence(x + y, depth, u)
            for i in range(depth + 1):
                acc = ClassFunction.constant(group, 0)
                for s in range(i + 1):
                    acc = acc + lx[s] * ly[i - s]
                if lxy[i] != acc:
                    checks["lambda_additive"] = False
    return checks


# ---------------------------------------------------------------------------
# Braided symmetric-group actions on tensor powers.

class BraidedAction:
    """Action of the symmetric group on a tensor power, twisted by an R-matrix.

    The adjacent transposition on slots (i, i+1) acts by the R-action
    followed by the plain factor swap: s_i = I (x) B (x) I with B on
    V (x) V.  For unitary R the generators square to the identity, satisfy
    the braid relations, and commute with the diagonal group action; all
    three facts are verified at construction.  Since s_i^2 = I (x) B^2 (x) I
    and each rho(g) is invertible, the squares and equivariance are checked
    exactly on the d^2-dimensional B; the braid relation and the commutation
    of distant generators are checked on the d^n-dimensional generators.
    """

    __slots__ = ("rep", "rmatrix", "power", "braid", "generators")

    def __init__(self, rep: MatrixRep, rmatrix: GATensor, power: int, validate: bool = True):
        if rmatrix.group != rep.group:
            raise ValueError("representation and R-matrix live over different groups")
        if not verify_unitary(rmatrix):
            raise ValueError("the symmetric-group action needs a unitary R-matrix")
        if rep.dim**power > DIMENSION_CAP:
            raise ValueError(
                f"tensor power dimension {rep.dim ** power} exceeds the cap {DIMENSION_CAP}"
            )
        d = rep.dim
        acted = Matrix.zero(d * d, d * d)
        for (g, h), c in rmatrix.terms.items():
            acted = acted + rep.matrix(g).kron(rep.matrix(h)).scale(c)
        swap = Matrix.from_permutation([b * d + a for a in range(d) for b in range(d)])
        braid = acted @ swap
        generators = []
        for slot in range(1, power):
            left = Matrix.identity(d ** (slot - 1))
            right = Matrix.identity(d ** (power - slot - 1))
            generators.append(left.kron(braid).kron(right))
        self.rep = rep
        self.rmatrix = rmatrix
        self.power = power
        self.braid = braid
        self.generators = generators
        if validate:
            self.validate()

    def validate(self):
        if not self.generators:
            return
        braid = self.braid
        if braid @ braid != Matrix.identity(self.rep.dim**2):
            raise ValueError("a braided generator fails to square to the identity")
        for a, b in zip(self.generators, self.generators[1:]):
            if a @ b @ a != b @ a @ b:
                raise ValueError("adjacent generators fail the braid relation")
        for i, a in enumerate(self.generators):
            for b in self.generators[i + 2 :]:
                if a @ b != b @ a:
                    raise ValueError("distant generators fail to commute")
        for g in self.rep.group.elements():
            diag = self.rep.kron_power(g, 2)
            if braid @ diag != diag @ braid:
                raise ValueError("the braided action is not equivariant")

    def permutation_matrix(self, perm) -> Matrix:
        """Operator of a permutation, via a word in adjacent transpositions."""
        word = _adjacent_word(perm)
        out = Matrix.identity(self.rep.dim**self.power)
        for slot in word:
            out = out @ self.generators[slot - 1]
        return out

    def antisymmetrizer(self) -> Matrix:
        """The alternating projector (1/n!) sum of sign(s) times the action of s."""
        n = self.power
        dim = self.rep.dim**n
        acc = Matrix.zero(dim, dim)
        count = 0
        for perm in itertools.permutations(range(n)):
            word = _adjacent_word(perm)
            sign = -1 if len(word) % 2 else 1
            mat = self.permutation_matrix(perm)
            acc = acc + (mat if sign > 0 else mat.scale(-1))
            count += 1
        return acc.scale(Fraction(1, count))

    def cyclic_projector(self, eps: CycScalar) -> Matrix:
        """(1/p) sum of eps^i times the i-th power of the long cycle."""
        p = self.power
        cycle = tuple(range(1, p)) + (0,)
        tau = self.permutation_matrix(cycle)
        dim = self.rep.dim**p
        acc = Matrix.zero(dim, dim)
        power = Matrix.identity(dim)
        weight = CycScalar.one()
        for _ in range(p):
            acc = acc + power.scale(weight)
            power = power @ tau
            weight = weight * eps
        return acc.scale(Fraction(1, p))


def _adjacent_word(perm) -> list[int]:
    # Bubble-sort decomposition; returns slots so that composing the
    # corresponding adjacent swaps left to right realizes the permutation.
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


def exterior_power_char(rep: MatrixRep, rmatrix: GATensor, n: int) -> ClassFunction:
    """Character of the n-th braided exterior power of a representation.

    The value at g is the trace of the g-action composed with the
    antisymmetrizer; the projector is checked to be idempotent and
    equivariant before any trace is taken.
    """
    group = rep.group
    if n < 0:
        raise ValueError("negative exterior powers are not defined")
    if n == 0:
        return ClassFunction.constant(group, 1)
    if n == 1:
        return rep.character()
    action = BraidedAction(rep, rmatrix, n, validate=False)
    projector = action.antisymmetrizer()
    if projector @ projector != projector:
        raise ValueError("antisymmetrizer is not idempotent")
    for g in group.elements():
        diag = rep.kron_power(g, n)
        if projector @ diag != diag @ projector:
            raise ValueError("antisymmetrizer is not equivariant")
    return ClassFunction.from_function(
        group, lambda g: (rep.kron_power(g, n) @ projector).trace()
    )


def _markov_index(rmatrix: GATensor) -> int:
    u = markov_element(rmatrix)
    if not u.is_grouplike():
        raise ValueError("the R-matrix has no grouplike Markov element")
    idx = u.grouplike_index()
    group = rmatrix.group
    if group.table[idx][idx] != group.identity or idx not in group.center():
        raise ValueError("the Markov element is not a central involution")
    return idx


def qtrace(rep: MatrixRep, rmatrix: GATensor, endo: Matrix) -> CycScalar:
    """Categorical trace of an equivariant endomorphism: trace of u then f."""
    group = rep.group
    for g in group.elements():
        if endo @ rep.matrix(g) != rep.matrix(g) @ endo:
            raise ValueError("endomorphism does not commute with the group action")
    u = _markov_index(rmatrix)
    return (rep.matrix(u) @ endo).trace()


def cyclic_operation_char(
    rep: MatrixRep, rmatrix: GATensor, p: int, eps: CycScalar
) -> dict[int, CycScalar]:
    """Categorical traces of the cyclic projector against each central element.

    Returns, for every central z, the categorical trace on the p-th tensor
    power of the z-action composed with (1/p) sum eps^i tau^i, where tau is
    the braided long cycle.
    """
    if not isinstance(eps, CycScalar):
        eps = CycScalar.rational(eps)
    if eps**p != CycScalar.one():
        raise ValueError(f"eps is not a {p}-th root of unity")
    group = rep.group
    u = _markov_index(rmatrix)
    action = BraidedAction(rep, rmatrix, p, validate=False)
    projector = action.cyclic_projector(eps)
    u_power = rep.kron_power(u, p)
    out = {}
    for z in group.center():
        z_power = rep.kron_power(z, p)
        out[z] = (u_power @ z_power @ projector).trace()
    return out
