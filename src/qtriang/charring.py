"""Character rings and the twisted exterior-power structure they carry.

For a unitary R-matrix with Markov element u, the braided action of the
symmetric group on tensor powers of a representation defines exterior
powers whose classes depend only on u.  This module realizes both sides
of that statement concretely: matrix representations with their braided
symmetric-group actions, exterior powers and the traces of the braided
long cycle behind the cyclic operations on one side; class functions with
twisted Adams operations and one Newton recurrence (``_newton``) for lambda,
sigma and exterior powers on the other.  One ``Braiding`` per R holds its
report, Markov element, unitarity and braided differences.  The braided power
sums p_k(g) = tr(g^(x)k tau_k), tau_k the long cycle, are one character sum
over R's terms (``_power_sum``), on integer rows; they give the exterior powers
by Newton's identity once the representation kills R's braided differences,
and the cyclic traces as their powers.  No d^n matrix is multiplied.  A
class function is stored as a matrix is, integer rows at one order and one
denominator, the form ``cyclotomic`` lifts, scales, reduces and compares:
twisted Adams operations re-index its rows, and the recurrence runs on
integers, reading CycScalars only when ``values`` is first asked for.  All
is exact.
"""

from __future__ import annotations

import functools
import math
import operator

from .cyclotomic import (
    CycScalar,
    accumulate,
    as_scalar,
    common_form,
    common_scalars,
    euler_phi,
    lift_row,
    lift_rows,
    lowest_terms,
    reduced_rows,
    root_of_unity,
    same_values,
    scaled,
    summed,
    times,
)
from .groups import FiniteGroup, closure, subgroup_structure, table_group
from .hopf import GATensor, difference_witness
from .linalg import Matrix
from .rmatrix import LegProducts, VerificationReport, commutes_with_diagonal, markov_element
from .rmatrix import swap_is_antipode, verify_qt

#: Largest tensor-power dimension handled by the braided-action machinery.
DIMENSION_CAP = 4096


class ClassFunction:
    """A function on conjugacy classes with cyclotomic values, stored as integer rows.

    ``order`` is one cyclotomic order N holding every value, ``den`` one
    positive integer D, and ``rows`` holds per class, in ``conjugacy_classes``
    order, the phi(N) integer coordinates of D times the value: the form a
    ``Matrix`` stores, in lowest terms (gcd(D, *rows) == 1).  D does not
    depend on N, as the power basis is integral at every order, so equality
    lifts both sides to the lcm order and compares rows.  Sums, products,
    scaling and the twisted operations run on these integers; ``values``, the
    tuple of CycScalars, is built on first use (or kept as given).  As one
    order holds every value, values at orders 360 and 7, each within
    ``ORDER_CAP`` alone, are refused: their lcm 2520 is past it (ValueError).
    Two class functions at such orders compare value by value.
    """

    __slots__ = ("group", "order", "den", "rows", "_values")

    def __init__(self, group: FiniteGroup, values):
        values = tuple(map(as_scalar, values))
        if len(values) != len(group.conjugacy_classes()):
            raise ValueError("one value per conjugacy class required")
        self.order, self.den, self.rows = common_scalars(values)
        self.group, self._values = group, values

    @classmethod
    def _make(cls, group: FiniteGroup, order: int, den: int, rows: tuple) -> "ClassFunction":
        # Internal fast constructor: rows holds one tuple of phi(order) ints
        # per class and den > 0; divides out their common factor.
        den, rows = lowest_terms(den, rows)
        self = object.__new__(cls)
        self.group, self.order, self.den, self.rows, self._values = group, order, den, rows, None
        return self

    @classmethod
    def constant(cls, group: FiniteGroup, value) -> "ClassFunction":
        s = as_scalar(value)
        return cls._make(group, s.order, s.den, (s.num,) * len(group.conjugacy_classes()))

    @classmethod
    def from_function(cls, group: FiniteGroup, fn) -> "ClassFunction":
        return cls(group, [fn(cls_[0]) for cls_ in group.conjugacy_classes()])

    @property
    def values(self) -> tuple[CycScalar, ...]:
        """One CycScalar per class, built from ``rows`` on first use."""
        if self._values is None:
            self._values = tuple(CycScalar._make(self.order, self.den, r) for r in self.rows)
        return self._values

    def evaluate(self, g: int) -> CycScalar:
        return self.values[self.group.class_index(g)]

    def dim(self) -> CycScalar:
        return self.evaluate(self.group.identity)

    def _common(self, other: "ClassFunction") -> tuple[int, int, list]:
        # (N, D, [self's rows, other's rows]) at one order and one denominator
        if self.group is not other.group and self.group != other.group:
            raise ValueError("class functions on different groups")
        return common_form([(c.order, c.den, c.rows) for c in (self, other)])

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        order, den, (a, b) = self._common(other)
        rows = tuple(tuple(map(operator.add, u, v)) for u, v in zip(a, b))
        return ClassFunction._make(self.group, order, den, rows)

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ClassFunction):
            return self.scale(other)
        order, den, (a, b) = self._common(other)
        rows = tuple(times(u, v, order) for u, v in zip(a, b))
        return ClassFunction._make(self.group, order, den * den, rows)

    def scale(self, scalar) -> "ClassFunction":
        return ClassFunction._make(self.group, *scaled((self.order, self.den, self.rows), scalar))

    __rmul__ = __mul__

    def __neg__(self):
        rows = tuple(tuple(-x for x in r) for r in self.rows)
        return ClassFunction._make(self.group, self.order, self.den, rows)

    def __eq__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        forms = [(c.order, c.den, c.rows) for c in (self, other)]
        return self.group == other.group and same_values(*forms)

    def __hash__(self):
        return hash((self.group.table, tuple(v.key() for v in self.values)))

    def __repr__(self):
        return f"ClassFunction({', '.join(str(v) for v in self.values)})"


class MatrixRep:
    """A matrix representation of a finite group over cyclotomic scalars.

    The homomorphism law rho(s) rho(h) = rho(sh) is checked for every h but
    only for s in the group's ``generating_set``.  That is the full law: in
    a finite group every g is a positive word s1 s2 ... sk in the
    generators, and induction on k gives
    rho(g) rho(h) = rho(s1) rho(s2 ... sk h) = rho(gh), since
    rho(s1 g') = rho(s1) rho(g') is the checked law at h = g'.  When every
    rho(g) holds one entry 1 per column (``_column_map``), as permutation
    matrices do, the law composes column maps, kept as ``maps`` for
    ``_image`` (None otherwise); a 1x1 rep multiplies integer coordinates.
    Neither forms a matrix product.  The character is traced once, after
    the law holds, and ``renamed`` copies share it and the maps.
    """

    __slots__ = ("group", "dim", "mats", "name", "maps", "_character")

    def __init__(self, group: FiniteGroup, mats, name: str = "rep"):
        mats = tuple(mats)
        if len(mats) != group.size:
            raise ValueError("one matrix per group element required")
        dim = mats[group.identity].nrows
        if mats[group.identity] != Matrix.identity(dim):
            raise ValueError("identity element must act as the identity matrix")
        if any(m.nrows != dim or m.ncols != dim for m in mats):
            raise ValueError("all matrices must share the representation dimension")
        maps = tuple(_column_map(m) for m in mats)
        maps = None if None in maps else maps
        if maps is not None:  # column j of rho(g) rho(h) is column maps[h][j] of rho(g)
            def holds(g, h, gh):
                return tuple(map(maps[g].__getitem__, maps[h])) == maps[gh]
        elif dim == 1:  # (x_g / D)(x_h / D) = x_gh / D on integer coordinates
            order, den, x = common_scalars([m.trace() for m in mats])

            def holds(g, h, gh):
                return times(x[g], x[h], order) == tuple(den * c for c in x[gh])
        else:
            def holds(g, h, gh):
                return mats[g] @ mats[h] == mats[gh]
        for g in group.generating_set:
            for h, gh in enumerate(group.table[g]):
                if not holds(g, h, gh):
                    raise ValueError(f"matrices fail the homomorphism law on ({g}, {h})")
        self.group = group
        self.dim = dim
        self.mats = mats
        self.name = name
        self.maps = maps
        self._character = ClassFunction.from_function(group, lambda g: mats[g].trace())

    def matrix(self, g: int) -> Matrix:
        return self.mats[g]

    def renamed(self, name: str) -> "MatrixRep":
        """The same checked matrices under another name."""
        out = object.__new__(MatrixRep)
        out.group, out.dim, out.mats, out.name = self.group, self.dim, self.mats, name
        out.maps, out._character = self.maps, self._character
        return out

    def character(self) -> ClassFunction:
        return self._character

    def __repr__(self):
        return f"MatrixRep({self.name}, dim {self.dim} over {self.group.name})"


def _column_map(m: Matrix) -> tuple[int, ...] | None:
    """The row of each column's entry when every column holds one entry 1, else None."""
    cols = [m.cols.get(j, {}) for j in range(m.ncols)]
    one = (1,) + (0,) * (euler_phi(m.order) - 1)
    if m.den != 1 or any(len(col) != 1 or one not in col.values() for col in cols):
        return None
    return tuple(i for col in cols for i in col)


# The linear character reps and the regular rep are built and checked once per
# group object (``FiniteGroup.derived``); their names are formed on each call.

def _regular_rep(group: FiniteGroup) -> MatrixRep:
    mats = [
        Matrix.from_permutation([group.table[g][h] for h in group.elements()])
        for g in group.elements()
    ]
    return MatrixRep(group, mats)


def regular_rep(group: FiniteGroup) -> MatrixRep:
    """Permutation matrices of left translation."""
    return group.derived(_regular_rep).renamed(f"regular({group.name})")


def _commutator_subgroup(group: FiniteGroup) -> frozenset:
    seeds = {
        group.table[group.table[g][h]][
            group.table[group.inverses[g]][group.inverses[h]]
        ]
        for g in group.elements()
        for h in group.elements()
    }
    return closure(seeds, group.identity, group.mul)


def _abelianization(group: FiniteGroup) -> tuple[FiniteGroup, list[int]]:
    """G/[G, G], its cosets in the order of their least members, and the coset of each g."""
    commutator = _commutator_subgroup(group)
    least = [min(group.table[g][c] for c in commutator) for g in group.elements()]
    reps = sorted(set(least))
    quotient = table_group(reps, lambda a, b: least[group.table[a][b]], f"{group.name}_ab")
    return quotient, [reps.index(x) for x in least]


def _linear_character_reps(group: FiniteGroup) -> tuple[MatrixRep, ...]:
    # The 1x1 reps of the linear characters, pulled back from the
    # abelianization: g acts by chi at the preimage of its coset.
    quotient, coset = _abelianization(group)
    structure = subgroup_structure(quotient, frozenset(quotient.elements()))
    domain, e = structure.domain, structure.domain.exponent
    points = [structure.preimage(c) for c in coset]
    return tuple(
        MatrixRep(group, [
            Matrix.from_entries(1, 1, [(0, 0, root_of_unity(e, domain.pairing(chi, a)))])
            for a in points
        ])
        for chi in domain.elements()
    )


def linear_characters(group: FiniteGroup) -> list[ClassFunction]:
    """All one-dimensional characters, pulled back from the abelianization."""
    return [rep.character() for rep in group.derived(_linear_character_reps)]


def linear_character_reps(group: FiniteGroup) -> list[MatrixRep]:
    reps = group.derived(_linear_character_reps)
    return [rep.renamed(f"linear{k}({group.name})") for k, rep in enumerate(reps)]


def standard_reps(group: FiniteGroup) -> list[MatrixRep]:
    """The linear character reps, then the regular rep: the test set of the CLI and selftest."""
    return [*linear_character_reps(group), regular_rep(group)]


# ---------------------------------------------------------------------------
# Adams operations and the lambda/sigma recursions.

def adams_standard(x: ClassFunction, k: int) -> ClassFunction:
    """Precompose with the k-th power map: value at g is x(g^k), ``adams_twisted`` at u = e."""
    return adams_twisted(x, x.group.identity, k)


def _check_central_involution(group: FiniteGroup, u: int):
    if u not in group.central_involutions():
        raise ValueError(f"element {u} is not a central involution of {group.name}")


def adams_twisted(x: ClassFunction, u: int, k: int) -> ClassFunction:
    """Twisted Adams operation: value at g is x(u^(k+1) g^k).

    No arithmetic: class j takes the row of x at the class of u^(k+1) g^k,
    g the least member of class j, and x's values there once x has built them.
    """
    group = x.group
    _check_central_involution(group, u)
    shifted, index = group.table[group.power(u, k + 1)], group.class_map
    at = [index[shifted[group.power(cls_[0], k)]] for cls_ in group.conjugacy_classes()]
    out = ClassFunction._make(group, x.order, x.den, tuple(x.rows[i] for i in at))
    if x._values is not None:
        out._values = tuple(x._values[i] for i in at)
    return out


def _lambda_sequence(x: ClassFunction, n: int, u: int) -> list[ClassFunction]:
    """lambda^0_u(x) .. lambda^n_u(x), from psi^k_u(x) for k up to min(n, ``period``)."""
    group = x.group
    return _newton(group, [adams_twisted(x, u, k) for k in range(1, min(n, group.period) + 1)], n)


def _newton(group: FiniteGroup, sums, n: int) -> list[ClassFunction]:
    """a_0 .. a_n of exp(sum_k (-1)^(k-1) p_k t^k / k), p_k = sums[(k-1) % P], P = len(sums).

    P is even or at least n.  Newton's identity for the series times 1 - t^P
    reads m a_m = sum_{k <= min(m, P)} (-1)^(k-1) p_k a_(m-k) + (m - P) a_(m-P),
    the last term only once m > P.  With the p_k lifted to one order and
    one denominator D, p_k = C_k / D, and a_j = A_j / E_j in lowest terms,
    m D L a_m is an integer row sum with weights (-1)^(k-1) L / E_(m-k) on
    C_k A_(m-k) and (m - P) D L / E_(m-P) on A_(m-P), L = lcm E_(m-k): one
    product sum per class, reduced once, and each a_m one ``_make``: the
    cost grows linearly in n.
    """
    order, den, lifted = common_form((p.order, p.den, p.rows) for p in sums)
    phi, classes, period = euler_phi(order), range(len(group.conjugacy_classes())), len(sums)
    series = [ClassFunction._make(group, order, 1, ((1,) + (0,) * (phi - 1),) * len(classes))]
    for m in range(1, n + 1):
        back = [series[m - k] for k in range(1, min(m, period) + 1)]
        scale = math.lcm(*(a.den for a in back))
        terms = [
            ((-1) ** k * scale // a.den, x, a.rows) for k, (x, a) in enumerate(zip(lifted, back))
        ]
        tail = series[max(m - period, 0)]  # a_(m-P), of weight 0 while m <= P
        w = max(m - period, 0) * den * scale // tail.den
        if phi == 1:  # one int per class: whole rows at once, faster than the loop below
            acc = [w * a for (a,) in tail.rows]
            for v, x, y in terms:
                acc = [a + v * b * c for a, (b,), (c,) in zip(acc, x, y)]
            rows = [(a,) for a in acc]
        else:
            raws = []
            for j in classes:  # one unreduced product sum per class, reduced once
                raw = [w * a for a in tail.rows[j]] + [0] * (phi - 1)
                for v, x, y in terms:
                    accumulate(raw, x[j], y[j], v)
                raws.append(raw)
            rows = reduced_rows(raws, order)
        series.append(ClassFunction._make(group, order, m * den * scale, tuple(rows)))
    return series


def lambda_from_adams(x: ClassFunction, n: int, u: int) -> ClassFunction:
    """n-th exterior-power class function: ``_newton`` in psi^1_u .. psi^P_u, P = ``period``."""
    if n < 0:
        raise ValueError("negative exterior powers are not defined")
    return _lambda_sequence(x, n, u)[n]


def sigma_from_lambda(x: ClassFunction, n: int, u: int) -> ClassFunction:
    """Symmetric power sigma^n_u(x) = (-1)^n lambda^n_u(-x), since sigma_t(x) = lambda_(-t)(-x)."""
    if n < 0:
        raise ValueError("negative symmetric powers are not defined")
    lam = _lambda_sequence(-x, n, u)[n]
    return -lam if n % 2 else lam


def verify_lambda_ring(u: int, characters) -> dict[str, bool]:
    """Exact checks that the twisted operations give a lambda-ring structure.

    On the supplied characters and all n, m up to 6: additivity and
    multiplicativity of the twisted Adams operations, their composition law
    psi^n psi^m = psi^(nm), and the convolution form of lambda-additivity,
    each lambda sequence read as ``lambda_from_adams`` reads it.
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

    @functools.cache
    def psi(i: int, k: int) -> ClassFunction:
        return adams_twisted(characters[i], u, k)

    degrees = range(1, 7)
    lams = [_lambda_sequence(x, 6, u) for x in characters]
    for i, x in enumerate(characters):
        for j, y in enumerate(characters):
            xy = x + y
            sum_psis = [adams_twisted(xy, u, n) for n in degrees]
            for n in degrees:
                if sum_psis[n - 1] != psi(i, n) + psi(j, n):
                    checks["adams_additive"] = False
                if adams_twisted(x * y, u, n) != psi(i, n) * psi(j, n):
                    checks["adams_multiplicative"] = False
            lxy = _lambda_sequence(xy, 6, u)
            if _lambda_additivity_failures(lams[i], lams[j], lxy):
                checks["lambda_additive"] = False
    for i in range(len(characters)):
        for m in degrees:
            psi_m = psi(i, m)
            for n in degrees:
                if adams_twisted(psi_m, u, n) != psi(i, n * m):
                    checks["adams_composition"] = False
    return checks


def _lambda_additivity_failures(lx, ly, lxy) -> list[int]:
    """Degrees i where lxy[i] != sum_s lx[s] ly[i-s].

    The arguments are the lambda sequences of x, y and x + y to one depth.
    """
    failures = []
    for i, expected in enumerate(lxy):
        acc = ClassFunction.constant(expected.group, 0)
        for s in range(i + 1):
            acc = acc + lx[s] * ly[i - s]
        if expected != acc:
            failures.append(i)
    return failures


# ---------------------------------------------------------------------------
# Braided symmetric-group actions on tensor powers.

class BraidedAction:
    """Action of the symmetric group on a tensor power, twisted by an R-matrix.

    The adjacent transposition on slots (i, i+1) acts by the R-action
    followed by the plain factor swap: s_i = I (x) B (x) I with
    B = (rho (x) rho)(R) tau.  For unitary R the generators square to the
    identity, satisfy the braid relations, and commute with the diagonal
    group action; all three facts are verified at construction.  Plain
    swaps only move tensor legs, so each check says that rho^(x)k kills one
    difference in k[G]^(x)k: R R21 - 1, R12 R13 R23 - R23 R13 R12 and
    R - (g (x) g) R (g (x) g)^-1.  The action's ``Braiding`` forms the
    nonzero ones once per power; ``validate`` maps each to matrices.
    Distant generators commute for every R: R12 R34 and R34 R12 have the
    same terms, legwise.

    ``Braiding.generators`` builds B and the s_i: one pass for
    (rho (x) rho)(R) (``_image``, which re-keys R's rows when the rep keeps
    column maps), then B and each s_i by re-indexing its columns and rows,
    with no matrix product or Kronecker product.  The
    exterior-power and long-cycle traces never build these matrices:
    they are character sums over R's terms (see ``_power_sum``).
    """

    __slots__ = ("rep", "braiding", "power", "braid", "generators")

    def __init__(self, rep: MatrixRep, rmatrix: GATensor, power: int, validate: bool = True):
        self.braiding = Braiding(rmatrix)
        self.braiding.check(rep)
        self.rep = rep
        self.power = power
        self.braid, self.generators = self.braiding.generators(rep, power)
        if validate:
            self.validate()

    def validate(self):
        """Raise ValueError unless every relation above holds (``Braiding.validate``)."""
        self.braiding.validate(self.rep, self.power)


class Braiding:
    """One R-matrix and all that is read from it, each part formed on first use.

    ``report``, ``markov`` (u, and ``markov_index``), ``unitary``, R R21
    (``square``), R's leg products, Yang-Baxter sides and (S x I)(R)
    (``legs``), which ``report`` reads too, and per tensor power n the braided
    differences depend on R alone: one ``Braiding`` serves a catalog's dedup
    class and every representation.  The braided power sums behind the
    exterior powers and the cyclic traces are read from R's terms on each
    call (``_power_sum``), with no GATensor product; from degree 3 on they
    need R to pass ``report`` (``_check_hexagons``).
    """

    def __init__(self, rmatrix: GATensor):
        self.rmatrix = rmatrix
        self._differences_at: dict[int, list[tuple]] = {}

    def differences(self, power: int) -> list[tuple]:
        """``_differences(power)``, formed once per power.

        Kept in a dict: a cache on the bound method would be a reference
        cycle, holding a dropped ``Braiding``'s tensors until a GC pass.
        """
        if power not in self._differences_at:
            self._differences_at[power] = self._differences(power)
        return self._differences_at[power]

    @functools.cached_property
    def report(self) -> VerificationReport:
        """``verify_qt`` of R, reading and forming the leg products kept in ``legs``."""
        return verify_qt(self.rmatrix, self.legs)

    @functools.cached_property
    def markov(self) -> GATensor:
        return markov_element(self.rmatrix, self.legs.antipode)

    @functools.cached_property
    def markov_index(self) -> int:
        """The index of u, which must be a grouplike central involution."""
        if not self.markov.is_grouplike():
            raise ValueError("the R-matrix has no grouplike Markov element")
        idx = self.markov.grouplike_index()
        group = self.rmatrix.group
        if group.table[idx][idx] != group.identity or idx not in group.center():
            raise ValueError("the Markov element is not a central involution")
        return idx

    square = functools.cached_property(lambda self: self.rmatrix * self.rmatrix.swap())

    @functools.cached_property
    def legs(self) -> LegProducts:
        """R's leg products, formed on first use, read by ``report`` and the braid relation."""
        return LegProducts(self.rmatrix)

    @functools.cached_property
    def unitary(self) -> bool:
        """R R21 = 1, as ``verify_unitary`` decides it.

        Where R's left slices are idempotents summing to 1 (``legs.left_partition``,
        which ``legs.left_hexagon`` reads too), (S x I)(R) is R's inverse by facts
        (c) and (a) of ``verify_qt``, so R R21 = 1 exactly when R21 = (S x I)(R),
        which R's rows decide (``swap_is_antipode``).  Elsewhere ``square`` is formed.
        """
        if self.legs.left_partition:
            return swap_is_antipode(self.rmatrix)
        return self.square.is_unit()

    def check(self, rep: MatrixRep):
        """Refuse a rep over another group, then a non-unitary R (ValueError)."""
        if self.rmatrix.group != rep.group:
            raise ValueError("representation and R-matrix live over different groups")
        if not self.unitary:
            raise ValueError("the symmetric-group action needs a unitary R-matrix")

    def _differences(self, power: int) -> list[tuple]:
        """The nonzero differences of R's braided identities in k[G]^(x)power, in check order.

        Each is (left, right, message, extra): R R21 against 1; for
        power >= 3 the Yang-Baxter sides, left out where
        ``yang_baxter_by_hexagon`` shows them equal; then R against its
        conjugate by each g (x) g that ``commutes_with_diagonal`` rejects,
        with extra {"element": g}.  The g whose g (x) g fixes R form a
        subgroup, so the elements are scanned only when some g of the group's
        ``generating_set`` does not.
        """
        rmatrix = self.rmatrix
        group = rmatrix.group
        invariant = all(commutes_with_diagonal(rmatrix, g) for g in group.generating_set)
        out = []
        if not self.unitary:
            message = "a braided generator fails to square to the identity"
            out.append((self.square, GATensor.unit(group, 2), message, {}))
        if power >= 3 and not self.legs.yang_baxter_by_hexagon(invariant):
            left, right = self.legs.yang_baxter_sides
            if left != right:
                out.append((left, right, "adjacent generators fail the braid relation", {}))
        if invariant:
            return out
        for g in group.elements():
            if not commutes_with_diagonal(rmatrix, g):
                conj = rmatrix.adjoint_action(g, 1).adjoint_action(g, 2)
                out.append((rmatrix, conj, "the braided action is not equivariant", {"element": g}))
        return out

    def generators(self, rep: MatrixRep, power: int) -> tuple[Matrix, list[Matrix]]:
        """B = (rho (x) rho)(R) T and s_j = I (x) B (x) I on rho^(x)power, j = 1 .. power-1.

        Both are ``_image(rep, R)`` re-indexed, without ``check`` and with no
        scalar arithmetic: column (a, b) of B is column (b, a) of the image,
        and s_j holds B's coordinate tuples at shifted rows and columns.  At
        power 2, s_1 is B itself, the same object.  A d^power past the cap is refused.
        """
        d = rep.dim
        dim = d**power
        if dim > DIMENSION_CAP:
            raise ValueError(f"tensor power dimension {dim} exceeds the cap {DIMENSION_CAP}")
        image = _image(rep, self.rmatrix)
        swapped = {j % d * d + j // d: col for j, col in image.cols.items()}
        braid = Matrix._make(d * d, d * d, image.order, image.den, swapped)
        if power == 2:
            return braid, [braid]
        out = []
        for slot in range(1, power):
            right, blocks = d ** (power - slot - 1), range(0, d ** (slot + 1), d * d)
            cols = {
                (k + j) * right + r: {(k + i) * right + r: v for i, v in col.items()}
                for k in blocks for j, col in braid.cols.items() for r in range(right)
            }
            out.append(Matrix._make(dim, dim, braid.order, braid.den, cols))
        return braid, out

    def validate(self, rep: MatrixRep, power: int):
        """Raise ValueError unless rho^(x)power kills every difference, without ``check``.

        The error's ``witness`` names the first term, in ``first_difference``
        order, of the first difference with a nonzero image, and for
        equivariance the element g.
        """
        if power < 2:
            return
        for left, right, message, extra in self.differences(power):
            if _image(rep, left - right).cols:
                error = ValueError(message)
                error.witness = difference_witness(left, right, **extra)
                raise error

    def _check_hexagons(self, degree: int):
        """Raise ValueError at degree >= 3 unless R passes ``report``.

        ``_power_sum`` reads the long cycle from R's terms by the hexagon
        identities.  R = g (x) g on Z2 is unitary, solves Yang-Baxter and
        commutes with every diagonal, yet fails both hexagons: its literal
        p_3(h) is chi(h^3) and the closed form gives chi(h^3 g).  The error's
        ``witness`` names R's first failed check.
        """
        if degree >= 3 and not self.report.all_passed:
            failed = self.report.failed()[0]
            error = ValueError(
                f"braided power sums of degree {degree} need an R-matrix; R fails {failed.name}"
            )
            error.witness = {"check": failed.name, **(failed.witness or {})}
            raise error

    def exterior_power_char(self, rep: MatrixRep, n: int) -> ClassFunction:
        """Character of the n-th braided exterior power of a representation.

        The value at g is tr(g^(x)n A), A = (1/n!) sum of sign(w) T_w over S_n.
        No degree is refused: ``check`` and ``validate`` refuse what they
        refuse, a ``validate`` error carrying its ``difference_witness``, and
        at n >= 3 ``_check_hexagons`` refuses an R that fails ``report``;
        ``validate`` builds images of arity 2 and 3 only.  Once rho^(x)n
        kills every difference the T_w are an S_n action commuting with
        g^(x)n, a tensor product on S_k x S_(n-k), so tr(g^(x)n T_w) is a
        class function of w, a product over its cycles, and the value is
        Newton's e_n in the power sums p_k(g) = tr(g^(x)k tau_k), each one
        character sum over R's terms (``_power_sum``), by ``_newton``: p_k
        repeats in k with the group's ``period`` once R passes ``report``, so
        only k <= min(n, period) are formed.  For n >= 3 an R whose image
        fails Yang-Baxter is refused even where A alone would still be an
        idempotent commuting with every g^(x)n: without the braid relation
        the T_w are no S_n action and there is no exterior power to report.
        """
        group = rep.group
        if n < 0:
            raise ValueError("negative exterior powers are not defined")
        if n == 0:
            return ClassFunction.constant(group, 1)
        if n == 1:
            return rep.character()
        self.check(rep)
        self.validate(rep, n)
        self._check_hexagons(n)
        chi = rep.character()
        classes = [cls_[0] for cls_ in group.conjugacy_classes()]
        sums = [chi] + [
            ClassFunction._make(group, *_power_sum(self.rmatrix, chi, k, classes))
            for k in range(2, min(n, group.period) + 1)
        ]
        return _newton(group, sums, n)[n]

    def long_cycle_traces(self, rep: MatrixRep, p: int) -> dict[int, list[CycScalar]]:
        """For every central z, the traces of (uz)^(x)p composed with tau^i, i = 0 .. p-1.

        Here u is the Markov element and tau the braided long cycle on the p-th
        tensor power; (uz)^(x)p = u^(x)p z^(x)p because the rep is a homomorphism.
        tau^i is d = gcd(i, p) disjoint long cycles on p/d legs each, so, where
        R's S_p action holds, its trace is p_(p/d)(uz)^d (``_power_sum``), and
        chi(uz)^p at i = 0.  ``check``, then ``_check_hexagons`` at p >= 3,
        refuse first.
        """
        group = rep.group
        u = self.markov_index
        self.check(rep)
        self._check_hexagons(p)
        center = group.center()
        acted = [group.table[u][z] for z in center]
        chi = rep.character()
        sums = {1: [chi.evaluate(g) for g in acted]}
        cycles = [math.gcd(i, p) for i in range(p)]  # d per power tau^i
        for k in {p // d for d in cycles} - {1}:
            order, den, rows = _power_sum(self.rmatrix, chi, k, acted)
            sums[k] = [CycScalar._make(order, den, row) for row in rows]
        return {z: [sums[p // d][j] ** d for d in cycles] for j, z in enumerate(center)}


def _image(rep: MatrixRep, tensor: GATensor) -> Matrix:
    """rho^(x)k of an arity-k tensor: the sum of c rho(g1) (x) ... (x) rho(gk), in one pass.

    The tensor's rows and the rho(g) its terms use are lifted once to one
    order and one denominator.  When the rep keeps column ``maps``, a term
    c (g1 ... gk) puts c at row (map_g1[j1], ..., map_gk[jk]) of column
    (j1, ..., jk), with no arithmetic: one dict per column, summed only
    where terms meet at one row (as on the trivial rep).  Otherwise each term
    is expanded leg by leg into (column, row, coordinates) entries, all are
    summed in one column dict, and zero sums are dropped at the end.  A d^k
    past ``DIMENSION_CAP`` is refused.
    """
    d = rep.dim
    dim = d**tensor.arity
    if dim > DIMENSION_CAP:
        raise ValueError(f"tensor power dimension {dim} exceeds the cap {DIMENSION_CAP}")
    used = {g: rep.matrix(g) for key in tensor.rows for g in key}
    order = math.lcm(tensor.order, *(m.order for m in used.values()))
    terms = lift_rows(tensor.rows, tensor.order, order)
    if rep.maps is not None:
        hits = []  # per term, the row it lands on in each column
        for key in terms:
            at = [0]
            for g in key:
                at = [i * d + r for i in at for r in rep.maps[g]]
            hits.append(at)
        values, cols = list(terms.values()), {}
        for j, rows in enumerate(zip(*hits)):
            col = dict(zip(rows, values))
            if len(col) < len(values) and not (col := summed(zip(rows, values))):
                continue
            cols[j] = col
        return Matrix._make(dim, dim, order, tensor.den, cols)
    _, mden, lifted = common_form(((m.order, m.den, m.cols) for m in used.values()), order)
    legs = {
        g: [(j, i, v) for j, col in cols.items() for i, v in col.items()]
        for g, cols in zip(used, lifted)
    }
    acc: dict[int, list] = {}
    for key, c in terms.items():
        entries = [(0, 0, c)]
        for g in key:
            entries = [(j * d + jg, i * d + ig, times(v, w, order))
                       for j, i, v in entries for jg, ig, w in legs[g]]
        for j, i, v in entries:
            acc.setdefault(j, []).append((i, v))
    cols = {j: col for j, entries in acc.items() if (col := summed(entries))}
    return Matrix._make(dim, dim, order, tensor.den * mden**tensor.arity, cols)


def _power_sum(rmatrix: GATensor, character: ClassFunction, k: int, elements) -> tuple:
    """The braided power sum p_k(g) = tr(g^(x)k tau_k) per g in ``elements``: (order, den, rows).

    tau_k = s_(k-1) ... s_1 is the braided long cycle.  For R = sum c_ab a (x) b
    the hexagon identities make it the braiding of one factor past the other
    k - 1, so p_k(g) = sum c_ab chi(g a (g b)^(k-1)); at k = 2 that is the
    literal trace of g^(x)2 s_1 for every R.  Per g, each term's row is added
    into a bucket keyed by the class of g a (g b)^(k-1), and each bucket where
    chi is nonzero is multiplied once by chi's row there: all at one order,
    reduced once per element, with no GATensor product and no CycScalar.
    """
    group = character.group
    table, class_of = group.table, group.class_map
    order = math.lcm(rmatrix.order, character.order)
    terms = lift_rows(rmatrix.rows, rmatrix.order, order).items()
    chi = lift_rows(character.rows, character.order, order)
    live = [any(row) for row in chi]
    raised = [group.power(x, k - 1) for x in group.elements()]
    width = 2 * euler_phi(order) - 1
    raws = []
    for g in elements:
        row, buckets, raw = table[g], {}, [0] * width
        for (a, b), c in terms:
            j = class_of[table[row[a]][raised[row[b]]]]
            if live[j]:
                buckets[j] = tuple(map(operator.add, buckets[j], c)) if j in buckets else c
        for j, c in buckets.items():
            accumulate(raw, c, chi[j])
        raws.append(raw)
    return order, rmatrix.den * character.den, reduced_rows(raws, order)


def exterior_power_char(rep: MatrixRep, rmatrix: GATensor, n: int) -> ClassFunction:
    """Character of the n-th braided exterior power: ``Braiding.exterior_power_char``."""
    return Braiding(rmatrix).exterior_power_char(rep, n)


def qtrace(rep: MatrixRep, rmatrix: GATensor, endo: Matrix) -> CycScalar:
    """Categorical trace of an equivariant endomorphism: trace of u then f."""
    group = rep.group
    for g in group.elements():
        if endo @ rep.matrix(g) != rep.matrix(g) @ endo:
            raise ValueError("endomorphism does not commute with the group action")
    return (rep.matrix(Braiding(rmatrix).markov_index) @ endo).trace()


def _cyclic_value(traces: list[CycScalar], eps: CycScalar) -> CycScalar:
    """(1/p) sum of eps^i times traces[i]: one row of the long-cycle table at eps.

    eps is a root of unity, so its coordinates are integers and it is lifted,
    not scaled, to the traces' order and denominator; the weights and the
    sum run on integer rows, and the value is one ``_make``.
    """
    order, den, rows = common_scalars(traces, eps.order)
    step, acc, weight = lift_row(eps.num, eps.order, order), [0] * euler_phi(order), None
    for row in rows:  # weight is eps^i, None standing for eps^0 = 1
        term = row if weight is None else times(weight, row, order)
        acc = list(map(operator.add, acc, term))
        weight = step if weight is None else times(weight, step, order)
    return CycScalar._make(order, den * len(traces), tuple(acc))


def cyclic_operation_char(
    rep: MatrixRep, rmatrix: GATensor, p: int, eps: CycScalar
) -> dict[int, CycScalar]:
    """Categorical traces of the cyclic projector against each central element.

    Returns, for every central z, the categorical trace on the p-th tensor
    power of the z-action composed with (1/p) sum eps^i tau^i, where tau is
    the braided long cycle.  By linearity this is (1/p) sum eps^i times the
    trace of (uz)^(x)p tau^i, so the projector itself is never formed, and
    each such trace is a power of a braided power sum, one character sum
    over R's terms (``Braiding.long_cycle_traces``): no d^p matrix is built.
    At p >= 3 R must pass ``verify_qt``.
    """
    eps = as_scalar(eps)
    if eps**p != CycScalar.one():
        raise ValueError(f"eps is not a {p}-th root of unity")
    table = Braiding(rmatrix).long_cycle_traces(rep, p)
    return {z: _cyclic_value(row, eps) for z, row in table.items()}
