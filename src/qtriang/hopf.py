"""The group algebra k[G] and its tensor powers as sparse exact data.

A GATensor of arity n is a finitely supported map from n-tuples of group
element indices to nonzero cyclotomic scalars.  Arity 1 gives group-algebra
elements, arity 2 houses R-matrices.  The Hopf structure maps (coproduct,
counit, antipode) act per leg; whole-tensor operators arise by composition.

Leg positions are 1-based throughout, matching the usual subscript
convention for operators like R12, R13, R23 on triple tensor products.

Products add coefficients in the group ring Z[C_n], n the lcm of the
operands' orders, as integer multiplicities of exponents of zeta_n, and reduce
each output term modulo the cyclotomic polynomial once.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import repeat
from operator import itemgetter

from .cyclotomic import ORDER_CAP, CycScalar, lift, root_power_table
from .groups import FiniteGroup, closure
from . import linalg

_ONE = CycScalar.one()


class GATensor:
    """Element of k[G]^(tensor arity), sparse over tuples of element indices."""

    __slots__ = ("group", "arity", "terms")

    def __init__(self, group: FiniteGroup, arity: int, terms=()):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        items = terms.items() if hasattr(terms, "items") else terms
        clean: dict[tuple[int, ...], CycScalar] = {}
        for key, value in items:
            key = tuple(key)
            if len(key) != arity:
                raise ValueError(f"term {key} does not have arity {arity}")
            if any(not (0 <= g < group.size) for g in key):
                raise ValueError(f"term {key} uses element indices outside the group")
            if not isinstance(value, CycScalar):
                value = CycScalar.rational(value)
            if key in clean:
                value = clean[key] + value
            if value:
                clean[key] = value
            elif key in clean:
                del clean[key]
        self.group = group
        self.arity = arity
        self.terms = clean

    @classmethod
    def _make(cls, group: FiniteGroup, arity: int, terms: dict) -> "GATensor":
        # Internal fast constructor: terms map arity-tuples of indices to nonzero CycScalars.
        self = object.__new__(cls)
        self.group = group
        self.arity = arity
        self.terms = terms
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def unit(cls, group: FiniteGroup, arity: int) -> "GATensor":
        return cls(group, arity, {(group.identity,) * arity: _ONE})

    @classmethod
    def basis(cls, group: FiniteGroup, *elements: int) -> "GATensor":
        return cls(group, len(elements), {tuple(elements): _ONE})

    # -- linear structure ----------------------------------------------------

    def _check_compatible(self, other: "GATensor"):
        if self.group != other.group:
            raise ValueError("tensors over different groups")
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other: "GATensor") -> "GATensor":
        self._check_compatible(other)
        acc = dict(self.terms)
        for key, value in other.terms.items():
            acc[key] = acc[key] + value if key in acc else value
        return GATensor(self.group, self.arity, acc)

    def __sub__(self, other: "GATensor") -> "GATensor":
        return self + (-other)

    def __neg__(self) -> "GATensor":
        return GATensor(self.group, self.arity, {k: -v for k, v in self.terms.items()})

    def scale(self, scalar) -> "GATensor":
        if not isinstance(scalar, CycScalar):
            scalar = CycScalar.rational(scalar)
        return GATensor(self.group, self.arity, {k: v * scalar for k, v in self.terms.items()})

    def __rmul__(self, scalar):
        if isinstance(scalar, GATensor):
            return NotImplemented
        return self.scale(scalar)

    # -- algebra structure ---------------------------------------------------

    def __mul__(self, other):
        """Legwise convolution product; the unit is the all-identity tuple.

        Term pairs add a1 * a2 at exponent e1 + e2 into their key's histogram
        over Z[C_n].  A key is read out once, at the lcm m of the orders of
        the pairs reaching it (the order a running scalar sum would keep, and
        past the order cap the same ValueError).  The slot for m starts at the
        gcd of lcm(o1, o2) over the operands' order pairs: it divides each one,
        and when all of them agree no pair can widen it.  Histograms are dense
        lists while n is within the cap, else sparse; one whose coordinates
        all cancel is dropped unread.
        """
        if not isinstance(other, GATensor):
            return self.scale(other)
        self._check_compatible(other)
        orders1, orders2 = ({v.order for v in t.terms.values()} for t in (self, other))
        n = math.lcm(*orders1, *orders2)
        pair_orders = {math.lcm(o1, o2) for o1 in orders1 for o2 in orders2}
        start = math.gcd(*pair_orders)
        widen = len(pair_orders) > 1
        den1, left = _spread(self.terms, n)
        den2, right = _spread(other.terms, n)
        if start > ORDER_CAP:  # every pair's order is past the cap: the first pair raises
            _widen(1, left[0][1], right[0][1])
        table = self.group.table
        # n exponent slots, then the order m so far at index n.
        blank = [0] * n + [start] if n <= ORDER_CAP else None
        # The right keys as one column per leg: a left key maps each column
        # through its leg's row of the table with one getter per leg, and the
        # columns zip into keys.  A getter of one index returns no tuple.
        legs = list(zip(*(k2 for k2, _, _, _ in right)))
        if len(right) == 1:
            getters = [lambda row, i=col[0]: (row[i],) for col in legs]
        else:
            getters = [itemgetter(*col) for col in legs]
        rest = [(o2, e2, a2) for _, o2, e2, a2 in right]
        acc = {}
        for k1, o1, e1, a1 in left:
            cols = [get(table[a]) for a, get in zip(k1, getters)]
            for key, (o2, e2, a2) in zip(zip(*cols) if legs else repeat(()), rest):
                hist = acc.get(key)
                if hist is None:
                    hist = acc[key] = blank.copy() if blank else defaultdict(int, {n: start})
                if widen:
                    m = hist[n]
                    if m % o1 or m % o2:
                        hist[n] = _widen(m, o1, o2)
                hist[(e1 + e2) % n] += a1 * a2
        den = den1 * den2
        out = {}
        for key, hist in acc.items():
            m = hist[n]
            coords = hist[0:n:n // m] if blank else [hist[e] for e in range(0, n, n // m)]
            if any(coords):
                num = lift(coords, root_power_table(m))
                if any(num):
                    out[key] = CycScalar._make(m, den, num)
        return GATensor._make(self.group, self.arity, out)

    def __matmul__(self, other: "GATensor") -> "GATensor":
        """Outer tensor product, concatenating legs."""
        if self.group != other.group:
            raise ValueError("tensors over different groups")
        acc: dict[tuple[int, ...], CycScalar] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                acc[k1 + k2] = v1 * v2
        return GATensor(self.group, self.arity + other.arity, acc)

    # -- Hopf structure maps, one leg at a time -------------------------------

    def _check_leg(self, leg: int):
        if not 1 <= leg <= self.arity:
            raise ValueError(f"leg {leg} out of range for arity {self.arity}")

    def _map_keys(self, arity: int, key_map) -> "GATensor":
        # key_map must be injective on the keys, so no terms merge and every
        # value stays the nonzero scalar it was.
        return GATensor._make(
            self.group, arity, {key_map(key): value for key, value in self.terms.items()}
        )

    def coproduct(self, leg: int) -> "GATensor":
        """Replace the chosen leg g by the pair (g, g); arity grows by one."""
        self._check_leg(leg)
        i = leg - 1
        return self._map_keys(self.arity + 1, lambda key: key[:leg] + key[i:])

    def counit(self, leg: int) -> "GATensor":
        """Sum out the chosen leg with weight 1 per group element."""
        self._check_leg(leg)
        acc: dict[tuple[int, ...], CycScalar] = {}
        i = leg - 1
        for key, value in self.terms.items():
            short = key[:i] + key[i + 1 :]
            acc[short] = acc[short] + value if short in acc else value
        return GATensor(self.group, self.arity - 1, acc)

    def antipode(self, leg: int) -> "GATensor":
        """Invert the chosen leg elementwise."""
        self._check_leg(leg)
        inv = self.group.inverses
        i = leg - 1
        return self._map_keys(self.arity, lambda key: key[:i] + (inv[key[i]],) + key[leg:])

    def permute_legs(self, perm) -> "GATensor":
        """Rearrange legs: new leg k carries what old leg perm[k] carried (0-based)."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.arity)):
            raise ValueError(f"{perm} is not a permutation of {self.arity} legs")
        return self._map_keys(self.arity, lambda key: tuple(key[p] for p in perm))

    def swap(self) -> "GATensor":
        if self.arity != 2:
            raise ValueError("swap is for arity-2 tensors")
        return self.permute_legs((1, 0))

    def embed_legs(self, positions: tuple[int, int], total: int) -> "GATensor":
        """Place an arity-2 tensor in the given legs of an arity-``total`` tensor.

        All other legs carry the identity element, so R.embed_legs((1, 3), 3)
        is the usual R13.
        """
        if self.arity != 2:
            raise ValueError("embed_legs places arity-2 tensors")
        i, j = positions
        if i == j:
            raise ValueError("positions clash")
        if not (1 <= i <= total and 1 <= j <= total):
            raise ValueError(f"positions {positions} out of range for arity {total}")
        blank = [self.group.identity] * total

        def place(key):
            out = blank.copy()
            out[i - 1], out[j - 1] = key
            return tuple(out)

        return self._map_keys(total, place)

    def adjoint_action(self, element: int, leg: int) -> "GATensor":
        """Conjugate the chosen leg by a group element."""
        self._check_leg(leg)
        conj = self.group.conj[element]
        i = leg - 1
        return self._map_keys(self.arity, lambda key: key[:i] + (conj[key[i]],) + key[leg:])

    # -- predicates and solving ----------------------------------------------

    def is_unit(self) -> bool:
        return self == GATensor.unit(self.group, self.arity)

    def is_grouplike(self) -> bool:
        """Whether x = sum c_g g is a group element: Delta x = x (x) x forces c_g c_h = 0
        for g != h and c_g^2 = c_g, and eps(x) = 1 leaves one term, coefficient 1."""
        if self.arity != 1:
            raise ValueError("grouplikes live in arity 1")
        return len(self.terms) == 1 and next(iter(self.terms.values())) == 1

    def grouplike_index(self) -> int:
        if not self.is_grouplike():
            raise ValueError(f"{self!r} is not a group element")
        return next(iter(self.terms))[0]

    def coeff(self, key) -> CycScalar:
        return self.terms.get(tuple(key), CycScalar.zero())

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def support_subgroup(self) -> list[tuple[int, ...]]:
        """The subgroup of G^arity generated by the support, sorted."""
        table = self.group.table
        elems = closure(
            self.terms,
            (self.group.identity,) * self.arity,
            lambda a, b: tuple(table[x][y] for x, y in zip(a, b)),
        )
        return sorted(elems)

    def inverse(self) -> "GATensor":
        """Two-sided inverse found by exact linear solve on the support subgroup.

        The inverse of an invertible element of a group algebra lies in the
        group algebra of the subgroup its support generates, so the solve
        stays small.  Raises ValueError when the element is not invertible.
        """
        basis = self.support_subgroup()
        index = {key: i for i, key in enumerate(basis)}
        inverses = self.group.inverses
        table = self.group.table
        zero = CycScalar.zero()
        rows = []
        for u in basis:
            row = []
            for s in basis:
                s_inv = tuple(inverses[x] for x in s)
                t = tuple(table[x][y] for x, y in zip(u, s_inv))
                row.append(self.terms.get(t, zero))
            rows.append(row)
        rhs = [zero] * len(basis)
        rhs[index[(self.group.identity,) * self.arity]] = _ONE
        solution = linalg.solve(rows, rhs)
        if solution is None:
            raise ValueError("tensor is not invertible")
        candidate = GATensor(
            self.group, self.arity, {s: c for s, c in zip(basis, solution) if c}
        )
        if not (self * candidate).is_unit() or not (candidate * self).is_unit():
            raise ValueError("tensor is not invertible")
        return candidate

    def is_invertible(self) -> bool:
        try:
            self.inverse()
            return True
        except ValueError:
            return False

    # -- comparison and serialization helpers ---------------------------------

    def canonical_key(self):
        return (
            self.arity,
            tuple((key, value.key()) for key, value in self.sorted_terms()),
        )

    def __eq__(self, other):
        if not isinstance(other, GATensor):
            return NotImplemented
        return (
            self.group == other.group
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key, value in self.sorted_terms():
            label = "(x)".join(str(g) for g in key) if key else "()"
            bits.append(f"({value})*[{label}]")
        return " + ".join(bits)


def _spread(terms, n: int):
    # One denominator for all terms, and per nonzero coordinate an entry
    # (key, order, exponent of zeta_n, integer multiplicity).
    den = math.lcm(*(v.den for v in terms.values()))
    return den, [
        (key, v.order, j * (n // v.order), c * (den // v.den))
        for key, v in terms.items() for j, c in enumerate(v.num) if c
    ]


def _widen(m: int, o1: int, o2: int) -> int:
    # The order of a running sum at m plus a product at orders o1 and o2, or
    # the cap error that product, then that sum, would raise.
    for order in (math.lcm(o1, o2), math.lcm(m, o1, o2)):
        if order > ORDER_CAP:
            raise ValueError(f"cyclotomic order {order} exceeds the supported cap {ORDER_CAP}")
    return order


def first_difference(left: GATensor, right: GATensor):
    """The smallest tuple where two tensors differ, with both coefficients."""
    if left.terms == right.terms:
        return None
    zero = CycScalar.zero()
    for key in sorted(set(left.terms) | set(right.terms)):
        a = left.terms.get(key, zero)
        b = right.terms.get(key, zero)
        if a != b:
            return key, a, b
    return None


def difference_witness(left: GATensor, right: GATensor, **extra) -> dict | None:
    """``first_difference`` as a witness dict with ``extra`` keys, or None."""
    diff = first_difference(left, right)
    if diff is not None:
        key, a, b = diff
        return {"tuple": list(key), "left": str(a), "right": str(b), **extra}
