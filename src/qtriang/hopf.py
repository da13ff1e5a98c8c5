"""The group algebra k[G] and its tensor powers as sparse exact data.

A GATensor of arity n is a finitely supported map from n-tuples of group
element indices to nonzero cyclotomic scalars.  Arity 1 gives group-algebra
elements, arity 2 houses R-matrices.  The Hopf structure maps (coproduct,
counit, antipode) act per leg; whole-tensor operators arise by composition.

Leg positions are 1-based throughout, matching the usual subscript
convention for operators like R12, R13, R23 on triple tensor products.

``linalg.Matrix``, ``charring.ClassFunction`` and GATensor share one
storage form: one cyclotomic order N holding every value, one positive
denominator D, and per entry the phi(N) integer coordinates of D times the
value, in lowest terms over the whole container.  ``cyclotomic`` lifts,
scales, reduces and compares that form; leg maps re-key the rows, and the
product kernels below run on the integers.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import itemgetter

from .cyclotomic import CycScalar, as_scalar, common_form, common_scalars, euler_phi, lift_rows
from .cyclotomic import lowest_terms, reduced_rows, same_values, scaled, summed, times
from .groups import FiniteGroup, closure
from . import linalg

_ONE = CycScalar.one()


class GATensor:
    """Element of k[G]^(tensor arity), sparse over tuples of element indices.

    ``order`` is N, ``den`` is D and ``rows`` maps each key to its integer
    row (gcd(D, *rows) == 1); zero values are not stored.  D does not depend
    on N, as the power basis is integral at every order, so equality lifts
    both sides to the lcm order and compares rows.  ``terms``, keys to
    CycScalars, is built on first use (or kept as given).  Values each
    within ``ORDER_CAP`` whose orders' lcm is past it are refused (ValueError).
    """

    __slots__ = ("group", "arity", "order", "den", "rows", "_terms")

    def __init__(self, group: FiniteGroup, arity: int, terms=()):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        clean: dict[tuple[int, ...], CycScalar] = {}
        for key, value in terms.items() if hasattr(terms, "items") else terms:
            key = tuple(key)
            if len(key) != arity:
                raise ValueError(f"term {key} does not have arity {arity}")
            if any(not (0 <= g < group.size) for g in key):
                raise ValueError(f"term {key} uses element indices outside the group")
            value = as_scalar(value)
            clean[key] = clean[key] + value if key in clean else value
        clean = {key: value for key, value in clean.items() if value}
        self.order, self.den, self.rows = common_scalars(clean)
        self.group, self.arity, self._terms = group, arity, clean

    @classmethod
    def _make(cls, group: FiniteGroup, arity: int, order: int, den: int, rows: dict) -> "GATensor":
        # Internal fast constructor: rows maps keys to phi(order) ints, none
        # all zero, and den > 0; divides out their common factor.
        den, rows = lowest_terms(den, rows)
        self = object.__new__(cls)
        self.group, self.arity, self.order, self.den = group, arity, order if rows else 1, den
        self.rows, self._terms = rows, None
        return self

    @property
    def terms(self) -> dict[tuple[int, ...], CycScalar]:
        """One CycScalar per key, built from ``rows`` on first use."""
        if self._terms is None:
            self._terms = {k: CycScalar._make(self.order, self.den, r) for k, r in self.rows.items()}
        return self._terms

    # -- constructors -------------------------------------------------------

    @classmethod
    def unit(cls, group: FiniteGroup, arity: int) -> "GATensor":
        return cls.basis(group, *(group.identity,) * arity)

    @classmethod
    def basis(cls, group: FiniteGroup, *elements: int) -> "GATensor":
        if any(not (0 <= g < group.size) for g in elements):
            raise ValueError(f"term {elements} uses element indices outside the group")
        return cls._make(group, len(elements), 1, 1, {elements: (1,)})

    # -- linear structure ----------------------------------------------------

    def _check_compatible(self, other: "GATensor"):
        if self.group is not other.group and self.group != other.group:
            raise ValueError("tensors over different groups")
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other: "GATensor") -> "GATensor":
        self._check_compatible(other)
        order, den, (a, b) = common_form([(t.order, t.den, t.rows) for t in (self, other)])
        rows = summed(chain(a.items(), b.items()))
        return GATensor._make(self.group, self.arity, order, den, rows)

    def __sub__(self, other: "GATensor") -> "GATensor":
        return self + (-other)

    def __neg__(self) -> "GATensor":
        rows = {key: tuple(-x for x in row) for key, row in self.rows.items()}
        return GATensor._make(self.group, self.arity, self.order, self.den, rows)

    def scale(self, scalar) -> "GATensor":
        order, den, rows = scaled((self.order, self.den, self.rows), scalar)
        return GATensor._make(self.group, self.arity, order, den, rows if scalar else {})

    __rmul__ = scale

    # -- algebra structure ---------------------------------------------------

    def __mul__(self, other):
        """Legwise convolution product; the unit is the all-identity tuple.

        Both operands' rows are lifted to N, the lcm of their orders (past
        the order cap, ValueError).  For each term pair, every product of
        nonzero coordinates at exponents e1 and e2 adds into the output key's
        unreduced polynomial in zeta_N at e1 + e2.  Each kept key is reduced
        modulo Phi_N once, and one gcd is divided out of the whole result.
        """
        if not isinstance(other, GATensor):
            return self.scale(other)
        self._check_compatible(other)
        order = math.lcm(self.order, other.order)
        lifted = lift_rows(other.rows, other.order, order)
        right = [(k, j, c) for k, r in lifted.items() for j, c in enumerate(r) if c]
        table = self.group.table
        # The right keys as one column per leg: a left key maps each column
        # through its leg's row of the table with one getter per leg, and the
        # columns zip into keys.  A getter of one index returns no tuple.
        legs = list(zip(*(k for k, _, _ in right)))
        getters = [itemgetter(*c) if len(c) > 1 else lambda r, i=c[0]: (r[i],) for c in legs]
        places, values = [j for _, j, _ in right], [c for _, _, c in right]
        blank, acc = [()] * len(right), {}
        if order <= 2:  # phi(order) == 1: one int per value
            for k1, (c1,) in self.rows.items():
                out = zip(*[g(table[a]) for a, g in zip(k1, getters)]) if legs else blank
                for key, c2 in zip(out, values):
                    acc[key] = acc.get(key, 0) + c1 * c2
            rows = {k: (c,) for k, c in acc.items() if c}
        else:
            width = 2 * euler_phi(order) - 1
            for k1, row in lift_rows(self.rows, self.order, order).items():
                u = [(j, c) for j, c in enumerate(row) if c]
                out = zip(*[g(table[a]) for a, g in zip(k1, getters)]) if legs else blank
                if len(u) > 1:  # the keys are read once per coordinate
                    out = list(out)
                for j1, c1 in u:
                    for key, j2, c2 in zip(out, places, values):
                        raw = acc.get(key)
                        if raw is None:
                            raw = acc[key] = [0] * width
                        raw[j1 + j2] += c1 * c2
            rows = reduced_rows(acc, order)
        return GATensor._make(self.group, self.arity, order, self.den * other.den, rows)

    def _fibre_square(self, leg: int) -> "GATensor":
        """R's fibre square: at ``leg`` 1, sum_a a (x) r_a^2 for R = sum_a a (x) r_a.

        At leg 2, sum_b s_b^2 (x) b; as in ``__mul__``, from sum_a |r_a|^2 pairs, not |R|^2,
        on one int per value at orders 1 and 2 and on nonzero coordinates above."""
        i, table, order = leg - 1, self.group.table, self.order
        slices: dict = {}
        for key, row in self.rows.items():
            slices.setdefault(key[i], []).append((key[1 - i], row))
        acc: dict = {}
        if order <= 2:  # phi(order) == 1: one int per value
            for a, terms in slices.items():
                for b, (x,) in terms:
                    for c, (y,) in terms:
                        key = (a, table[b][c]) if i == 0 else (table[b][c], a)
                        acc[key] = acc.get(key, 0) + x * y
            rows = {k: (c,) for k, c in acc.items() if c}
            return GATensor._make(self.group, 2, order, self.den * self.den, rows)
        width = 2 * euler_phi(order) - 1
        for a, terms in slices.items():
            terms = [(b, [(j, x) for j, x in enumerate(u) if x]) for b, u in terms]
            for b, u in terms:
                for c, v in terms:
                    key = (a, table[b][c]) if i == 0 else (table[b][c], a)
                    raw = acc.get(key)
                    if raw is None:
                        raw = acc[key] = [0] * width
                    for j1, x in u:
                        for j2, y in v:
                            raw[j1 + j2] += x * y
        return GATensor._make(self.group, 2, order, self.den * self.den, reduced_rows(acc, order))

    def __matmul__(self, other: "GATensor") -> "GATensor":
        """Outer tensor product, concatenating legs."""
        if self.group != other.group:
            raise ValueError("tensors over different groups")
        # At one denominator D each product holds D^2 times its value.
        order, den, (a, b) = common_form([(t.order, t.den, t.rows) for t in (self, other)])
        rows = {k1 + k2: times(r1, r2, order) for k1, r1 in a.items() for k2, r2 in b.items()}
        return GATensor._make(self.group, self.arity + other.arity, order, den * den, rows)

    # -- Hopf structure maps, one leg at a time -------------------------------

    def _check_leg(self, leg: int):
        if not 1 <= leg <= self.arity:
            raise ValueError(f"leg {leg} out of range for arity {self.arity}")

    def _map_keys(self, arity: int, key_map) -> "GATensor":
        """The tensor with each key k moved to key_map(k); rows meeting at one key add."""
        rows = {key_map(key): row for key, row in self.rows.items()}
        if len(rows) < len(self.rows):
            rows = summed((key_map(key), row) for key, row in self.rows.items())
        return GATensor._make(self.group, arity, self.order, self.den, rows)

    def coproduct(self, leg: int) -> "GATensor":
        """Replace the chosen leg g by the pair (g, g); arity grows by one."""
        self._check_leg(leg)
        i = leg - 1
        return self._map_keys(self.arity + 1, lambda key: key[:leg] + key[i:])

    def counit(self, leg: int) -> "GATensor":
        """Sum out the chosen leg with weight 1 per group element, in one pass over the rows."""
        self._check_leg(leg)
        i = leg - 1
        rows = summed((key[:i] + key[leg:], row) for key, row in self.rows.items())
        return GATensor._make(self.group, self.arity - 1, self.order, self.den, rows)

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
        """One row, at the all-identity key, of den 1 and the power-basis 1."""
        if self.den != 1 or len(self.rows) != 1:
            return False
        (key, row), = self.rows.items()
        return row[0] == 1 and not any(row[1:]) and key == (self.group.identity,) * self.arity

    def is_grouplike(self) -> bool:
        """Whether x = sum c_g g is a group element: Delta x = x (x) x forces c_g c_h = 0
        for g != h and c_g^2 = c_g, and eps(x) = 1 leaves one term, coefficient 1."""
        if self.arity != 1:
            raise ValueError("grouplikes live in arity 1")
        return len(self.rows) == 1 and next(iter(self.terms.values())) == 1

    def grouplike_index(self) -> int:
        if not self.is_grouplike():
            raise ValueError(f"{self!r} is not a group element")
        return next(iter(self.rows))[0]

    def coeff(self, key) -> CycScalar:
        return self.terms.get(tuple(key), CycScalar.zero())

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def support_subgroup(self) -> list[tuple[int, ...]]:
        """The subgroup of G^arity generated by the support, sorted."""
        table = self.group.table
        elems = closure(
            self.rows,
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
        inv = self.group.inverses
        table = self.group.table
        zero = CycScalar.zero()
        rows = [
            [self.terms.get(tuple(table[x][inv[y]] for x, y in zip(u, s)), zero) for s in basis]
            for u in basis
        ]
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
        if (self.arity, self.den) != (other.arity, other.den) or self.group != other.group:
            return False
        return same_values((self.order, self.den, self.rows), (other.order, other.den, other.rows))

    def __hash__(self):
        return hash((self.arity, self.den, frozenset(self.rows)))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({value})*[{'(x)'.join(map(str, key)) if key else '()'}]"
            for key, value in self.sorted_terms()
        )


def first_difference(left: GATensor, right: GATensor):
    """The smallest tuple where two tensors differ, with both coefficients."""
    if left == right:
        return None
    for key in sorted(set(left.rows) | set(right.rows)):
        a, b = left.coeff(key), right.coeff(key)
        if a != b:
            return key, a, b
    return None


def difference_witness(left: GATensor, right: GATensor, **extra) -> dict | None:
    """``first_difference`` as a witness dict with ``extra`` keys, or None."""
    diff = first_difference(left, right)
    if diff is not None:
        key, a, b = diff
        return {"tuple": list(key), "left": str(a), "right": str(b), **extra}
