"""The braided long cycles as GATensor products: the tests' oracle for the power sums.

An operator (X, pi) stands for rho^(x)n(X) composed with T_pi, the plain
leg permutation that moves slot i to slot pi[i], with X in k[G]^(x)n.  The
generator s_j is (R placed in legs j and j+1, the transposition of slots
j-1 and j, 0-based).  Since T_p rho^(x)n(Y) = rho^(x)n(p(Y)) T_p, where
p(Y) puts leg i of Y at slot p[i], products are (X, p) (Y, s) =
(X p(Y), p o s): one GATensor product per letter after the first.  Traces
of such operators against g^(x)n are character sums over X's terms, for
every R, with no hexagon identity assumed; the package reads the power sums
from R's terms by a closed form instead (``charring._power_sum``).
"""

import functools

from qtriang.charring import Braiding, ClassFunction, MatrixRep
from qtriang.cyclotomic import CycScalar
from qtriang.hopf import GATensor


def inverse(perm) -> list[int]:
    out = [0] * len(perm)
    for i, k in enumerate(perm):
        out[k] = i
    return out


def compose(left, right):
    """(X, p) (Y, s) = (X p(Y), p o s) for operators (X, pi)."""
    (x, p), (y, s) = left, right
    return x * y.permute_legs(inverse(p)), tuple(p[k] for k in s)


@functools.cache
def long_cycle(rmatrix: GATensor, power: int) -> tuple:
    """The braided long cycle tau = s_(power-1) ... s_1 as a pair (X, pi), from R's terms."""
    ident, letters = tuple(range(power)), []
    for j in range(power - 1, 0, -1):
        swap = list(ident)
        swap[j - 1], swap[j] = j, j - 1
        letters.append((rmatrix.embed_legs((j, j + 1), power), tuple(swap)))
    if not letters:
        return GATensor.unit(rmatrix.group, power), ident
    return functools.reduce(compose, letters)


@functools.cache
def cycle_powers(rmatrix: GATensor, p: int) -> list[tuple]:
    """tau^i, i = 0 .. p-1, for the ``long_cycle`` tau: tau^i = tau^(i-1) tau."""
    tau = long_cycle(rmatrix, p)
    powers = [(GATensor.unit(rmatrix.group, p), tuple(range(p))), tau]
    while len(powers) < p:
        powers.append(compose(powers[-1], tau))
    return powers[:p]


def operator_traces(character: ClassFunction, op, elements) -> list[CycScalar]:
    """tr(rho^(x)n(g^(x)n X) T_pi) for the operator op = (X, pi), per g in ``elements``.

    Slot k of the image reads slot pi^-1(k), so the trace factors over the
    cycles of pi: a term (x, c) of X adds c times the product over cycles,
    each read k -> pi^-1(k) -> ..., of chi(g x_k g x_pi^-1(k) ...), with
    chi the ``character`` of rho.  Coefficients are summed per tuple of
    cycle classes first, so each tuple costs one product of character values.
    """
    group = character.group
    table, e = group.table, group.identity
    chi = character.values
    class_of = group.class_map
    x, pi = op
    back, cycles, seen = inverse(pi), [], set()
    for k in range(len(pi)):
        cycle = []
        while k not in seen:
            seen.add(k)
            cycle.append(k)
            k = back[k]
        if cycle:
            cycles.append(cycle)
    out = []
    for g in elements:
        row = table[g]
        sums: dict[tuple, CycScalar] = {}
        for key, c in x.terms.items():
            classes = []
            for cycle in cycles:
                h = e
                for k in cycle:
                    h = table[h][row[key[k]]]
                if not chi[class_of[h]]:
                    break
                classes.append(class_of[h])
            else:
                classes = tuple(sorted(classes))
                sums[classes] = sums[classes] + c if classes in sums else c
        total = CycScalar.zero()
        for classes, c in sums.items():
            for idx in classes:
                c = c * chi[idx]
            total = total + c
        out.append(total)
    return out


def power_sum(rmatrix: GATensor, character: ClassFunction, k: int) -> ClassFunction:
    """p_k(g) = tr(g^(x)k tau_k) on every class, traced over the product-built long cycle."""
    group = character.group
    classes = [cls_[0] for cls_ in group.conjugacy_classes()]
    return ClassFunction(group, operator_traces(character, long_cycle(rmatrix, k), classes))


def long_cycle_traces(rep: MatrixRep, rmatrix: GATensor, p: int) -> dict[int, list[CycScalar]]:
    """For every central z, tr((uz)^(x)p tau^i), i = 0 .. p-1, each tau^i a product of tensors."""
    group = rep.group
    u = Braiding(rmatrix).markov_index
    center = group.center()
    acted = [group.table[u][z] for z in center]
    chi = rep.character()
    columns = [operator_traces(chi, op, acted) for op in cycle_powers(rmatrix, p)]
    return {z: [column[k] for column in columns] for k, z in enumerate(center)}
