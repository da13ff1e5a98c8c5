from fractions import Fraction

from qtriang.cyclotomic import CycScalar, root_of_unity
from qtriang.linalg import in_row_span, rref, solve


def q(value):
    return CycScalar.rational(Fraction(value))


def _apply(rows, x):
    return [sum((a * b for a, b in zip(row, x)), q(0)) for row in rows]


def test_solve_inconsistent_returns_none():
    rows = [[q(1), q(1)], [q(2), q(2)]]
    assert solve(rows, [q(1), q(3)]) is None
    z = root_of_unity(3)
    assert solve([[z, z * z], [z * z, z ** 3]], [q(1), q(0)]) is None


def test_solve_underdetermined_sets_free_variables_to_zero():
    i = root_of_unity(4)
    rows = [
        [q(1), q(2), q(0), q(3)],
        [q(0), q(0), i, i],
    ]
    rhs = [q(5), q(1)]
    x = solve(rows, rhs)
    assert x is not None
    assert x[1] == 0 and x[3] == 0
    assert x[0] == 5 and x[2] == i.inverse()
    assert _apply(rows, x) == rhs


def test_solve_square_and_empty_systems():
    z = root_of_unity(12)
    rows = [[q(2), z], [z ** 3, q(1)]]
    rhs = [root_of_unity(3), q(-1)]
    assert _apply(rows, solve(rows, rhs)) == rhs
    assert solve([], []) == []


def test_rref_canonical_form_over_mixed_orders():
    w = root_of_unity(3)
    i = root_of_unity(4)
    z = root_of_unity(12)
    rows = [
        [q(2), w, q(0), i],
        [q(2) * z, z * w, q(1), z * i],
        [q(2) + q(2) * z, w + z * w, q(1), i + z * i],
    ]
    reduced, pivots = rref(rows)
    assert pivots == [0, 2]
    assert reduced[2] == [q(0)] * 4
    for r, col in enumerate(pivots):
        assert reduced[r][col] == 1
        assert all(reduced[k][col] == 0 for k in range(len(rows)) if k != r)
    # The canonical form depends on the row space only, not on the order at
    # which entries are written or on which spanning rows are given.
    lifted = [[v.embed(24) for v in row] for row in rows]
    assert rref(lifted) == (reduced, pivots)
    other = [rows[2], [a - b for a, b in zip(rows[0], rows[1])]]
    assert rref(other) == (reduced[:2], pivots)


def test_rref_of_empty_matrix():
    assert rref([]) == ([], [])


def test_in_row_span():
    w = root_of_unity(3)
    basis = [[q(1), w, q(0)], [q(0), q(1), root_of_unity(8)]]
    inside = [a * w + b * 7 for a, b in zip(basis[0], basis[1])]
    assert in_row_span(basis, inside)
    assert not in_row_span(basis, [q(0), q(0), q(1)])
