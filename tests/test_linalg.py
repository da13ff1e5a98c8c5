import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qtriang.cyclotomic import CycScalar, euler_phi, root_of_unity
from qtriang.linalg import Matrix, in_row_span, rref, solve


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


# -- sparse Matrix against a dense list-of-CycScalar reference ---------------

ORDERS = (1, 2, 3, 4, 6, 8, 12)
ZERO = CycScalar.zero()


@st.composite
def scalars(draw):
    order = draw(st.sampled_from(ORDERS))
    den = draw(st.sampled_from((1, 1, 2, 3, 4)))
    phi = euler_phi(order)
    nums = draw(st.lists(st.integers(-3, 3), min_size=phi, max_size=phi))
    return CycScalar(order, [Fraction(c, den) for c in nums])


def dense(nrows, ncols):
    entry = st.one_of(st.just(ZERO), scalars())
    return st.lists(
        st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
    )


def _ref_matmul(a, b):
    inner = len(b)
    return [
        [sum((a[i][k] * b[k][j] for k in range(inner)), ZERO) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _ref_kron(a, b):
    nb, mb = len(b), len(b[0])
    return [
        [a[i // nb][j // mb] * b[i % nb][j % mb] for j in range(len(a[0]) * mb)]
        for i in range(len(a) * nb)
    ]


def _assert_canonical(m):
    # One order, one positive denominator in lowest terms, phi(order) integer
    # coordinates per stored entry, and no stored zeros.
    phi = euler_phi(m.order)
    coords = [v for col in m.cols.values() for v in col.values()]
    assert m.den >= 1
    assert all(len(v) == phi and all(type(x) is int for x in v) and any(v) for v in coords)
    assert math.gcd(m.den, *(x for v in coords for x in v)) == 1
    assert all(col for col in m.cols.values())
    assert sum(len(c) for c in m.cols.values()) == sum(
        1 for row in m.to_dense() for v in row if v
    )


def _check(result, reference):
    _assert_canonical(result)
    assert result.to_dense() == reference
    assert all(
        result.get(i, j) == reference[i][j]
        for i in range(result.nrows)
        for j in range(result.ncols)
    )
    rebuilt = Matrix.from_dense(reference)
    assert result == rebuilt and hash(result) == hash(rebuilt)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_matrix_matches_dense_reference(data):
    n, m, p = (data.draw(st.integers(1, 3)) for _ in range(3))
    a = data.draw(dense(n, m))
    a2 = data.draw(dense(n, m))
    b = data.draw(dense(m, p))
    s = data.draw(st.one_of(scalars(), st.integers(-2, 2), st.just(Fraction(-1, 3))))
    A, A2, B = Matrix.from_dense(a), Matrix.from_dense(a2), Matrix.from_dense(b)
    _check(A, a)
    _check(A @ B, _ref_matmul(a, b))
    _check(A + A2, [[x + y for x, y in zip(r, r2)] for r, r2 in zip(a, a2)])
    _check(A - A2, [[x - y for x, y in zip(r, r2)] for r, r2 in zip(a, a2)])
    _check(A.scale(s), [[x * s for x in r] for r in a])
    _check(A.kron(B), _ref_kron(a, b))
    square = data.draw(dense(n, n))
    assert Matrix.from_dense(square).trace() == sum(
        (square[i][i] for i in range(n)), ZERO
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_from_entries_and_constructor_sum_and_drop_zeros(data):
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    entries = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1), scalars()))
    )
    reference = [[ZERO] * m for _ in range(n)]
    for i, j, v in entries:
        reference[i][j] = reference[i][j] + v
    _check(Matrix.from_entries(n, m, entries), reference)
    cols = {j: {i: reference[i][j] for i in range(n)} for j in range(m)}
    _check(Matrix(n, m, cols), reference)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_equality_and_hash_do_not_depend_on_the_order(data):
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    a = data.draw(dense(n, m))
    lifted = Matrix.from_dense([[v.embed(24) for v in row] for row in a])
    plain = Matrix.from_dense(a)
    assert lifted == plain and hash(lifted) == hash(plain)


def test_matrix_rebuilt_at_a_multiple_order_is_equal():
    half = CycScalar.rational(Fraction(1, 2))
    w = root_of_unity(3)
    a = Matrix.from_dense([[half, w], [ZERO, CycScalar.rational(-3)]])
    b = Matrix.from_dense([[half.embed(12), w.embed(12)], [ZERO, CycScalar.rational(-3, 12)]])
    assert (a.order, b.order) == (3, 12)
    assert a.den == b.den == 2
    assert a == b and hash(a) == hash(b)
    assert a != b.scale(root_of_unity(4))
    assert a != Matrix.from_dense([[half, w], [ZERO, CycScalar.rational(3)]])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_scaling_back_restores_the_stored_form(data):
    a = Matrix.from_dense(data.draw(dense(2, 3)))
    back = a.scale(2).scale(Fraction(1, 2))
    assert (back.order, back.den, back.cols) == (a.order, a.den, a.cols)
    assert (a - a).cols == {}
    assert (a - a) == Matrix.zero(2, 3)


def test_cols_contract_counts_nonzero_entries():
    i = root_of_unity(4)
    a = Matrix.from_dense([[i, ZERO, CycScalar.rational(Fraction(2, 3))], [ZERO, ZERO, i * i]])
    assert a.order == 4 and a.den == 3
    assert a.cols == {0: {0: (0, 3)}, 2: {0: (2, 0), 1: (-3, 0)}}
    product = a @ Matrix.from_dense([[i], [CycScalar.rational(5)], [i]])
    assert sum(len(c) for c in product.cols.values()) == sum(
        1 for row in product.to_dense() for v in row if v
    )
    assert product.to_dense() == [[i * i + Fraction(2, 3) * i], [-i]]
