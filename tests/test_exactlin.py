"""Exact rational linear algebra primitives.

``bellpoly.exactlin`` runs on an integer-preserving elimination kernel.
These tests hold it to plain ``Fraction`` arithmetic written here and in
``tests/oracles.py``: a dense Gauss-Jordan elimination, a brute-force LP
over basic solutions, and the oracle's own dense-tableau simplex, whose
phase 1 must reach the same vertex as ``simplex_feasible``.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import bellpoly as bp
from bellpoly.exactlin import (
    project_onto_affine,
    rank,
    reduce_system,
    simplex_feasible,
    solve_square,
)
from bellpoly import InvariantViolationError
from conftest import active_rows
from oracles import phase1_solution, simplex_minimize

F = Fraction


def test_rank_of_identity_and_zero():
    identity = [[F(i == j) for j in range(4)] for i in range(4)]
    assert rank(identity) == 4
    assert rank([[F(0)] * 3 for _ in range(3)]) == 0
    assert rank([]) == 0


def test_rank_detects_dependent_rows():
    rows = [
        [F(1), F(2), F(3)],
        [F(2), F(4), F(6)],
        [F(0), F(1), F(1)],
    ]
    assert rank(rows) == 2


def test_rank_accepts_plain_ints():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [1, 1]]) == 2


def test_solve_square_exact():
    matrix = [[F(2), F(1)], [F(1), F(3)]]
    rhs = [F(5), F(10)]
    solution = solve_square(matrix, rhs)
    assert solution == [F(1), F(3)]
    # residual check in exact arithmetic
    for row, b in zip(matrix, rhs):
        assert sum(c * x for c, x in zip(row, solution)) == b


def test_solve_square_singular_returns_none():
    assert solve_square([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)]) is None


def test_solve_square_rejects_non_square():
    with pytest.raises(InvariantViolationError):
        solve_square([[F(1), F(2)]], [F(1)])


def test_reduce_system_drops_redundancy_keeps_solutions():
    rows = [
        [F(1), F(1), F(0)],
        [F(2), F(2), F(0)],
        [F(0), F(0), F(1)],
    ]
    rhs = [F(1), F(2), F(3)]
    reduced = reduce_system(rows, rhs)
    assert reduced is not None
    e_rows, e_rhs = reduced
    assert len(e_rows) == 2
    solution = [F(1), F(0), F(3)]
    for row, b in zip(e_rows, e_rhs):
        assert sum(c * x for c, x in zip(row, solution)) == b


def test_reduce_system_flags_inconsistency():
    rows = [[F(1), F(1)], [F(2), F(2)]]
    assert reduce_system(rows, [F(1), F(3)]) is None


def test_projection_lands_on_plane_and_is_idempotent():
    rows = [[F(1), F(1), F(1)]]
    rhs = [F(1)]
    point = [F(1), F(1), F(1)]
    projected = project_onto_affine(rows, rhs, point)
    assert sum(projected) == 1
    assert projected == [F(1, 3)] * 3
    again = project_onto_affine(rows, rhs, projected)
    assert again == projected


def test_projection_of_member_is_identity():
    rows = [[F(1), F(0)], [F(0), F(1)]]
    rhs = [F(2), F(5)]
    assert project_onto_affine(rows, rhs, [F(2), F(5)]) == [F(2), F(5)]


@given(
    st.lists(st.fractions(min_value=-5, max_value=5), min_size=3, max_size=3),
)
def test_projection_minimizes_among_plane_points(point):
    rows = [[F(1), F(1), F(1)]]
    rhs = [F(1)]
    projected = project_onto_affine(rows, rhs, point)
    assert sum(projected) == 1

    def sq_dist(a, b):
        return sum((x - y) ** 2 for x, y in zip(a, b))

    # any other feasible point is no closer
    for other in ([F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(1, 3)] * 3):
        assert sq_dist(point, projected) <= sq_dist(point, other)


def test_simplex_feasible_finds_probability_vector():
    rows = [[F(1), F(1), F(1)]]
    rhs = [F(1)]
    solution = simplex_feasible(rows, rhs)
    assert solution is not None
    assert sum(solution) == 1
    assert all(x >= 0 for x in solution)


def test_simplex_feasible_rejects_impossible_system():
    # x1 + x2 = -1 has no nonnegative solution
    assert simplex_feasible([[F(1), F(1)]], [F(-1)]) is None


# ---------------------------------------------------------------------------
# The oracle's Fraction simplex (tests/oracles.py)
# ---------------------------------------------------------------------------


def test_simplex_minimize_basic_lp():
    # min x1 + 2 x2  s.t.  x1 + x2 = 1
    value, solution = simplex_minimize(
        [F(1), F(2)], [[F(1), F(1)]], [F(1)]
    )
    assert value == 1
    assert solution == [F(1), F(0)]


def test_simplex_minimize_exact_fractional_optimum():
    # min x2 s.t. x1 + 3 x2 = 1, x1 <= 1/4 via slack: x1 + s = 1/4
    value, solution = simplex_minimize(
        [F(0), F(1), F(0)],
        [[F(1), F(3), F(0)], [F(1), F(0), F(1)]],
        [F(1), F(1, 4)],
    )
    assert value == F(1, 4)


def test_simplex_minimize_unbounded_raises():
    # min -x1 s.t. x1 - x2 = 0 lets both grow without bound
    with pytest.raises(InvariantViolationError):
        simplex_minimize([F(-1), F(0)], [[F(1), F(-1)]], [F(0)])


def test_simplex_minimize_infeasible_returns_none():
    assert simplex_minimize([F(1)], [[F(1)]], [F(-2)]) is None


def test_simplex_accepts_int_inputs():
    value, solution = simplex_minimize([1, 1], [[1, 1]], [1])
    assert value == 1


@given(st.integers(min_value=0, max_value=3))
def test_simplex_minimize_respects_degenerate_ties(shift):
    # several optimal vertices; Bland's rule must still terminate
    rows = [[F(1), F(1), F(1), F(1)]]
    rhs = [F(1)]
    costs = [F(shift)] * 4
    value, solution = simplex_minimize(costs, rows, rhs)
    assert value == shift
    assert sum(solution) == 1


# ---------------------------------------------------------------------------
# Sparse inputs against a dense reference
# ---------------------------------------------------------------------------
#
# The library's elimination works on integer rows over one common
# denominator.  These tests run it on small matrices, about half of whose
# entries are zero, with int, Fraction or mixed entries, next to a plain
# dense Gauss-Jordan elimination on Fractions, next to a brute-force LP
# over basic solutions, and next to the oracle simplex's phase 1.

sparse_entries = st.one_of(st.just(0), st.integers(-3, 3).filter(bool))
rational_entries = st.one_of(
    st.just(0), st.fractions(-4, 4, max_denominator=6).filter(bool)
)
# ints, Fractions (integral ones too), or each entry either: a row of
# ints is copied as it is, any other row is scaled by its denominators.
integer_or_rational = st.sampled_from([
    sparse_entries,
    rational_entries,
    sparse_entries.map(F),
    st.one_of(sparse_entries, rational_entries, sparse_entries.map(F)),
])


def sparse_vectors(size, entries=sparse_entries):
    return st.lists(entries, min_size=size, max_size=size)


def sparse_matrices(max_rows, max_cols, entries=sparse_entries):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)).flatmap(
        lambda shape: st.lists(
            sparse_vectors(shape[1], entries), min_size=shape[0], max_size=shape[0]
        )
    )


def with_redundant_row(data, rows):
    """``rows``, perhaps with a combination of two of them inserted."""
    if len(rows) < 2 or not data.draw(st.booleans()):
        return rows
    i, j = data.draw(st.permutations(range(len(rows))))[:2]
    a, b = data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))
    combined = [a * u + b * v for u, v in zip(rows[i], rows[j])]
    k = data.draw(st.integers(0, len(rows)))
    return rows[:k] + [combined] + rows[k:]


def dense_rref(rows, ncols):
    """Reduced row echelon form of the first ``ncols`` columns, updating
    every entry of every row; returns ``(reduced rows, rank)``."""
    m = [[F(v) for v in row] for row in rows]
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [v / m[r][col] for v in m[r]]
        for i in range(len(m)):
            if i != r:
                f = m[i][col]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        r += 1
    return m, r


def dense_reduce(rows, rhs):
    """Independent rows of ``rows x = rhs`` with their right-hand sides,
    or ``None`` when the system is inconsistent."""
    aug, r = dense_rref([list(row) + [b] for row, b in zip(rows, rhs)], len(rows[0]))
    if any(row[-1] != 0 for row in aug[r:]):
        return None
    return [row[:-1] for row in aug[:r]], [row[-1] for row in aug[:r]]


def bfs_minimum(costs, rows, rhs):
    """Least ``costs . x`` over the basic feasible solutions of
    ``rows x = rhs, x >= 0``; ``None`` when there are none."""
    reduced = dense_reduce(rows, rhs)
    if reduced is None:
        return None
    e_rows, e_rhs = reduced
    best = None
    for cols in itertools.combinations(range(len(costs)), len(e_rows)):
        basis = [[row[j] for j in cols] + [b] for row, b in zip(e_rows, e_rhs)]
        aug, r = dense_rref(basis, len(cols))
        if r < len(cols) or any(row[-1] < 0 for row in aug):
            continue
        value = sum((costs[j] * row[-1] for j, row in zip(cols, aug)), F(0))
        if best is None or value < best:
            best = value
    return best


def test_int_rows_are_left_as_the_caller_gave_them():
    matrix = bp.equality_matrix(bp.Scenario(3))  # 12 x 24 int tuples
    rows = [list(row) for row in matrix]
    given_rows = [list(row) for row in matrix]
    assert rank(matrix) == rank(rows) == 12
    basis = []
    for c in range(24):
        if rank([[row[k] for k in (*basis, c)] for row in rows]) > len(basis):
            basis.append(c)
    square = [[row[k] for k in basis] for row in rows]
    given_square = [list(row) for row in square]
    rhs = [1] * 6 + [0] * 6
    aug, r = dense_rref([row + [b] for row, b in zip(square, rhs)], 12)
    assert r == 12
    assert solve_square(square, rhs) == [row[-1] for row in aug]
    redundant = rows + [[a + b for a, b in zip(rows[0], rows[6])]]
    assert reduce_system(redundant, rhs + [1]) == dense_reduce(redundant, rhs + [1])
    assert reduce_system(matrix, rhs) == dense_reduce(matrix, rhs)
    assert rows == given_rows and square == given_square
    assert matrix == tuple(map(tuple, given_rows))


@given(st.data())
def test_rank_matches_dense_elimination_on_sparse_matrices(data):
    entries = data.draw(integer_or_rational)
    rows = with_redundant_row(data, data.draw(sparse_matrices(5, 6, entries)))
    assert rank(rows) == dense_rref(rows, len(rows[0]))[1]


@given(st.data())
def test_solve_square_matches_dense_elimination_on_sparse_matrices(data):
    entries = data.draw(integer_or_rational)
    n = data.draw(st.integers(1, 5))
    matrix = data.draw(st.lists(sparse_vectors(n, entries), min_size=n, max_size=n))
    if n > 1 and data.draw(st.booleans()):  # make it singular
        matrix = with_redundant_row(data, matrix[:-1])
        if len(matrix) < n:
            matrix.append([0] * n)
    rhs = data.draw(sparse_vectors(n, entries))
    aug, r = dense_rref([row + [b] for row, b in zip(matrix, rhs)], n)
    expected = [row[-1] for row in aug] if r == n else None
    assert solve_square(matrix, rhs) == expected


@given(st.data())
def test_reduce_system_matches_dense_elimination_on_sparse_matrices(data):
    entries = data.draw(integer_or_rational)
    rows = with_redundant_row(data, data.draw(sparse_matrices(5, 6, entries)))
    rhs = data.draw(sparse_vectors(len(rows), entries))
    assert reduce_system(rows, rhs) == dense_reduce(rows, rhs)


@given(st.data())
def test_simplex_minimize_matches_brute_force_on_sparse_lps(data):
    rows = data.draw(sparse_matrices(3, 6))
    small = st.integers(-3, 3)
    rhs = data.draw(st.lists(small, min_size=len(rows), max_size=len(rows)))
    costs = data.draw(st.lists(small, min_size=len(rows[0]), max_size=len(rows[0])))
    optimum = bfs_minimum(costs, rows, rhs)
    if optimum is None:
        assert simplex_minimize(costs, rows, rhs) is None
        return
    # The LP is unbounded exactly when some x >= 0 with rows x = 0 and
    # sum(x) = 1 has a negative cost.
    ray = bfs_minimum(costs, rows + [[1] * len(costs)], [0] * len(rows) + [1])
    if ray is not None and ray < 0:
        with pytest.raises(InvariantViolationError):
            simplex_minimize(costs, rows, rhs)
        return
    value, solution = simplex_minimize(costs, rows, rhs)
    assert value == optimum
    assert all(v >= 0 for v in solution)
    assert sum(c * v for c, v in zip(costs, solution)) == value
    for row, b in zip(rows, rhs):
        assert sum(a * v for a, v in zip(row, solution)) == b


@given(st.data())
def test_simplex_feasible_reaches_the_oracle_phase1_vertex(data):
    """Same vertex as the Fraction simplex, on feasible systems built from
    a nonnegative point with zeros (degenerate ties), with redundant rows
    and negative right-hand sides, and on random, mostly infeasible ones."""
    entries = data.draw(integer_or_rational)
    rows = with_redundant_row(data, data.draw(sparse_matrices(4, 7, entries)))
    ncols = len(rows[0])
    if data.draw(st.booleans()):
        point = data.draw(sparse_vectors(ncols, st.sampled_from([0, 0, 1, 2, Fraction(1, 3)])))
        rhs = [sum(a * x for a, x in zip(row, point)) for row in rows]
    else:
        rhs = data.draw(sparse_vectors(len(rows), entries))
    solution = simplex_feasible(rows, rhs)
    assert solution == phase1_solution(rows, rhs)
    if solution is not None:
        assert all(type(v) is Fraction and v >= 0 for v in solution)
        for row, b in zip(rows, rhs):
            assert sum(a * v for a, v in zip(row, solution)) == b


def test_simplex_feasible_on_redundant_negative_and_infeasible_systems():
    rows = [[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1], [-1, 0, -1, 0]]
    rhs = [Fraction(1, 2), Fraction(1, 2), 1, Fraction(-1, 3)]
    solution = simplex_feasible(rows, rhs)
    assert solution == phase1_solution(rows, rhs) == [
        0, Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    ]
    # A ratio tie, broken by the lower basis index: the other choice ends
    # at the vertex (0, 0, 1, 2, 1).
    rows = [[0, -1, 0, 1, 1], [1, -1, 1, 0, 0], [2, 0, 1, 1, -1]]
    assert simplex_feasible(rows, [3, 1, 2]) == [
        1, 0, 0, Fraction(3, 2), Fraction(3, 2)
    ]
    # Degenerate: every basic solution has zeros in the basis.
    assert simplex_feasible([[1, 1, 1], [1, -1, 0]], [0, 0]) == [0, 0, 0]
    # Infeasible with and without a sign flip.
    assert simplex_feasible([[1, 1], [1, 1]], [1, 2]) is None
    assert simplex_feasible([[1, -1], [0, 1]], [-1, -2]) is None
    assert simplex_feasible([], []) == []


# ---------------------------------------------------------------------------
# The shapes the workloads run
# ---------------------------------------------------------------------------


def test_ld_mixture_lp_reaches_the_oracle_vertex():
    """The 17 x 16 LP behind ``decompose_local_222``."""
    rng = random.Random(7)
    columns = [bp.as_matrix(bp.ld_box(i)).entries for i in range(1, 17)]
    for _ in range(5):
        raw = [rng.randint(0, 5) for _ in range(16)]
        dm = bp.mix([(bp.ld_box(i + 1), Fraction(r, sum(raw))) for i, r in enumerate(raw)])
        cells = [(r, c) for r in range(4) for c in range(4)]
        rows = [[m[r][c] for m in columns] for r, c in cells] + [[1] * 16]
        rhs = [dm.entries[r][c] for r, c in cells] + [1]
        assert len(rows) == 17 and len(rows[0]) == 16
        solution = simplex_feasible(rows, rhs)
        assert solution == phase1_solution(rows, rhs)
        assert bp.mix(
            [(bp.ld_box(i + 1), w) for i, w in enumerate(solution)]
        ).entries == dm.entries


def test_estimator_kkt_solve_matches_dense_elimination():
    """The 8 x 8 integer system of the estimator's active-set method."""
    settings = bp.SettingsDistribution(
        bp.SCENARIO_222, (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10))
    )
    dm = bp.mix([(bp.pr_box(3), Fraction(3, 10))] + [
        (bp.ld_box(i), Fraction(7, 80)) for i in range(1, 17)
        if bp.chained_value(bp.as_matrix(bp.ld_box(i)), bp.pr_box(3)) == 1
    ])
    matrix = [list(row) for row in bp.estimator_quadratic(dm, settings).matrix]
    assert len(matrix) == 8 and all(len(row) == 8 for row in matrix)
    aug, r = dense_rref([row + [1] for row in matrix], 8)
    assert r == 8
    assert solve_square(matrix, [1] * 8) == [row[-1] for row in aug]


def test_vertex_certificate_rank_at_n4_matches_dense_elimination():
    """The active-row ranks that certify n=4 vertices (32 = vertex)."""
    box = bp.canonical_gpr(bp.Scenario(4))
    ld = bp.enumerate_lds(bp.Scenario(4))[5]
    for dm, expected in ((bp.as_matrix(box), 32), (bp.as_matrix(ld), 32),
                         (bp.mix([(box, Fraction(1, 2)), (ld, Fraction(1, 2))]), None)):
        rows = active_rows(dm)
        value = rank(rows)
        assert value == dense_rref(rows, len(rows[0]))[1]
        assert value == expected if expected else value < 32
