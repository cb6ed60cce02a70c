"""The nonsignaling polytope's equality table and matrix, active sets,
extremality, and vertex enumeration."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import bellpoly as bp
from bellpoly import CapacityError, InvariantViolationError, exactlin, polytope
from bellpoly.polytope import extreme_rays
from conftest import active_rows, random_nonsignaling_222

F = Fraction


def entry_set(matrices):
    return {m.entries for m in matrices}


# ---------------------------------------------------------------------------
# Constraint systems
# ---------------------------------------------------------------------------


def test_constraint_counts_at_n2():
    table = bp.equalities(bp.SCENARIO_222)
    assert [(eq.constraint, eq.location, eq.bound) for eq in table] == [
        ("normalization", "row a1b1", 1),
        ("normalization", "row a2b1", 1),
        ("normalization", "row a2b2", 1),
        ("normalization", "row a1b2", 1),
        ("no-signaling", "alice setting a1 between rows a1b1 and a1b2", 0),
        ("no-signaling", "alice setting a2 between rows a2b1 and a2b2", 0),
        ("no-signaling", "bob setting b1 between rows a1b1 and a2b1", 0),
        ("no-signaling", "bob setting b2 between rows a2b2 and a1b2", 0),
    ]
    # Alice's + marginal is column ++ plus +0, Bob's is ++ plus 0+.
    assert [(eq.plus, eq.minus) for eq in table[4:]] == [
        ((0, 1), (12, 13)),
        ((4, 5), (8, 9)),
        ((0, 2), (4, 6)),
        ((8, 10), (12, 14)),
    ]


def test_constraint_counts_scale_with_the_chain():
    for n in (2, 3, 4):
        scenario = bp.Scenario(n)
        table = bp.equalities(scenario)
        assert Counter(eq.constraint for eq in table) == {
            "normalization": 2 * n,
            "no-signaling": 2 * n,
        }
        matrix = bp.equality_matrix(scenario)
        assert len(matrix) == 4 * n
        for eq, row in zip(table, matrix):
            assert len(row) == 8 * n
            assert row == tuple(
                (k in eq.plus) - (k in eq.minus) for k in range(8 * n)
            )


def test_equality_system_has_full_rank():
    for n in (2, 3, 4):
        assert exactlin.rank(bp.equality_matrix(bp.Scenario(n))) == 4 * n


def test_members_satisfy_every_constraint(rng):
    bounds = [eq.bound for eq in bp.equalities(bp.SCENARIO_222)]
    for _ in range(10):
        dm = random_nonsignaling_222(rng)
        cells = [v for row in dm.entries for v in row]
        for row, bound in zip(bp.equality_matrix(bp.SCENARIO_222), bounds):
            assert sum(c * x for c, x in zip(row, cells)) == bound
        assert all(x >= 0 for x in cells)


def test_active_rows_at_a_vertex():
    pr1 = bp.as_matrix(bp.pr_box(1))
    active = active_rows(pr1)
    assert len(active) == 8 + 8  # the equalities and one zero per cell pair
    assert exactlin.rank(active) == 16
    assert bp.active_rank(pr1) == 16


def test_active_rows_in_the_interior():
    uniform = bp.DistributionMatrix(bp.SCENARIO_222, ((F(1, 4),) * 4,) * 4)
    active = active_rows(uniform)
    assert active == [list(row) for row in bp.equality_matrix(bp.SCENARIO_222)]
    assert bp.active_rank(uniform) == 8


@pytest.mark.parametrize("n", [2, 3, 4])
def test_active_rank_matches_the_rank_of_the_active_rows(n):
    # zero cells plus the equalities' rank on the support, against the
    # rank of every active row over all 8n columns
    scenario = bp.Scenario(n)
    boxes = [bp.as_matrix(b) for b in bp.enumerate_lds(scenario)]
    boxes += [bp.as_matrix(b) for b in bp.enumerate_gprs(scenario)]
    rng = random.Random(n)
    points = rng.sample(boxes, 12)
    for size in (2, 3, 4, 12):
        chosen = rng.sample(boxes, size)
        weights = [F(rng.randint(1, 9)) for _ in chosen]
        points.append(bp.mix([(b, w / sum(weights)) for b, w in zip(chosen, weights)]))
    for dm in points:
        assert bp.active_rank(dm) == exactlin.rank(active_rows(dm))


# ---------------------------------------------------------------------------
# Extremality
# ---------------------------------------------------------------------------


def test_catalog_boxes_are_extremal():
    for k in range(1, 9):
        assert bp.is_extremal(bp.as_matrix(bp.pr_box(k)))
    for d in range(1, 17):
        assert bp.is_extremal(bp.as_matrix(bp.ld_box(d)))
    for g in bp.enumerate_gprs(bp.Scenario(3)):
        assert bp.is_extremal(bp.as_matrix(g))


def test_proper_mixtures_are_not_extremal(rng):
    uniform = bp.DistributionMatrix(bp.SCENARIO_222, ((F(1, 4),) * 4,) * 4)
    assert not bp.is_extremal(uniform)
    half = bp.mix([(bp.pr_box(1), F(1, 2)), (bp.pr_box(2), F(1, 2))])
    assert not bp.is_extremal(half)
    for _ in range(10):
        a = random_nonsignaling_222(rng)
        b = random_nonsignaling_222(rng)
        if a.entries == b.entries:
            continue
        assert not bp.is_extremal(bp.mix([(a, F(1, 2)), (b, F(1, 2))]))


def test_boundary_points_need_not_be_extremal():
    third = bp.DistributionMatrix(
        bp.SCENARIO_222, ((F(1, 3), F(0), F(0), F(2, 3)),) * 4
    )
    assert bp.validate(third) == []
    assert not bp.is_extremal(third)
    even_flips = bp.DistributionMatrix(
        bp.SCENARIO_222,
        (
            bp.CORRELATED_ROW,
            bp.CORRELATED_ROW,
            bp.ANTICORRELATED_ROW,
            bp.ANTICORRELATED_ROW,
        ),
    )
    assert bp.validate(even_flips) == []
    assert not bp.is_extremal(even_flips)


def faces_by_zero_count(n):
    """Members with exactly 4n - 1, 4n and 4n + 1 zero cells, keyed by
    that count: a generalized PR box (a vertex) and equal mixtures of
    two boxes, which are not vertices."""
    scenario = bp.Scenario(n)
    g = bp.canonical_gpr(scenario)
    companion = next(iter(bp.one_support_mismatches(g).values()))

    def ld(a, b):
        return bp.LocalDeterministic(scenario, tuple(a), tuple(b))

    def half(x, y):
        return bp.mix([(x, F(1, 2)), (y, F(1, 2))])

    pluses, zeros = "+" * n, "0" * n
    # The support of a box plus one mismatched cell.
    below = [half(g, companion)]
    # Two deterministic boxes that differ on every row.
    at = [bp.as_matrix(g), half(ld(pluses, pluses), ld(zeros, zeros))]
    # Two that agree on row a1b1 only.
    flipped = "+" + "0" * (n - 1)
    above = [half(ld(pluses, pluses), ld(flipped, flipped))]
    return {4 * n - 1: below, 4 * n: at, 4 * n + 1: above}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_is_extremal_at_the_edge_of_the_zero_count_exit(monkeypatch, n):
    # Below 4n zero cells a member cannot be a vertex, and is_extremal
    # answers without a rank; from 4n on, it takes the rank.
    original = exactlin.rank
    ranks = []
    monkeypatch.setattr(exactlin, "rank", lambda rows: ranks.append(rows) or original(rows))
    answers = {}
    for count, members in faces_by_zero_count(n).items():
        for dm in members:
            assert sum(v == 0 for row in dm.entries for v in row) == count
            ranks.clear()
            answers.setdefault(count, []).append(bp.is_extremal(dm))
            assert answers[count][-1] == (original(active_rows(dm)) == 8 * n)
            assert bool(ranks) == (count >= 4 * n)
    assert answers == {4 * n - 1: [False], 4 * n: [True, False], 4 * n + 1: [False]}


# ---------------------------------------------------------------------------
# Vertex enumeration
# ---------------------------------------------------------------------------


def test_vertex_enumeration_at_n2():
    vertices = bp.enumerate_vertices(bp.SCENARIO_222)
    assert len(vertices) == 24
    catalog = [bp.as_matrix(bp.ld_box(d)) for d in range(1, 17)]
    catalog += [bp.as_matrix(bp.pr_box(k)) for k in range(1, 9)]
    assert entry_set(vertices) == entry_set(catalog)
    assert all(bp.is_extremal(v) for v in vertices)


def test_vertex_enumeration_at_n4_matches_the_box_catalogs():
    scenario = bp.Scenario(4)
    vertices = bp.enumerate_vertices(scenario)
    lds, gprs = bp.enumerate_lds(scenario), bp.enumerate_gprs(scenario)
    assert (len(lds), len(gprs), len(vertices)) == (256, 128, 384)
    assert entry_set(vertices) == entry_set(map(bp.as_matrix, lds + gprs))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_vertices_come_in_ascending_order_of_their_cells(n):
    vertices = bp.enumerate_vertices(bp.Scenario(n))
    assert len(vertices) == 4**n + 2 ** (2 * n - 1)
    keys = [[v for row in dm.entries for v in row] for dm in vertices]
    assert keys == sorted(keys)


def test_vertex_enumeration_certifies_every_point(monkeypatch):
    # A ray that is the sum of two extreme rays gives the midpoint-like
    # mixture of two vertices: a member, but not a vertex.
    def with_a_sum(rows, dim):
        rays = extreme_rays(rows, dim)
        return rays + [tuple(a + b for a, b in zip(rays[0], rays[1]))]

    monkeypatch.setattr(polytope, "extreme_rays", with_a_sum)
    with pytest.raises(InvariantViolationError, match="not a vertex"):
        bp.enumerate_vertices(bp.SCENARIO_222)


def test_vertex_enumeration_guards_slow_cases():
    with pytest.raises(CapacityError, match="n=5"):
        bp.enumerate_vertices(bp.Scenario(5))


# ---------------------------------------------------------------------------
# The double-description kernel against a brute force
# ---------------------------------------------------------------------------


def null_vector(rows, dim):
    """The primitive integer spanning vector of the null space of
    ``rows`` when it is one-dimensional, else ``None``."""
    m = [[F(v) for v in row] for row in rows]
    pivots = []
    for col in range(dim):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [v / m[r][col] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivots.append(col)
    if len(pivots) != dim - 1:
        return None
    (free,) = set(range(dim)) - set(pivots)
    z = [F(0)] * dim
    z[free] = F(1)
    for row, col in zip(m, pivots):
        z[col] = -row[free]
    scale = math.lcm(*(v.denominator for v in z))
    ints = [int(v * scale) for v in z]
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


def brute_force_rays(rows, dim):
    """Every ray of ``{z >= 0, r . z >= 0}`` tight on some ``dim - 1``
    independent constraints: each (dim-1)-subset of the constraints,
    solved exactly, kept when feasible."""
    constraints = [[int(j == k) for j in range(dim)] for k in range(dim)] + rows
    found = set()
    for subset in itertools.combinations(constraints, dim - 1):
        z = null_vector(subset, dim)
        if z is None:
            continue
        for ray in (z, tuple(-v for v in z)):
            if all(sum(a * v for a, v in zip(c, ray)) >= 0 for c in constraints):
                found.add(ray)
    return found


@settings(deadline=None)
@given(st.data())
def test_extreme_rays_match_brute_force_on_small_cones(data):
    dim = data.draw(st.integers(2, 5))
    entries = st.integers(-1, 1)
    vector = st.lists(entries, min_size=dim, max_size=dim)
    rows = data.draw(st.lists(vector, max_size=4))
    # Degenerate cuts: rows through one ray of the orthant, so that many
    # constraints are tight there at once.
    center = data.draw(
        st.lists(st.integers(0, 2), min_size=dim, max_size=dim).filter(any)
    )
    norm = sum(c * c for c in center)
    for w in data.draw(st.lists(vector, max_size=4)):
        dot = sum(a * c for a, c in zip(w, center))
        rows.append([norm * a - dot * c for a, c in zip(w, center)])
    rows = data.draw(st.permutations(rows))
    rays = extreme_rays(rows, dim)
    assert len(rays) == len(set(rays))
    assert set(rays) == brute_force_rays(rows, dim)


def test_extreme_rays_reject_a_non_adjacent_pair_that_passes_the_count():
    # The all-zero cut and the coordinates z0, z1 are tight on every ray
    # in the face z0 = z1 = 0, so pairs there share dim - 2 constraints
    # whether or not they are adjacent; only the combinatorial test
    # keeps (0, 0, 1, 1, 1) out.
    rows = [[0, 0, 0, 0, 0], [0, 0, 1, 1, -1], [0, 0, -1, 1, 0]]
    rays = extreme_rays(rows, 5)
    assert sorted(rays) == [
        (0, 0, 0, 1, 0),
        (0, 0, 0, 1, 1),
        (0, 0, 1, 1, 0),
        (0, 0, 1, 1, 2),
        (0, 1, 0, 0, 0),
        (1, 0, 0, 0, 0),
    ]
    assert set(rays) == brute_force_rays(rows, 5)
