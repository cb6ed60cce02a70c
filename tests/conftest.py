"""Shared fixtures and random-instance generators.

Random matrices are built as exact rational convex combinations of
vertices (membership by construction) with seeded ``random.Random``
instances, so every test run is deterministic.
"""

from __future__ import annotations

import functools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from bellpoly import (
    DistributionMatrix,
    GeneralizedPRBox,
    Scenario,
    SettingsDistribution,
    canonical_gpr,
    catalog_222,
    chsh_symmetry,
    enumerate_gprs,
    enumerate_lds,
    equality_matrix,
    ld_box,
    mix,
    one_support_mismatches,
    pr_box,
)

DATA_DIR = Path(__file__).parent / "data"


def rational_weights(rng: random.Random, count: int, total: Fraction = Fraction(1)):
    """``count`` nonnegative rationals summing exactly to ``total``."""
    raw = [rng.randint(0, 12) for _ in range(count)]
    if sum(raw) == 0:
        raw[rng.randrange(count)] = 1
    denom = sum(raw)
    return [Fraction(r, denom) * total for r in raw]


def random_nonlocal_222(rng: random.Random):
    """A random CHSH-violating matrix with its construction data.

    Returns ``(dm, symmetry_index, pr_weight, ld_weights)`` where
    ``ld_weights`` maps saturating-set catalog indices to weights.
    """
    index = rng.randint(1, 8)
    sym = chsh_symmetry(index)
    pr_weight = Fraction(rng.randint(1, 60), 100)
    saturating = sorted(sym.saturating_set)
    weights = rational_weights(rng, 8, 1 - pr_weight)
    terms = [(pr_box(index).matrix(), pr_weight)]
    ld_weights = {}
    for i, w in zip(saturating, weights):
        if w > 0:
            terms.append((ld_box(i).matrix(), w))
            ld_weights[i] = w
    return mix(terms), index, pr_weight, ld_weights


def random_local_222(rng: random.Random):
    """A random convex combination of the 16 deterministic boxes."""
    weights = rational_weights(rng, 16)
    return mix(
        [(ld_box(i + 1).matrix(), w) for i, w in enumerate(weights) if w > 0]
    )


def random_nonsignaling_222(rng: random.Random):
    """A random convex combination of all 24 vertices."""
    prs, lds = catalog_222()
    vertices = [b.matrix() for b in prs] + [b.matrix() for b in lds]
    weights = rational_weights(rng, len(vertices))
    return mix([(v, w) for v, w in zip(vertices, weights) if w > 0])


def random_gpr(rng: random.Random, scenario: Scenario) -> GeneralizedPRBox:
    boxes = enumerate_gprs(scenario)
    return boxes[rng.randrange(len(boxes))]


def random_chained_mixture(rng: random.Random, scenario: Scenario):
    """A random mixture of one generalized PR box and its one-support-
    mismatch boxes, with the construction coefficients.

    Returns ``(dm, g, g_weight, cell_weights)`` with ``cell_weights``
    keyed by MismatchCell.
    """
    g = random_gpr(rng, scenario)
    mismatches = one_support_mismatches(g)
    g_weight = Fraction(rng.randint(1, 60), 100)
    weights = rational_weights(rng, len(mismatches), 1 - g_weight)
    terms = [(g.matrix(), g_weight)]
    cell_weights = {}
    for (cell, box), w in zip(mismatches.items(), weights):
        if w > 0:
            terms.append((box.matrix(), w))
            cell_weights[cell] = w
    return mix(terms), g, g_weight, cell_weights


# Denominators up to about 10^40: products of distinct primes, so that
# the cells of one equality often have unrelated denominators, or any
# integer in range.
_PRIMES = (2, 3, 5, 7, 11, 13, 101, 1_000_003, 2**31 - 1, 10**9 + 7, 2**61 - 1)
DENOMINATORS = st.one_of(
    st.sets(st.sampled_from(_PRIMES), min_size=1, max_size=3).map(math.prod),
    st.integers(1, 10**40),
)


@functools.cache
def scenario_vertices(n: int):
    """Every deterministic box, then every generalized PR box, at n."""
    scenario = Scenario(n)
    return enumerate_lds(scenario) + enumerate_gprs(scenario)


def rational_tables(n: int):
    """Any 2n x 4 table of rationals with denominators up to 10^40, as a
    matrix (not necessarily a polytope member)."""
    cell = st.builds(Fraction, st.integers(-(10**6), 10**6), DENOMINATORS)
    row = st.lists(cell, min_size=4, max_size=4)
    return st.lists(row, min_size=2 * n, max_size=2 * n).map(
        lambda rows: DistributionMatrix(Scenario(n), rows)
    )


@st.composite
def vertex_mixtures(draw, n: int):
    """A member at n: up to 4 vertices mixed with weights whose
    denominators are unrelated and up to 10^40."""
    weights = draw(st.lists(st.builds(Fraction, st.integers(1, 10**6), DENOMINATORS),
                            min_size=1, max_size=4))
    boxes = draw(st.lists(st.sampled_from(scenario_vertices(n)),
                          min_size=len(weights), max_size=len(weights)))
    return mix(zip(boxes, [w / sum(weights) for w in weights]))


@pytest.fixture
def rng():
    return random.Random(20240816)


@pytest.fixture(scope="session")
def uniform_settings():
    return SettingsDistribution.uniform(Scenario(2))


@pytest.fixture(scope="session")
def empirical_path() -> Path:
    return DATA_DIR / "empirical_222.json"


@pytest.fixture(scope="session")
def empirical_document(empirical_path):
    return json.loads(empirical_path.read_text())


@pytest.fixture(scope="session")
def pr1_path() -> Path:
    return DATA_DIR / "pr1.json"


@pytest.fixture(scope="session")
def table1():
    """The equal mixture of PR boxes 1 and 6, cell for cell."""
    h = Fraction(1, 2)
    q = Fraction(1, 4)
    return {
        "a1b1": (q, q, q, q),
        "a2b1": (q, q, q, q),
        "a2b2": (Fraction(0), h, h, Fraction(0)),
        "a1b2": (h, Fraction(0), Fraction(0), h),
    }


def active_rows(dm) -> list[list[int]]:
    """Every constraint row tight at a member ``dm``: the equality rows,
    then the unit row of each zero cell (its nonnegativity)."""
    ncells = dm.scenario.num_cells
    cells = [v for row in dm.entries for v in row]
    units = [[int(j == k) for j in range(ncells)] for k, v in enumerate(cells) if v == 0]
    return [list(row) for row in equality_matrix(dm.scenario)] + units


def scenario_gpr_with_types(n: int, letters: str) -> GeneralizedPRBox:
    return GeneralizedPRBox(Scenario(n), tuple(letters))


__all__ = [
    "DATA_DIR",
    "DENOMINATORS",
    "scenario_vertices",
    "rational_tables",
    "vertex_mixtures",
    "rational_weights",
    "random_nonlocal_222",
    "random_local_222",
    "random_nonsignaling_222",
    "random_gpr",
    "random_chained_mixture",
    "active_rows",
    "scenario_gpr_with_types",
    "canonical_gpr",
]
