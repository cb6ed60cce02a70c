"""Acceptance gate: eleven end-to-end checks, one per shipped claim, each
printing a PASS/FAIL line (run with ``pytest -s`` to watch them stream).

Every check draws from its own freshly seeded generator so failures
reproduce in isolation, and asserts at the exact tolerance the claim is
made at -- equalities are Fraction equalities unless a float tolerance
is spelled out.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import bellpoly as bp
from conftest import DATA_DIR, random_chained_mixture, random_nonlocal_222
import oracles

F = Fraction

UNIFORM_SETTINGS = bp.SettingsDistribution.uniform(bp.SCENARIO_222)


@contextmanager
def criterion(number, description):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"PASS criterion {number}: {description} ({elapsed:.1f}s)")


def entry_set(boxes):
    return {bp.as_matrix(b).entries for b in boxes}


def test_criterion_01_vertex_enumeration():
    with criterion(1, "vertex enumeration matches the box catalogs at n=2 and n=3"):
        started = time.monotonic()
        vertices2 = bp.enumerate_vertices(bp.SCENARIO_222)
        assert time.monotonic() - started < 1.0
        assert len(vertices2) == 24
        catalog2 = list(bp.enumerate_lds(bp.SCENARIO_222)) + list(
            bp.enumerate_gprs(bp.SCENARIO_222)
        )
        assert entry_set(vertices2) == entry_set(catalog2)

        started = time.monotonic()
        scenario3 = bp.Scenario(3)
        vertices3 = bp.enumerate_vertices(scenario3)
        assert time.monotonic() - started < 600.0
        assert len(vertices3) == 96
        catalog3 = list(bp.enumerate_lds(scenario3)) + list(
            bp.enumerate_gprs(scenario3)
        )
        assert entry_set(vertices3) == entry_set(catalog3)


def test_criterion_02_pair_replacement_identities():
    with criterion(2, "every PR-box pair equals an even mixture of 4 deterministic boxes"):
        started = time.monotonic()
        for (i, j), outputs in bp.PAIR_TABLE.items():
            assert bp.pair_replacement(i, j) == outputs
        for i in range(1, 9):
            for j in range(i + 1, 9):
                outputs = bp.pair_replacement(i, j)
                assert len(outputs) == 4
                lhs = bp.mix([(bp.pr_box(i), F(1, 2)), (bp.pr_box(j), F(1, 2))])
                rhs = bp.mix([(bp.ld_box(d), F(1, 4)) for d in outputs])
                assert lhs.entries == rhs.entries
        assert time.monotonic() - started < 1.0


def test_criterion_03_cast_out_identities():
    with criterion(3, "each non-saturating deterministic box casts out into 3 saturating ones"):
        started = time.monotonic()
        assert set(bp.CASTOUT_TABLE) == set(range(1, 17)) - bp.SATURATING_SET_1
        for d, outputs in bp.CASTOUT_TABLE.items():
            assert bp.castout_replacement(d) == outputs
            lhs = bp.mix([(bp.ld_box(d), F(1, 3)), (bp.pr_box(1), F(2, 3))])
            rhs = bp.mix([(bp.ld_box(o), F(1, 3)) for o in outputs])
            assert lhs.entries == rhs.entries
        assert time.monotonic() - started < 1.0


def test_criterion_04_published_table_read_off():
    with criterion(4, "the published rounded table decomposes to its printed digits"):
        dm, _ = bp.load_distribution(DATA_DIR / "empirical_222.json")
        dec, residual = bp.readoff_222(dm)
        weights = {bp.ld_index_of(bp.as_matrix(d)): w for d, w in dec.ld_terms}
        assert weights[14] == F(743, 10**7)
        assert abs(float(dec.pr_weight) - 0.0000238) <= 1e-6
        assert residual <= F(2, 10**7)
        assert oracles.tv_direct(dec.mixture(), dm) == residual


def test_criterion_05_tv_distance_equals_the_nonlocal_weight():
    with criterion(5, "TV distance to the local polytope equals the nonlocal weight (1000 draws)"):
        started = time.monotonic()
        rng = random.Random(5)
        for _ in range(1000):
            dm, _, pr_weight, _ = random_nonlocal_222(rng)
            res = bp.tv_closest_local(dm)
            assert res.distance == pr_weight
            assert res.distance == oracles.tv_lp_oracle(dm)
        assert time.monotonic() - started < 60.0


def test_criterion_06_critical_efficiency():
    with criterion(6, "2/3 detection efficiency kills every CHSH violation"):
        pr1 = bp.as_matrix(bp.pr_box(1))
        eta = bp.critical_efficiency(pr1)
        assert abs(eta - 2 / 3) <= 1e-9
        two_thirds = bp.EfficiencyParams.symmetric(F(2, 3))
        certificate = bp.apply_efficiency(pr1, two_thirds)
        assert bp.chsh_value(certificate, bp.chsh_symmetry(1)) == 2
        rng = random.Random(6)
        for _ in range(200):
            dm, _, _, _ = random_nonlocal_222(rng)
            image = bp.apply_efficiency(dm, two_thirds)
            assert all(v <= 2 for v in bp.all_chsh_values(image))


def test_criterion_07_domino_merges_at_n3():
    with criterion(7, "all 496 generalized PR pairs at n=3 merge into deterministic mixtures"):
        started = time.monotonic()
        gprs = bp.enumerate_gprs(bp.Scenario(3))
        assert len(gprs) == 32
        for i in range(len(gprs)):
            for j in range(i + 1, len(gprs)):
                outputs = bp.domino_merge(gprs[i], gprs[j])
                lhs = bp.mix([(gprs[i], F(1, 2)), (gprs[j], F(1, 2))])
                rhs = bp.mix([(d, F(1, len(outputs))) for d in outputs])
                assert lhs.entries == rhs.entries
        assert time.monotonic() - started < 10.0


def test_criterion_08_mismatch_replacements_at_n3():
    with criterion(8, "all 2048 box pairs at n=3 have odd mismatch counts and exact rewrites"):
        started = time.monotonic()
        scenario = bp.Scenario(3)
        gprs = bp.enumerate_gprs(scenario)
        lds = bp.enumerate_lds(scenario)
        assert len(gprs) * len(lds) == 2048
        for g in gprs:
            for d in lds:
                count = bp.support_mismatch_count(g, d)
                assert count % 2 == 1
                if count < 3:
                    continue
                outputs = bp.mismatch_replacement(g, d)
                assert len(outputs) == count
                lhs = bp.mix(
                    [(g, F(count - 1, count)), (d, F(1, count))]
                )
                rhs = bp.mix([(o, F(1, count)) for o in outputs])
                assert lhs.entries == rhs.entries
        assert time.monotonic() - started < 60.0


def test_criterion_09_chained_decomposition_round_trip():
    with criterion(9, "chained decompositions recover construction coefficients (1000 draws)"):
        rng = random.Random(9)
        scenarios = [bp.Scenario(2), bp.Scenario(3), bp.Scenario(4)]
        for _ in range(1000):
            scenario = scenarios[rng.randrange(3)]
            dm, g, g_weight, cell_weights = random_chained_mixture(rng, scenario)
            dec = bp.decompose_chained(dm)
            box, weight = dec.pr_term
            assert box.row_types == g.row_types
            assert weight == g_weight
            cell_of = {
                bp.as_matrix(d).entries: cell
                for cell, d in bp.one_support_mismatches(g).items()
            }
            recovered = {
                cell_of[bp.as_matrix(d).entries]: w for d, w in dec.ld_terms
            }
            assert recovered == cell_weights
            local_weight, witness = bp.tightness_witness(dm)
            assert local_weight == bp.chained_value(dm, g)
            assert local_weight == witness.local_weight == 1 - g_weight


def test_criterion_10_kl_minimization():
    with criterion(10, "KL gradients, facet reduction, and the closed-form optimum"):
        pr1 = bp.as_matrix(bp.pr_box(1))
        saturating = tuple(sorted(bp.SATURATING_SET_1))

        # analytic gradient against central differences
        rng = random.Random(1010)
        step = 1e-7
        for _ in range(100):
            raw = [rng.randint(1, 30) for _ in saturating]
            weights = [r / sum(raw) for r in raw]
            grad = bp.kl_gradient(pr1, UNIFORM_SETTINGS, saturating, weights)
            for i in range(len(saturating)):
                up = list(weights)
                up[i] += step
                down = list(weights)
                down[i] -= step
                fd = (
                    bp.kl_objective(pr1, UNIFORM_SETTINGS, saturating, up)
                    - bp.kl_objective(pr1, UNIFORM_SETTINGS, saturating, down)
                ) / (2 * step)
                assert abs(grad[i] - fd) <= 1e-5 * max(abs(fd), 1e-12)

        # the saturating facet supports the full-catalog optimum
        rng = random.Random(10)
        full = tuple(range(1, 17))
        for _ in range(50):
            dm, index, _, _ = random_nonlocal_222(rng)
            facet = tuple(sorted(bp.chsh_symmetry(index).saturating_set))
            _, reduced, _ = bp.kl_minimize(dm, UNIFORM_SETTINGS, facet)
            _, complete, _ = bp.kl_minimize(dm, UNIFORM_SETTINGS, full)
            assert abs(reduced - complete) <= 1e-8

        # the maximally violating box against the closed form and a grid sweep
        _, optimum, _ = bp.kl_minimize(pr1, UNIFORM_SETTINGS, saturating)
        assert optimum <= math.log2(4 / 3) + 1e-9
        grid = oracles.kl_grid_oracle(
            pr1, UNIFORM_SETTINGS.probs, saturating, denom=100
        )
        assert abs(optimum - grid) <= 1e-3


def test_criterion_11_single_cell_rewrites():
    with criterion(11, "all 8 rewrites equal half the nonlocal weight (500 draws)"):
        rng = random.Random(11)
        for _ in range(500):
            dm, index, pr_weight, _ = random_nonlocal_222(rng)
            sym = bp.violated_symmetry(dm)
            assert sym is not None and sym.index == index
            values = bp.variant_eberhard_values(dm, sym)
            assert all(v == pr_weight / 2 for v in values)
            assert sum(values) == 4 * pr_weight
            assert bp.chsh_value(dm, sym) == 2 + 2 * pr_weight
