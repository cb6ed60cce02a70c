"""Seeded inputs for the benchmark workloads.

Every input is built from ``random.Random(seed)`` and bellpoly's public
constructors, and carries the construction data its checks compare
against.  Items come in shuffled blocks with a fixed mix (for example
three violating and one local matrix per block of four), so that two
seeds give runs with the same share of each kind of item.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import bellpoly as bp

import oracle

S2 = bp.Scenario(2)


def split(rng: random.Random, total: Fraction, k: int, *, zeros: bool = False) -> list[Fraction]:
    """``k`` random rational weights summing to ``total``; with ``zeros``
    some weights may be 0, never all of them."""
    raw = [rng.randint(0 if zeros else 1, 20) for _ in range(k)]
    if not any(raw):
        raw[rng.randrange(k)] = 1
    s = sum(raw)
    return [total * Fraction(v, s) for v in raw]


def blocks(rng: random.Random, kinds: list):
    """Endless stream of ``kinds``, reshuffled block by block."""
    while True:
        block = list(kinds)
        rng.shuffle(block)
        yield from block


def settings_probs(rng: random.Random, rows: int) -> tuple[Fraction, ...]:
    raw = [rng.randint(1, 10) for _ in range(rows)]
    return tuple(Fraction(v, sum(raw)) for v in raw)


def saturating_set(k: int) -> list[int]:
    """Deterministic boxes on CHSH symmetry k's facet (chained value 1)."""
    types = bp.pr_box(k).row_types
    return [
        i for i in range(1, 17)
        if oracle.chained_value(bp.as_matrix(bp.ld_box(i)).entries, types) == 1
    ]


# ---------------------------------------------------------------------------
# analyze-n2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class N2Item:
    q: bp.DistributionMatrix
    settings: bp.SettingsDistribution
    k: Optional[int]  # violated symmetry, None for a local matrix
    pr_weight: Fraction  # 0 for a local matrix
    tv_start: Optional[bp.DistributionMatrix]  # the TV-closest point
    partner: Optional[bp.DistributionMatrix]  # local matrix for face_projection
    partner_outside: Optional[Fraction]  # its weight off symmetry k's facet


def n2_items(rng: random.Random):
    """Three CHSH violators (PR weight 1/100..60/100 plus facet boxes)
    and one local mixture per block of four.

    One violator per block leaves one of its eight facet boxes out, so
    that some of its cells may be 0: there the KL optimizer works at the
    boundary of the simplex and takes up to a hundred times longer.  A
    fixed share of such items keeps two seeds' runs alike.
    """
    sat = {k: saturating_set(k) for k in range(1, 9)}
    for kind in blocks(rng, ["interior", "interior", "boundary", "local"]):
        settings = bp.SettingsDistribution(S2, settings_probs(rng, 4))
        if kind == "local":
            chosen = rng.sample(range(1, 17), rng.randint(2, 16))
            terms = [(bp.ld_box(i), w) for i, w in zip(chosen, split(rng, Fraction(1), len(chosen)))]
            yield N2Item(bp.mix(terms), settings, None, Fraction(0), None, None, None)
            continue
        k = rng.randint(1, 8)
        r = Fraction(rng.randint(1, 60), 100)
        facet = split(rng, 1 - r, 7 if kind == "boundary" else 8)
        if kind == "boundary":
            facet.insert(rng.randrange(8), Fraction(0))
        q = bp.mix([(bp.pr_box(k), r)] + [(bp.ld_box(i), w) for i, w in zip(sat[k], facet) if w])
        tv_start = bp.mix([(bp.ld_box(i), w + r / 8) for i, w in zip(sat[k], facet)])
        partner_weights = split(rng, Fraction(1), 16)
        partner = bp.mix([(bp.ld_box(i + 1), w) for i, w in enumerate(partner_weights)])
        outside = sum(w for i, w in enumerate(partner_weights) if i + 1 not in sat[k])
        yield N2Item(q, settings, k, r, tv_start, partner, outside)


# ---------------------------------------------------------------------------
# chained
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainedItem:
    dm: bp.DistributionMatrix
    n: int
    g: Optional[bp.GeneralizedPRBox]  # None for a local matrix
    g_weight: Fraction
    cell_weights: dict  # MismatchCell -> weight of its one-mismatch box
    cell_of: dict  # one-mismatch box entries -> its MismatchCell


CHAINED_NS = (3, 4, 5, 6)


def chained_items(rng: random.Random):
    """A nonlocal and a local matrix at each n in 3..6 per block of eight.

    Nonlocal matrices mix a random generalized PR box (weight
    1/100..60/100) with its one-mismatch boxes; local ones mix two to six
    random deterministic boxes.
    """
    boxes = {n: (bp.enumerate_gprs(bp.Scenario(n)), bp.enumerate_lds(bp.Scenario(n))) for n in CHAINED_NS}
    kinds = [(n, nonlocal_) for n in CHAINED_NS for nonlocal_ in (True, False)]
    for n, nonlocal_ in blocks(rng, kinds):
        gprs, lds = boxes[n]
        if not nonlocal_:
            chosen = rng.sample(lds, rng.randint(2, 6))
            dm = bp.mix(zip(chosen, split(rng, Fraction(1), len(chosen))))
            yield ChainedItem(dm, n, None, Fraction(0), {}, {})
            continue
        g = rng.choice(gprs)
        g_weight = Fraction(rng.randint(1, 60), 100)
        companions = bp.one_support_mismatches(g)
        weights = split(rng, 1 - g_weight, len(companions), zeros=True)
        cell_weights = {cell: w for cell, w in zip(companions, weights) if w}
        dm = bp.mix([(g, g_weight)] + [(companions[c], w) for c, w in cell_weights.items()])
        cell_of = {bp.as_matrix(box).entries: cell for cell, box in companions.items()}
        yield ChainedItem(dm, n, g, g_weight, cell_weights, cell_of)


# ---------------------------------------------------------------------------
# polytope
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolytopeItem:
    kind: str  # "enumerate" or "extremal"
    dm: Optional[bp.DistributionMatrix]
    expected: object  # the catalog entry set, or whether dm is a vertex


def catalog_entries(scenario: bp.Scenario) -> frozenset:
    boxes = bp.enumerate_lds(scenario) + bp.enumerate_gprs(scenario)
    return frozenset(bp.as_matrix(b).entries for b in boxes)


def polytope_items(rng: random.Random):
    """Per block of seven: one n=2 vertex enumeration, and is_extremal on
    a vertex and on a mixture of two to four vertices at each n in 2..4."""
    catalog2 = catalog_entries(S2)
    vertices = {
        n: bp.enumerate_lds(bp.Scenario(n)) + bp.enumerate_gprs(bp.Scenario(n))
        for n in (2, 3, 4)
    }
    kinds = [("enumerate", None, None)] + [
        ("extremal", n, vertex) for n in (2, 3, 4) for vertex in (True, False)
    ]
    for kind, n, vertex in blocks(rng, kinds):
        if kind == "enumerate":
            yield PolytopeItem(kind, None, catalog2)
        elif vertex:
            yield PolytopeItem(kind, bp.as_matrix(rng.choice(vertices[n])), True)
        else:
            chosen = rng.sample(vertices[n], rng.randint(2, 4))
            dm = bp.mix(zip(chosen, split(rng, Fraction(1), len(chosen))))
            yield PolytopeItem(kind, dm, False)


# ---------------------------------------------------------------------------
# cli-cold documents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Doc:
    """A document the CLI reads, with what the checks expect of it."""

    path: Path
    n: int
    exact: bool  # a polytope member as written (rounded tables almost never are)
    cells: tuple  # cells as written
    gpr_types: Optional[tuple]  # row types of the violated box; None if local
    box_weight: Optional[Fraction]  # weight of that box, when the document is exact
    vertex: bool  # one of the polytope's vertices


def write_doc(path: Path, scenario: bp.Scenario, cells, probs=None, digits=None) -> None:
    fmt = (lambda v: oracle.rounded(v, digits)) if digits else str
    doc = {
        "n": scenario.n,
        "rows": [
            {"setting": label, "probs": [fmt(v) for v in row]}
            for label, row in zip(scenario.row_labels(), cells)
        ],
    }
    if probs is not None:
        doc["settings_probs"] = [str(p) for p in probs]
    path.write_text(json.dumps(doc, indent=1))


def read_doc(path: Path) -> Doc:
    """A fixed document, with expectations from the benchmark's own
    arithmetic on its cells."""
    data = json.loads(path.read_text())
    scenario = bp.Scenario(data["n"])
    cells = oracle.parse_cells(data)
    exact = oracle.is_member(cells, scenario.setting_pairs())
    value, types = oracle.min_chained(cells)
    nonlocal_ = value < 1
    return Doc(path, scenario.n, exact, cells, types if nonlocal_ else None,
               (1 - value) if nonlocal_ and exact else None, cells in catalog_entries(scenario))


def cli_docs(rng: random.Random, root: Path, out: Path) -> dict[str, Doc]:
    """The fixed test documents plus generated exact and rounded ones.

    Rounded tables keep 7 decimals of a matrix whose every cell is at
    least 1/80 (a small weight on every deterministic box), so they sit
    off the polytope by at most 1e-6 and the CLI auto-projects them
    without pushing any cell negative.
    """
    out.mkdir(parents=True, exist_ok=True)
    data = root / "tests" / "data"
    docs = {
        "pr1": read_doc(data / "pr1.json"),
        "empirical": read_doc(data / "empirical_222.json"),
    }
    sat = {k: saturating_set(k) for k in range(1, 9)}

    k = rng.randint(1, 8)
    r = Fraction(rng.randint(1, 60), 100)
    dm = bp.mix([(bp.pr_box(k), r)] + list(zip((bp.ld_box(i) for i in sat[k]), split(rng, 1 - r, 8))))
    docs["n2-exact"] = _generated(out / "n2-exact.json", dm, bp.pr_box(k).row_types, r,
                                  settings_probs(rng, 4))

    dm = bp.mix([(bp.ld_box(i), w) for i, w in zip(range(1, 17), split(rng, Fraction(1), 16))])
    docs["n2-local"] = _generated(out / "n2-local.json", dm, None, None, settings_probs(rng, 4))

    s3 = bp.Scenario(3)
    g = rng.choice(bp.enumerate_gprs(s3))
    gw = Fraction(rng.randint(1, 60), 100)
    dm = bp.mix([(g, gw)] + list(zip(companions_of(g), split(rng, 1 - gw, 12, zeros=True))))
    docs["n3-exact"] = _generated(out / "n3-exact.json", dm, g.row_types, gw)

    noise = Fraction(1, 20)
    k = rng.randint(1, 8)
    r = Fraction(rng.randint(20, 60), 100)
    lds = [bp.ld_box(i) for i in range(1, 17)]
    dm = bp.mix(
        [(bp.pr_box(k), r)]
        + list(zip((bp.ld_box(i) for i in sat[k]), split(rng, 1 - r - noise, 8)))
        + [(box, noise / 16) for box in lds]
    )
    docs["n2-rounded"] = _generated(out / "n2-rounded.json", dm, bp.pr_box(k).row_types, None,
                                    settings_probs(rng, 4), digits=7)

    g = rng.choice(bp.enumerate_gprs(s3))
    gw = Fraction(rng.randint(30, 60), 100)
    lds = bp.enumerate_lds(s3)
    dm = bp.mix(
        [(g, gw)]
        + list(zip(companions_of(g), split(rng, 1 - gw - noise, 12)))
        + [(box, noise / len(lds)) for box in lds]
    )
    docs["n3-rounded"] = _generated(out / "n3-rounded.json", dm, g.row_types, None, digits=7)
    return docs


def companions_of(g: bp.GeneralizedPRBox) -> list:
    return list(bp.one_support_mismatches(g).values())


def _generated(path, dm, gpr_types, box_weight, probs=None, digits=None) -> Doc:
    write_doc(path, dm.scenario, dm.entries, probs, digits)
    value, types = oracle.min_chained(dm.entries)
    if (value < 1) != (gpr_types is not None) or (gpr_types and types != tuple(gpr_types)):
        raise RuntimeError(f"generator built an unexpected matrix for {path.name}")
    written = oracle.parse_cells(json.loads(path.read_text()))
    exact = oracle.is_member(written, dm.scenario.setting_pairs())
    return Doc(path, dm.scenario.n, exact, written, tuple(gpr_types) if gpr_types else None,
               box_weight if exact else None, written in catalog_entries(dm.scenario))
