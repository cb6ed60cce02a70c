"""Reading and writing distribution matrices as JSON documents.

The on-disk format is a JSON object:

    {
      "n": 2,
      "rows": [
        {"setting": "a1b1", "probs": ["1/2", "0", "0", "1/2"]},
        ...
      ],
      "settings_probs": ["1/4", "1/4", "1/4", "1/4"]   // optional
    }

Probabilities are strings holding exact rationals, either ``"p/q"`` or
decimal (``"0.0000743"`` parses exactly as 743/10000000); plain JSON
numbers are also accepted and read as the decimal literal they print
as (0.1 means 1/10, not the nearest binary float).  ``rows`` may
appear in any order — each measured setting
pair must appear exactly once, labelled like ``a2b1`` — or as plain
4-element arrays listed in canonical row order.  Columns are always
``++, +0, 0+, 00``.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from typing import Any, Optional

from .core import (
    DistributionMatrix,
    Scenario,
    SettingsDistribution,
    ShapeError,
    as_fraction,
)


def parse_value(value: Any) -> Fraction:
    """A probability as decoded from JSON, read as the document reads it."""
    # A JSON number stands for its decimal literal: repr gives the
    # shortest decimal that rounds back to the float, so 0.1 -> 1/10.
    if isinstance(value, float):
        return as_fraction(repr(value))
    return as_fraction(value)


def _parse_probs(values: Any, *, what: str) -> list[Fraction]:
    if not isinstance(values, (list, tuple)):
        raise ShapeError(f"{what} must be an array, got {type(values).__name__}")
    return [parse_value(v) for v in values]


def loads_distribution(
    document: str | dict,
) -> tuple[DistributionMatrix, Optional[SettingsDistribution]]:
    """Parse a JSON document (text or already-decoded object)."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except ValueError as exc:  # also integer literals beyond int's digit limit
            raise ShapeError(f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ShapeError("invalid JSON: nested too deeply") from exc
    if not isinstance(document, dict):
        raise ShapeError("distribution document must be a JSON object")
    if "n" not in document:
        raise ShapeError('distribution document needs an "n" field')
    n = document["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ShapeError(f'"n" must be an integer, got {n!r}')
    scenario = Scenario(n)
    raw_rows = document.get("rows")
    if not isinstance(raw_rows, list) or len(raw_rows) != scenario.num_rows:
        raise ShapeError(
            f'"rows" must list the {scenario.num_rows} measured setting pairs'
        )
    labels = scenario.row_labels()
    entries: list[Optional[list[Fraction]]] = [None] * scenario.num_rows
    for position, row in enumerate(raw_rows):
        if isinstance(row, dict):
            setting = row.get("setting")
            if setting not in labels:
                raise ShapeError(
                    f"unknown setting label {setting!r}; expected one of {labels}"
                )
            index = labels.index(setting)
            probs = _parse_probs(row.get("probs"), what=f'row "{setting}" probs')
        elif isinstance(row, (list, tuple)):
            index = position
            probs = _parse_probs(row, what=f"row {labels[index]}")
        else:
            raise ShapeError(
                'each row must be {"setting": ..., "probs": [...]} or a 4-element array'
            )
        if len(probs) != 4:
            raise ShapeError(
                f"row {labels[index]} must have 4 probabilities, got {len(probs)}"
            )
        if entries[index] is not None:
            raise ShapeError(f"row {labels[index]} appears more than once")
        entries[index] = probs
    dm = DistributionMatrix(scenario, tuple(tuple(r) for r in entries))
    settings = None
    if "settings_probs" in document and document["settings_probs"] is not None:
        probs = _parse_probs(document["settings_probs"], what='"settings_probs"')
        settings = SettingsDistribution(scenario, tuple(probs))
    return dm, settings


def load_distribution(
    path: str,
) -> tuple[DistributionMatrix, Optional[SettingsDistribution]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ShapeError(f"cannot read {path}: {exc}") from exc
    return loads_distribution(text)


def format_rational(value: Fraction) -> str:
    """``"p/q"``, or ``"p"`` for an integer, exact at any size."""
    value = as_fraction(value)
    # Decimal renders an int of any size exactly; str(int) refuses one
    # beyond the interpreter's int-to-str digit limit (4300 by default).
    numerator = str(Decimal(value.numerator))
    if value.denominator == 1:
        return numerator
    return f"{numerator}/{Decimal(value.denominator)}"


def dump_distribution(
    dm: DistributionMatrix,
    settings: Optional[SettingsDistribution] = None,
) -> dict:
    """Render a matrix (and optional settings distribution) as the JSON
    document structure; exact round-trip through :func:`loads_distribution`."""
    document: dict = {
        "n": dm.scenario.n,
        "rows": [
            {
                "setting": label,
                "probs": [format_rational(v) for v in row],
            }
            for label, row in zip(dm.scenario.row_labels(), dm.entries)
        ],
    }
    if settings is not None:
        document["settings_probs"] = [format_rational(p) for p in settings.probs]
    return document


def dumps_distribution(
    dm: DistributionMatrix,
    settings: Optional[SettingsDistribution] = None,
) -> str:
    return json.dumps(dump_distribution(dm, settings), indent=2) + "\n"


def save_distribution(
    path: str,
    dm: DistributionMatrix,
    settings: Optional[SettingsDistribution] = None,
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_distribution(dm, settings))
