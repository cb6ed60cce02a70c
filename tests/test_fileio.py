"""JSON round-trips and exact parsing of probability documents."""

import json
from fractions import Fraction

import pytest

import bellpoly as bp
from bellpoly import ShapeError

F = Fraction


def test_round_trip_preserves_every_cell(tmp_path, rng):
    from conftest import random_nonsignaling_222

    for _ in range(5):
        dm = random_nonsignaling_222(rng)
        path = tmp_path / "box.json"
        bp.save_distribution(str(path), dm)
        loaded, settings = bp.load_distribution(str(path))
        assert loaded.entries == dm.entries
        assert settings is None


def test_round_trip_keeps_settings_distribution(tmp_path):
    dm = bp.as_matrix(bp.pr_box(1))
    settings = bp.SettingsDistribution(
        bp.SCENARIO_222, (F(1, 2), F(1, 6), F(1, 6), F(1, 6))
    )
    path = tmp_path / "with_settings.json"
    bp.save_distribution(str(path), dm, settings=settings)
    loaded, loaded_settings = bp.load_distribution(str(path))
    assert loaded.entries == dm.entries
    assert loaded_settings is not None
    assert loaded_settings.probs == settings.probs


def test_rows_accepted_in_any_label_order():
    base = json.loads(bp.dumps_distribution(bp.as_matrix(bp.pr_box(1))))
    base["rows"] = list(reversed(base["rows"]))
    dm, _ = bp.loads_distribution(base)
    assert dm.entries == bp.as_matrix(bp.pr_box(1)).entries


def test_rows_accepted_as_bare_arrays_in_canonical_order():
    doc = {
        "n": 2,
        "rows": [
            ["1/2", "0", "0", "1/2"],
            ["1/2", "0", "0", "1/2"],
            ["0", "1/2", "1/2", "0"],
            ["1/2", "0", "0", "1/2"],
        ],
    }
    dm, _ = bp.loads_distribution(doc)
    assert dm.entries == bp.as_matrix(bp.pr_box(1)).entries


def test_decimal_strings_parse_exactly():
    doc = {
        "n": 2,
        "rows": [
            ["0.25", "0.25", "0.25", "0.25"],
            ["0.1", "0.2", "0.3", "0.4"],
            ["7.43e-05", "0.9999257", "0", "0"],
            ["1/3", "1/3", "1/3", "0"],
        ],
    }
    dm, _ = bp.loads_distribution(doc)
    assert dm.entries[1] == (F(1, 10), F(1, 5), F(3, 10), F(2, 5))
    assert dm.entries[2][0] == F(743, 10_000_000)
    assert dm.entries[3][0] == F(1, 3)


def test_plain_json_numbers_mean_their_decimal_literal():
    doc = {
        "n": 2,
        "rows": [
            [0.1, 0.2, 0.3, 0.4],
            [0.25, 0.25, 0.25, 0.25],
            [1, 0, 0, 0],
            [0.5, 0, 0, 0.5],
        ],
    }
    dm, _ = bp.loads_distribution(doc)
    assert dm.entries[0] == (F(1, 10), F(1, 5), F(3, 10), F(2, 5))
    assert dm.entries[2][0] == 1


def test_empirical_file_parses_to_printed_digits(empirical_path):
    dm, _ = bp.load_distribution(str(empirical_path))
    assert dm.entries[0] == (
        F(1422, 10_000_000),
        F(743, 10_000_000),
        F(699, 10_000_000),
        F(9_997_136, 10_000_000),
    )


def test_chained_documents_round_trip(tmp_path):
    g = bp.canonical_gpr(bp.Scenario(3))
    dm = bp.as_matrix(g)
    path = tmp_path / "chained.json"
    bp.save_distribution(str(path), dm)
    loaded, _ = bp.load_distribution(str(path))
    assert loaded.scenario.n == 3
    assert loaded.entries == dm.entries


def test_missing_row_is_rejected():
    doc = json.loads(bp.dumps_distribution(bp.as_matrix(bp.pr_box(1))))
    doc["rows"] = doc["rows"][:3]
    with pytest.raises(ShapeError):
        bp.loads_distribution(doc)


def test_duplicate_row_is_rejected():
    doc = json.loads(bp.dumps_distribution(bp.as_matrix(bp.pr_box(1))))
    doc["rows"][1] = doc["rows"][0]
    with pytest.raises(ShapeError):
        bp.loads_distribution(doc)


def test_unknown_setting_label_is_rejected():
    doc = json.loads(bp.dumps_distribution(bp.as_matrix(bp.pr_box(1))))
    doc["rows"][0]["setting"] = "a3b1"
    with pytest.raises(ShapeError):
        bp.loads_distribution(doc)


def test_wrong_column_count_is_rejected():
    doc = {
        "n": 2,
        "rows": [["1/2", "0", "1/2"]] + [["1/4"] * 4] * 3,
    }
    with pytest.raises(ShapeError):
        bp.loads_distribution(doc)


def test_invalid_json_text_is_rejected():
    with pytest.raises(ShapeError):
        bp.loads_distribution("{not json")


def test_unreadable_path_is_rejected(tmp_path):
    with pytest.raises(ShapeError):
        bp.load_distribution(str(tmp_path / "nope.json"))


def test_garbage_probability_string_is_rejected():
    doc = {
        "n": 2,
        "rows": [["1/2", "0", "0", "half"]] + [["1/4"] * 4] * 3,
    }
    with pytest.raises(ShapeError):
        bp.loads_distribution(doc)


@pytest.mark.parametrize("cell", ["1e5000", "1e999999999", "1e-5000", "1" * 500])
def test_oversized_literals_are_rejected_before_they_are_built(cell):
    # "1e999999999" would make Fraction build 10**999999999; the digit and
    # exponent caps reject it first.
    doc = {"n": 2, "rows": [["1/2", "0", "0", cell]] + [["1/4"] * 4] * 3}
    with pytest.raises(ShapeError, match="digits"):
        bp.loads_distribution(doc)
    with pytest.raises(ShapeError, match="digits"):
        bp.loads_distribution(json.dumps(doc))


def test_integer_literal_beyond_the_json_digit_limit_is_rejected():
    text = json.dumps({"n": 2, "rows": [["1/4"] * 4] * 4})
    text = text.replace('"1/4"', "1" * 5000, 1)
    with pytest.raises(ShapeError):
        bp.loads_distribution(text)


def test_literal_caps_admit_every_float_decimal():
    assert bp.as_fraction("5e-324") == Fraction(5, 10**324)
    largest = Fraction(17976931348623157) * 10**292
    assert bp.as_fraction(repr(1.7976931348623157e308)) == largest
    assert bp.as_fraction("1e400") == 10**400
