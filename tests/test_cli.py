"""The command-line interface: report shapes, exit codes, warnings,
auto-projection, and determinism."""

import ast
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import bellpoly as bp
from bellpoly import NormalizationError, ShapeError, cli, fileio
from conftest import random_nonlocal_222

F = Fraction


#: How ``cli.run`` reports an exception that is not a ``BellError``: a
#: fault in the program, which no input may reach.
INTERNAL = "error: internal"


def run_cli(capsys, *argv):
    code = cli.run([str(a) for a in argv])
    captured = capsys.readouterr()
    assert INTERNAL not in captured.err, captured.err
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out else None), err


def write_doc(tmp_path, name, dm, settings=None):
    path = tmp_path / name
    path.write_text(json.dumps(fileio.dump_distribution(dm, settings)))
    return str(path)


@pytest.fixture
def mixture_path(tmp_path):
    dm = bp.mix([(bp.pr_box(1), F(4, 5)), (bp.ld_box(1), F(1, 5))])
    return write_doc(tmp_path, "mixture.json", dm)


@pytest.fixture
def local_path(tmp_path):
    dm = bp.mix([(bp.ld_box(1), F(1, 3)), (bp.ld_box(6), F(2, 3))])
    return write_doc(tmp_path, "local.json", dm)


@pytest.fixture
def chained_path(tmp_path):
    scenario = bp.Scenario(3)
    g = bp.canonical_gpr(scenario)
    mismatches = list(bp.one_support_mismatches(g).values())
    dm = bp.mix(
        [(g, F(7, 10)), (mismatches[0], F(1, 5)), (mismatches[3], F(1, 10))]
    )
    return write_doc(tmp_path, "chained.json", dm)


# ---------------------------------------------------------------------------
# Report envelope
# ---------------------------------------------------------------------------


def test_json_reports_carry_the_envelope(capsys, pr1_path):
    code, report, _ = run_json(capsys, "validate", pr1_path)
    assert code == 0
    assert set(report) == {"command", "warnings", "result", "input"}
    assert report["command"] == "validate"
    assert report["warnings"] == []
    assert report["input"]["path"] == str(pr1_path)
    with open(pr1_path, "rb") as handle:
        assert report["input"]["sha256"] == hashlib.sha256(handle.read()).hexdigest()


def test_json_output_is_deterministic(capsys, mixture_path):
    _, first, _ = run_cli(capsys, "decompose", mixture_path, "--format", "json")
    _, second, _ = run_cli(capsys, "decompose", mixture_path, "--format", "json")
    assert first == second


def test_console_entry_point(pr1_path):
    completed = subprocess.run(
        ["bellpoly", "chsh", str(pr1_path)],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0
    assert "symmetry 1: 4" in completed.stdout


def test_module_entry_point(pr1_path):
    src = Path(bp.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    completed = subprocess.run(
        [sys.executable, "-m", "bellpoly", "chsh", str(pr1_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert completed.returncode == 0
    assert "symmetry 1: 4" in completed.stdout


def loaded_by_import(module):
    """Whether a fresh interpreter has ``module`` loaded after importing
    the package and its CLI."""
    src = Path(bp.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys, bellpoly, bellpoly.cli; print({module!r} in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert completed.returncode == 0
    return completed.stdout.strip() == "True"


def test_import_leaves_numpy_unloaded():
    assert not loaded_by_import("numpy")


def test_import_leaves_hashlib_unloaded():
    # Only JSON reports of input files digest them; start-up skips it.
    assert not loaded_by_import("hashlib")


def test_package_imports_only_the_standard_library():
    modules = sorted(Path(bp.__file__).resolve().parent.glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_accepts_members(capsys, pr1_path):
    code, out, _ = run_cli(capsys, "validate", pr1_path)
    assert code == 0
    assert "valid" in out


def test_validate_reports_rounded_data(capsys, empirical_path):
    code, report, _ = run_json(capsys, "validate", empirical_path)
    assert code == 1
    assert report["result"]["valid"] is False
    violations = report["result"]["violations"]
    assert [v["constraint"] for v in violations] == ["normalization", "no-signaling"]
    assert violations[0]["location"] == "row a2b1"
    assert as_exact(violations[0]["residual"]) == F(-1, 10**7)
    assert as_exact(violations[1]["residual"]) == F(1, 10**7)


def as_exact(num_doc):
    return bp.as_fraction(num_doc["exact"])


# ---------------------------------------------------------------------------
# chsh and eberhard
# ---------------------------------------------------------------------------


def test_chsh_defaults_to_the_violated_symmetry(capsys, pr1_path):
    code, report, _ = run_json(capsys, "chsh", pr1_path)
    assert code == 0
    assert report["result"]["violated_symmetry"] == 1
    assert report["result"]["values"] == {"1": {"exact": "4", "float": 4.0}}


def test_chsh_all_lists_every_symmetry(capsys, pr1_path):
    code, out, _ = run_cli(capsys, "chsh", pr1_path, "--all")
    assert code == 0
    assert "symmetry 1: 4" in out and "<- violated" in out
    assert "symmetry 8:" in out


def test_chsh_specific_symmetry(capsys, pr1_path):
    code, report, _ = run_json(capsys, "chsh", pr1_path, "--symmetry", "2")
    assert code == 0
    assert as_exact(report["result"]["values"]["2"]) == -4


def test_chsh_on_local_input(capsys, local_path):
    code, out, _ = run_cli(capsys, "chsh", local_path)
    assert code == 0
    assert "violated symmetry: none (local)" in out


def test_eberhard_reports_equal_rewrites(capsys, mixture_path):
    code, report, _ = run_json(capsys, "eberhard", mixture_path)
    assert code == 0
    result = report["result"]
    assert result["symmetry"] == 1
    assert result["all_equal_quarter_violation"] is True
    assert as_exact(result["quarter_violation"]) == F(2, 5)
    assert [as_exact(v) for v in result["values"]] == [F(2, 5)] * 8


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def test_decompose_exact_violating_input(capsys, mixture_path):
    code, report, _ = run_json(capsys, "decompose", mixture_path)
    assert code == 0
    result = report["result"]
    assert result["kind"] == "pr-plus-saturating"
    terms = result["decomposition"]["terms"]
    assert terms[0]["type"] == "pr-box" and terms[0]["index"] == 1
    assert as_exact(terms[0]["weight"]) == F(4, 5)
    ld = {t["index"]: as_exact(t["weight"]) for t in terms[1:]}
    assert ld == {1: F(1, 5)}


def test_decompose_local_input(capsys, local_path):
    code, report, _ = run_json(capsys, "decompose", local_path)
    assert code == 0
    result = report["result"]
    assert result["kind"] == "local"
    weights = {t["index"]: as_exact(t["weight"]) for t in result["decomposition"]["terms"]}
    assert weights == {1: F(1, 3), 6: F(2, 3)}


def test_decompose_reads_rounded_tables_off_the_raw_cells(capsys, empirical_path):
    code, report, _ = run_json(capsys, "decompose", empirical_path)
    assert code == 0
    result = report["result"]
    assert result["kind"] == "pr-plus-saturating"
    terms = result["decomposition"]["terms"]
    assert as_exact(terms[0]["weight"]) == F(237, 10**7)
    by_index = {t["index"]: as_exact(t["weight"]) for t in terms[1:]}
    assert by_index[14] == F(743, 10**7)
    assert as_exact(result["reconstruction_residual_tv"]) == F(1, 5000000)
    assert any("total variation" in w for w in report["warnings"])


def test_decompose_remix_reproduces_the_input(capsys, empirical_path):
    _, report, _ = run_json(capsys, "decompose", empirical_path)
    terms = report["result"]["decomposition"]["terms"]
    remixed = bp.mix(
        [
            (
                bp.pr_box(t["index"]) if t["type"] == "pr-box" else bp.ld_box(t["index"]),
                as_exact(t["weight"]),
            )
            for t in terms
        ]
    )
    raw, _ = bp.load_distribution(empirical_path)
    residual = as_exact(report["result"]["reconstruction_residual_tv"])
    assert oracle_tv(remixed, raw) <= residual


def test_decompose_projects_rounded_local_tables(capsys, tmp_path):
    uniform = bp.DistributionMatrix(bp.Scenario(2), [[F(1, 4)] * 4] * 4)
    doc = fileio.dump_distribution(uniform)
    doc["rows"][0]["probs"] = ["0.2500001", "0.25", "0.25", "0.2499999"]
    path = tmp_path / "rounded_local.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run_json(capsys, "decompose", path)
    assert code == 0
    result = report["result"]
    assert result["kind"] == "local"
    assert "reconstruction_residual_tv" not in result
    (warning,) = report["warnings"]
    assert "least-adjustment projection" in warning
    remixed = bp.mix(
        [
            (bp.ld_box(t["index"]), as_exact(t["weight"]))
            for t in result["decomposition"]["terms"]
        ]
    )
    projected, _ = cli._project_member(bp.load_distribution(str(path))[0])
    assert remixed.entries == projected.entries
    code, out, _ = run_cli(capsys, "decompose", path)
    assert code == 0
    assert out.startswith("decomposition (local):\n")
    assert out.endswith(f"warning: {warning}\n")


def oracle_tv(a, b):
    return (
        sum(
            abs(x - y)
            for ra, rb in zip(a.entries, b.entries)
            for x, y in zip(ra, rb)
        )
        / 2
    )


def test_decompose_chained_input(capsys, chained_path):
    code, report, _ = run_json(capsys, "decompose", chained_path)
    assert code == 0
    result = report["result"]
    assert result["kind"] == "gpr-plus-one-mismatch"
    terms = result["decomposition"]["terms"]
    assert terms[0]["type"] == "pr-box" and terms[0]["row_types"] == "CCCCCA"
    assert as_exact(terms[0]["weight"]) == F(7, 10)
    # Catalog numbers name n=2 boxes only.
    assert all("index" not in term for term in terms)


# ---------------------------------------------------------------------------
# Closest-local commands
# ---------------------------------------------------------------------------


def test_tv_closest_reports_distance_and_weights(capsys, mixture_path):
    code, report, _ = run_json(capsys, "tv-closest", mixture_path)
    assert code == 0
    result = report["result"]
    assert as_exact(result["distance"]) == F(4, 5)
    assert bp.as_fraction(result["weights"]["1"]) == F(3, 10)
    reloaded = bp.loads_distribution(result["closest"])[0]
    assert bp.is_local_222(reloaded)


def test_kl_closest_defaults_to_uniform_settings(capsys, pr1_path):
    code, report, _ = run_json(capsys, "kl-closest", pr1_path)
    assert code == 0
    assert report["result"]["settings_source"] == "uniform-default"
    assert any("uniform" in w for w in report["warnings"])
    assert report["result"]["divergence_bits"] == pytest.approx(0.4150374992788438, abs=1e-9)
    assert report["result"]["iterations"] >= 1
    assert 0 <= report["result"]["gap_bits"] <= 1e-12


def test_kl_closest_reports_its_certificate(capsys, mixture_path, local_path):
    code, out, _ = run_cli(capsys, "kl-closest", mixture_path)
    assert code == 0
    assert "bits above the minimum (Frank-Wolfe gap)" in out
    code, report, _ = run_json(capsys, "kl-closest", local_path)
    assert code == 0
    assert report["result"]["iterations"] is None
    assert report["result"]["gap_bits"] is None


def test_kl_closest_converges_in_few_newton_steps(capsys, empirical_path):
    code, report, _ = run_json(capsys, "kl-closest", empirical_path)
    assert code == 0
    assert report["result"]["iterations"] <= 25
    assert 0 <= report["result"]["gap_bits"] <= 1e-10


def test_kl_closest_settings_precedence(capsys, tmp_path, pr1_path):
    settings_file = tmp_path / "settings.json"
    settings_file.write_text(json.dumps({"settings_probs": ["1/2", "1/6", "1/6", "1/6"]}))
    code, report, _ = run_json(
        capsys, "kl-closest", pr1_path, "--settings", str(settings_file)
    )
    assert code == 0
    assert report["result"]["settings_source"] == "flag"
    assert report["warnings"] == []
    code, report, _ = run_json(capsys, "kl-closest", pr1_path, "--settings", "uniform")
    assert report["result"]["settings_source"] == "flag"


def test_kl_closest_reads_settings_from_the_file(capsys, tmp_path):
    dm = bp.as_matrix(bp.pr_box(1))
    settings = bp.SettingsDistribution(
        bp.SCENARIO_222, (F(1, 2), F(1, 6), F(1, 6), F(1, 6))
    )
    path = write_doc(tmp_path, "with_settings.json", dm, settings)
    code, report, _ = run_json(capsys, "kl-closest", path)
    assert code == 0
    assert report["result"]["settings_source"] == "file"


@pytest.mark.parametrize("command", ["kl-closest", "estimator"])
def test_numeric_settings_file_reads_like_the_document(
    capsys, tmp_path, pr1_path, command
):
    # A JSON number is its decimal literal in both places: 0.1 is 1/10.
    probs = [0.1, 0.2, 0.3, 0.4]
    doc = json.loads(pr1_path.read_text())
    doc["settings_probs"] = probs
    inline = tmp_path / "inline.json"
    inline.write_text(json.dumps(doc))
    settings_file = tmp_path / "settings.json"
    settings_file.write_text(json.dumps(probs))
    code, from_doc, err = run_json(capsys, command, inline)
    assert code == 0, err
    code, from_flag, err = run_json(
        capsys, command, pr1_path, "--settings", settings_file
    )
    assert code == 0, err
    assert from_doc["result"].pop("settings_source") == "file"
    assert from_flag["result"].pop("settings_source") == "flag"
    assert from_flag["result"] == from_doc["result"]


# ---------------------------------------------------------------------------
# Efficiency commands
# ---------------------------------------------------------------------------


def test_eta_transforms_the_matrix(capsys, pr1_path):
    code, report, _ = run_json(capsys, "eta", pr1_path, "--value", "2/3")
    assert code == 0
    result = report["result"]
    assert as_exact(result["max_chsh_value"]) == 2
    assert result["violated_symmetry"] is None
    transformed, _ = bp.loads_distribution(result["matrix"])
    expected = bp.apply_efficiency(
        bp.as_matrix(bp.pr_box(1)), bp.EfficiencyParams.symmetric(F(2, 3))
    )
    assert transformed.entries == expected.entries


def test_eta_text_lists_the_transformed_rows(capsys, pr1_path):
    code, out, _ = run_cli(capsys, "eta", pr1_path, "--value", "2/3")
    assert code == 0
    expected = bp.apply_efficiency(
        bp.as_matrix(bp.pr_box(1)), bp.EfficiencyParams.symmetric(F(2, 3))
    )
    block = out.splitlines()[-5:]
    assert block[0] == "transformed matrix:"
    for label, row, line in zip(
        expected.scenario.row_labels(), expected.entries, block[1:]
    ):
        assert line == f"  {label}: " + "  ".join(
            fileio.format_rational(v) for v in row
        )


def test_eta_accepts_asymmetric_values(capsys, pr1_path):
    code, report, _ = run_json(
        capsys, "eta", pr1_path, "--value", "1", "--value-b", "1/2"
    )
    assert code == 0
    assert as_exact(report["result"]["eta_a"]) == 1
    assert as_exact(report["result"]["eta_b"]) == F(1, 2)


@pytest.mark.parametrize(
    "flags", [("--value", "3/2"), ("--value", "1", "--value-b=-1/2")]
)
def test_eta_rejects_out_of_range_efficiencies_as_malformed(capsys, pr1_path, flags):
    code, out, err = run_cli(capsys, "eta", pr1_path, *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error (malformed input): efficiencies must lie in [0, 1]")


def test_eta_critical_of_pr1(capsys, pr1_path):
    code, report, _ = run_json(capsys, "eta-critical", pr1_path)
    assert code == 0
    result = report["result"]
    assert result["critical_efficiency"] == pytest.approx(2 / 3, abs=1e-9)
    assert result["display"] == "0.666666667"
    assert result["certificate"]["eta"] == "2/3"
    assert "exactly 2" in result["certificate"]["statement"]


def test_eta_critical_reports_the_exact_threshold(capsys, tmp_path, chained_path):
    code, report, _ = run_json(capsys, "eta-critical", chained_path)
    assert code == 0
    result = report["result"]
    exact = bp.critical_efficiency_exact(bp.load_distribution(chained_path)[0])
    assert exact.q == 0 and result["critical_efficiency_exact"] == str(exact)
    assert result["critical_efficiency"] == float(exact)
    assert result["certificate"] == {
        "eta": str(exact),
        "statement": f"minimal chained functional value at eta={exact} is exactly 1",
    }
    # An irrational threshold is reported as a surd, with no certificate.
    rng = random.Random(5)
    dm = next(
        dm
        for dm in (random_nonlocal_222(rng)[0] for _ in range(20))
        if bp.critical_efficiency_exact(dm).q != 0
    )
    exact = bp.critical_efficiency_exact(dm)
    path = write_doc(tmp_path, "surd.json", dm)
    code, report, _ = run_json(capsys, "eta-critical", path)
    assert code == 0
    assert report["result"]["critical_efficiency_exact"] == str(exact)
    assert report["result"]["certificate"] is None
    code, out, _ = run_cli(capsys, "eta-critical", path)
    assert code == 0
    assert f"exact: {exact}" in out.splitlines()
    assert "certificate" not in out


def test_eta_critical_of_local_input(capsys, local_path):
    code, report, _ = run_json(capsys, "eta-critical", local_path)
    assert code == 0
    assert report["result"]["critical_efficiency"] is None


# ---------------------------------------------------------------------------
# Chained commands
# ---------------------------------------------------------------------------


def test_chained_value_with_explicit_box(capsys, pr1_path):
    code, report, _ = run_json(capsys, "chained-value", pr1_path, "--gpr", "CCAC")
    assert code == 0
    result = report["result"]
    assert result["box"] == {"row_types": "CCAC", "source": "flag"}
    assert as_exact(result["value"]) == 0
    assert result["violated"] is True
    assert result["identified_box"] == "CCAC"


def test_chained_value_defaults_to_the_canonical_box(capsys, chained_path):
    code, report, _ = run_json(capsys, "chained-value", chained_path)
    assert code == 0
    result = report["result"]
    assert result["box"] == {"row_types": "CCCCCA", "source": "canonical"}
    assert as_exact(result["value"]) == F(3, 10)


def test_chained_value_rejects_bad_box_specs(capsys, pr1_path):
    code, _, err = run_cli(capsys, "chained-value", pr1_path, "--gpr", "CCA")
    assert code == 2
    assert "4 letters" in err
    code, _, err = run_cli(capsys, "chained-value", pr1_path, "--gpr", "CCAA")
    assert code == 2
    assert "odd" in err


def test_tightness_reports_weight_and_witness(capsys, chained_path):
    code, report, _ = run_json(capsys, "tightness", chained_path)
    assert code == 0
    result = report["result"]
    assert as_exact(result["local_weight"]) == F(3, 10)
    terms = result["decomposition"]["terms"]
    assert terms[0]["row_types"] == "CCCCCA"
    assert as_exact(terms[0]["weight"]) == F(7, 10)


def test_tightness_rejects_local_input(capsys, local_path):
    code, _, err = run_cli(capsys, "tightness", local_path)
    assert code == 1
    assert "local" in err


# ---------------------------------------------------------------------------
# vertices and extremal-check
# ---------------------------------------------------------------------------


def test_vertices_n2(capsys):
    code, out, _ = run_cli(capsys, "vertices", "--n", "2")
    assert code == 0
    assert "24 vertices (16 deterministic, 8 PR-like)" in out


def test_vertices_verify_cross_checks_catalogs(capsys):
    code, report, _ = run_json(capsys, "vertices", "--n", "2", "--verify")
    assert code == 0
    assert report["result"]["catalogs_match"] is True
    code, out, _ = run_cli(capsys, "vertices", "--n", "2", "--verify")
    assert "24 vertices; catalogs match" in out


def test_vertices_list_includes_matrices(capsys):
    code, report, _ = run_json(capsys, "vertices", "--n", "2", "--list")
    assert code == 0
    entries = {
        bp.loads_distribution(doc)[0].entries
        for doc in report["result"]["vertices"]
    }
    assert len(entries) == 24


def test_vertices_list_prints_each_matrix_in_text(capsys):
    code, out, _ = run_cli(capsys, "vertices", "--n", "2", "--list")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "24 vertices (16 deterministic, 8 PR-like)"
    assert len(lines) == 1 + 24 * 5
    labels = bp.Scenario(2).row_labels()
    listed = set()
    for k in range(24):
        block = lines[1 + 5 * k : 6 + 5 * k]
        assert block[0] == f"vertex {k + 1}:"
        rows = []
        for label, line in zip(labels, block[1:]):
            head, cells = line.split(": ")
            assert head == f"  {label}"
            rows.append(tuple(F(v) for v in cells.split()))
        listed.add(tuple(rows))
    scenario = bp.Scenario(2)
    assert listed == {
        box.matrix().entries
        for box in bp.enumerate_lds(scenario) + bp.enumerate_gprs(scenario)
    }


def test_vertices_capacity_guards(capsys):
    code, out, err = run_cli(capsys, "vertices", "--n", "5")
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "n=5" in err
    code, _, err = run_cli(capsys, "vertices", "--n", "3", "--slow")
    assert code == 2
    assert "--slow" in err


def test_vertices_at_n3_match_the_catalogs(capsys):
    code, out, _ = run_cli(capsys, "vertices", "--n", "3", "--verify")
    assert code == 0
    assert "96 vertices; catalogs match" in out
    code, report, _ = run_json(capsys, "vertices", "--n", "3", "--verify")
    assert code == 0
    assert report["result"]["catalogs_match"] is True
    assert report["result"]["count"] == 96


def test_extremal_check(capsys, pr1_path, tmp_path):
    code, out, _ = run_cli(capsys, "extremal-check", pr1_path)
    assert code == 0
    assert "extremal: yes (active constraint rank 16 of 16)" in out
    uniform = bp.DistributionMatrix(bp.SCENARIO_222, ((F(1, 4),) * 4,) * 4)
    path = write_doc(tmp_path, "uniform.json", uniform)
    code, report, _ = run_json(capsys, "extremal-check", path)
    assert code == 0
    assert report["result"]["extremal"] is False
    assert report["result"]["active_rank"] == 8


# ---------------------------------------------------------------------------
# estimator
# ---------------------------------------------------------------------------


def test_estimator_on_the_maximal_violation(capsys, pr1_path):
    code, report, _ = run_json(capsys, "estimator", pr1_path)
    assert code == 0
    result = report["result"]
    assert result["symmetry"] == 1
    assert result["weights"] == pytest.approx([0.125] * 8, abs=1e-9)
    assert result["weights_exact"] == ["1/8"] * 8
    assert result["mean"] == pytest.approx(0.5, abs=1e-12)
    assert result["second_moment"] == pytest.approx(0.25, abs=1e-9)
    assert result["settings_source"] == "uniform-default"


def test_estimator_on_the_published_table(capsys, empirical_path):
    code, report, _ = run_json(capsys, "estimator", str(empirical_path))
    assert code == 0
    result = report["result"]
    exact = [F(w) for w in result["weights_exact"]]
    assert sum(exact) == 1 and all(w > 0 for w in exact)
    assert result["weights"] == [float(w) for w in exact]
    assert result["variance"] == pytest.approx(
        result["second_moment"] - result["mean"] ** 2, rel=1e-9
    )


def test_estimator_rejects_local_input(capsys, local_path):
    code, _, err = run_cli(capsys, "estimator", local_path)
    assert code == 1
    assert "CHSH-violating" in err


# ---------------------------------------------------------------------------
# Auto-projection and malformed input
# ---------------------------------------------------------------------------


def test_member_commands_project_rounded_input(capsys, empirical_path):
    code, report, _ = run_json(capsys, "chsh", empirical_path)
    assert code == 0
    assert any("least-adjustment projection" in w for w in report["warnings"])
    assert report["result"]["violated_symmetry"] == 1


def test_projection_rejects_large_residuals(capsys, tmp_path):
    doc = fileio.dump_distribution(bp.as_matrix(bp.pr_box(1)))
    doc["rows"][0]["probs"] = ["0.501", "0", "0", "0.5"]
    path = tmp_path / "off.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "chsh", str(path))
    assert code == 2
    assert "auto-projection tolerance" in err


def test_n2_decompose_rejects_large_residuals(capsys, tmp_path):
    doc = fileio.dump_distribution(bp.as_matrix(bp.pr_box(1)))
    doc["rows"][0]["probs"] = ["0.501", "0", "0", "0.5"]
    path = tmp_path / "off.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "decompose", str(path))
    assert code == 2
    assert out == ""
    assert "auto-projection tolerance" in err


def test_missing_file_is_malformed_input(capsys, tmp_path):
    code, _, err = run_cli(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 2
    assert err


def test_invalid_json_is_malformed_input(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "decompose", str(path))
    assert code == 2


def test_undecodable_document_is_malformed_input(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "validate", path)
    assert (code, out) == (2, "")
    assert err.startswith("error (malformed input):") and err.count("\n") == 1


def test_deeply_nested_document_is_malformed_input(capsys, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run_cli(capsys, "validate", path)
    assert (code, out) == (2, "")
    assert err.startswith("error (malformed input):") and err.count("\n") == 1


def test_undecodable_settings_file_is_malformed_input(capsys, tmp_path, pr1_path):
    settings = tmp_path / "settings.json"
    settings.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "kl-closest", pr1_path, "--settings", settings)
    assert (code, out) == (2, "")
    assert err.startswith("error (malformed input):") and err.count("\n") == 1


def test_chained_value_renders_rationals_beyond_the_int_digit_limit(capsys, tmp_path):
    # Rounding each cell of a member to a distinct ~190-digit odd
    # denominator leaves residuals near 1e-190; the projection repairs
    # them, and the chained value's denominator has over 4300 digits.
    scenario = bp.Scenario(3)
    g = bp.canonical_gpr(scenario)
    noisy = bp.mix([(g, F(3, 4))] + [(box, F(1, 256)) for box in bp.enumerate_lds(scenario)])
    rng = random.Random(5)
    rows = []
    for row in noisy.entries:
        denominators = [rng.randrange(10**189, 10**190) | 1 for _ in row]
        rows.append([f"{round(v * q)}/{q}" for v, q in zip(row, denominators)])
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"n": 3, "rows": rows}))
    member, _, warnings = cli._load_member(str(path))
    assert warnings
    expected = bp.chained_value(member, g)
    assert len(str(Decimal(expected.denominator))) > 4300
    code, report, err = run_json(capsys, "chained-value", path)
    assert code == 0, err
    numerator, denominator = report["result"]["value"]["exact"].split("/")
    assert F(int(Decimal(numerator)), int(Decimal(denominator))) == expected
    assert report["result"]["violated"] is True


def test_unexpected_exception_is_one_error_line(capsys, monkeypatch, pr1_path):
    def broken(args):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(cli, "_cmd_validate", broken)
    for fmt in ("text", "json"):
        code = cli.run(["validate", str(pr1_path), "--format", fmt])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == f"{INTERNAL} RuntimeError: simulated fault\n"


def test_wrong_scenario_is_a_domain_error(capsys, chained_path):
    code, _, err = run_cli(capsys, "chsh", chained_path)
    assert code == 1
    assert "n=2" in err


@pytest.mark.parametrize("cell", ["1e5000", "1e999999999"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_oversized_literals_are_malformed_input(
    capsys, tmp_path, pr1_path, cell, fmt
):
    doc = json.loads(pr1_path.read_text())
    doc["rows"][0]["probs"][1] = cell
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", path, "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.startswith("error (malformed input):")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Input fuzz
# ---------------------------------------------------------------------------

#: Every subcommand that analyses a document, with its required options.
ANALYSIS_COMMANDS = (
    ("validate",),
    ("chsh", "--all"),
    ("eberhard",),
    ("decompose",),
    ("tv-closest",),
    ("kl-closest",),
    ("eta", "--value", "9/10"),
    ("eta-critical",),
    ("chained-value",),
    ("tightness",),
    ("extremal-check",),
    ("estimator",),
)

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.integers(-1, 2), max_size=5),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@st.composite
def documents(draw):
    """JSON text: a member of the n=2 or n=3 polytope written cell by
    cell (exactly, as floats or rounded), then perhaps damaged."""
    n = draw(st.sampled_from((2, 2, 3)))
    scenario = bp.Scenario(n)
    boxes = bp.enumerate_lds(scenario) + bp.enumerate_gprs(scenario)
    picks = draw(
        st.lists(
            st.tuples(st.sampled_from(boxes), st.integers(1, 9)),
            min_size=1,
            max_size=4,
        )
    )
    total = sum(w for _, w in picks)
    dm = bp.mix([(box, F(w, total)) for box, w in picks])
    render = draw(st.sampled_from((str, float, lambda v: f"{float(v):.4f}")))
    doc = {
        "n": n,
        "rows": [
            {"setting": label, "probs": [render(v) for v in row]}
            for label, row in zip(scenario.row_labels(), dm.entries)
        ],
    }
    if draw(st.booleans()):
        doc["settings_probs"] = draw(
            st.just(["1/4"] * 4) | st.lists(st.floats(0, 1) | JUNK, max_size=5) | JUNK
        )
    damage = draw(st.sampled_from(("none", "cell", "row", "field", "text")))
    if damage == "cell":
        row = draw(st.sampled_from(doc["rows"]))
        row["probs"][draw(st.integers(0, 3))] = draw(JUNK)
    elif damage == "row":
        index = draw(st.integers(0, len(doc["rows"]) - 1))
        doc["rows"][index] = draw(JUNK | st.just(doc["rows"][0]))
    elif damage == "field":
        doc[draw(st.sampled_from(("n", "rows")))] = draw(JUNK)
    text = json.dumps(doc)
    if damage == "text":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@hyp_settings(max_examples=40, deadline=None)
@given(text=documents(), fmt=st.sampled_from(("text", "json")))
def test_generated_documents_are_analysed_or_rejected(fuzz_path, text, fmt):
    fuzz_path.write_text(text)
    try:
        fileio.loads_distribution(text)
        malformed = False
    except (ShapeError, NormalizationError):
        malformed = True
    for command in ANALYSIS_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([command[0], str(fuzz_path), *command[1:], "--format", fmt])
        assert code in (0, 1, 2), (command, code)
        assert INTERNAL not in err.getvalue(), (command, err.getvalue())
        if malformed:
            assert code == 2, (command, err.getvalue())
        assert "Traceback" not in err.getvalue()
