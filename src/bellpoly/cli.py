"""Command-line interface.

Every analysis command reads a distribution-matrix JSON document (see
:mod:`bellpoly.fileio`), reports in text or JSON (``--format``), and
exits 0 on success, 1 on domain errors (e.g. asking for the nonlocal
decomposition of a local matrix), or 2 on malformed input or usage.  A
fault in the program itself is reported as one ``error: internal`` line
with exit code 1, without a traceback.

Matrices built from rounded decimal data rarely satisfy the equality
constraints exactly.  Commands that need a polytope member accept
inputs whose constraint residuals are at most 1e-6: the matrix is
replaced by its exact least-adjustment projection onto the equality
constraints and the substitution is reported as a warning.  Larger
residuals are rejected.  Two exceptions: ``validate`` always reports
the raw matrix's violations, and ``decompose`` on a nonlocal n=2 matrix
reads its weights off the *raw* cells (reporting the reconstruction
residual) so that published rounded tables decompose to the printed
digits; a local one is projected like the others.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import chained, chsh, efficiency, exactlin, fileio, metrics, polytope
from .core import (
    BellError,
    Decomposition,
    DistributionMatrix,
    GeneralizedPRBox,
    InvariantViolationError,
    NormalizationError,
    NotApplicableError,
    PreconditionError,
    Scenario,
    SettingsDistribution,
    ShapeError,
    _LD_INDEX,
    _PR_INDEX,
    as_fraction,
    enumerate_gprs,
    enumerate_lds,
    equalities,
    validate,
)

#: Largest constraint residual that auto-projection will repair.
PROJECTION_TOLERANCE = Fraction(1, 10**6)


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


def _fmt(value: Fraction) -> str:
    return fileio.format_rational(value)


def _num(value: Fraction) -> dict:
    return {"exact": _fmt(value), "float": float(value)}


def _digest(path: str) -> Optional[dict]:
    import hashlib  # only JSON reports of input files need it

    try:
        with open(path, "rb") as handle:
            return {
                "path": path,
                "sha256": hashlib.sha256(handle.read()).hexdigest(),
            }
    except OSError:
        return {"path": path}


def _decomposition_doc(dec: Decomposition) -> dict:
    doc: dict = {"local_weight": _num(dec.local_weight), "terms": []}
    if dec.pr_term is not None:
        box, w = dec.pr_term
        term = {
            "type": "pr-box",
            "row_types": "".join(box.row_types),
            "weight": _num(w),
        }
        index = _PR_INDEX.get(box)
        if index is not None:
            term["index"] = index
        doc["terms"].append(term)
    for box, w in dec.ld_terms:
        term = {
            "type": "deterministic",
            "a_assign": "".join(box.a_assign),
            "b_assign": "".join(box.b_assign),
            "weight": _num(w),
        }
        index = _LD_INDEX.get(box)
        if index is not None:
            term["index"] = index
        doc["terms"].append(term)
    return doc


def _print_report(args, command: str, result: dict, warnings: list[str],
                  text_lines: list[str]) -> int:
    if args.format == "json":
        report = {"command": command, "warnings": warnings, "result": result}
        if getattr(args, "file", None):
            report["input"] = _digest(args.file)
        print(json.dumps(report, indent=2))
    else:
        for line in text_lines:
            print(line)
        for warning in warnings:
            print(f"warning: {warning}")
    return 0


def _matrix_lines(dm: DistributionMatrix) -> list[str]:
    """One indented ``label: cells`` line per row of ``dm``."""
    return [
        f"  {label}: " + "  ".join(_fmt(v) for v in row)
        for label, row in zip(dm.scenario.row_labels(), dm.entries)
    ]


def _decomposition_lines(dec: Decomposition) -> list[str]:
    lines = []
    doc = _decomposition_doc(dec)
    for term in doc["terms"]:
        if term["type"] == "pr-box":
            name = f"PR box {term.get('index', term['row_types'])}"
        else:
            name = (
                f"deterministic box {term['index']}"
                if "index" in term
                else f"deterministic box a={term['a_assign']} b={term['b_assign']}"
            )
        lines.append(f"  {name}: weight {term['weight']['exact']}")
    return lines


# ---------------------------------------------------------------------------
# Input loading with auto-projection
# ---------------------------------------------------------------------------


def _worst_residual(violations) -> Fraction:
    """The largest residual among ``violations``; raises
    :class:`ShapeError` past :data:`PROJECTION_TOLERANCE`, the most that
    auto-projection repairs."""
    worst = max(abs(v.residual) for v in violations)
    if worst > PROJECTION_TOLERANCE:
        raise ShapeError(
            f"matrix violates the polytope constraints with residual "
            f"{float(worst):.3g}, beyond the auto-projection tolerance "
            f"{float(PROJECTION_TOLERANCE):.0e}; fix the input"
        )
    return worst


def _project_member(
    dm: DistributionMatrix,
) -> tuple[DistributionMatrix, list[str]]:
    """Return a polytope member for ``dm``: itself when already valid,
    otherwise its least-adjustment projection when every residual is
    within :data:`PROJECTION_TOLERANCE`."""
    violations = validate(dm)
    if not violations:
        return dm, []
    worst = _worst_residual(violations)
    cells = [v for row in dm.entries for v in row]
    projected_cells = exactlin.project_onto_affine(
        polytope.equality_matrix(dm.scenario),
        [eq.bound for eq in equalities(dm.scenario)],
        cells,
    )
    adjustment = max(abs(a - b) for a, b in zip(projected_cells, cells))
    entries = tuple(
        tuple(projected_cells[4 * r : 4 * r + 4])
        for r in range(dm.scenario.num_rows)
    )
    projected = DistributionMatrix(dm.scenario, entries)
    remaining = validate(projected)
    if remaining:
        raise ShapeError(
            "matrix cannot be repaired by projecting onto the equality "
            f"constraints (left with: {'; '.join(str(v) for v in remaining[:3])})"
        )
    warning = (
        f"input is not exactly a polytope member (largest constraint residual "
        f"{float(worst):.3g}); analysis ran on its least-adjustment projection "
        f"(largest cell change {float(adjustment):.3g})"
    )
    return projected, [warning]


def _load_member(path: str):
    dm, settings = fileio.load_distribution(path)
    member, warnings = _project_member(dm)
    return member, settings, warnings


def _load_settings(
    spec: Optional[str],
    file_settings: Optional[SettingsDistribution],
    scenario: Scenario,
) -> tuple[SettingsDistribution, str, list[str]]:
    """Resolve settings probabilities: --settings flag beats the input
    file's ``settings_probs`` beats the uniform default (flagged)."""
    if spec is not None and spec != "uniform":
        try:
            with open(spec, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError covers undecodable bytes and malformed JSON.
            raise ShapeError(f"cannot read settings from {spec}: {exc}") from exc
        if isinstance(data, dict):
            data = data.get("settings_probs")
        if not isinstance(data, list):
            raise ShapeError(
                f'{spec} must hold a JSON array or an object with "settings_probs"'
            )
        probs = tuple(fileio.parse_value(v) for v in data)
        return SettingsDistribution(scenario, probs), "flag", []
    if spec == "uniform":
        return SettingsDistribution.uniform(scenario), "flag", []
    if file_settings is not None:
        return file_settings, "file", []
    return (
        SettingsDistribution.uniform(scenario),
        "uniform-default",
        ["no settings probabilities given; assuming uniform settings"],
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    dm, _ = fileio.load_distribution(args.file)
    violations = validate(dm)
    result = {
        "valid": not violations,
        "violations": [
            {
                "constraint": v.constraint,
                "location": v.location,
                "residual": _num(v.residual),
            }
            for v in violations
        ],
    }
    lines = (
        ["valid: the matrix is a no-signaling polytope member"]
        if not violations
        else [f"invalid: {len(violations)} constraint violation(s)"]
        + [f"  {v}" for v in violations]
    )
    code = _print_report(args, "validate", result, [], lines)
    return code if not violations else 1


def _cmd_chsh(args) -> int:
    dm, _, warnings = _load_member(args.file)
    if dm.scenario.n != 2:
        raise PreconditionError("chsh requires an n=2 matrix")
    values = chsh.all_chsh_values(dm)
    violated = chsh.violated_symmetry(dm)
    violated_index = violated.index if violated else None
    if args.all:
        shown = {str(k + 1): _num(v) for k, v in enumerate(values)}
        lines = [
            f"symmetry {k + 1}: {_fmt(v)} ({float(v)})"
            + ("  <- violated" if violated_index == k + 1 else "")
            for k, v in enumerate(values)
        ]
    else:
        index = args.symmetry if args.symmetry else (violated_index or 1)
        shown = {str(index): _num(values[index - 1])}
        lines = [f"symmetry {index}: {_fmt(values[index - 1])} ({float(values[index - 1])})"]
    lines.append(
        f"violated symmetry: {violated_index}"
        if violated_index
        else "violated symmetry: none (local)"
    )
    result = {"values": shown, "violated_symmetry": violated_index}
    return _print_report(args, "chsh", result, warnings, lines)


def _cmd_eberhard(args) -> int:
    dm, _, warnings = _load_member(args.file)
    if dm.scenario.n != 2:
        raise PreconditionError("eberhard requires an n=2 matrix")
    violated = chsh.violated_symmetry(dm)
    sym = violated if violated else chsh.chsh_symmetry(1)
    values = chsh.variant_eberhard_values(dm, sym)
    quarter = (chsh.chsh_value(dm, sym) - 2) / 4
    result = {
        "symmetry": sym.index,
        "symmetry_source": "violated" if violated else "default-1-local-input",
        "values": [_num(v) for v in values],
        "quarter_violation": _num(quarter),
        "all_equal_quarter_violation": all(v == quarter for v in values),
    }
    lines = [f"symmetry used: {sym.index}"] + [
        f"  variant {k + 1}: {_fmt(v)} ({float(v)})" for k, v in enumerate(values)
    ] + [f"quarter violation: {_fmt(quarter)} ({float(quarter)})"]
    return _print_report(args, "eberhard", result, warnings, lines)


def _cmd_decompose(args) -> int:
    dm, _ = fileio.load_distribution(args.file)
    warnings: list[str] = []
    residual = None
    kind = "pr-plus-saturating"
    if dm.scenario.n == 2:
        violations = validate(dm)
        if violations:
            _worst_residual(violations)
            try:
                dec, residual = chsh.readoff_222(dm)
            except NotApplicableError:  # a local table: use its projection
                dm, warnings = _project_member(dm)
            else:
                warnings.append(
                    f"weights were read off a matrix that is not exactly a "
                    f"polytope member; the reconstruction differs from the "
                    f"input by total variation {_fmt(residual)} "
                    f"({float(residual):.3g})"
                )
        if residual is None:
            try:
                dec = chsh.decompose_222(dm)
            except NotApplicableError:  # the matrix is local
                dec = chsh.decompose_local_222(dm)
                kind = "local"
    else:
        dm, warnings = _project_member(dm)
        dec = chained.decompose_chained(dm)
        kind = "gpr-plus-one-mismatch"
    result = {"kind": kind, "decomposition": _decomposition_doc(dec)}
    if residual is not None:
        result["reconstruction_residual_tv"] = _num(residual)
    lines = [f"decomposition ({kind}):"] + _decomposition_lines(dec)
    return _print_report(args, "decompose", result, warnings, lines)


def _cmd_tv_closest(args) -> int:
    dm, _, warnings = _load_member(args.file)
    if dm.scenario.n != 2:
        raise PreconditionError("tv-closest requires an n=2 matrix")
    res = metrics.tv_closest_local(dm)
    result = {
        "distance": _num(res.distance),
        "weights": (
            {str(k): _fmt(v) for k, v in sorted(res.weights.items())}
            if res.weights is not None
            else None
        ),
        "closest": fileio.dump_distribution(res.closest),
    }
    lines = [f"total-variation distance to the local polytope: {_fmt(res.distance)} ({float(res.distance)})"]
    if res.weights is None:
        lines.append("matrix is local; it is its own closest point")
    else:
        lines += [
            f"  deterministic box {k}: weight {_fmt(v)}"
            for k, v in sorted(res.weights.items())
        ]
    return _print_report(args, "tv-closest", result, warnings, lines)


def _cmd_kl_closest(args) -> int:
    dm, file_settings, warnings = _load_member(args.file)
    if dm.scenario.n != 2:
        raise PreconditionError("kl-closest requires an n=2 matrix")
    settings, source, settings_warnings = _load_settings(
        args.settings, file_settings, dm.scenario
    )
    warnings = warnings + settings_warnings
    res = metrics.kl_closest_local(dm, settings)
    result = {
        "divergence_bits": res.distance if res.weights is None else float(res.distance),
        "weights": (
            {str(k): float(v) for k, v in sorted(res.weights.items())}
            if res.weights is not None
            else None
        ),
        "closest": fileio.dump_distribution(res.closest),
        "iterations": res.iterations,
        "gap_bits": res.gap,
        "settings_source": source,
    }
    lines = [f"KL divergence to the closest local matrix: {float(res.distance):.12g} bits"]
    if res.weights is None:
        lines.append("matrix is local; it is its own closest point")
    else:
        lines += [
            f"  deterministic box {k}: weight {float(v):.12g}"
            for k, v in sorted(res.weights.items())
        ]
        lines.append(
            f"Newton search: {res.iterations} iterations; at most "
            f"{res.gap:.3g} bits above the minimum (Frank-Wolfe gap)"
        )
    lines.append(f"settings source: {source}")
    return _print_report(args, "kl-closest", result, warnings, lines)


def _cmd_eta(args) -> int:
    dm, settings, warnings = _load_member(args.file)
    eta_a = as_fraction(args.value)
    eta_b = as_fraction(args.value_b) if args.value_b is not None else eta_a
    try:
        params = efficiency.EfficiencyParams(eta_a, eta_b)
    except PreconditionError as exc:  # an out-of-range option value
        raise ShapeError(str(exc)) from None
    transformed = efficiency.apply_efficiency(dm, params)
    result = {
        "eta_a": _num(params.eta_a),
        "eta_b": _num(params.eta_b),
        "matrix": fileio.dump_distribution(transformed, settings),
    }
    lines = [
        f"applied efficiencies eta_a={_fmt(params.eta_a)}, eta_b={_fmt(params.eta_b)}"
    ]
    if transformed.scenario.n == 2:
        violated = chsh.violated_symmetry(transformed)
        values = chsh.all_chsh_values(transformed)
        best = max(values)
        result["max_chsh_value"] = _num(best)
        result["violated_symmetry"] = violated.index if violated else None
        lines.append(
            f"max CHSH value after transform: {_fmt(best)} ({float(best)})"
        )
    else:
        g = chained.identify_gpr(transformed)
        result["violated_box"] = "".join(g.row_types) if g else None
        lines.append(
            f"violated box after transform: {''.join(g.row_types) if g else 'none'}"
        )
    if args.format == "text":
        lines.append("transformed matrix:")
        lines += _matrix_lines(transformed)
    return _print_report(args, "eta", result, warnings, lines)


def _certificate(
    dm: DistributionMatrix, threshold: efficiency.EfficiencyThreshold
) -> Optional[dict]:
    """The boundary fact a rational threshold states.  The threshold
    routine checked exactly that the violated box's functional meets its
    local bound there; an irrational threshold is its own certificate."""
    if threshold.q != 0:
        return None
    eta = _fmt(threshold.p)
    if dm.scenario.n == 2:
        statement = f"max CHSH value at eta={eta} is exactly 2"
    else:
        statement = f"minimal chained functional value at eta={eta} is exactly 1"
    return {"eta": eta, "statement": statement}


def _cmd_eta_critical(args) -> int:
    dm, _, warnings = _load_member(args.file)
    threshold = efficiency.critical_efficiency_exact(dm)
    if threshold is None:
        result = {"critical_efficiency": None}
        lines = ["matrix is local at full efficiency; no critical threshold"]
        return _print_report(args, "eta-critical", result, warnings, lines)
    value = float(threshold)
    certificate = _certificate(dm, threshold)
    result = {
        "critical_efficiency": value,
        "critical_efficiency_exact": str(threshold),
        "display": f"{value:.9f}",
        "certificate": certificate,
    }
    lines = [f"critical efficiency: {value:.9f}", f"exact: {threshold}"]
    if certificate:
        lines.append(f"exact certificate: {certificate['statement']}")
    return _print_report(args, "eta-critical", result, warnings, lines)


def _parse_gpr(spec: str, scenario: Scenario) -> GeneralizedPRBox:
    letters = tuple(spec.strip().upper())
    if len(letters) != scenario.num_rows or any(t not in "CA" for t in letters):
        raise ShapeError(
            f"--gpr needs {scenario.num_rows} letters C/A in canonical row order"
        )
    try:
        return GeneralizedPRBox(scenario, letters)
    except ShapeError:
        raise ShapeError(
            "--gpr must have an odd number of anticorrelated rows"
        ) from None


def _cmd_chained_value(args) -> int:
    dm, _, warnings = _load_member(args.file)
    if args.gpr:
        box = _parse_gpr(args.gpr, dm.scenario)
        source = "flag"
    else:
        box = chained.canonical_gpr(dm.scenario)
        source = "canonical"
    value = chained.chained_value(dm, box)
    identified = chained.identify_gpr(dm)
    result = {
        "box": {"row_types": "".join(box.row_types), "source": source},
        "value": _num(value),
        "violated": value < 1,
        "identified_box": "".join(identified.row_types) if identified else None,
    }
    lines = [
        f"box ({source}): {''.join(box.row_types)}",
        f"chained functional value: {_fmt(value)} ({float(value)})",
        f"violated (value < 1): {'yes' if value < 1 else 'no'}",
        f"identified violated box: "
        f"{''.join(identified.row_types) if identified else 'none (local)'}",
    ]
    return _print_report(args, "chained-value", result, warnings, lines)


def _cmd_tightness(args) -> int:
    dm, _, warnings = _load_member(args.file)
    weight, dec = chained.tightness_witness(dm)
    result = {
        "local_weight": _num(weight),
        "decomposition": _decomposition_doc(dec),
    }
    lines = [
        f"maximal local weight: {_fmt(weight)} ({float(weight)})",
        "witness decomposition:",
    ] + _decomposition_lines(dec)
    return _print_report(args, "tightness", result, warnings, lines)


def _cmd_vertices(args) -> int:
    scenario = Scenario(args.n)
    vertices = polytope.enumerate_vertices(scenario)
    deterministic = sum(
        1
        for dm in vertices
        if all(v in (0, 1) for row in dm.entries for v in row)
    )
    result = {
        "n": scenario.n,
        "count": len(vertices),
        "deterministic": deterministic,
        "pr_like": len(vertices) - deterministic,
    }
    lines = [
        f"{len(vertices)} vertices "
        f"({deterministic} deterministic, {len(vertices) - deterministic} PR-like)"
    ]
    if args.verify:
        expected = {box.matrix() for box in enumerate_lds(scenario)}
        expected |= {box.matrix() for box in enumerate_gprs(scenario)}
        matches = expected == set(vertices)
        result["catalogs_match"] = matches
        if not matches:
            raise InvariantViolationError(
                "enumerated vertex set differs from the box catalogs"
            )
        lines = [f"{len(vertices)} vertices; catalogs match"] + lines[1:]
    if args.list:
        result["vertices"] = [fileio.dump_distribution(dm) for dm in vertices]
        for k, dm in enumerate(vertices, start=1):
            lines += [f"vertex {k}:"] + _matrix_lines(dm)
    return _print_report(args, "vertices", result, [], lines)


def _cmd_extremal_check(args) -> int:
    dm, _, warnings = _load_member(args.file)
    rank = polytope.active_rank(dm)
    extremal = rank == dm.scenario.num_cells
    result = {
        "extremal": extremal,
        "active_rank": rank,
        "required_rank": dm.scenario.num_cells,
    }
    lines = [
        f"extremal: {'yes' if extremal else 'no'} "
        f"(active constraint rank {rank} of {dm.scenario.num_cells})"
    ]
    return _print_report(args, "extremal-check", result, warnings, lines)


def _cmd_estimator(args) -> int:
    dm, file_settings, warnings = _load_member(args.file)
    if dm.scenario.n != 2:
        raise PreconditionError("estimator requires an n=2 matrix")
    settings, source, settings_warnings = _load_settings(
        args.settings, file_settings, dm.scenario
    )
    warnings = warnings + settings_warnings
    quadratic = chsh.estimator_quadratic(dm, settings)
    weights = quadratic.minimize()
    second_moment = quadratic.objective(weights)
    sym = quadratic.symmetry
    mean = (chsh.chsh_value(dm, sym) - 2) / 4
    variance = second_moment - mean * mean
    result = {
        "symmetry": sym.index,
        "weights": [float(w) for w in weights],
        "weights_exact": [_fmt(w) for w in weights],
        "mean": float(mean),
        "second_moment": float(second_moment),
        "variance": float(variance),
        "settings_source": source,
    }
    lines = [
        f"symmetry: {sym.index}",
        "variance-minimizing weights over the 8 single-cell rewrites:",
    ] + [
        f"  variant {k + 1}: {float(w):.12g} ({_fmt(w)})"
        for k, w in enumerate(weights)
    ] + [
        f"estimator mean (quarter violation): {float(mean):.12g}",
        f"estimator variance: {float(variance):.12g}",
        f"settings source: {source}",
    ]
    return _print_report(args, "estimator", result, warnings, lines)


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser = argparse.ArgumentParser(
        prog="bellpoly",
        description=(
            "Exact analysis of no-signaling distribution matrices in the "
            "n=2 and chained Bell scenarios."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, file=True, parents=()):
        p = sub.add_parser(name, help=help_text, parents=[common, *parents])
        if file:
            p.add_argument("file", help="distribution-matrix JSON document")
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate, "check polytope membership, listing violations")

    p = add("chsh", _cmd_chsh, "CHSH values of the 8 facet symmetries")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--symmetry", type=int, choices=range(1, 9), metavar="K",
                       help="report symmetry K only")
    group.add_argument("--all", action="store_true", help="report all 8 symmetries")

    add("eberhard", _cmd_eberhard,
        "the 8 single-cell rewrites of the quarter violation")
    add("decompose", _cmd_decompose,
        "vertex decomposition (PR+saturating, local, or chained read-off)")
    add("tv-closest", _cmd_tv_closest,
        "closest local matrix in total variation")

    p = add("kl-closest", _cmd_kl_closest,
            "closest local matrix in Kullback-Leibler divergence")
    p.add_argument("--settings", metavar="SPEC",
                   help='"uniform" or a JSON file with settings probabilities')

    p = add("eta", _cmd_eta, "apply detector efficiencies")
    p.add_argument("--value", required=True, metavar="V",
                   help="efficiency (exact rational or decimal), both sides")
    p.add_argument("--value-b", metavar="W",
                   help="efficiency for Bob's side (defaults to --value)")

    add("eta-critical", _cmd_eta_critical,
        "exact symmetric efficiency at which nonlocality is lost")

    p = add("chained-value", _cmd_chained_value,
            "chained functional value against a generalized PR box")
    p.add_argument("--gpr", metavar="SPEC",
                   help="box row types, e.g. CCACCA (canonical row order); "
                   "default: the canonical all-correlated-but-last box")

    add("tightness", _cmd_tightness,
        "maximal local weight and its witness decomposition")

    p = add("vertices", _cmd_vertices, "enumerate polytope vertices",
            file=False)
    p.add_argument("--n", type=int, required=True, help="scenario size (2..4)")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the box catalogs")
    p.add_argument("--list", action="store_true",
                   help="include every vertex matrix in the report")

    add("extremal-check", _cmd_extremal_check,
        "rank-certificate test for vertexhood")

    p = add("estimator", _cmd_estimator,
            "variance-minimizing weights over the 8 rewrites")
    p.add_argument("--settings", metavar="SPEC",
                   help='"uniform" or a JSON file with settings probabilities')

    return parser


def run(argv) -> int:
    """Parse and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ShapeError, NormalizationError) as exc:
        print(f"error (malformed input): {exc}", file=sys.stderr)
        return 2
    except BellError as exc:  # every other domain error
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault in the program: one line, no traceback
        message = " ".join(str(exc).split())
        print(f"error: internal {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
