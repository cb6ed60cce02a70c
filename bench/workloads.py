"""The four benchmark workloads.

Each workload turns a seed into an endless stream of items and has:

* ``setup_code``: what a fresh interpreter runs before its first item is
  ready (imports and the first call's lazy tables), timed as ``setup_s``;
* ``run(item)``: the timed work of one item, as a user would do it;
* ``call(item)``: the same work inside this process, which the traced
  run wraps (it differs from ``run`` only for ``cli-cold``);
* ``check(item, output)``: compares the output with the generator's
  construction data, outside the timed span, and raises
  :class:`Mismatch` on any difference.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import bellpoly as bp
import bellpoly.cli

import gen
import oracle

EPS = Fraction(1, 10**9)


class Mismatch(Exception):
    """An output that disagrees with what the generator built."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def reconstructs(dec: bp.Decomposition, dm: bp.DistributionMatrix) -> bool:
    terms = [(bp.as_matrix(box).entries, w) for box, w in dec.terms()]
    return oracle.mixture(terms) == dm.entries


def bracketed(dm: bp.DistributionMatrix, eta: float) -> bool:
    """Whether ``dm`` is nonlocal just above ``eta`` and local just below."""
    def local_at(value: Fraction) -> bool:
        params = bp.EfficiencyParams.symmetric(value)
        return oracle.is_local(bp.apply_efficiency(dm, params).entries)

    center = Fraction(eta)
    return not local_at(min(Fraction(1), center * (1 + EPS))) and local_at(center * (1 - EPS))


def pr_index(row_types) -> int | None:
    """Catalog index of the n=2 PR box with these row types."""
    if row_types is None:
        return None
    return next(k for k in range(1, 9) if bp.pr_box(k).row_types == tuple(row_types))


class Workload:
    spawns = False  # whether run() starts a fresh interpreter per item

    def items(self):
        return self.stream

    def call(self, it):
        return self.run(it)

    def extra(self, samples) -> dict:
        """Workload-specific figures for the run record."""
        return {}


# ---------------------------------------------------------------------------
# Library workloads
# ---------------------------------------------------------------------------


class AnalyzeN2(Workload):
    """The n=2 analysis pipeline on violating and local matrices."""

    name = "analyze-n2"
    setup_code = "import bellpoly as bp; bp.violated_symmetry(bp.as_matrix(bp.pr_box(1)))"

    def __init__(self, root: Path, seed: int, out: Path):
        self.stream = gen.n2_items(random.Random(seed))

    def run(self, it: gen.N2Item) -> dict:
        out = {"violations": bp.validate(it.q), "sym": bp.violated_symmetry(it.q)}
        out["dec"] = bp.decompose_222(it.q) if out["sym"] else bp.decompose_local_222(it.q)
        out["tv"] = bp.tv_closest_local(it.q)
        out["kl"] = bp.kl_closest_local(it.q, it.settings)
        out["eta"] = bp.critical_efficiency(it.q)
        if out["sym"] is not None:
            out["est"] = bp.estimator_weights(it.q, it.settings)
            out["face"] = bp.face_projection(it.q, it.partner)
        return out

    def check(self, it: gen.N2Item, out: dict) -> None:
        expect(not out["violations"], "validate reported violations on a member")
        expect(reconstructs(out["dec"], it.q), "decomposition does not reconstruct the input")
        kl = out["kl"].distance
        if it.k is None:
            expect(out["sym"] is None, "local matrix reported as violating")
            expect(out["dec"].pr_term is None, "local decomposition has a PR term")
            expect(out["tv"].distance == 0 and kl == 0, "local matrix at nonzero distance")
            expect(out["eta"] is None, "local matrix has a critical efficiency")
            return
        expect(out["sym"] is not None and out["sym"].index == it.k, "wrong violated symmetry")
        expect(out["dec"].pr_weight == it.pr_weight, "PR weight differs from the built weight")
        expect(out["tv"].distance == it.pr_weight, "TV distance differs from the built weight")
        start = oracle.kl_bits(it.q.entries, it.tv_start.entries, it.settings.probs)
        expect(math.isfinite(kl) and 0 <= kl <= start * (1 + 1e-9) + 1e-15,
               f"KL {kl} is not within [0, KL of the TV-closest start {start}]")
        expect(out["eta"] is not None and bracketed(it.q, out["eta"]),
               "critical efficiency does not bracket the locality change")
        weights = out["est"]
        expect(len(weights) == 8 and min(weights) >= -1e-9 and abs(sum(weights) - 1) <= 1e-9,
               "estimator weights are off the simplex")
        uniform = bp.estimator_objective(it.q, it.settings, [1 / 8] * 8)
        score = bp.estimator_objective(it.q, it.settings, weights)
        expect(score <= uniform * (1 + 1e-12), "estimator weights score worse than uniform")
        lam, projected = out["face"]
        o = it.partner_outside
        expect(lam == 2 * o / (2 * o + it.pr_weight), "face projection coefficient")
        expect(projected.entries == oracle.mixture([(it.q.entries, lam), (it.partner.entries, 1 - lam)]),
               "face projection is not the stated mixture")
        expect(oracle.chained_value(projected.entries, bp.pr_box(it.k).row_types) == 1,
               "face projection is off the saturating face")


class Chained(Workload):
    """Identification, read-off decomposition and tightness at n = 3..6."""

    name = "chained"
    setup_code = ("import bellpoly as bp; "
                  "bp.identify_gpr(bp.as_matrix(bp.canonical_gpr(bp.Scenario(3))))")
    # critical_efficiency bisects 60 identify_gpr scans, which costs ~3 s
    # per call at n=5 and ~14 s at n=6, so it runs only up to n=4.
    max_eta_n = 4

    def __init__(self, root: Path, seed: int, out: Path):
        self.stream = gen.chained_items(random.Random(seed))

    def run(self, it: gen.ChainedItem) -> dict:
        out = {"violations": bp.validate(it.dm), "g": bp.identify_gpr(it.dm)}
        for key, fn in (("dec", bp.decompose_chained), ("tight", bp.tightness_witness)):
            try:
                out[key] = fn(it.dm)
            except bp.NotApplicableError as exc:
                out[key] = exc
        if it.n <= self.max_eta_n:
            out["eta"] = bp.critical_efficiency(it.dm)
        return out

    def check(self, it: gen.ChainedItem, out: dict) -> None:
        expect(not out["violations"], "validate reported violations on a member")
        if it.g is None:
            expect(out["g"] is None, "local matrix identified as nonlocal")
            expect(isinstance(out["dec"], bp.NotApplicableError)
                   and isinstance(out["tight"], bp.NotApplicableError),
                   "local matrix was not refused")
            expect(out.get("eta") is None, "local matrix has a critical efficiency")
            return
        expect(out["g"] is not None and out["g"].row_types == it.g.row_types, "wrong box identified")
        dec, tight = out["dec"], out["tight"]
        expect(not isinstance(dec, Exception) and not isinstance(tight, Exception),
               "nonlocal matrix was refused")
        box, weight = dec.pr_term
        expect(box.row_types == it.g.row_types and weight == it.g_weight, "box or box weight differs")
        recovered = {it.cell_of[bp.as_matrix(d).entries]: w for d, w in dec.ld_terms}
        expect(recovered == it.cell_weights, "cell weights differ from the built ones")
        expect(tight[0] == 1 - it.g_weight, "tightness differs from 1 - box weight")
        if it.n <= self.max_eta_n:
            expect(out["eta"] is not None and bracketed(it.dm, out["eta"]),
                   "critical efficiency does not bracket the locality change")


class Polytope(Workload):
    """n=2 vertex enumeration and is_extremal at n = 2..4."""

    name = "polytope"
    setup_code = "import bellpoly as bp; bp.is_extremal(bp.as_matrix(bp.ld_box(1)))"
    # The n=2 part of acceptance criterion 01 must finish within this.
    criterion_01_bound_s = 1.0

    def __init__(self, root: Path, seed: int, out: Path):
        self.stream = gen.polytope_items(random.Random(seed))

    def run(self, it: gen.PolytopeItem):
        if it.kind == "enumerate":
            return bp.enumerate_vertices(gen.S2)
        return bp.is_extremal(it.dm)

    def check(self, it: gen.PolytopeItem, out) -> None:
        if it.kind == "enumerate":
            expect(len(out) == len(it.expected) and {v.entries for v in out} == it.expected,
                   "enumeration differs from the 24 catalog boxes")
        else:
            expect(out is it.expected, f"is_extremal returned {out}, built a vertex: {it.expected}")

    def extra(self, samples) -> dict:
        """Criterion 01's headroom: median n=2 enumeration time vs its bound."""
        times = [wall for it, wall, _ in samples if it.kind == "enumerate"]
        if not times:
            return {}
        median = statistics.median(times)
        return {"criterion_01": {
            "enumerate_vertices_n2_s_p50": median,
            "bound_s": self.criterion_01_bound_s,
            "headroom_s": self.criterion_01_bound_s - median,
            "samples": len(times),
        }}


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

CLI_PRELUDE = "import sys; from bellpoly.cli import run; sys.exit(run(sys.argv[1:]))"

N2_DOCS = ("pr1", "empirical", "n2-exact", "n2-local", "n2-rounded")
ALL_DOCS = N2_DOCS + ("n3-exact", "n3-rounded")

# subcommand -> (extra arguments, documents it reads)
SUBCOMMANDS = {
    "validate": ((), ALL_DOCS),
    "chsh": (("--all",), N2_DOCS),
    "eberhard": ((), N2_DOCS),
    "decompose": ((), ALL_DOCS),
    "tv-closest": ((), N2_DOCS),
    "kl-closest": ((), N2_DOCS),
    "eta": (("--value", "9/10"), ALL_DOCS),
    "eta-critical": ((), ALL_DOCS),
    "chained-value": ((), ALL_DOCS),
    "tightness": ((), ALL_DOCS),
    "vertices": (("--n", "2", "--verify"), (None,)),
    "extremal-check": ((), ALL_DOCS),
    # The published table takes seconds of projected gradient; the
    # rounded table takes milliseconds.
    "estimator": ((), ("empirical", "n2-rounded")),
}
FORMATS = ("text", "json")
CHILD_TIMEOUT_S = 120


class CliItem:
    def __init__(self, command: str, fmt: str, doc):
        self.command, self.fmt, self.doc = command, fmt, doc
        extra, _ = SUBCOMMANDS[command]
        path = [str(doc.path)] if doc is not None else []
        self.argv = [command, *path, *extra, "--format", fmt]


def child_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


class CliCold(Workload):
    """One fresh interpreter per subcommand, as a shell user runs them."""

    name = "cli-cold"
    setup_code = "from bellpoly.cli import run"
    spawns = True

    def __init__(self, root: Path, seed: int, out: Path):
        rng = random.Random(seed)
        self.root = root
        self.env = child_env(root)
        self.docs = gen.cli_docs(rng, root, out / f"cli-docs-{seed}")
        self.rng = rng

    def items(self):
        """Each block of 14 runs the 12 subcommands that read a document
        once and ``vertices`` in both formats, in shuffled order; the others
        alternate their format from block to block, and each walks
        round-robin through its documents.

        The fixed mix keeps the slow items where ``item_ms_p90`` cannot
        jump between them: per block, two ``vertices`` (~1 s each) and,
        every other block, one ``estimator`` on the published table
        (seconds), so p90 lands inside the vertices band with a few items
        of margin on both sides in a ~60-item run.
        """
        offsets = {c: self.rng.randrange(len(docs)) for c, (_, docs) in SUBCOMMANDS.items()}
        formats = {c: self.rng.randrange(len(FORMATS)) for c in SUBCOMMANDS}
        for command in gen.blocks(self.rng, [*SUBCOMMANDS, "vertices"]):
            docs = SUBCOMMANDS[command][1]
            key = docs[offsets[command] % len(docs)]
            fmt = FORMATS[formats[command] % len(FORMATS)]
            offsets[command] += 1
            formats[command] += 1
            yield CliItem(command, fmt, self.docs[key] if key else None)

    def run(self, it: CliItem):
        """Spawn the CLI; returns (exit code, stdout, stderr)."""
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_PRELUDE, *it.argv],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        with proc:
            try:
                out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        return proc.returncode, out.decode(), err.decode()

    def call(self, it: CliItem):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = bellpoly.cli.run(it.argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def check(self, it: CliItem, out) -> None:
        code, stdout, stderr = out
        d = it.doc
        refused = it.command == "tightness" and d.gpr_types is None
        expected_code = 1 if refused or (it.command == "validate" and not d.exact) else 0
        expect(code == expected_code, f"{it.argv}: exit {code}, expected {expected_code}: {stderr.strip()}")
        if refused:
            expect(stderr.startswith("error:"), f"{it.argv}: refusal without an error line")
            return
        expect(stdout.strip() != "", f"{it.argv}: empty output")
        if it.fmt == "json":
            report = json.loads(stdout)
            expect(report.get("command") == it.command, f"{it.argv}: envelope names {report.get('command')}")
            self._check_result(it, report["result"])
        else:
            marker = self._text_marker(it)
            expect(marker in stdout, f"{it.argv}: output lacks {marker!r}")

    @staticmethod
    def _text_marker(it: CliItem) -> str:
        d, c = it.doc, it.command
        if c == "vertices":
            return "24 vertices; catalogs match"
        k = pr_index(d.gpr_types) if d.n == 2 else None
        return {
            "validate": "valid: the matrix" if d.exact else "invalid:",
            "chsh": f"violated symmetry: {k}" if k else "violated symmetry: none",
            "eberhard": f"symmetry used: {k or 1}",
            "decompose": "decomposition (",
            "tv-closest": "total-variation distance to the local polytope",
            "kl-closest": "KL divergence to the closest local matrix",
            "eta": "applied efficiencies eta_a=9/10",
            "eta-critical": "critical efficiency:" if d.gpr_types else "no critical threshold",
            "chained-value": "identified violated box: "
                             + ("".join(d.gpr_types) if d.gpr_types else "none (local)"),
            "tightness": "maximal local weight:",
            "extremal-check": "extremal: yes" if d.vertex else "extremal: no",
            "estimator": f"symmetry: {k}",
        }[c]

    @staticmethod
    def _check_result(it: CliItem, res: dict) -> None:
        c, d = it.command, it.doc
        if c == "vertices":
            expect(res["count"] == 24 and res["catalogs_match"] is True, "vertex count or catalog")
            return
        types = "".join(d.gpr_types) if d.gpr_types else None
        k = pr_index(d.gpr_types) if d.n == 2 else None
        exact_weight = d.box_weight
        if c == "validate":
            expect(res["valid"] is d.exact, "validate verdict")
        elif c == "chsh":
            expect(res["violated_symmetry"] == k, "violated symmetry")
        elif c == "eberhard":
            expect(res["symmetry"] == (k or 1) and res["all_equal_quarter_violation"] is True,
                   "rewrite values")
        elif c == "decompose":
            terms = res["decomposition"]["terms"]
            if types is None:
                expect(res["kind"] == "local" and all(t["type"] == "deterministic" for t in terms),
                       "local decomposition")
                return
            kind = "pr-plus-saturating" if d.n == 2 else "gpr-plus-one-mismatch"
            expect(res["kind"] == kind and terms[0]["row_types"] == types, "decomposition box")
            if exact_weight is not None:
                expect(Fraction(terms[0]["weight"]["exact"]) == exact_weight, "decomposition weight")
        elif c == "tv-closest":
            distance = Fraction(res["distance"]["exact"])
            if types is None:
                expect(distance == 0, "local TV distance")
            else:
                expect(distance == exact_weight if exact_weight is not None else distance > 0,
                       "TV distance")
        elif c == "kl-closest":
            value = res["divergence_bits"]
            expect(value == 0 if types is None else math.isfinite(value) and value > 0, "KL divergence")
        elif c == "eta":
            expect(Fraction(res["eta_a"]["exact"]) == Fraction(9, 10), "efficiency echoed")
            if d.exact:
                dm = bp.DistributionMatrix(bp.Scenario(d.n), d.cells)
                after = bp.apply_efficiency(dm, bp.EfficiencyParams.symmetric(Fraction(9, 10)))
                value, after_types = oracle.min_chained(after.entries)
                after_types = after_types if value < 1 else None
                if d.n == 2:
                    expect(res["violated_symmetry"] == pr_index(after_types), "symmetry after transform")
                else:
                    expect(res["violated_box"] == ("".join(after_types) if after_types else None),
                           "box after transform")
        elif c == "eta-critical":
            eta = res["critical_efficiency"]
            if types is None:
                expect(eta is None, "local matrix has a critical efficiency")
            else:
                expect(eta is not None and 0 < eta < 1, "critical efficiency range")
                if d.exact:
                    dm = bp.DistributionMatrix(bp.Scenario(d.n), d.cells)
                    expect(bracketed(dm, eta), "critical efficiency does not bracket")
        elif c == "chained-value":
            expect(res["identified_box"] == types, "identified box")
            if d.exact:
                canonical = ("C",) * (2 * d.n - 1) + ("A",)
                expect(Fraction(res["value"]["exact"]) == oracle.chained_value(d.cells, canonical),
                       "canonical functional value")
        elif c == "tightness":
            weight = Fraction(res["local_weight"]["exact"])
            expect(weight == 1 - exact_weight if exact_weight is not None else 0 < weight < 1,
                   "maximal local weight")
        elif c == "extremal-check":
            expect(res["extremal"] is d.vertex, "extremality")
        elif c == "estimator":
            weights = res["weights"]
            expect(res["symmetry"] == k, "estimator symmetry")
            expect(len(weights) == 8 and min(weights) >= -1e-9 and abs(sum(weights) - 1) <= 1e-9,
                   "estimator weights are off the simplex")


WORKLOADS = {w.name: w for w in (AnalyzeN2, Chained, Polytope, CliCold)}
