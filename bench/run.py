"""Benchmark for bellpoly: one workload, one seeded closed loop.

Usage (from the repository root):

    python3 bench/run.py --workload analyze-n2 --seed 1 --seconds 28 --trace 0

One caller runs items back to back for ``--seconds`` seconds: the next
item starts when the previous one has finished, and no threads are used.
The process and the interpreters it starts stay on one CPU.  Every output
is checked against the generator's construction data outside the timed
spans.  The run prints a ``{"record": ...}`` line (host metadata,
calibration, failure share, sample counts, the wall-clock figures) and,
as its last line, ``{"correct", "attempted", "failed", "metrics"}``.

The end-to-end times are host-normalised: each timed span's wall time is
scaled by the host's speed measured around and during it (see
``hostspeed.py``), because the host's speed changes too much from run to
run for raw wall times to resolve the bounds.  The raw figures are in the
record line as ``wall``.

``--trace 0`` reports the end-to-end metrics and installs no wrappers.
``--trace 1`` reports per-layer metrics: each item runs once untraced and
once with spans around bellpoly's functions (alternating which goes
first), the untraced/traced ratio of normalised times being the tracing
overhead; the spans are written to
``.bench_out/spans-<workload>-<seed>.tsv``.  Span self times are raw wall
times and include the host-speed probes taken during them (about 3%).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import hostspeed
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SRC = ROOT / "src"
SETUP_RUNS = 7  # fresh interpreters timed per run for setup_s; the median is reported
PROBE_RUNS = 3  # repetitions of each start-up probe in the traced run


class SetupFailed(Exception):
    pass


def now() -> float:
    return time.perf_counter()


# ---------------------------------------------------------------------------
# Run metadata and host drift
# ---------------------------------------------------------------------------


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def pin_to_one_cpu() -> int | None:
    """Keep this process and the interpreters it starts on one CPU, so
    that the host-speed probes run where the timed work runs (the CPUs of
    a shared host can run at different speeds at the same moment).
    Returns the CPU, or None where the system does not allow it."""
    cpu = min(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None
    return cpu


def metadata(args) -> dict:
    import numpy
    from bellpoly import exactlin

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "exactlin_backend": f"{exactlin.QQ.__module__}.{exactlin.QQ.__qualname__}",
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# Start-up: setup_s and the cli start-up breakdown
# ---------------------------------------------------------------------------


def time_until_ready(code: str, env: dict) -> tuple[float, float]:
    """(wall, host-normalised) seconds from spawning a fresh interpreter
    running ``code`` until it reports ready."""
    def spawn():
        proc = subprocess.Popen([sys.executable, "-c", code + "; print('ready', flush=True)"],
                                cwd=ROOT, env=env, stdout=subprocess.PIPE)
        return proc, proc.stdout.readline()

    (proc, line), wall, normalised = hostspeed.timed(spawn)
    with proc:
        proc.stdout.read()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise SetupFailed(f"set-up interpreter failed running {code!r}")
    return wall, normalised


def measure_setup(code: str, env: dict) -> list[tuple[float, float]]:
    time_until_ready(code, env)  # fills the bytecode and file caches
    return [time_until_ready(code, env) for _ in range(SETUP_RUNS)]


def interpreter_ms(env: dict) -> float:
    def once() -> float:
        start = now()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        return now() - start

    return statistics.median(once() for _ in range(PROBE_RUNS)) * 1e3


def import_ms(env: dict) -> tuple[float, float]:
    """(numpy, bellpoly) cumulative import times in ms of ``import
    bellpoly.cli`` from ``-X importtime``; bellpoly's includes numpy."""
    numpy_us, bellpoly_us = [], []
    for _ in range(PROBE_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bellpoly.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        numpy_total = bellpoly_total = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative, name = int(parts[1]), parts[2]
            top_level = len(name) - len(name.lstrip()) == 1
            if name.strip() == "numpy":
                numpy_total = cumulative
            if top_level and name.strip().split(".")[0] == "bellpoly":
                bellpoly_total += cumulative
        numpy_us.append(numpy_total)
        bellpoly_us.append(bellpoly_total)
    return statistics.median(numpy_us) / 1e3, statistics.median(bellpoly_us) / 1e3


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def timed(fn, item):
    """(output or exception, wall seconds, host-normalised seconds)."""
    def call():
        try:
            return fn(item)
        except Exception as exc:  # a failed item; counted, never fatal
            return exc

    return hostspeed.timed(call)


def problem(workload, item, out) -> str | None:
    """Why ``out`` is wrong for ``item``, or None when it is right."""
    if not isinstance(out, Exception):
        try:
            workload.check(item, out)
            return None
        except Exception as exc:
            out = exc
    return "".join(traceback.format_exception_only(type(out), out)).strip()


def run_plain(workload, seconds: float):
    samples, failures = [], []
    items = workload.items()
    deadline = now() + seconds
    while now() < deadline:
        item = next(items)
        out, wall, normalised = timed(workload.run, item)
        samples.append((item, wall, normalised))
        found = problem(workload, item, out)
        if found:
            failures.append(found)
    return samples, failures


def run_traced(workload, seconds: float, tracer):
    """Each item untraced and traced in process (alternating order); for
    cli-cold, also once in a fresh interpreter, timed per subcommand."""
    samples, failures = [], []
    cold = defaultdict(list)
    plain_s = traced_s = 0.0
    items = workload.items()
    deadline = now() + seconds
    while now() < deadline:
        item = next(items)
        index = len(samples)
        problems = []
        if workload.spawns:
            out, wall, _ = timed(workload.run, item)
            cold[item.command].append(wall)
            problems.append(problem(workload, item, out))
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.item = index
                with spans.installed(tracer):
                    out, _, normalised = timed(workload.call, item)
                traced_s += normalised
            else:
                out, wall, normalised = timed(workload.call, item)
                plain_s += normalised
                samples.append((item, wall, normalised))
            problems.append(problem(workload, item, out))
        found = [p for p in problems if p]
        if found:
            failures.append(found[0])
    return samples, failures, cold, plain_s / traced_s


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def item_figures(durations: list[float]) -> dict:
    p90 = statistics.quantiles(durations, n=10)[8] if len(durations) > 1 else durations[0]
    return {
        "items_per_s": (len(durations) / sum(durations), "1/s"),
        "item_ms_p50": (statistics.median(durations) * 1e3, "ms"),
        "item_ms_p90": (p90 * 1e3, "ms"),
    }


def end_to_end(workload, samples, setup: list[tuple[float, float]]) -> dict:
    """Host-normalised times (see hostspeed.timed) and peak memory."""
    who = resource.RUSAGE_CHILDREN if workload.spawns else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(n for _, n in setup), "s"),
        **item_figures([n for _, _, n in samples]),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def wall_figures(samples, setup: list[tuple[float, float]]) -> dict:
    """The same times as measured, before host normalisation."""
    figures = {"setup_s": (statistics.median(w for w, _ in setup), "s"),
               **item_figures([w for _, w, _ in samples])}
    return {name: value for name, (value, _) in figures.items()}


def per_layer(tracer, items: int, overhead: float, cold: dict, calibration_ms: float) -> dict:
    from workloads import SUBCOMMANDS, child_env

    env = child_env(ROOT)
    numpy_ms, bellpoly_ms = import_ms(env)
    out = tracer.layer_metrics(items)
    out["cli.interpreter_ms"] = (interpreter_ms(env), "ms")
    out["cli.import_numpy_ms"] = (numpy_ms, "ms")
    out["cli.import_bellpoly_ms"] = (bellpoly_ms, "ms")
    for command in SUBCOMMANDS:
        times = cold.get(command)
        out[f"cli.{command}.ms_p50"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    out["host.calibration_ms"] = (calibration_ms, "ms")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bellpoly" / "__init__.py").is_file():
        print(f"bench: no bellpoly sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bellpoly

    if Path(bellpoly.__file__).resolve().parent != (SRC / "bellpoly").resolve():
        print(f"bench: imported bellpoly from {bellpoly.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, OUT)
        record = metadata(args)
        record["pinned_cpu"] = pin_to_one_cpu()
        record["calibration_ms"] = hostspeed.calibrate()
        setup = measure_setup(workload.setup_code, workloads.child_env(ROOT))
        exec(workload.setup_code, {})  # the same lazy tables, in this process
    except (OSError, SetupFailed, subprocess.CalledProcessError) as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 2
    record["setup_s_samples"] = {"wall": [w for w, _ in setup], "normalised": [n for _, n in setup]}

    if args.trace:
        tracer = spans.Tracer()
        samples, failures, cold, overhead = run_traced(workload, args.seconds, tracer)
        metrics = per_layer(tracer, len(samples), overhead, cold, record["calibration_ms"])
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.tsv"
        record["spans"] = {"file": str(spans_path.relative_to(ROOT)), "count": tracer.write(spans_path)}
    else:
        samples, failures = run_plain(workload, args.seconds)
        metrics = end_to_end(workload, samples, setup)
        record["wall"] = wall_figures(samples, setup)

    record["samples"] = len(samples)
    record["failed_ratio"] = {"value": len(failures) / len(samples), "unit": "ratio"}
    record["failures"] = failures[:5]
    record.update(workload.extra(samples))
    for failure in failures[:5]:
        print(f"bench: failed item: {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
