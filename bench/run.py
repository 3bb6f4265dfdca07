"""curvespec benchmark: closed-loop, single-process calls into the CLI.

    python3 bench/run.py --workload {check,compute,lines} --seed N
                         --seconds S --trace {0,1}

One client calls ``curvespec.cli.main`` in process; the next unit starts
when the previous one returns.  A unit is one CLI call on one input:

* ``check``   -- ``check --count 1 --seed s_i``, s_i drawn from the seed;
                 expects ``1/1 ok``.
* ``compute`` -- ``compute <file>`` on stored arrangement files.
* ``lines``   -- ``lines <file>`` on stored line files.

Stored inputs come with their expected stdout (see build_data.py).  A unit
fails on a wrong stdout, any stderr, a nonzero exit or an exception.

Times are given at a reference machine speed.  On a shared 2-vCPU host the
speed of interpreted code drifts by up to a third within seconds, and a
fixed loop slows down with the program.  So every unit (and every set-up
round) is followed by runs of a fixed reference loop
(harness.reference_seconds), at least one and at least REFERENCE_SHARE of
the unit's time, and its wall time is scaled by REFERENCE_MS over the
median time of the reference runs that ended from REFERENCE_WINDOW_S
before the unit to REFERENCE_WINDOW_S after it.  The detail line also
gives the unscaled wall-clock figures.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes over a fixed unit
list and reports the per-layer metrics (tracer.py), in unscaled wall
time.  Earlier stdout lines give the environment and details; the last
line is the result object.  Exit code 2 means there was no program to
measure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from bisect import bisect_left, bisect_right
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import harness  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 7
SETUP_REFERENCES = 11  # reference loops after each set-up round
REFERENCE_MS = 0.8  # nominal time of one reference loop; fixes the speed times are scaled to
REFERENCE_SHARE = 0.03  # reference loops after a unit take at least this share of its time
REFERENCE_WINDOW_S = 0.1  # a unit is scaled by the references that ended from 0.1 s before it to 0.1 s after
MIN_UNITS = 100  # so that at least ten samples lie beyond p90
CHECK_PASS = 20  # check units per pass of the untraced loop
CHECK_TRACE_UNITS = 100
CHECK_WARMUP_SEEDS = (1, 2, 3)

END_TO_END = (
    ("units_per_s", "1/s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

_STAT_METRICS = (
    ("riemann_roch.spectrum_via_riemann_roch", ("calls", "ms", "self_ms")),
    ("riemann_roch.chern_tangent", ("calls", "ms")),
    ("riemann_roch.chern_cotangent_log", ("ms",)),
    ("riemann_roch.todd", ("ms",)),
    ("riemann_roch.wedge_ch", ("ms",)),
    ("riemann_roch.line_bundle_ch", ("calls", "ms")),
    ("cohomology.mul", ("calls", "self_ms")),
    ("cohomology.add", ("calls", "self_ms")),
    ("cohomology.inverse", ("calls", "self_ms")),
    ("formulas.spectrum_general", ("calls", "ms")),
    ("formulas.spectrum_reduced", ("ms",)),
    ("formulas.spectrum_smooth_components", ("ms",)),
    ("formulas.spectrum_hyperplane", ("ms",)),
    ("formulas.spectrum_irreducible_power", ("ms",)),
    ("binomial.binom", ("calls",)),
    ("binomial.ceil_div", ("calls",)),
    ("lines.load_lines", ("ms",)),
    ("lines.normalize_form", ("calls", "ms")),
    ("lines.incidence_graph", ("ms", "self_ms")),
    ("arrangement.load_arrangement", ("ms",)),
    ("arrangement.validate", ("calls", "ms")),
    ("arrangement.derived", ("calls", "ms")),
    ("randomgraphs.generate_graph", ("ms",)),
    ("randomgraphs.insert", ("ms",)),
    ("spectrum.construct", ("calls", "ms")),
    ("spectrum.eq", ("calls",)),
    ("spectrum.format_spectrum", ("ms",)),
    ("cli.main", ("ms", "self_ms")),
)
_UNIT = {"calls": "count", "ms": "ms", "self_ms": "ms"}
PER_LAYER = tuple(
    (f"{stat}.{field}", _UNIT[field]) for stat, fields in _STAT_METRICS for field in fields
) + (
    ("formulas.point_steps", "count"),
    ("formulas.type_steps", "count"),
    ("formulas.type_share", "ratio"),
    ("lines.pairs", "count"),
    ("lines.points", "count"),
    ("lines.pairs_per_point", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


# ---------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git without running git; None when
    the checkout is not a git repository."""
    git = harness.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((harness.SRC / "curvespec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------


class Workload:
    """Units of one workload for one seed: (argv, expected stdout) pairs."""

    def __init__(self, name: str, seed: int, work_dir: Path):
        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self.inputs: list[dict] = []
        self.warmup: list[dict] = []

    def prepare(self) -> None:
        """Load the pool, relabel it for this seed and write the files."""
        if self.name == "check":
            return
        pool = gen.load_pool(self.name)
        self.inputs = gen.seeded_inputs(self.name, self.seed, pool)
        # Warm-up uses the same small stored inputs for every seed.
        first_size = min(item["stratum"][-1] for item in pool)
        self.warmup = [i for i in pool if i["variant"] == 0 and i["stratum"][-1] == first_size]
        self.work_dir.mkdir(parents=True, exist_ok=True)
        for prefix, items in (("unit", self.inputs), ("warmup", self.warmup)):
            for index, item in enumerate(items):
                item["path"] = str(self.work_dir / f"{prefix}-{index}.json")
                with open(item["path"], "w", encoding="utf-8") as fh:
                    json.dump(item["input"], fh)

    def _unit(self, item: dict) -> tuple[list[str], str]:
        return [self.name, item["path"]], item["stdout"]

    def warmup_units(self) -> list:
        if self.name == "check":
            return [_check_unit(s) for s in CHECK_WARMUP_SEEDS]
        return [self._unit(item) for item in self.warmup]

    def passes(self):
        """Endless passes of units; every compute or lines pass is the
        whole pool, every check pass the next CHECK_PASS seeds."""
        if self.name == "check":
            seeds = gen.check_seeds(self.seed)
            while True:
                yield [_check_unit(s) for s in islice(seeds, CHECK_PASS)]
        units = [self._unit(item) for item in self.inputs]
        while True:
            yield units

    def trace_units(self) -> list:
        if self.name == "check":
            return [_check_unit(s) for s in islice(gen.check_seeds(self.seed), CHECK_TRACE_UNITS)]
        return [self._unit(item) for item in self.inputs]

    def line_stats(self) -> tuple[float, float]:
        """Mean line pairs and points per unit of the pool."""
        if self.name != "lines":
            return 0.0, 0.0
        n = len(self.inputs)
        return (
            sum(item["stats"]["pairs"] for item in self.inputs) / n,
            sum(item["stats"]["points"] for item in self.inputs) / n,
        )


def _check_unit(seed: int) -> tuple[list[str], str]:
    return ["check", "--count", "1", "--seed", str(seed)], "1/1 ok\n"


class Outcome:
    """Unit times, reference-loop times and failures of one phase."""

    def __init__(self):
        self.seconds: list[float] = []
        self.references: list[float] = []
        self.reference_ends: list[float] = []
        self.unit_ends: list[float] = []
        self.failures: list[str] = []

    def run(self, units) -> None:
        for argv, expected in units:
            code, out, err, secs = harness.call_cli(argv)
            self.unit_ends.append(time.perf_counter())
            self.seconds.append(secs)
            spent = 0.0
            while spent < REFERENCE_SHARE * secs or spent == 0.0:
                self.references.append(harness.reference_seconds())
                self.reference_ends.append(time.perf_counter())
                spent += self.references[-1]
            if code != 0 or err or out != expected:
                self.failures.append(f"{' '.join(argv)}: exit {code}, stdout {out[:80]!r}, stderr {err[:200]!r}")

    def scaled_ms(self) -> list[float]:
        """Unit times in ms at the reference speed."""
        refs, ends = self.references, self.reference_ends
        scaled = []
        for secs, end in zip(self.seconds, self.unit_ends):
            lo = bisect_left(ends, end - secs - REFERENCE_WINDOW_S)
            hi = bisect_right(ends, end + REFERENCE_WINDOW_S)
            scaled.append(secs * REFERENCE_MS / statistics.median(refs[lo:hi]))
        return scaled


# ---------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------


def setup(workload: Workload) -> tuple[list[float], list[float], Outcome]:
    """Set up SETUP_REPEATS times: import curvespec afresh, pick and write
    the inputs, warm up.  Returns the wall seconds of each round, the same
    at the reference speed, and the warm-up outcome."""
    wall, scaled = [], []
    warm = Outcome()
    for _ in range(SETUP_REPEATS):
        probes = sum(warm.references)
        start = time.perf_counter()
        harness.fresh_import()
        workload.prepare()
        warm.run(workload.warmup_units())
        wall.append(time.perf_counter() - start - (sum(warm.references) - probes))
        refs = [harness.reference_seconds() for _ in range(SETUP_REFERENCES)]
        scaled.append(wall[-1] * REFERENCE_MS / 1000 / statistics.median(refs))
    return wall, scaled, warm


def timed_loop(workload: Workload, seconds: float) -> tuple[Outcome, float]:
    """Closed loop over whole passes until `seconds` have passed and at
    least MIN_UNITS units ran (or three times `seconds`, whichever first)."""
    outcome = Outcome()
    start = time.perf_counter()
    for units in workload.passes():
        outcome.run(units)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(outcome.seconds) >= MIN_UNITS or elapsed >= 3 * seconds):
            return outcome, elapsed
    raise AssertionError("unreachable")


def traced_loop(workload: Workload, seconds: float) -> tuple[Outcome, Outcome, Tracer]:
    """Alternate untraced and traced passes over the same units until
    `seconds` have passed; at least one pair runs."""
    units = workload.trace_units()
    plain, traced, tracer = Outcome(), Outcome(), Tracer()
    start = time.perf_counter()
    while not traced.seconds or time.perf_counter() - start < seconds:
        plain.run(units)
        tracer.install()
        try:
            traced.run(units)
        finally:
            tracer.uninstall()
    return plain, traced, tracer


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: Workload, seconds: float, trace: bool) -> tuple[list, list, dict, dict]:
    """Set up, then run the timed or the traced phase.  Returns the phases
    whose failures count, the timed phases, the metrics and details."""
    setup_wall, setup_scaled, warm = setup(workload)
    # The collector then skips the benchmark's own long-lived objects, so a
    # unit pays only for the program's.
    gc.collect()
    gc.freeze()
    if trace:
        plain, traced, tracer = traced_loop(workload, seconds)
        units = len(traced.seconds)
        metrics = tracer.metrics(units)
        pairs, points = workload.line_stats()
        metrics["lines.pairs"] = pairs
        metrics["lines.points"] = points
        metrics["lines.pairs_per_point"] = pairs / points if points else 0.0
        metrics["trace.overhead_frac"] = sum(traced.scaled_ms()) / sum(plain.scaled_ms()) - 1
        results = {name: _metric(metrics[name], unit) for name, unit in PER_LAYER}
        detail = {"traced_units": units, "untraced_units": len(plain.seconds)}
        return [warm, plain, traced], [plain, traced], results, detail

    outcome, elapsed = timed_loop(workload, seconds)
    ms = outcome.scaled_ms()
    p90 = statistics.quantiles(ms, n=10)[8]
    values = {
        "units_per_s": len(ms) / (sum(ms) / 1000),
        "unit_ms_p50": statistics.median(ms),
        "unit_ms_p90": p90,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    results = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    wall_ms = [secs * 1000 for secs in outcome.seconds]
    detail = {
        "units": len(ms),
        "timed_s": elapsed,
        "p90_samples_beyond": sum(1 for x in ms if x > p90),
        "error_rate": len(outcome.failures) / len(ms),
        "reference_ms_median": statistics.median(outcome.references) * 1000,
        "wall_units_per_s": len(ms) / (sum(outcome.seconds)),
        "wall_unit_ms_p50": statistics.median(wall_ms),
        "wall_unit_ms_p90": statistics.quantiles(wall_ms, n=10)[8],
        "wall_setup_s": statistics.median(setup_wall),
        "setup_rounds_s": setup_scaled,
    }
    return [warm, outcome], [outcome], results, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="curvespec benchmark")
    parser.add_argument("--workload", choices=("check", "compute", "lines"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work_dir = harness.WORK_DIR / f"{args.workload}-{os.getpid()}"
    workload = Workload(args.workload, args.seed, work_dir)
    try:
        phases, timed, results, detail = measure(workload, args.seconds, bool(args.trace))
    except harness.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            harness.WORK_DIR.rmdir()
        except OSError:  # absent, or another run still uses it
            pass

    failures = [f for phase in phases for f in phase.failures]
    for failure in failures[:5]:
        print(f"failed unit: {failure}", file=sys.stderr)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        environment=environment(),
    )
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not failures,
        "attempted": sum(len(phase.seconds) for phase in timed),
        "failed": sum(len(phase.failures) for phase in timed),
        "metrics": results,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
