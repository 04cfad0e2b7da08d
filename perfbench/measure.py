"""Timed and traced passes over one workload's targets.

Each target goes through ``harness.run_experiment`` on its own, closed
loop, one at a time in this process, with the attack seed
``run_experiment`` would give it in the evaluation set.  The untraced run
cycles over the targets until the time is up (at least one full pass),
with a new attack seed on each pass; quality metrics come from the first
pass, so they are exact functions of the seed.  After the timed part it
attacks the first target again and checks that the outcome repeats.  The
traced run makes one untraced and one traced pass over the
same targets, checks that both report the same outcomes, and derives
the per-layer metrics from the traced pass.

End-to-end timings are expressed at a fixed host speed: a reference
kernel is timed between consecutive attempts and each attempt's wall time
is scaled by the readings around it (``hostspeed.py`` says why).  The
raw wall-clock figures are printed beside them, ungated.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import blackedge
from blackedge import harness

from gate import check_target
from hostspeed import REFERENCE_S, ReferenceClock
from tracing import PHASES, Tracer, layer_metrics
from workloads import Workload, build

SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import numpy, blackedge; "
                "print(time.perf_counter() - t)")
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Pass:
    """Outcome of attacking a sequence of targets."""

    rows: list[dict] = field(default_factory=list)  # run_experiment rows
    walls: list[float] = field(default_factory=list)  # seconds per target
    scaled: list[float] = field(default_factory=list)  # the same at the reference speed
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.walls)


class ResultCapture:
    """Keeps the AttackResult objects ``run_experiment`` aggregates.

    The report rows omit the adversarial graph, which the gate needs.
    """

    def __init__(self):
        self.results = []

    def __enter__(self):
        self._original = harness.aggregate_metrics

        def capture(results):
            self.results = list(results)
            return self._original(results)

        harness.aggregate_metrics = capture
        return self

    def __exit__(self, *exc):
        harness.aggregate_metrics = self._original
        return False


def outcome(row: dict) -> tuple:
    """The deterministic part of a report row."""
    return (row["success"], row["flips_added"], row["flips_removed"],
            tuple(sorted(row["queries"].items())))


def attack_target(w: Workload, position: int, capture: ResultCapture, out: Pass,
                  tracer: Tracer | None = None) -> dict | None:
    """Attack ``w.targets[position]``, time it, gate it, and record it.

    Positions past the last target start further passes over the targets,
    each with its own attack seed.
    """
    k = len(w.targets)
    idx, graph, y0 = w.targets[position % k]
    if tracer is not None:
        tracer.begin_target(position)
    capture.results = []
    wall = None
    start = time.perf_counter()
    try:
        report = harness.run_experiment(
            w.oracle, [graph], w.target_cfg(idx, position // k), method=w.method,
            random_query_budget=w.random_query_budget,
        )
        wall = time.perf_counter() - start
        row = report.per_graph[0]
        problems = check_target(w, graph, y0, row, capture.results[0])
    except Exception as exc:  # a raising target is a failed operation, not a crash
        if wall is None:
            wall = time.perf_counter() - start
        row, problems = None, [f"raised {type(exc).__name__}: {exc}"]
    out.walls.append(wall)
    out.rows.append(row)
    if problems:
        out.failed += 1
        print(f"target {idx}: " + "; ".join(problems), file=sys.stderr)
    return row


def attack_scaled(w: Workload, position: int, capture: ResultCapture, out: Pass,
                  clock: ReferenceClock, tracer: Tracer | None = None):
    """``attack_target``, with the attempt's time at the reference speed too.

    The kernel is read after the attempt; the reading before it is the
    clock's last one.
    """
    before = clock.readings[-1]
    attack_target(w, position, capture, out, tracer)
    out.scaled.append(clock.scale(out.walls[-1], before, clock.read()))


def warm_up(w: Workload):
    """One tiny attack, so lazy set-up (caches, LAPACK) happens untimed."""
    idx, graph, _ = w.targets[0]
    cfg = replace(w.target_cfg(idx), iterations=1, directions_per_step=4)
    budget = 16 if w.random_query_budget is not None else None
    harness.run_experiment(w.oracle, [graph], cfg, method=w.method,
                           random_query_budget=budget)


def import_s(clock: ReferenceClock) -> tuple[float, float]:
    """Median seconds to import numpy and blackedge in a fresh interpreter.

    Returns (wall, scaled): the child times its own imports, and the
    parent reads the reference kernel before and after each child.
    """
    src = str(Path(blackedge.__file__).resolve().parent.parent)
    walls, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = clock.read()
        wall = float(subprocess.run([sys.executable, "-c", IMPORT_PROBE, src],
                                    capture_output=True, text=True, check=True,
                                    timeout=60).stdout)
        walls.append(wall)
        scaled.append(clock.scale(wall, before, clock.read()))
    return statistics.median(walls), statistics.median(scaled)


def timed_build(name: str, seed: int,
                clock: ReferenceClock) -> tuple[Workload, float, float]:
    """Build the workload ``SETUP_REPEATS`` times.

    Returns the workload and the median (wall, scaled) seconds per build.
    """
    walls, scaled = [], []
    for _ in range(SETUP_REPEATS):
        w, wall, at_ref = clock.timed(lambda: build(name, seed))
        walls.append(wall)
        scaled.append(at_ref)
    return w, statistics.median(walls), statistics.median(scaled)


def per_target_weights(attempts: int, k: int) -> np.ndarray:
    """Weight of each attempt so that each of the ``k`` targets counts once.

    A run ends part-way through a pass, after more passes on a faster
    host; without the weights, which targets the last pass reached would
    move the timings.
    """
    counts = np.bincount(np.arange(attempts) % k, minlength=k)
    return 1.0 / counts[np.arange(attempts) % k]


def timing(times: list[float], k: int) -> tuple[float, float, float]:
    """Targets per second, median and p90 of per-target seconds.

    Each target of the pass weighs the same, however many attempts it had.
    """
    t = np.asarray(times)
    weights = per_target_weights(len(t), k)
    per_target = np.bincount(np.arange(len(t)) % k, weights=t * weights, minlength=k)
    p50, p90 = np.percentile(t, [50, 90], weights=weights, method="inverted_cdf")
    return float(k / per_target.sum()), float(p50), float(p90)


def quality(rows: list[dict]) -> dict[str, tuple[float, str]]:
    """AQ, SR and AP over the rows of one pass (a None row raised)."""
    done = [r for r in rows if r is not None]
    wins = [r for r in done if r["success"]]
    flips = [r["flips_added"] + r["flips_removed"] for r in wins]
    return {
        "queries_per_target": (
            float(np.mean([r["queries"]["total"] for r in done])) if done else 0.0, "queries"),
        "success_rate": (len(wins) / len(rows), "fraction"),
        "flips_per_success": (float(np.mean(flips)) if flips else 0.0, "flips"),
    }


def host_info(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def run_untraced(name: str, seed: int, seconds: float):
    """End-to-end metrics: cycle over the targets for ``seconds``."""
    clock = ReferenceClock()
    w, build_wall, build_s = timed_build(name, seed, clock)
    warm_up(w)
    k = len(w.targets)
    timed = Pass()
    with ResultCapture() as capture:
        start = time.perf_counter()
        clock.read()
        while timed.attempted < k or time.perf_counter() - start < seconds:
            attack_scaled(w, timed.attempted, capture, timed, clock)
        again = Pass()
        attack_target(w, 0, capture, again)
        timed.failed += again.failed
        if None not in (timed.rows[0], again.rows[0]) and \
                outcome(timed.rows[0]) != outcome(again.rows[0]):
            timed.failed += 1
            print("target 0: repeat attack changed its outcome", file=sys.stderr)
    import_wall, import_scaled = import_s(clock)
    rate, p50, p90 = timing(timed.scaled, k)
    wall_rate, wall_p50, wall_p90 = timing(timed.walls, k)
    metrics = {
        "targets_per_s.norm": (rate, "targets/s"),
        # About half the GIN targets stop early, so the median falls between
        # or inside the two modes and moves with the attack seed; p90 sits
        # among the targets that run the full descent.
        "target_s.p90.norm": (p90, "s"),
    }
    metrics.update(quality(timed.rows[:k]))
    metrics["setup_s"] = (import_scaled + build_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    notes = {
        "targets_per_pass": (k, "targets"),
        "target_s.samples": (timed.attempted, "attempts"),
        "target_s.p50.norm": (p50, "s"),
        "wall.targets_per_s": (wall_rate, "targets/s"),
        "wall.target_s.p50": (wall_p50, "s"),
        "wall.target_s.p90": (wall_p90, "s"),
        "wall.setup_s": (import_wall + build_wall, "s"),
        "reference_kernel_ms.median": (1e3 * statistics.median(clock.readings), "ms"),
        "host_slowdown": (statistics.median(clock.readings) / REFERENCE_S, "ratio"),
        "failed_share": (timed.failed / timed.attempted, "fraction"),
    }
    return timed.attempted, timed.failed, metrics, notes


def run_traced(name: str, seed: int):
    """Per-layer metrics from one traced pass, checked against an untraced one."""
    w = build(name, seed)
    warm_up(w)
    k = len(w.targets)
    plain, traced = Pass(), Pass()
    clock = ReferenceClock()
    clock.read()
    with ResultCapture() as capture:
        for position in range(k):
            attack_scaled(w, position, capture, plain, clock)
        with Tracer() as tracer:
            for position in range(k):
                attack_scaled(w, position, capture, traced, clock, tracer)
    failed = plain.failed + traced.failed
    counts = tracer.phase_counts(k)
    for position, (a, b) in enumerate(zip(plain.rows, traced.rows)):
        if a is None or b is None:
            continue
        if outcome(a) != outcome(b):
            failed += 1
            print(f"target {position}: traced run changed the outcome", file=sys.stderr)
        elif [b["queries"][p] for p in PHASES] != counts[position].tolist():
            failed += 1
            print(f"target {position}: queries seen at classify {counts[position].tolist()} "
                  f"differ from the ledger", file=sys.stderr)
    metrics = layer_metrics(tracer, k)
    # scaled times: the host's speed may change between the two passes
    metrics["trace.overhead"] = (sum(traced.scaled) / sum(plain.scaled), "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{name}-seed{seed}.npz",
                {"workload": name, **host_info(seed)})
    notes = {"targets_per_pass": (k, "targets"), "failed_share": (failed / (2 * k), "fraction"),
             **{f"traced.{key}": q for key, q in quality(traced.rows).items()}}
    return plain.attempted + traced.attempted, failed, metrics, notes
