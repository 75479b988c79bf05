"""Shared measurement machinery for the perfbench workloads.

Everything here wraps *public* calls of :mod:`repro`; nothing reaches
into the package to instrument it.  The pieces:

- :class:`Layers` — the benchmark's own busy-time spans, one bucket per
  repo layer, opened around each public call a workload makes;
- :func:`time_setup` — set-up time as the median of repeated set-ups;
- :func:`sign_off` — far-tail yield estimation over fitted models, the
  step every workload ends with (latency per call, relative error
  against the model's analytic tail);
- :class:`TraceCapture` — the traced run: it activates a
  :class:`~repro.runtime.telemetry.TelemetrySession`, reads what the
  program already emits (``metrics.snapshot()``, merged pool worker
  traces) and charges per-phase self time with
  :func:`~repro.runtime.telemetry.analyze_trace`;
- :func:`check_repeat` — work counts of a traced run must repeat
  exactly across runs at one seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

from repro.runtime import telemetry
from repro.yield_est import estimate_yield

#: Simulator-call budget per estimate.
SIGN_OFF_BUDGET = 4096

#: Import statement timed (in a fresh interpreter) as part of set-up.
IMPORTS = (
    "import repro.circuits.characterize, repro.ssta.propagate, "
    "repro.yield_est, repro.liberty, repro.runtime.pool"
)


class Layers:
    """Busy seconds per repo layer, from spans around public calls."""

    def __init__(self) -> None:
        self.busy: dict[str, float] = {}

    @contextmanager
    def span(self, layer: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.busy[layer] = self.busy.get(layer, 0.0) + (
                time.perf_counter() - started
            )

    def get(self, layer: str) -> float:
        return self.busy.get(layer, 0.0)


@dataclass
class Tally:
    """Units attempted and failed, plus invariant violations."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"perfbench: check failed: {message}", file=sys.stderr)


def unit_seed(seed: int, unit: int) -> int:
    """Input seed of one unit of a run (distinct units, same run seed)."""
    return seed * 1000 + unit


def median(values) -> float:
    return float(statistics.median(values))


def time_setup(root: Path, build, repeats: int = 3):
    """Median set-up time, and the state of the last set-up.

    Each repetition imports the program in a fresh interpreter (the
    import cost a user pays per process) and then runs ``build()`` in
    this process (engine construction and warm-up).
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    imports, builds = [], []
    state = None
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", IMPORTS], env=env, check=True
        )
        imports.append(time.perf_counter() - started)
        started = time.perf_counter()
        state = build()
        builds.append(time.perf_counter() - started)
    return median(imports) + median(builds), state


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    Pool workers are joined inside each pass.  What outlives a pass is
    the resource tracker that ``multiprocessing`` starts with the first
    spawned worker: left alone, it exits only after this process does.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class SignOff:
    """Results of the yield sign-off calls of a run.

    With ``normalize`` each call's latency is scaled by
    ``REFERENCE_S / r``, where ``r`` is the wall time of
    :func:`reference_kernel` run right after the call: the speed of a
    shared box flips between states that last seconds, and a ratio of
    two timings taken within milliseconds of each other cancels most
    of it.  A latency then reads in milliseconds of a machine on which
    the kernel takes ``REFERENCE_S``.
    """

    normalize: bool = True
    latencies: list[float] = field(default_factory=list)
    rel_errors: list[float] = field(default_factory=list)
    samples: int = 0
    ess: float = 0.0
    skipped_targets: int = 0


#: Nominal wall time of :func:`reference_kernel`, seconds.
REFERENCE_S = 1e-3


def reference_kernel() -> float:
    """Wall time of fixed numpy work shaped like one yield estimate.

    It uses no code of the program, so a change to the program cannot
    move it.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(12345)
    for _ in range(4):
        x = rng.standard_normal(8192)
        w = np.exp(-0.5 * x * x) / (1.0 + np.abs(x))
        np.log1p(w).sum()
        np.sort(x)
    return time.perf_counter() - started


def sign_off(models, seed, layers: Layers, tally: Tally, out: SignOff,
             plan, repeats: int) -> None:
    """Estimate the k-sigma failure probability of every model.

    ``plan`` pairs each engine with the sigma levels it runs at.  The
    target ``T`` of each model is its sigma-equivalent quantile,
    ``P(t > T) = Phi(-k)``.  (``mu + k sigma`` of a bimodal cell model
    can sit where the tail mass is ~1e-12, past what a 4096-call budget
    resolves.)  An estimate passes its check when it is finite and
    positive; its relative error is taken against the model's ``sf``.
    """
    gc.collect()
    for index, model in enumerate(models):
        for e_index, (engine, sigmas) in enumerate(plan):
            for k in sigmas:
                tail = 0.5 * math.erfc(k / math.sqrt(2.0))
                threshold = float(model.ppf(np.asarray(1.0 - tail)))
                truth = float(model.sf(threshold))
                if not truth > 0.0:
                    # ``model.ppf`` can stop on a step of a defective
                    # component CDF, where ``sf`` is 0 (one cell model
                    # in about 4000): such a target cannot be scored.
                    out.skipped_targets += 1
                    continue
                for repeat in range(repeats):
                    rng = np.random.default_rng(
                        [seed, index, e_index, round(k * 10), repeat]
                    )
                    started = time.perf_counter()
                    with layers.span("yield_est"):
                        estimate = estimate_yield(
                            model,
                            threshold,
                            engine=engine,
                            budget=SIGN_OFF_BUDGET,
                            rng=rng,
                        )
                    elapsed = time.perf_counter() - started
                    if out.normalize:
                        elapsed *= REFERENCE_S / reference_kernel()
                    out.latencies.append(elapsed)
                    out.samples += estimate.n_samples
                    out.ess += estimate.ess
                    p = estimate.failure_probability
                    ok = math.isfinite(p) and p > 0.0
                    tally.add(1, 0 if ok else 1)
                    if ok:
                        out.rel_errors.append(abs(p - truth) / truth)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
class TraceCapture:
    """Counters and per-phase self time of one or more traced segments.

    Each segment activates its own session; pool runs inside a segment
    write per-worker traces that :func:`run_pool` merges, and
    :meth:`add_trace_file` folds those in.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.iterations: list[dict] = []
        self.yield_samples = 0.0
        self.phases: dict[str, float] = {}

    @contextmanager
    def segment(self):
        session = telemetry.TelemetrySession()
        with telemetry.activate(session):
            yield session
        self._fold(
            session.metrics.snapshot(), list(session.tracer.records())
        )

    def add_trace_file(self, path: str) -> None:
        data = telemetry.load_trace(path)
        self._fold(data.metrics, data.spans)

    def _fold(self, snapshot: dict, spans) -> None:
        for name, value in snapshot.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        histograms = snapshot.get("histograms", {})
        iterations = histograms.get("em.iterations", {})
        if iterations.get("count"):
            self.iterations.append(iterations)
        samples = histograms.get("yield.samples", {})
        if samples.get("count"):
            self.yield_samples += samples["count"] * samples["mean"]
        analysis = telemetry.analyze_trace(telemetry.TraceData(spans=spans))
        for phase in analysis.phases:
            self.phases[phase.phase] = (
                self.phases.get(phase.phase, 0.0) + phase.wall
            )

    def counter(self, name: str) -> float:
        return float(self.counters.get(name, 0))

    def em_iterations(self) -> tuple[int, float, float]:
        """Summed iterations and count-weighted p50 / p90."""
        total = sum(h["count"] * h["mean"] for h in self.iterations)
        count = sum(h["count"] for h in self.iterations)
        if not count:
            return 0, 0.0, 0.0
        p50 = sum(h["count"] * h["p50"] for h in self.iterations) / count
        p90 = sum(h["count"] * h["p90"] for h in self.iterations) / count
        return int(round(total)), p50, p90

    def phase(self, name: str) -> float:
        return self.phases.get(name, 0.0)


def ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def per_layer(capture: TraceCapture, layers: Layers, extra: dict,
              sign: SignOff, timed_wall: float, untraced_wall: float,
              models_fits: int, degraded: int,
              liberty_bytes: int) -> dict:
    """Assemble every per-layer metric from one traced run."""
    em_fits = capture.counter("em.fits")
    iters_total, iters_p50, iters_p90 = capture.em_iterations()
    em_self = capture.phase("em")
    mc_samples = capture.counter("mc.samples") + extra.get("path_samples", 0)
    liberty_busy = layers.get("liberty")
    yield_busy = layers.get("yield_est")
    covered = sum(
        layers.get(name)
        for name in ("circuits", "models", "liberty", "ssta", "yield_est",
                     "pool")
    )
    metrics = {
        "circuits.busy_s": (layers.get("circuits"), "s"),
        "circuits.mc_samples": (mc_samples, "count"),
        "circuits.us_per_sample": (
            ratio(layers.get("circuits"), mc_samples, 1e6), "us"),
        "models.busy_s": (layers.get("models"), "s"),
        "models.fits": (models_fits, "count"),
        "models.ms_per_fit": (
            ratio(layers.get("models"), models_fits, 1e3), "ms"),
        "stats.em_fits": (em_fits, "count"),
        "stats.em_iters_total": (iters_total, "count"),
        "stats.em_iters_p50": (iters_p50, "count"),
        "stats.em_iters_p90": (iters_p90, "count"),
        "stats.em_capped_frac": (
            ratio(capture.counter("em.nonconverged"), em_fits), "ratio"),
        "stats.us_per_em_iter": (ratio(em_self, iters_total, 1e6), "us"),
        "stats.em_self_s": (em_self, "s"),
        "stats.kmeans_self_s": (capture.phase("kmeans"), "s"),
        "stats.moments_self_s": (capture.phase("moments"), "s"),
        "policy.degraded": (degraded, "count"),
        "liberty.busy_s": (liberty_busy, "s"),
        "liberty.bytes": (liberty_bytes, "B"),
        "liberty.mb_per_s": (
            ratio(liberty_bytes, liberty_busy, 1e-6), "MB/s"),
        "ssta.self_s": (capture.phase("ssta"), "s"),
        "ssta.stages": (capture.counter("ssta.stages_propagated"), "count"),
        "yield_est.busy_s": (yield_busy, "s"),
        "yield_est.estimates": (capture.counter("yield.estimates"), "count"),
        "yield_est.samples": (capture.yield_samples, "count"),
        "yield_est.us_per_sample": (
            ratio(yield_busy, capture.yield_samples, 1e6), "us"),
        "yield_est.ess_frac": (ratio(sign.ess, sign.samples), "ratio"),
        "pool.busy_s": (layers.get("pool"), "s"),
        "pool.items": (capture.counter("pool.items"), "count"),
        "pool.parent_computed": (
            capture.counter("pool.parent_computed"), "count"),
        "pool.reclaimed": (capture.counter("pool.reclaimed"), "count"),
        "pool.respawned": (capture.counter("pool.respawned"), "count"),
        "checkpoint.hits": (capture.counter("checkpoint.hit"), "count"),
        "checkpoint.misses": (capture.counter("checkpoint.miss"), "count"),
        "checkpoint.files": (extra.get("checkpoint_files", 0), "count"),
        "checkpoint.bytes": (extra.get("checkpoint_bytes", 0), "B"),
        "fs.retries": (capture.counter("fs.retries"), "count"),
        "trace.wall_s": (timed_wall, "s"),
        "trace.coverage_frac": (ratio(covered, timed_wall), "ratio"),
        "trace.overhead_frac": (
            ratio(timed_wall, untraced_wall) - 1.0, "ratio"),
    }
    return metrics


def repeat_counts(metrics: dict) -> dict:
    """The work counts that must repeat exactly at one seed."""
    return {
        name: metrics[name][0]
        for name in ("stats.em_fits", "stats.em_iters_total",
                     "circuits.mc_samples", "ssta.stages")
    }


def source_digest(root: Path) -> str:
    """Digest of program and benchmark sources; keys repeat records."""
    digest = hashlib.sha256()
    sources = [
        *(root / "src" / "repro").rglob("*.py"),
        *(root / "perfbench").glob("*.py"),
    ]
    for path in sorted(sources):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeat(root: Path, key: str, counts: dict, tally: Tally) -> None:
    """Compare ``counts`` with an earlier traced run of the same key.

    The first traced run of a (workload, seed, program) key records its
    counts under ``.perfbench-state/``; later ones must match exactly.
    """
    state_dir = root / ".perfbench-state"
    state_dir.mkdir(exist_ok=True)
    path = state_dir / f"{key}.json"
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded != counts:
            tally.problem(
                f"work counts changed at one seed: {recorded} -> {counts}"
            )
        return
    path.write_text(json.dumps(counts, sort_keys=True))


def directory_usage(directory: Path, pattern: str) -> tuple[int, int]:
    """Number and total size of files matching ``pattern``."""
    files = list(directory.glob(pattern))
    return len(files), sum(path.stat().st_size for path in files)
