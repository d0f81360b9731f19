"""The repository benchmark: one command, seeded workloads, checked
verdicts, end-to-end metrics or a per-layer trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite-unroll --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each was chosen):
``suite-unroll``, ``suite-jsat``, ``deep-sweep`` and ``serve``.
``BENCHMARK.json`` gates all but ``deep-sweep``: the top percent of its
per-bound latencies are a handful of SAT-bound solves whose CDCL time
shifts with the variable numbering the build order gives them, so its
tail does not repeat from run to run.

``--trace 0`` measures with nothing wrapped and reports the end-to-end
metrics: ``setup_s`` (median of fresh processes started before the
run and after each pass, from process start until the first query
could be sent: imports, loading the compiled SAT core, generating the
inputs and, for ``serve``, booting the daemon), ``queries_per_s``,
``latency_p50_ms``, ``latency_tail_ms``, ``solved_frac``,
``peak_rss_mb`` and ``peak_db_literals`` (the paper's space metric:
the largest solver clause database of any query).  A run makes whole
passes over the workload's inputs until ``--seconds`` of measured time
are used.
Query times are scaled to a fixed reference speed of the host, sampled next
to the measured work with a piece of pure-Python work that shares no
code with the program (see ``_end_to_end``; the raw figures are in the
metadata).  Each query's time is its median over the passes; the
median latency and the tail (the highest percentile that leaves ten
queries beyond it) are taken over these, and throughput is the median
over the passes.

``--trace 1`` first runs the workload untraced for half the time, then
replays the same inputs with the layers' entry points wrapped
(``layers.py``), and reports per-layer self time, call counts and work
counters, the time no layer claimed (``unattributed_s``) and how much
the wrappers slowed the run (``trace_overhead_frac``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (each ``{"value", "unit"}``);
the line before it carries run metadata: the input fingerprint, the
SAT engine and its shared object, the tail percentile and its sample
counts, and the ``src/`` line count.  A wrong verdict prints
``"correct": false`` and exits 1; a run whose compiled SAT core is not
active exits 3 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Everything the benchmark writes (compiled core cache, compiler
# scratch files, daemon sockets and logs) stays under this directory
# of the checkout.
WORKDIR = os.path.join(ROOT, ".perfbench")
# Seconds ``workloads.speed_sample`` takes at the reference host speed
# that every reported time is scaled to (about a 2 GHz Xeon vCPU at its
# fastest; see ``_end_to_end``).
REFERENCE_SPEED_S = 100e-6

END_TO_END_UNITS = {
    "setup_s": "s", "queries_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "solved_frac": "frac", "peak_rss_mb": "MB",
    "peak_db_literals": "count",
}
PER_LAYER_UNITS = {
    "logic.encode_s": "s", "logic.encode_calls": "count",
    "logic.clauses": "count",
    "system.frame_s": "s", "system.frame_calls": "count",
    "sat.load_s": "s", "sat.load_calls": "count",
    "sat.solve_s": "s", "sat.solve_calls": "count",
    "sat.conflicts": "count", "sat.propagations": "count",
    "sat.decisions": "count", "sat.conflicts_per_s": "1/s",
    "sat.read_s": "s", "sat.read_calls": "count",
    "bmc.jsat_s": "s", "bmc.jsat_queries": "count",
    "bmc.jsat_cache_hit_frac": "frac",
    "bmc.driver_s": "s", "bmc.incremental_reuse_frac": "frac",
    "system.validate_s": "s",
    "models.build_s": "s",
    "reduce.self_s": "s", "reduce.calls": "count",
    "sim.presolve_s": "s", "sim.presolve_calls": "count",
    "serve.ack_ms_p50": "ms", "serve.overhead_ms_p50": "ms",
    "serve.cache_hit_frac": "frac", "serve.sim_answer_frac": "frac",
    "serve.failed": "count",
    "portfolio.worker_s": "s", "portfolio.worker_ms_p50": "ms",
    "portfolio.worker_busy_frac": "frac",
    "unattributed_s": "s", "trace_overhead_frac": "frac",
}


class EngineError(RuntimeError):
    """The compiled SAT core is not the engine in use."""


def _parse(argv):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one set-up sample, timed by the parent process.
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _environment() -> None:
    os.makedirs(os.path.join(WORKDIR, "tmp"), exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = os.path.join(WORKDIR, "cache")
    # The C compiler's scratch files too (first run builds the core).
    os.environ["TMPDIR"] = os.path.join(WORKDIR, "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


def _engine() -> dict:
    """Load the compiled core and prove it is the engine in use."""
    from repro.sat import ckernel
    from repro.sat.kernel import make_solver
    from repro.sat.types import resolve_engine
    lib = ckernel.load_core()
    engine_cls = type(make_solver())
    engine = (getattr(engine_cls, "backend", "reference")
              if resolve_engine() == "kernel" else "reference")
    if lib is None or engine != "compiled":
        raise EngineError(
            f"SAT engine is {engine!r}, not the compiled core; a "
            f"fallback would read as a several-fold slowdown")
    return {"engine": engine, "core": lib._name, "cls": engine_cls}


def _setup(workload: str, seed: int, tracer=None):
    if workload == "serve":
        # The client, the daemon and its worker (which inherit this)
        # share one processor.  On a virtual machine, a hand-off to a
        # process on the other, idle processor waits for the host to
        # wake it, and that wait swung serve's timings by more than
        # their bounds from one run to the next.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    engine = _engine()
    from workloads import make_workload
    if tracer is None:
        return engine, make_workload(workload, seed, WORKDIR)
    with tracer.span("models.build"):
        return engine, make_workload(workload, seed, WORKDIR)


def _probe(workload: str, seed: int) -> int:
    _, bench = _setup(workload, seed)
    if workload == "serve":
        from workloads import Daemon
        daemon = Daemon(WORKDIR)
        try:
            daemon.wait_ready()
            print("ready", flush=True)
        finally:
            problems = daemon.stop()
        if problems:
            print("; ".join(problems), file=sys.stderr)
            return 1
        return 0
    print("ready", flush=True)
    return 0


def _setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of a fresh process (start to "ready")."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload",
         workload, "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with code "
                           f"{proc.returncode}")
    return seconds


# Tail percentiles on offer; a workload reports the highest one that
# leaves at least ten samples beyond it within one pass of its inputs.
_TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0)


def _tail_pct(samples_per_pass: int) -> float:
    for pct in _TAIL_LADDER:
        if samples_per_pass * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def _percentile(values, pct: float):
    """Nearest-rank percentile; returns (value, samples beyond it)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    rank = int(min(rank, len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _src_lines() -> int:
    total = 0
    for base, _, files in os.walk(os.path.join(SRC, "repro")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(bench, rec, setup_samples, meta) -> dict:
    """Times are given at a fixed reference speed of the host.

    A shared host runs the same code up to ~1.5x slower in phases that
    last from seconds to many minutes, so the raw times of two runs of
    the same code differ by more than the bounds.  The workloads sample
    the host's speed next to the measured work, by timing a fixed piece
    of pure-Python work that shares no code with the program
    (``workloads.speed_sample``), and every query time is scaled by
    ``REFERENCE_SPEED_S`` over the speed sampled around it: the time
    the work would take on a host where that piece takes
    ``REFERENCE_SPEED_S``.  A change to the program moves scaled times
    exactly as much as raw ones; the raw figures are in the metadata.

    Every pass replays the same inputs in the same order, so sample
    ``j`` of every pass measures the same query; a query's time is its
    median over the passes, and the median latency and the tail are
    taken over these.  Throughput is the median over the passes of a
    pass's verified answers over its scaled measured time."""
    factor = [REFERENCE_SPEED_S / speed
              for speed in rec.smoothed_speed(bench.speed_window)]
    scaled = [lat * factor[i] for lat, i in zip(rec.latencies, rec.speed_at)]
    bounds, rates, raw_rates = [], [], []
    first = speed_first = 0
    for wall, verified, end, speed_end in rec.passes:
        scaled_wall = sum(rec.speed_wall[i] * factor[i]
                          for i in range(speed_first, speed_end))
        bounds.append((first, end))
        rates.append(verified / scaled_wall)
        raw_rates.append(verified / wall)
        first, speed_first = end, speed_end
    per_pass = bounds[0][1] - bounds[0][0]
    if any(b - a != per_pass for a, b in bounds):
        raise RuntimeError("passes measured different numbers of samples")

    def per_query(times):
        return [statistics.median(t)
                for t in zip(*(times[a:b] for a, b in bounds))]

    query_s = per_query(scaled)
    pct = _tail_pct(per_pass)
    tail, beyond = _percentile(query_s, pct)
    meta.update(
        passes=len(rec.passes), samples_per_pass=per_pass, tail_pct=pct,
        tail_samples_beyond=beyond,
        host_speed_us=statistics.median(rec.speed) * 1e6,
        raw={"queries_per_s": statistics.median(raw_rates),
             "latency_p50_ms":
                 statistics.median(per_query(rec.latencies)) * 1e3},
        setup_samples_s=setup_samples)
    values = {
        # Not scaled: set-up is mostly process start and imports, which
        # do not follow the calibration work's speed.
        "setup_s": statistics.median(setup_samples),
        "queries_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(query_s) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "solved_frac": rec.verified / rec.attempted,
        "peak_rss_mb": rec.peak_rss_mb,
        "peak_db_literals": rec.peak_db_literals,
    }
    return {name: _metric(values[name], unit)
            for name, unit in END_TO_END_UNITS.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _serve_layers(rec) -> dict:
    passes = rec.meta["daemon"]
    submitted = sum(p["submitted"] for p in passes)
    worker_s = rec.layer.get("worker_s", 0.0)
    return {
        "serve.ack_ms_p50": _median(rec.meta["ack_ms"]),
        "serve.overhead_ms_p50": _median(rec.meta["overhead_ms"]),
        "serve.cache_hit_frac": _ratio(
            sum(p["cache_answers"] for p in passes), submitted),
        "serve.sim_answer_frac": _ratio(
            sum(p["sim_answers"] for p in passes), submitted),
        "serve.failed": rec.failed,
        "portfolio.worker_s": worker_s,
        "portfolio.worker_ms_p50": _median(rec.meta["worker_ms"]),
        "portfolio.worker_busy_frac": _ratio(worker_s, rec.wall_s),
    }


def _per_layer(bench, tracer, plain, traced, setup_s: float) -> dict:
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    layer = traced.layer
    values = {name: 0 for name in PER_LAYER_UNITS}
    values.update({
        "logic.encode_s": self_s.get("logic.encode", 0.0),
        "logic.encode_calls": calls.get("logic.encode", 0),
        "logic.clauses": counts.get("logic.clauses", 0),
        "system.frame_s": self_s.get("system.frame", 0.0),
        "system.frame_calls": calls.get("system.frame", 0),
        "sat.load_s": self_s.get("sat.load", 0.0),
        "sat.load_calls": calls.get("sat.load", 0),
        "sat.solve_s": self_s.get("sat.solve", 0.0),
        "sat.solve_calls": calls.get("sat.solve", 0),
        "sat.conflicts": counts.get("sat.conflicts", 0),
        "sat.propagations": counts.get("sat.propagations", 0),
        "sat.decisions": counts.get("sat.decisions", 0),
        "sat.conflicts_per_s": _ratio(counts.get("sat.conflicts", 0),
                                      self_s.get("sat.solve", 0.0)),
        "sat.read_s": self_s.get("sat.read", 0.0),
        "sat.read_calls": calls.get("sat.read", 0),
        "bmc.jsat_s": self_s.get("bmc.jsat", 0.0),
        "bmc.jsat_queries": layer.get("jsat_queries", 0),
        # Every candidate state jSAT finds is looked up in its no-good
        # cache: a hit blocks it, a miss pushes a new frame.
        "bmc.jsat_cache_hit_frac": _ratio(
            layer.get("jsat_cache_hits", 0),
            layer.get("jsat_cache_hits", 0) + layer.get("jsat_pushes", 0)),
        "bmc.driver_s": self_s.get("bmc.driver", 0.0),
        "bmc.incremental_reuse_frac": _ratio(
            layer.get("clauses_reused", 0),
            layer.get("clauses_reused", 0)
            + layer.get("clauses_added", 0)),
        "system.validate_s": self_s.get("system.validate", 0.0),
        "models.build_s": self_s.get("models.build", 0.0),
        "reduce.self_s": self_s.get("reduce", 0.0),
        "reduce.calls": calls.get("reduce", 0),
        "sim.presolve_s": self_s.get("sim.presolve", 0.0),
        "sim.presolve_calls": calls.get("sim.presolve", 0),
        "trace_overhead_frac": traced.wall_s / plain.wall_s - 1.0,
    })
    # Spans opened during set-up are not part of the measured wall.
    claimed = tracer.attributed_s() - setup_s
    if bench.name == "serve":
        values.update(_serve_layers(traced))
        # The worker and the daemon run in other processes, partly
        # concurrently: what is left is protocol, IPC and queueing.
        claimed += values["portfolio.worker_s"]
    values["unattributed_s"] = traced.wall_s - claimed
    return {name: _metric(values[name], unit)
            for name, unit in PER_LAYER_UNITS.items()}


def _serve_steadiness(rec) -> bool:
    """Every pass replays the same requests: cache and sim answers
    should repeat exactly from pass to pass."""
    shapes = {(p["cache_answers"], p["sim_answers"])
              for p in rec.meta["daemon"]}
    return len(shapes) <= 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from the "
              f"root of a repository checkout", file=sys.stderr)
        return 2
    _environment()
    # A terminated run still stops the daemons and probes it started:
    # SystemExit unwinds through their ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        if args.setup_probe:
            return _probe(args.workload, args.seed)
        return _run(args)
    except EngineError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 3


def _run(args) -> int:
    from layers import IN_PROCESS_TARGETS, LayerTracer
    tracer = LayerTracer() if args.trace else None
    engine, bench = _setup(args.workload, args.seed, tracer)
    meta = {
        "workload": bench.name, "seed": args.seed,
        "fingerprint": bench.fingerprint,
        "engine": engine["engine"], "core": engine["core"],
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "src_lines": _src_lines(),
    }
    if not args.trace:
        # Set-up is sampled before the run and after each pass, so the
        # samples spread over the host's slow and fast phases.
        setup_samples = []

        def probe() -> None:
            setup_samples.append(_setup_seconds(args.workload, args.seed))

        probe()
        rec = bench.run(seconds=args.seconds, between_passes=probe)
        metrics = _end_to_end(bench, rec, setup_samples, meta)
    else:
        setup_build = tracer.self_s.get("models.build", 0.0)
        plain = bench.run(seconds=args.seconds / 2)
        if bench.name != "serve":
            tracer.install(IN_PROCESS_TARGETS)
            tracer.install_engine(engine["cls"])
        try:
            rec = bench.run(limit=plain.items, tracer=tracer)
        finally:
            tracer.finish()
        metrics = _per_layer(bench, tracer, plain, rec, setup_build)
        rec.errors += plain.errors
        rec.attempted += plain.attempted
        rec.verified += plain.verified
        meta["note"] = ("per-call FFI layers (sat.load, sat.read, "
                        "sat.solve) carry ~1 us of wrapper cost per call, "
                        "which inflates their share; see "
                        "trace_overhead_frac")
    meta["items"] = rec.items
    if bench.name == "serve":
        meta["daemon"] = rec.meta["daemon"]
        meta["serve_steady"] = _serve_steadiness(rec)
    meta["wrong"] = rec.errors[:20]
    print(json.dumps({"meta": meta}))
    correct = not rec.errors
    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
