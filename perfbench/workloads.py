"""The benchmark's workloads: seeded inputs, closed-loop runs, checks.

Every workload draws its inputs from the seed alone, runs them against
the public API (``BmcSession`` in-process, ``ServeClient`` against a
``repro serve`` daemon in its own process) and checks every verdict
against an oracle that does not share the code path measured:

* ``suite-unroll`` / ``suite-jsat`` — the 234 suite queries, exact-k,
  one fresh session per query, in a seeded order.  SAT witnesses are
  replayed with ``Trace.is_valid`` at the queried bound; UNSAT answers
  are compared with the suite's ground truth.  ``sat-unroll`` solves
  formula (1) and spends its time encoding and loading clauses;
  ``jsat`` solves formula (2), the paper's procedure, and spends it in
  the driver and per-call FFI with almost no encoding — the workload
  on which an encoder change should show nothing.
* ``deep-sweep`` — a grid of scaled counter / fifo / elevator
  instances in a seeded order, swept 0..depth with ``sat-incremental``,
  where CDCL dominates and frames are appended to one live solver.
  The sweep must stop at exactly the family's shortest depth with a
  valid witness.
* ``serve`` — a daemon with one worker, one client process holding
  two closed-loop connections, all three sharing one processor, a
  seeded order of (family, k, method) requests with seeded repeats:
  the only workload through serve, portfolio (pool, IPC, cache), the
  sim pre-solve tier and daemon-side reduction.  Every
  answer is compared with the in-process verdict of the same query.

Each workload cycles through its inputs until the run's measuring
time is used up.  Answers are checked as they arrive, outside the
timed spans, and only the outcome is kept, so a long run does not
accumulate witnesses for the garbage collector to walk.

Budgets are conflict and clause-database limits only, with no wall
term, so a slow machine never turns a verdict into UNKNOWN.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bmc.session import BmcSession
from repro.harness.runner import default_budget
from repro.models import counter, elevator, fifo
from repro.models.suite import build_suite
from repro.sat.types import Budget, SolveResult
from repro.serve import ServeClient, ServeError
from repro.system.trace import Trace

__all__ = ["WORKLOADS", "Record", "Daemon", "make_workload",
           "speed_sample"]

_DEFAULT = default_budget()
# The suite's E1 budget without its wall-clock term.
SUITE_BUDGET = {"max_conflicts": _DEFAULT.max_conflicts,
                "max_literals": _DEFAULT.max_literals}
# Sweeps share one budget across every bound of the ladder.
SWEEP_BUDGET = {"max_conflicts": 2_000_000, "max_literals": 50_000_000}


def _fingerprint(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# The host's speed is sampled by timing this fixed piece of pure-Python
# work (dict, tuple and call churn, as in the program's own Python
# layers) next to the measured queries.  It shares no code with the
# program, so a change to the program never moves it.
def _calibration_work() -> int:
    table: Dict[Tuple[int, int], int] = {}
    for i in range(400):
        key = (i % 17, i % 13)
        table[key] = table.get(key, 0) + i
    return len(sorted(table.items(), key=lambda kv: kv[1]))


def speed_sample(repeats: int = 3) -> float:
    """Seconds the calibration work takes now (best of ``repeats``)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _calibration_work()
        best = min(best, time.perf_counter() - start)
    return best


class Record:
    """What one measured phase produced."""

    def __init__(self) -> None:
        self.latencies: List[float] = []    # seconds, one per verdict
        self.wall_s = 0.0                   # measured time only
        self.items = 0                      # work units consumed
        self.attempted = 0
        self.verified = 0
        self.errors: List[str] = []         # wrong verdicts, leaks
        self.peak_db_literals = 0
        self.peak_rss_mb = 0.0
        self.layer: Dict[str, float] = {}   # per-layer work counters
        self.meta: Dict[str, Any] = {}
        # Host speed samples (seconds of calibration work), the measured
        # seconds each covers, and for each latency the index of the
        # sample taken next to it.
        self.speed: List[float] = []
        self.speed_wall: List[float] = []
        self.speed_at: List[int] = []
        # (measured seconds, verified answers, end index into
        # ``latencies``, end index into ``speed``) per pass.
        self.passes: List[Tuple[float, int, int, int]] = []
        self._mark = (0.0, 0)
        self._speed_mark = 0.0

    @property
    def failed(self) -> int:
        return self.attempted - self.verified

    def end_pass(self) -> None:
        """Close one whole pass over the workload's inputs."""
        wall, verified = self._mark
        self.passes.append((self.wall_s - wall, self.verified - verified,
                            len(self.latencies), len(self.speed)))
        self._mark = (self.wall_s, self.verified)

    def note_speed(self, sample: float) -> None:
        """Attach a host speed sample to the latencies and the measured
        time not yet given one."""
        self.speed_at += [len(self.speed)] * (len(self.latencies)
                                              - len(self.speed_at))
        self.speed.append(sample)
        self.speed_wall.append(self.wall_s - self._speed_mark)
        self._speed_mark = self.wall_s

    def smoothed_speed(self, window: int) -> List[float]:
        """Each speed sample replaced by the median of the samples
        within ``window`` of it: one sample is too short to smooth over
        the host's jitter."""
        return [statistics.median(self.speed[max(0, i - window):
                                             i + window + 1])
                for i in range(len(self.speed))]

    def add(self, name: str, amount: float) -> None:
        self.layer[name] = self.layer.get(name, 0) + amount

    def note_peak(self, stats: Dict[str, Any]) -> None:
        peak = max(int(stats.get("solver_peak_db_literals", 0)),
                   int(stats.get("peak_db_literals", 0)))
        self.peak_db_literals = max(self.peak_db_literals, peak)


class _InProcess:
    """Shared loop of the in-process workloads: whole passes over the
    items until ``seconds`` of measured time, or ``limit`` items.

    The host's speed is sampled after every item; each latency is
    paired with the median of the samples around it.

    Ending on a pass boundary keeps the mix of items the same in every
    run, whatever the machine's speed: item costs are heavy-tailed, so
    a partial last pass would move the numbers by which items it cut.
    """

    # Samples either side of an item's own that its speed is the
    # median of (about 0.1 s of a suite pass).
    speed_window = 10

    def run(self, seconds: Optional[float] = None,
            limit: Optional[int] = None, tracer=None,
            between_passes: Optional[Callable[[], None]] = None
            ) -> Record:
        """The in-process layers are traced by wrappers the caller
        installs; ``tracer`` only keeps the checks out of the trace.
        ``between_passes`` is called, unmeasured, after each pass."""
        rec = Record()
        i = 0
        while (limit is None or i < limit) and (
                seconds is None or rec.wall_s < seconds
                or i % len(self.items)):
            item = self.items[i % len(self.items)]
            start = time.perf_counter()
            answer = self.run_item(item, rec)
            rec.wall_s += time.perf_counter() - start
            rec.note_speed(speed_sample())
            if tracer is None:
                self.check(item, answer, rec)
            else:
                with tracer.paused():
                    self.check(item, answer, rec)
            i += 1
            if i % len(self.items) == 0:
                rec.end_pass()
                if between_passes is not None:
                    between_passes()
        rec.items = i
        rec.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return rec


class SuiteWorkload(_InProcess):
    """All suite queries at their own bound, one session per query."""

    def __init__(self, name: str, method: str, seed: int) -> None:
        self.name = name
        self.method = method
        suite = build_suite()
        random.Random(seed).shuffle(suite)
        self.items = suite
        self.fingerprint = _fingerprint(
            [f"{q.name}:{q.k}:{q.expected}:{method}" for q in suite])

    def run_item(self, inst, rec: Record):
        start = time.perf_counter()
        with BmcSession(inst.system,
                        properties={"target": inst.final}) as session:
            result = session.check(inst.k, method=self.method,
                                   budget=Budget(**SUITE_BUDGET))
        rec.latencies.append(time.perf_counter() - start)
        return result

    def check(self, inst, result, rec: Record) -> None:
        rec.attempted += 1
        stats = result.stats
        rec.note_peak(stats)
        rec.add("jsat_queries", stats.get("queries", 0))
        rec.add("jsat_cache_hits", stats.get("cache_hits", 0))
        rec.add("jsat_pushes", stats.get("pushes", 0))
        status, trace = result.status, result.trace
        if status is SolveResult.UNKNOWN:
            return
        want = SolveResult.SAT if inst.expected else SolveResult.UNSAT
        if status is not want:
            rec.errors.append(f"{inst.name}: {status.name}, ground "
                              f"truth {want.name}")
        elif status is SolveResult.SAT and not (
                trace is not None and trace.length == inst.k
                and trace.is_valid(inst.system, inst.final)):
            rec.errors.append(f"{inst.name}: SAT witness does not "
                              f"replay at k={inst.k}")
        else:
            rec.verified += 1


# (family, width or None, low, high): the deep sweep runs four evenly
# spaced instances of each.  Counter targets stay at or below 140: the
# cost of a counter sweep grows steeply past that (counter8-t180 takes
# ~4.6 s and counter8-t200 ~21 s), and no single instance should
# dominate a run.  The grid is fixed and the seed draws its order: a
# seeded draw of the instances themselves made the mix, not the code,
# dominate the spread between runs.
_DEEP_STRATA = (
    ("counter", 7, 80, 127),
    ("counter", 8, 100, 140),
    ("fifo", None, 20, 40),
    ("elevator", None, 4, 5),
)
_DEEP_PER_STRATUM = 4


class DeepSweepWorkload(_InProcess):
    """Scaled family instances, each swept 0..depth incrementally."""

    name = "deep-sweep"

    def __init__(self, seed: int) -> None:
        self.items = []
        for family, width, low, high in _DEEP_STRATA:
            for i in range(_DEEP_PER_STRATUM):
                value = low + round(i * (high - low)
                                    / (_DEEP_PER_STRATUM - 1))
                if family == "counter":
                    system, final, depth = counter.make(width, value)
                    label = f"counter{width}-t{value}"
                elif family == "fifo":
                    system, final, depth = fifo.make(value)
                    label = f"fifo{value}"
                else:
                    system, final, depth = elevator.make(value)
                    label = f"elevator{value}"
                self.items.append((label, system, final, depth))
        random.Random(seed).shuffle(self.items)
        self.fingerprint = _fingerprint(
            [f"{label}:{depth}" for label, _, _, depth in self.items])

    def run_item(self, item, rec: Record):
        _, system, final, depth = item
        last = [time.perf_counter()]

        def on_bound(bound) -> None:
            now = time.perf_counter()
            rec.latencies.append(now - last[0])
            last[0] = now

        with BmcSession(system, properties={"target": final}) as session:
            return session.sweep(depth, method="sat-incremental",
                                 budget=Budget(**SWEEP_BUDGET),
                                 on_bound=on_bound)

    def check(self, item, swept, rec: Record) -> None:
        label, system, final, depth = item
        rec.attempted += depth + 1
        for bound in swept.per_bound:
            rec.note_peak(bound.stats)
            rec.add("clauses_reused", bound.stats.get("clauses_reused", 0))
            rec.add("clauses_added", bound.stats.get("clauses_added", 0))
            if bound.status is SolveResult.UNKNOWN:
                continue
            want = (SolveResult.SAT if bound.k == depth
                    else SolveResult.UNSAT)
            if bound.status is not want:
                rec.errors.append(f"{label}: bound {bound.k} answered "
                                  f"{bound.status.name}, expected "
                                  f"{want.name}")
            else:
                rec.verified += 1
        if swept.status is SolveResult.SAT:
            trace = swept.trace
            if swept.shortest_k != depth:
                rec.errors.append(f"{label}: shortest_k "
                                  f"{swept.shortest_k}, family depth "
                                  f"{depth}")
            elif trace is None or trace.length != depth or \
                    not trace.is_valid(system, final):
                rec.errors.append(f"{label}: witness does not replay at "
                                  f"k={depth}")


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
_SERVE_METHODS = (None, "sat-unroll", "jsat")     # None: unpinned
# Bounds of the fresh requests of every (family, method): twelve evenly
# spaced over 0..19, the same for every seed, so that seeds differ in
# order and repeats but not in how hard the requests are.
_SERVE_BOUNDS = tuple(round(i * 19 / 11) for i in range(12))
_SERVE_REPEATS = 132            # repeats of earlier requests
_SERVE_CONNECTIONS = 2
_SERVE_CHUNK = 50               # requests between host speed samples
_SPEED_SAMPLES = 5              # after each chunk
_HERE = os.path.dirname(os.path.abspath(__file__))


def _children(pid: int) -> List[int]:
    """Pids whose parent is ``pid`` (the daemon's pool workers)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def _peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


class Daemon:
    """A ``repro serve`` daemon in its own process, one worker.

    :meth:`wait_ready` returns once the daemon answers a ping;
    :meth:`stop` shuts it down over the protocol, waits for it, and
    reports any pool worker that outlived it.
    """

    _count = 0

    def __init__(self, workdir: str, trace: bool = False) -> None:
        Daemon._count += 1
        tag = f"{os.getpid()}-{Daemon._count}"
        # Relative to the working directory: unix socket paths are
        # limited to ~107 bytes and the checkout path may be long.
        self.socket = os.path.relpath(
            os.path.join(workdir, f"serve-{tag}.sock"))
        self.trace_out = (os.path.join(workdir, f"serve-{tag}.json")
                          if trace else None)
        cmd = [sys.executable, os.path.join(_HERE, "serve_daemon.py"),
               "--socket", self.socket]
        if self.trace_out:
            cmd += ["--trace-out", self.trace_out]
        self.log_path = os.path.join(workdir, "serve-daemon.log")
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(cmd, stdout=self._log,
                                     stderr=subprocess.STDOUT)
        self.workers: List[int] = []

    def wait_ready(self, timeout: float = 60.0) -> None:
        give_up = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with code "
                                   f"{self.proc.returncode}; see "
                                   f"{self.log_path}")
            try:
                with ServeClient(socket_path=self.socket,
                                 timeout=5.0) as client:
                    client.ping()
                return
            except OSError:
                if time.monotonic() > give_up:
                    raise
                time.sleep(0.01)

    def client(self) -> ServeClient:
        return ServeClient(socket_path=self.socket, timeout=120.0)

    def peak_rss_mb(self) -> float:
        """VmHWM of the daemon plus its live pool workers."""
        self.workers = _children(self.proc.pid)
        return _peak_rss_mb(self.proc.pid) + sum(
            _peak_rss_mb(pid) for pid in self.workers)

    def stop(self) -> List[str]:
        """Shut down cleanly; returns problems found (empty if none)."""
        problems = []
        if self.proc.poll() is None:
            self.workers = _children(self.proc.pid)
        try:
            if self.proc.poll() is None:
                with self.client() as client:
                    client.shutdown()
            self.proc.wait(timeout=60)
        except (OSError, ServeError, subprocess.TimeoutExpired) as err:
            problems.append(f"daemon did not shut down cleanly: {err}")
            self.proc.kill()
            self.proc.wait()
        finally:
            self._log.close()
        if self.proc.returncode != 0 and not problems:
            problems.append(f"daemon exited with code "
                            f"{self.proc.returncode}")
        give_up = time.monotonic() + 5.0
        for pid in self.workers:
            while _alive(pid) and time.monotonic() < give_up:
                time.sleep(0.02)
            if _alive(pid):
                problems.append(f"pool worker {pid} outlived the daemon")
                try:
                    os.kill(pid, 9)
                except OSError:
                    pass
        if os.path.exists(self.socket):
            os.unlink(self.socket)
        return problems

    def take_trace(self) -> Dict[str, Any]:
        """The daemon-side layer totals (traced daemons only)."""
        if not self.trace_out or not os.path.exists(self.trace_out):
            return {}
        with open(self.trace_out) as fh:
            data = json.load(fh)
        os.unlink(self.trace_out)
        return data


class ServeWorkload:
    """Seeded request mix against a fresh daemon per pass.

    Every (family, method) pair gets the same fresh requests, with
    bounds spread over 0..19, plus a fixed number of repeats of earlier
    requests; the seed draws the order and which requests repeat.  Each
    pass replays this list against a freshly booted daemon, so every
    pass starts from an empty result cache and the share of repeats
    answered from cache is a property of the input, not of how many
    requests the run managed to send.  Boot time is set-up
    (``setup_s``), not measured time.
    """

    name = "serve"
    # Chunks either side of a chunk's own that its speed is the median
    # of (each chunk's sample is already a median of several).
    speed_window = 2

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(seed)
        families = sorted({inst.family for inst in build_suite()})
        fresh = [(family, k, method)
                 for family in families for method in _SERVE_METHODS
                 for k in _SERVE_BOUNDS]
        rng.shuffle(fresh)
        requests = list(fresh)
        for _ in range(_SERVE_REPEATS):
            # A repeat lands anywhere after the request it repeats.
            original = fresh[rng.randrange(len(fresh))]
            at = rng.randint(requests.index(original) + 1, len(requests))
            requests.insert(at, original)
        self.requests = requests
        self.workdir = workdir
        self.fingerprint = _fingerprint(
            [f"{f}:{k}:{m}" for f, k, m in requests])
        self._instances = {}
        for inst in build_suite():
            self._instances.setdefault(inst.family, inst)
        self._truth: Dict[tuple, SolveResult] = {}

    def run(self, seconds: Optional[float] = None,
            limit: Optional[int] = None, tracer=None,
            between_passes: Optional[Callable[[], None]] = None
            ) -> Record:
        """Run passes until ``seconds`` of request time or ``limit``
        passes.  With a ``tracer``, each daemon traces its own layers
        and the totals are merged into it.  ``between_passes`` is
        called, unmeasured, after each pass."""
        rec = Record()
        rec.meta["daemon"] = []
        passes = 0
        while (limit is None or passes < limit) and \
                (seconds is None or rec.wall_s < seconds):
            daemon = Daemon(self.workdir, trace=tracer is not None)
            try:
                daemon.wait_ready()
                answers = self._one_pass(daemon, rec)
                rec.peak_rss_mb = max(rec.peak_rss_mb,
                                      daemon.peak_rss_mb())
            finally:
                rec.errors += daemon.stop()
            if tracer is not None:
                tracer.merge(daemon.take_trace())
            for answer in answers:
                self._check(answer, rec)
            rec.end_pass()
            if between_passes is not None:
                between_passes()
            passes += 1
        rec.items = passes
        return rec

    def _one_pass(self, daemon: Daemon, rec: Record) -> List[dict]:
        """Send the requests in chunks; between chunks, with both
        connections idle, sample the host's speed.  Sampling during a
        chunk would time the contention for the two processors, which
        is the program's own."""
        answers: List[Dict[str, Any]] = []
        wall = 0.0
        clients = [daemon.client() for _ in range(_SERVE_CONNECTIONS)]
        try:
            for first in range(0, len(self.requests), _SERVE_CHUNK):
                chunk = range(first, min(first + _SERVE_CHUNK,
                                         len(self.requests)))
                start = time.perf_counter()
                got = self._chunk(clients, chunk)
                elapsed = time.perf_counter() - start
                wall += elapsed
                rec.wall_s += elapsed
                got.sort(key=lambda a: a["index"])
                rec.latencies += [a["latency"] for a in got]
                rec.note_speed(statistics.median(
                    speed_sample() for _ in range(_SPEED_SAMPLES)))
                answers += got
        finally:
            for client in clients:
                client.close()
        with daemon.client() as client:
            jobs = client.stats()["jobs"]
        # Worker time per job: coalesced waiters share one execution.
        worker = {a["job"]: a["worker_s"] for a in answers
                  if a.get("via") == "worker"}
        rec.add("worker_s", sum(worker.values()))
        rec.meta.setdefault("worker_ms", []).extend(
            s * 1e3 for s in worker.values())
        rec.meta.setdefault("ack_ms", []).extend(
            a["ack"] * 1e3 for a in answers)
        rec.meta.setdefault("overhead_ms", []).extend(
            (a["latency"] - a["worker_s"]) * 1e3 for a in answers
            if a.get("via") == "worker")
        rec.meta["daemon"].append({
            "wall_s": wall,
            "submitted": jobs["submitted"],
            "cache_answers": jobs["cache_answers"],
            "sim_answers": jobs["sim_answers"],
            "coalesced": jobs["coalesced"],
            "failed": jobs["failed"]})
        return answers

    def _chunk(self, clients: List[ServeClient], chunk: range
               ) -> List[Dict[str, Any]]:
        """One closed loop per connection over the chunk's requests."""
        lock = threading.Lock()
        pending = iter(chunk)
        answers: List[Dict[str, Any]] = []
        failures: List[BaseException] = []

        def connection(client: ServeClient) -> None:
            try:
                while True:
                    with lock:
                        i = next(pending, None)
                    if i is None:
                        return
                    answers.append(self._request(client, i))
            except BaseException as err:     # re-raised after join
                failures.append(err)

        threads = [threading.Thread(target=connection, args=(client,))
                   for client in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        return answers

    def _request(self, client: ServeClient, index: int) -> Dict[str, Any]:
        family, k, method = self.requests[index]
        start = time.perf_counter()
        answer: Dict[str, Any] = {"index": index, "ack": 0.0}
        try:
            ack = client.submit(family, k, method=method,
                                budget=dict(SUITE_BUDGET))
            answer["ack"] = time.perf_counter() - start
            done = client.wait(ack)
        except ServeError as err:
            answer.update(latency=time.perf_counter() - start,
                          error=str(err))
            return answer
        answer["latency"] = time.perf_counter() - start
        answer["job"] = ack["job"]
        answer["via"] = ("cache" if ack.get("cached")
                         else "sim" if ack.get("presolved")
                         else "worker")
        answer["state"] = done.get("state")
        answer["result"] = done.get("result") or {}
        answer["worker_s"] = answer["result"].get("wall_seconds", 0.0)
        return answer

    def _check(self, answer: Dict[str, Any], rec: Record) -> None:
        rec.attempted += 1
        family, k, method = self.requests[answer["index"]]
        result = answer.get("result") or {}
        status = result.get("status")
        if answer.get("error") or answer.get("state") != "done" or \
                status not in ("SAT", "UNSAT"):
            return
        rec.note_peak(result.get("stats") or {})
        inst = self._instances[family]
        if (family, k) not in self._truth:
            with BmcSession(inst.system,
                            properties={"target": inst.final}) as session:
                self._truth[(family, k)] = session.check(
                    k, method="sat-unroll",
                    budget=Budget(**SUITE_BUDGET)).status
        want = self._truth[(family, k)]
        where = f"serve {family} k={k} method={method}"
        if want.name != status:
            rec.errors.append(f"{where}: {status}, in-process "
                              f"{want.name}")
            return
        if status == "SAT":
            raw = result.get("trace")
            trace = Trace(raw["states"], raw["inputs"]) if raw else None
            if trace is None or trace.length != k or \
                    not trace.is_valid(inst.system, inst.final):
                rec.errors.append(f"{where}: witness does not replay")
                return
        rec.verified += 1


WORKLOADS = ("suite-unroll", "suite-jsat", "deep-sweep", "serve")


def make_workload(name: str, seed: int, workdir: str):
    """Generate the named workload's inputs from the seed."""
    if name == "suite-unroll":
        return SuiteWorkload(name, "sat-unroll", seed)
    if name == "suite-jsat":
        return SuiteWorkload(name, "jsat", seed)
    if name == "deep-sweep":
        return DeepSweepWorkload(seed)
    if name == "serve":
        return ServeWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; pick one of "
                     f"{', '.join(WORKLOADS)}")
