"""The three benchmark workloads: ``traverse``, ``oltp`` and ``cluster``.

Every workload is a closed loop with think time 0, in one process, on
one engine connection.  Each sets up several times per run, so the
reported set-up time is a median.  The databases are generated from the
paper's default seed; ``--seed`` drives the op streams of ``traverse``
and ``oltp`` (OCB draws a new schema per database seed, and its fan-out
alone moved traverse throughput by nearly half).  Why each workload exists:

* ``traverse`` -- the paper's own workload (Table 1 database, Table 2
  transaction mix) on a file-backed SQLite whose 9 MB file is about 18
  times its default 128-page cache.  Read-only: transactions, session,
  engine reads and decode do the work.
* ``oltp`` -- the ``mixed_oltp`` scenario preset: two partitioned
  clients interleaved in-process, writes beside reads, on a 1 MB
  SQLite file held whole in cache.  The harness (partition filters,
  per-client view copies) and the engine's write path do the work.
* ``cluster`` -- the Table 5 before/after clustering protocol
  (``repro.experiments.run_table5`` at its defaults) on the simulated
  page store.  Clustering, buffer pool and swizzling do the work; SQLite
  is never touched.  It ignores ``--seed``: Table 5 is one fixed
  experiment, and its 60-transaction runs are too short for timings to
  hold still across workload draws.

Every time is reported at a reference host speed (see :class:`HostSpeed`).
"""

from __future__ import annotations

import dataclasses
import gc
import os
import resource
import signal
import statistics
import time
from collections import defaultdict, deque
from typing import Dict, List, Optional, Set, Tuple

from layers import LayerClock, install_layers, install_probes

__all__ = ["WORKLOADS", "RunResult", "run_workload"]

_now = time.perf_counter

#: The SQLite workloads split their op budget over this many segments,
#: each with its own set-up and its own op stream (seed ``seed *
#: segments + k``).  One oltp seed's stream grows and prunes the
#: database its own way: on five seeds, throughput spread 10% between
#: quartiles when each ran one stream, against 1% for five runs of the
#: same seed.  Pooling independent streams narrows that, and oltp's
#: set-ups, a third of a second each, are cheap enough to pool eight.
SEGMENTS = {"traverse": 4, "oltp": 8}
#: Warm-up rounds (one op per client each) run before timing starts.
WARMUP_ROUNDS = 20
#: The oltp file grows with inserts; this cache (16 MB of 4 KB pages)
#: keeps the whole file resident for any run length the benchmark uses.
OLTP_CACHE_PAGES = 4096
#: Ops per second each SQLite workload sustains at the reference speed.
#: ``--seconds`` times this is the run's fixed op budget, so a run does
#: the same work however fast the host or the program is; on oltp, whose
#: database grows as it runs, a time limit would change the work too.
OPS_PER_SECOND = {"traverse": 100, "oltp": 600}
#: Seconds one Table 5 repetition takes at the reference speed; cluster
#: runs ``--seconds`` over this many repetitions, and at least
#: :data:`CLUSTER_MIN_REPETITIONS` so that ``setup_s`` is a median.
CLUSTER_REPETITION_S = 14
CLUSTER_MIN_REPETITIONS = 3


class HostSpeed:
    """How fast the host runs Python right now, from a fixed kernel.

    A shared 2-core virtual machine changes speed by up to 2x over tens
    of seconds (other tenants): on one, the same code timed in 15-second
    windows spread 14% between quartiles.  A fixed
    pure-Python kernel, run every :data:`INTERVAL_S` of work between
    ops, slows down with it: interleaved with SQLite reads, the reads'
    10-second medians spread 37% while their ratio to the kernel spread
    2%.  Times are therefore multiplied by :attr:`factor`, the kernel's
    :data:`NOMINAL_S` over its recent median, which states them at the
    speed at which the kernel takes :data:`NOMINAL_S`.  Kernel time is
    never part of an op's time.
    """

    #: The kernel's duration at the reference speed.
    NOMINAL_S = 0.0003
    #: Least work between two kernel samples.
    INTERVAL_S = 0.02

    def __init__(self) -> None:
        self.recent: deque = deque(maxlen=5)
        self.spent = 0.0
        self._last = float("-inf")
        for _ in range(20):  # Let the interpreter specialise the kernel.
            self.kernel()

    @staticmethod
    def kernel() -> None:
        counts: Dict[int, int] = {}
        for i in range(2000):
            counts[i & 255] = counts.get(i & 255, 0) + i

    def sample(self) -> None:
        started = _now()
        self.kernel()
        self._last = _now()
        self.recent.append(self._last - started)
        self.spent += self._last - started

    def calibrate(self) -> float:
        """Take a fresh estimate now; returns :attr:`factor`."""
        for _ in range(self.recent.maxlen):
            self.sample()
        return self.factor

    def maybe_sample(self) -> None:
        if _now() - self._last >= self.INTERVAL_S:
            self.sample()

    @property
    def factor(self) -> float:
        return self.NOMINAL_S / statistics.median(self.recent)


class SetupTimer:
    """Times the spans of one set-up at the reference host speed.

    A set-up is one long call with no ops between which to sample the
    host speed, and this host changes speed within a fraction of a
    second: 0.3-second windows of the kernel ran anywhere from 1.7 to
    3.1 ms.  Scaling a set-up by one estimate taken before it left
    traverse's ``setup_s`` spreading 0.25 between quartiles over ten
    runs, and estimates taken at both ends of each span still spread
    oltp's set-ups 0.076.  So while a set-up runs, an interval timer
    (``SIGALRM``, every :data:`INTERVAL_S`) runs the kernel in the main
    thread, and each span is scaled by the mean speed factor of the
    samples that fell inside it (0.036 on the same oltp test).  The
    samples are evenly spaced in wall time, so their mean factor weights
    each stretch of the span by its length.  A span with no sample takes
    the previous span's factor.  Kernel time is taken out of every span,
    and the previous set-up's garbage is collected before timing starts,
    so that collecting it is not charged to this set-up.  Without a
    :class:`HostSpeed`, spans are as the clock reads them.
    """

    #: Wall time between two kernel samples.
    INTERVAL_S = 0.01

    def __init__(self, speed: Optional[HostSpeed] = None) -> None:
        self.speed = speed
        self._factors: List[float] = []
        self._spent = 0.0
        self._previous = None
        gc.collect()
        self._factor = speed.calibrate() if speed is not None else 1.0
        if speed is not None:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                             self.INTERVAL_S)
        self._started = _now()

    def _sample(self, signum, frame) -> None:
        started = _now()
        HostSpeed.kernel()
        elapsed = _now() - started
        self._spent += elapsed
        self._factors.append(HostSpeed.NOMINAL_S / elapsed)

    def split(self) -> float:
        """End the current span and start the next; returns the span's
        seconds at the reference speed."""
        now = _now()
        elapsed = now - self._started - self._spent
        factors = self._factors
        self._factors, self._spent, self._started = [], 0.0, now
        if factors:
            self._factor = statistics.fmean(factors)
        return elapsed * self._factor

    def stop(self) -> None:
        """Disarm the timer; safe to call more than once."""
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None


class Recorder:
    """Collects every op's wall time and logical outcome.

    Fed by the probes of :func:`layers.install_probes`.  ``logical``
    holds one tuple per op, warm-up included, in execution order; it is
    what the output check compares.  Times are at the reference speed
    when a :class:`HostSpeed` is given.  ``ops`` and ``busy`` count and
    time every measured op, and ``raw_busy`` is ``busy`` as the clock
    read it; ``walls`` holds the times per class of those that
    completed.  A traversal that met an object another client had
    deleted is aborted as a read miss: it is counted (``read_misses``)
    but not timed, since its time is that of a partial traversal.
    """

    def __init__(self, speed: Optional[HostSpeed] = None) -> None:
        self.speed = speed
        self.measuring = False
        self.logical: List[tuple] = []
        self.walls: Dict[str, List[float]] = defaultdict(list)
        self.factors: List[float] = []
        self.ops = 0
        self.busy = 0.0
        self.raw_busy = 0.0
        self.transactions = 0
        self.visits = 0
        self.page_reads = 0
        self.buffer_hits = 0
        self.buffer_accesses = 0
        self.read_misses = 0
        self.write_conflicts = 0
        self._pending: Optional[tuple] = None
        self._before: Tuple[int, int] = (0, 0)

    def op_start(self, executor) -> None:
        if self.speed is not None:
            self.speed.maybe_sample()
        self._before = (executor.read_misses, executor.write_conflicts)

    def transaction(self, executor, result, delta, wall) -> None:
        self._pending = (result.kind.value, result.visits,
                         result.distinct_objects, result.max_depth_reached,
                         result.truncated)
        if self.measuring:
            self.transactions += 1
            self.visits += result.visits
            self.page_reads += delta.io_reads
            self.buffer_hits += delta.buffer.hits
            self.buffer_accesses += delta.buffer.hits + delta.buffer.misses

    def operation(self, executor, result) -> None:
        self._pending = (result.operation.value, result.objects_touched)

    def op_done(self, executor, elapsed: float) -> None:
        misses = executor.read_misses - self._before[0]
        conflicts = executor.write_conflicts - self._before[1]
        outcome, self._pending = self._pending, None
        self.logical.append((executor.client_id, misses, conflicts)
                            + outcome)
        if self.measuring:
            factor = self.speed.factor if self.speed is not None else 1.0
            self.factors.append(factor)
            self.ops += 1
            self.busy += elapsed * factor
            self.raw_busy += elapsed
            if not misses:
                self.walls[outcome[0]].append(elapsed * factor)
            self.read_misses += misses
            self.write_conflicts += conflicts

    def error(self, executor, exc: Exception) -> None:
        self.logical.append((executor.client_id, "error",
                             type(exc).__name__))


@dataclasses.dataclass
class RunResult:
    """Everything one run measured, before it is turned into metrics.

    Times are at the reference host speed except ``raw_wall``,
    ``phase_wall`` and ``outside_wall``, which are as the clock read
    them.  ``raw_wall`` is the measured phase's wall time, ``phase_wall``
    the same less the host-speed kernel's runs, and ``outside_wall`` the
    ops' summed wall time less the kernel's runs.
    """

    recorder: Recorder
    raw_wall: float
    phase_wall: float
    outside_wall: float
    setups: List[Dict[str, float]]
    layers: LayerClock
    engine_counters: Dict[str, int]
    stored_bytes_per_object: float
    peak_rss_mb: float
    graph_inconsistencies: int
    failed: int
    failures: List[str]
    extra: Dict[str, object]


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def graph_inconsistencies(records: Dict[int, object],
                          expected: Set[int]) -> int:
    """Count the object-graph defects among an engine's *records*.

    A defect is a reference with no matching back-reference, a
    back-reference with no matching reference, a reference or
    back-reference to a missing object, or an object that is live in the
    engine but not in *expected* (or the reverse).
    """
    defects = 0
    for oid, record in records.items():
        for index, target in enumerate(record.refs):
            if target is None:
                continue
            other = records.get(target)
            if other is None or (oid, index) not in set(other.back_refs):
                defects += 1
        for source, index in record.back_refs:
            other = records.get(source)
            if other is None or index >= len(other.refs) \
                    or other.refs[index] != oid:
                defects += 1
    return defects + len(expected.symmetric_difference(records))


def owned_oids(executors) -> Set[int]:
    """The live objects of every client's view of its own partition."""
    owned: Set[int] = set()
    for executor in executors:
        owned.update(oid for oid in executor.view.objects
                     if not executor.partitioned
                     or oid % executor.total_clients == executor.client_id)
    return owned


# ---------------------------------------------------------------------- #
# traverse and oltp: SQLite, driven op by op
# ---------------------------------------------------------------------- #

def _traverse_setup(seed: int):
    from repro.core.presets import default_database_parameters, \
        scenario_preset
    scenario = dataclasses.replace(scenario_preset("paper_default"),
                                   seed=seed)
    return default_database_parameters(), scenario, {}


def _oltp_setup(seed: int):
    from repro.core.presets import default_database_parameters, \
        scenario_preset
    scenario = dataclasses.replace(scenario_preset("mixed_oltp"), seed=seed)
    return (default_database_parameters(scale=0.1), scenario,
            {"cache_pages": OLTP_CACHE_PAGES})


def _build(params, scenario, engine, speed: Optional[HostSpeed] = None):
    """Generate, bulk-load and build executors; returns their timings,
    at the reference speed when *speed* is given."""
    from repro.core.generation import generate_database
    from repro.core.scenario import ScenarioRunner
    timer = SetupTimer(speed)
    try:
        database, _report = generate_database(params)
        generate_s = timer.split()
        database.load_into(engine)
        engine.reset_stats()
        bulk_load_s = timer.split()
        executors = ScenarioRunner(database, scenario,
                                   store=engine).build_executors(engine)
        build_executors_s = timer.split()
    finally:
        timer.stop()
    return executors, {"generate_s": generate_s, "bulk_load_s": bulk_load_s,
                       "build_executors_s": build_executors_s,
                       "setup_s": generate_s + bulk_load_s
                       + build_executors_s}


def _drive(executors, recorder: Recorder, failures: List[str],
           rounds: int) -> float:
    """Run *rounds* rounds of one op per client; returns the seconds
    spent inside the ops."""
    from repro.core.scenario import ScenarioCollector
    collectors = [ScenarioCollector("run") for _ in executors]
    inside = 0.0
    for _ in range(rounds):
        for executor, collector in zip(executors, collectors):
            started = _now()
            try:
                executor.step(collector)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                failures.append(f"{type(exc).__name__}: {exc}")
                recorder.error(executor, exc)
            inside += _now() - started
    return inside


def _run_sqlite(name: str, seed: int, seconds: float, traced: bool,
                workdir: str) -> RunResult:
    from repro.backends.memory import MemoryBackend
    from repro.backends.sqlite import SQLiteBackend

    setup = _traverse_setup if name == "traverse" else _oltp_setup
    speed = HostSpeed()
    clock = LayerClock()
    recorder = Recorder(speed)
    install_probes(clock, recorder)
    if traced:
        install_layers(clock)

    setups: List[Dict[str, float]] = []
    failures: List[str] = []
    layers = LayerClock()
    counters: Dict[str, int] = defaultdict(int)
    raw_wall = phase_wall = outside = 0.0
    stored: List[float] = []
    segments = []
    segment_count = SEGMENTS[name]
    for segment in range(segment_count):
        segment_seed = seed * segment_count + segment
        params, scenario, options = setup(segment_seed)
        path = os.path.join(workdir, f"{name}-{segment}.db")
        engine = SQLiteBackend(path=path, **options)
        executors, timings = _build(params, scenario, engine, speed)
        setups.append(timings)
        first = len(recorder.logical)
        _drive(executors, recorder, failures, WARMUP_ROUNDS)

        mark = clock.snapshot()
        trips, retries = engine.sql_round_trips, engine.busy_retries
        spent = speed.spent
        rounds = max(1, round(seconds * OPS_PER_SECOND[name]
                              / segment_count / len(executors)))
        recorder.measuring = True
        started = _now()
        outside += _drive(executors, recorder, failures, rounds)
        elapsed = _now() - started
        recorder.measuring = False
        layers.add(clock.since(mark))
        counters["sql_round_trips"] += engine.sql_round_trips - trips
        counters["busy_retries"] += engine.busy_retries - retries
        raw_wall += elapsed
        phase_wall += elapsed - (speed.spent - spent)
        outside -= speed.spent - spent
        rss = peak_rss_mb()

        engine.flush()
        live = list(engine.iter_oids())
        stored.append(os.path.getsize(path) / len(live))
        last = segment + 1 == segment_count
        if last:
            defects = graph_inconsistencies(engine.read_many(sorted(live)),
                                            owned_oids(executors))
        engine.close()
        os.remove(path)
        segments.append((params, scenario, rounds, last,
                         recorder.logical[first:]))
        del executors
    clock.restore()

    # Output check: replay each segment's seed, op for op, on the
    # in-memory reference engine; every logical outcome must match.
    failed = 0
    for params, scenario, rounds, last, logical in segments:
        replay = Recorder()
        replay_clock = LayerClock()
        install_probes(replay_clock, replay)
        reference = MemoryBackend()
        ref_executors, _timings = _build(params, scenario, reference)
        _drive(ref_executors, replay, [], WARMUP_ROUNDS + rounds)
        replay_clock.restore()
        differing = sum(1 for index, ours in enumerate(logical)
                        if index >= len(replay.logical)
                        or ours != replay.logical[index])
        if differing or len(replay.logical) != len(logical):
            failures.append(f"seed {scenario.seed}: {differing} ops differ "
                            f"from the reference replay")
        # An op that raised fails even when the reference raised too
        # (its exception is already among the failures).
        failed += sum(1 for index, ours in enumerate(logical)
                      if ours[1] == "error" or index >= len(replay.logical)
                      or ours != replay.logical[index])
        if not last:
            continue
        ref_defects = graph_inconsistencies(
            reference.read_many(sorted(reference.iter_oids())),
            owned_oids(ref_executors))
        if ref_defects != defects:
            failures.append(f"seed {scenario.seed}: graph inconsistencies "
                            f"differ from the reference replay: {defects} "
                            f"vs {ref_defects}")

    return RunResult(
        recorder=recorder, raw_wall=raw_wall, phase_wall=phase_wall,
        outside_wall=outside, setups=setups, layers=layers,
        engine_counters=dict(counters),
        stored_bytes_per_object=statistics.median(stored),
        peak_rss_mb=rss, graph_inconsistencies=defects, failed=failed,
        failures=failures, extra={})


# ---------------------------------------------------------------------- #
# cluster: the Table 5 protocol on the simulated store
# ---------------------------------------------------------------------- #

def _run_cluster(seconds: float, traced: bool) -> RunResult:
    import repro.experiments as experiments
    from repro.clustering.dstc import DSTCPolicy
    from repro.core.workload import WorkloadRunner
    from repro.store.storage import ObjectStore, StoreConfig

    speed = HostSpeed()
    clock = LayerClock()
    recorder = Recorder(speed)
    install_probes(clock, recorder)
    if traced:
        install_layers(clock)

    state: Dict[str, object] = {}
    measured = LayerClock()
    walls = {"raw": 0.0, "phase": 0.0}
    reorg: Dict[str, List[float]] = defaultdict(list)

    # Set-up is timed in two spans (see SetupTimer): generation, then
    # store build and bulk load up to the first op.
    def generated(result, args, elapsed):
        state["database"] = result[0]
        state["generate_s"] = state["timer"].split()

    def phase_start(args):
        if "load_s" not in state:
            state["load_s"] = state["timer"].split()
            state["timer"].stop()
        recorder.measuring = args[1] == "warm"
        state["mark"] = clock.snapshot()
        state["spent"] = speed.spent

    def phase_end(result, args, elapsed):
        if recorder.measuring:
            measured.add(clock.since(state["mark"]))
            walls["raw"] += elapsed
            walls["phase"] += elapsed - (speed.spent - state["spent"])
        recorder.measuring = False

    def reorganized(name):
        return lambda result, args, elapsed: reorg[name].append(
            elapsed * speed.factor)

    clock.wrap(experiments, "generate_database", "generation",
               after=generated)
    clock.wrap(StoreConfig, "build", "store.load",
               after=lambda result, args, elapsed: state.update(store=result))
    clock.wrap(ObjectStore, "bulk_load", "store.load")
    clock.wrap(WorkloadRunner, "run_phase", "phase", before=phase_start,
               after=phase_end)
    clock.wrap(DSTCPolicy, "propose_placement", "clustering.placement",
               after=reorganized("clustering.placement_s"))
    clock.wrap(ObjectStore, "reorganize", "store.reorganize",
               after=reorganized("store.reorganize_s"))

    setups: List[Dict[str, float]] = []
    failures: List[str] = []
    reps = []
    for _ in range(max(CLUSTER_MIN_REPETITIONS,
                       round(seconds / CLUSTER_REPETITION_S))):
        state.clear()
        first = len(recorder.logical)
        state["timer"] = SetupTimer(speed)
        try:
            row = experiments.run_table5()
        except Exception as exc:  # noqa: BLE001 - counted, reported
            failures.append(f"{type(exc).__name__}: {exc}")
            recorder.logical.append((0, "error", type(exc).__name__))
            break
        finally:
            state["timer"].stop()
        setups.append({"generate_s": state["generate_s"],
                       "setup_s": state["generate_s"] + state["load_s"]})
        reps.append((row, recorder.logical[first:]))
    rss = peak_rss_mb()
    clock.restore()

    # Output check.  Both runs of one repetition execute the same
    # transactions, so their logical outcomes must match; every
    # repetition must reproduce the first exactly, Table 5 I/Os
    # included; and clustering must pay off.
    failed = sum(1 for record in recorder.logical if record[1] == "error")
    figures = lambda row: (row.ios_before, row.ios_after,  # noqa: E731
                           row.clustering_overhead_ios)
    for row, logical in reps:
        half = len(logical) // 2
        differing = sum(1 for ours, theirs
                        in zip(logical[:half], logical[half:])
                        if ours != theirs)
        differing += sum(1 for ours, theirs in zip(logical, reps[0][1])
                         if ours != theirs)
        if differing or len(logical) != len(reps[0][1]):
            failures.append(f"{differing} transactions differ between the "
                            f"paired runs or from the first repetition")
            failed += differing
        if figures(row) != figures(reps[0][0]):
            failures.append(f"Table 5 I/Os {figures(row)} do not repeat "
                            f"{figures(reps[0][0])}")
        if not row.gain > 1.0:
            failures.append(f"clustering gain {row.gain:.3f} is not above 1")

    defects = stored = 0
    store = state.get("store")
    if store is not None:
        defects = graph_inconsistencies(
            {oid: store.read_object(oid) for oid in store.iter_oids()},
            set(state["database"].objects))
        stored = store.segment_bytes / store.object_count
    extra: Dict[str, object] = dict(reorg)
    extra["reorg_s"] = [placement + reorganize for placement, reorganize
                        in zip(reorg["clustering.placement_s"],
                               reorg["store.reorganize_s"])]
    if reps:
        for name, value in zip(("clustering.ios_before",
                                "clustering.ios_after",
                                "clustering.overhead_ios"),
                               figures(reps[0][0])):
            extra[name] = value
    # A phase is nothing but ops, so its wall time is theirs too.
    return RunResult(
        recorder=recorder, raw_wall=walls["raw"], phase_wall=walls["phase"],
        outside_wall=walls["phase"], setups=setups, layers=measured,
        engine_counters={}, stored_bytes_per_object=stored,
        peak_rss_mb=rss, graph_inconsistencies=defects, failed=failed,
        failures=failures, extra=extra)


WORKLOADS = ("traverse", "oltp", "cluster")


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 workdir: str) -> RunResult:
    """Set up, measure and check one workload."""
    if name == "cluster":
        return _run_cluster(seconds, traced)
    return _run_sqlite(name, seed, seconds, traced, workdir)
