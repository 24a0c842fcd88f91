"""The experiment matrix behind ``ocb bench``: run, persist, compare.

A :class:`MatrixSpec` is a declarative experiment description —
backends × scenario presets × client counts, with one protocol size and
one database preset — exactly the "resource-monitored experiment matrix"
the roadmap asked for.  :func:`run_matrix` executes every cell under a
:class:`~repro.obs.monitor.ResourceMonitor` (plus per-worker monitors
when the cell runs as OS processes) and folds the results into one
schema-versioned document (:mod:`repro.obs.results`), which ``ocb
bench`` writes as ``BENCH_<date>.json`` — the repo's persisted perf
trajectory.

:func:`compare_documents` diffs a fresh document against a committed
baseline: structural mismatches (missing cells, changed operation
counts — deterministic under a fixed seed, so any drift is a wiring
regression) always fail; throughput and P95 latency fail only beyond a
tolerance band, so CI gates regressions rather than machine noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.backends.registry import backend_info
from repro.core.generation import generate_database
from repro.core.presets import PRESETS, SCENARIO_PRESETS, preset, \
    scenario_preset
from repro.core.scenario import ScenarioReport, ScenarioRunner
from repro.errors import BackendError, ParameterError
from repro.obs import results
from repro.obs.monitor import ResourceMonitor
from repro.parallel.spec import ParallelConfig

__all__ = [
    "MatrixCell",
    "MatrixSpec",
    "tiny_spec",
    "run_matrix",
    "ComparisonRow",
    "Comparison",
    "compare_documents",
]

#: Seed every matrix uses unless the spec overrides it — fixed so the
#: logical operation counts of a cell are identical across machines and
#: the structural half of the comparison is noise-free.
DEFAULT_SEED = 19980323  # EDBT '98.


@dataclass(frozen=True)
class MatrixCell:
    """One point of the matrix: an engine, a mix, a concurrency level."""

    backend: str
    scenario: str
    clients: int
    processes: bool = False
    #: Shard count for engines with the ``sharded`` capability; ``None``
    #: for single-store engines (and absent from their keys, so existing
    #: baselines keep matching).
    shards: Optional[int] = None

    @property
    def mode(self) -> str:
        """Requested execution mode (reports echo the achieved one)."""
        return "processes" if self.processes and self.clients > 1 \
            else "interleaved"

    @property
    def key(self) -> str:
        """The identity cells are matched on across documents."""
        if self.shards is None:
            return (f"{self.backend}/{self.scenario}"
                    f"/c{self.clients}/{self.mode}")
        return (f"{self.backend}/{self.scenario}/c{self.clients}"
                f"/s{self.shards}/{self.mode}")


@dataclass(frozen=True)
class MatrixSpec:
    """A declarative experiment matrix (JSON round-trippable)."""

    name: str = "tiny"
    backends: Tuple[str, ...] = ("simulated", "sqlite")
    scenarios: Tuple[str, ...] = ("read_heavy",)
    client_counts: Tuple[int, ...] = (1,)
    #: Run multi-client cells as real OS processes (shared storage).
    processes: bool = False
    db_preset: str = "default-small"
    cold_ops: int = 2
    warm_ops: int = 12
    seed: int = DEFAULT_SEED
    monitor_interval: float = 0.02
    #: Shard-count axis: engines with the ``sharded`` capability get one
    #: cell per count (key gains a ``/sN`` segment); single-store
    #: engines ignore the axis and keep their one cell.  Empty = off.
    shard_counts: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "backends", tuple(self.backends))
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "client_counts",
                           tuple(int(c) for c in self.client_counts))
        object.__setattr__(self, "shard_counts",
                           tuple(int(s) for s in self.shard_counts))
        if not self.backends or not self.scenarios or not self.client_counts:
            raise ParameterError(
                "a MatrixSpec needs >= 1 backend, scenario and client count")
        for scenario in self.scenarios:
            if scenario not in SCENARIO_PRESETS:
                raise ParameterError(
                    f"unknown scenario preset {scenario!r}; choose from "
                    f"{sorted(SCENARIO_PRESETS)}")
        if self.db_preset not in PRESETS:
            raise ParameterError(
                f"unknown database preset {self.db_preset!r}; choose from "
                f"{sorted(PRESETS)}")
        if any(clients < 1 for clients in self.client_counts):
            raise ParameterError("client counts must be >= 1")
        if any(shards < 1 for shards in self.shard_counts):
            raise ParameterError("shard counts must be >= 1")
        if self.cold_ops < 0 or self.warm_ops < 1:
            raise ParameterError("need cold_ops >= 0 and warm_ops >= 1")

    @staticmethod
    def _shardable(backend: str) -> bool:
        try:
            return backend_info(backend).has_capability("sharded")
        except BackendError:
            return False  # Unknown names fail later, at run time.

    def cells(self) -> List[MatrixCell]:
        """Every cell, in backend/scenario/clients/shards order."""
        cells = []
        for backend in self.backends:
            shard_axis: Tuple[Optional[int], ...] = (None,)
            if self.shard_counts and self._shardable(backend):
                shard_axis = self.shard_counts
            cells.extend(
                MatrixCell(backend=backend, scenario=scenario,
                           clients=clients, processes=self.processes,
                           shards=shards)
                for scenario in self.scenarios
                for clients in self.client_counts
                for shards in shard_axis)
        return cells

    def to_dict(self) -> dict:
        """JSON-ready mapping (stored as the document's ``config``)."""
        return {
            "name": self.name,
            "backends": list(self.backends),
            "scenarios": list(self.scenarios),
            "client_counts": list(self.client_counts),
            "processes": self.processes,
            "db_preset": self.db_preset,
            "cold_ops": self.cold_ops,
            "warm_ops": self.warm_ops,
            "seed": self.seed,
            "monitor_interval": self.monitor_interval,
            "shard_counts": list(self.shard_counts),
        }

    @classmethod
    def from_dict(cls, spec: Mapping[str, object]) -> "MatrixSpec":
        """Build from a JSON mapping; unknown keys are rejected."""
        allowed = set(cls.__dataclass_fields__)
        unknown = set(spec) - allowed
        if unknown:
            raise ParameterError(
                f"unknown MatrixSpec keys {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}")
        return cls(**spec)  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, text: str) -> "MatrixSpec":
        """Parse a JSON spec document."""
        try:
            spec = json.loads(text)
        except ValueError as exc:
            raise ParameterError(f"invalid matrix spec JSON: {exc}") from exc
        if not isinstance(spec, dict):
            raise ParameterError("a matrix spec must be a JSON object")
        return cls.from_dict(spec)


def tiny_spec() -> MatrixSpec:
    """The built-in 2-cell matrix ``ocb bench`` runs without ``--spec``.

    Small enough for a CI smoke leg, wide enough to exercise both a
    cost-model engine and a real one — and the spec the committed
    ``BENCH_baseline.json`` was produced from.
    """
    return MatrixSpec()


# ---------------------------------------------------------------------- #
# Execution
# ---------------------------------------------------------------------- #

def _cell_dict(cell: MatrixCell, report: ScenarioReport,
               usage, worker_usage: List[dict]) -> Dict[str, object]:
    """Fold one executed cell into the flat schema mapping."""
    warm = report.merged_warm.wall_percentiles()
    peak_rss = usage.peak_rss_kb
    cpu = usage.cpu_seconds
    if worker_usage:
        peak_rss = max([peak_rss] + [int(w.get("peak_rss_kb", 0))
                                     for w in worker_usage])
    document: Dict[str, object] = {
        "key": cell.key,
        "backend": cell.backend,
        "scenario": cell.scenario,
        "clients": cell.clients,
        "shards": cell.shards,
        "mode": report.mode,
        "executed_parallel": report.executed_parallel,
        "operations": report.total_operations,
        "write_operations": report.write_operations,
        "elapsed_seconds": report.elapsed_seconds,
        "throughput": report.throughput,
        "wall_p50_ms": warm.p50 * 1e3,
        "wall_p95_ms": warm.p95 * 1e3,
        "wall_p99_ms": warm.p99 * 1e3,
        **report.counters.to_dict(),
        "read_misses": report.read_misses,
        "write_conflicts": report.write_conflicts,
        "cpu_seconds": cpu,
        "cpu_utilization": usage.cpu_utilization,
        "peak_rss_kb": peak_rss,
        "mean_rss_kb": usage.mean_rss_kb,
        "monitor_samples": usage.samples,
    }
    if worker_usage:
        document["workers"] = worker_usage
    return document


def run_matrix(spec: MatrixSpec,
               progress=None) -> dict:
    """Execute every cell of *spec*; returns the validated document.

    ``progress`` is an optional ``callable(str)`` fed one line per cell
    (the CLI points it at stderr so long matrices are not silent).
    """
    db_params, _ = preset(spec.db_preset)
    db_params = replace(db_params, seed=spec.seed)
    pristine, _report = generate_database(db_params)
    cells: List[Dict[str, object]] = []
    for cell in spec.cells():
        # Mutating scenarios write into their database view — every cell
        # gets a pristine clone so cells cannot contaminate each other.
        database = pristine.clone()
        scenario = scenario_preset(cell.scenario)
        backend_options = dict(scenario.backend_options)
        if cell.shards is not None:
            backend_options["shards"] = cell.shards
        scenario = replace(scenario, backend=cell.backend,
                           clients=cell.clients, cold_ops=spec.cold_ops,
                           warm_ops=spec.warm_ops, seed=spec.seed,
                           backend_options=backend_options)
        runner = ScenarioRunner(database, scenario)
        monitor = ResourceMonitor(interval=spec.monitor_interval)
        monitor.start()
        try:
            if cell.processes and cell.clients > 1:
                config = ParallelConfig(monitor=True,
                                        monitor_interval=spec.monitor_interval,
                                        shards=cell.shards)
                report = runner.run_processes(config=config)
            else:
                report = runner.run()
        finally:
            usage = monitor.stop()
        cells.append(_cell_dict(cell, report, usage,
                                list(report.worker_resources)))
        if progress is not None:
            progress(f"bench: {cell.key}: "
                     f"{report.total_operations} ops, "
                     f"{report.throughput:.1f} op/s, "
                     f"peak RSS {cells[-1]['peak_rss_kb']} kB")
    return results.build_document(kind="matrix", cells=cells,
                                  config=spec.to_dict(), name=spec.name)


# ---------------------------------------------------------------------- #
# Baseline comparison
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class ComparisonRow:
    """One cell's baseline-vs-current verdict."""

    key: str
    status: str  # "ok" | "regressed" | "missing" | "new"
    problems: Tuple[str, ...] = ()
    baseline: Optional[Dict[str, object]] = None
    current: Optional[Dict[str, object]] = None

    @property
    def throughput_ratio(self) -> Optional[float]:
        """current/baseline throughput (None when either side absent)."""
        if not self.baseline or not self.current:
            return None
        base = float(self.baseline.get("throughput", 0.0) or 0.0)
        if base <= 0.0:
            return None
        return float(self.current.get("throughput", 0.0) or 0.0) / base


@dataclass
class Comparison:
    """The full diff of two matrix documents."""

    tolerance: float
    rows: List[ComparisonRow] = field(default_factory=list)

    @property
    def regressions(self) -> List[ComparisonRow]:
        """Rows that gate (missing cells or beyond-tolerance drops)."""
        return [row for row in self.rows
                if row.status in ("regressed", "missing")]

    @property
    def ok(self) -> bool:
        """Whether the current document passes the gate."""
        return not self.regressions

    def describe(self) -> str:
        """One line: cells compared, regressions, tolerance band."""
        return (f"{len(self.rows)} cells compared at tolerance "
                f"{self.tolerance:.2f}: "
                f"{len(self.regressions)} regression(s)")


def _index_cells(document: Mapping[str, object]) -> Dict[str, dict]:
    cells = {}
    for cell in document.get("cells", []):  # type: ignore[union-attr]
        key = cell.get("key") or (
            f"{cell.get('backend')}/{cell.get('scenario')}"
            f"/c{cell.get('clients')}/{cell.get('mode')}")
        cells[str(key)] = cell
    return cells


def compare_documents(current: Mapping[str, object],
                      baseline: Mapping[str, object],
                      tolerance: float = 0.5) -> Comparison:
    """Diff *current* against *baseline* with a tolerance band.

    * a baseline cell missing from current → always a regression
      (wiring: the matrix silently lost coverage);
    * a logical-count mismatch (``operations`` / ``write_operations``,
      deterministic under the pinned seed) → always a regression;
    * ``throughput`` lower than ``baseline / (1 + tolerance)`` or
      ``wall_p95_ms`` higher than ``baseline * (1 + tolerance)`` →
      a perf regression;
    * cells only in current are reported as ``new`` but never gate.
    """
    if tolerance < 0.0:
        raise ParameterError(f"tolerance must be >= 0, got {tolerance}")
    results.validate_document(dict(current))
    results.validate_document(dict(baseline))
    current_cells = _index_cells(current)
    baseline_cells = _index_cells(baseline)
    comparison = Comparison(tolerance=tolerance)
    for key, base in baseline_cells.items():
        cur = current_cells.get(key)
        if cur is None:
            comparison.rows.append(ComparisonRow(
                key=key, status="missing", baseline=base,
                problems=("cell missing from the current run",)))
            continue
        problems: List[str] = []
        for count_key in ("operations", "write_operations"):
            if count_key in base and base[count_key] != cur.get(count_key):
                problems.append(
                    f"{count_key} changed: {base[count_key]} -> "
                    f"{cur.get(count_key)}")
        base_tp = float(base.get("throughput", 0.0) or 0.0)
        cur_tp = float(cur.get("throughput", 0.0) or 0.0)
        if base_tp > 0.0 and cur_tp < base_tp / (1.0 + tolerance):
            problems.append(
                f"throughput fell beyond tolerance: "
                f"{base_tp:.1f} -> {cur_tp:.1f} op/s")
        base_p95 = float(base.get("wall_p95_ms", 0.0) or 0.0)
        cur_p95 = float(cur.get("wall_p95_ms", 0.0) or 0.0)
        if base_p95 > 0.0 and cur_p95 > base_p95 * (1.0 + tolerance):
            problems.append(
                f"P95 rose beyond tolerance: "
                f"{base_p95:.3f} -> {cur_p95:.3f} ms")
        comparison.rows.append(ComparisonRow(
            key=key, status="regressed" if problems else "ok",
            problems=tuple(problems), baseline=base, current=cur))
    for key, cur in current_cells.items():
        if key not in baseline_cells:
            comparison.rows.append(ComparisonRow(
                key=key, status="new", current=cur))
    return comparison
