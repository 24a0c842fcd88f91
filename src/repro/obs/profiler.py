"""Deterministic-function profiling: cProfile behind a module switch.

The tracer (:mod:`repro.obs.trace`) decomposes wall time into the spans
the code *chose* to instrument; the profiler answers the complementary
question — *which functions* burned the time — with zero instrumented
call sites, because :mod:`cProfile` hooks the interpreter itself.  It is
how the decode-free read path proves its claim: profile any mix and
``decode_object``'s cumulative share (:func:`cumulative_share`) stays
near zero, because engine reads return lazy records.

Zero overhead when off
----------------------

Profiling is **disabled by default** and gated exactly like the tracer:
the CLI only touches this module when ``--profile FILE`` was passed, so
an unprofiled run executes no profiler code at all — not even an import
of :mod:`cProfile`-adjacent machinery on the dispatch path.
``tests/obs/test_profiler.py`` pins this by replacing :func:`enable`
and :func:`disable` with spies and asserting a plain run never calls
them.

Collection
----------

:func:`enable` starts a global :class:`cProfile.Profile`;
:func:`disable` stops it and folds the raw stats into an immutable
:class:`ProfileReport` — per-function call counts, internal time and
cumulative time.  :func:`summary` renders the top-N rows by cumulative
time (the table the CLI prints to stderr) and :func:`write_json`
persists the report next to the benchmark documents.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = [
    "enabled",
    "FunctionStat",
    "ProfileReport",
    "enable",
    "disable",
    "summary",
    "cumulative_share",
    "write_json",
    "load_report",
]

#: The one guard the CLI checks before touching the profiler.  Toggled
#: only by :func:`enable` / :func:`disable`.
enabled = False

_profile: Optional[cProfile.Profile] = None


@dataclass(frozen=True)
class FunctionStat:
    """One function's aggregate, in pstats vocabulary."""

    #: ``filename:lineno(function)`` — basename'd so reports from
    #: different checkouts diff cleanly.
    name: str
    #: All calls, including recursive re-entries.
    ncalls: int
    #: Primitive (non-recursive) calls.
    primitive_calls: int
    #: Seconds spent in the function body itself.
    tottime: float
    #: Seconds including everything called beneath it.
    cumtime: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ncalls": self.ncalls,
            "primitive_calls": self.primitive_calls,
            "tottime": self.tottime,
            "cumtime": self.cumtime,
        }

    @classmethod
    def from_dict(cls, spec: dict) -> "FunctionStat":
        return cls(name=str(spec["name"]),
                   ncalls=int(spec["ncalls"]),
                   primitive_calls=int(spec["primitive_calls"]),
                   tottime=float(spec["tottime"]),
                   cumtime=float(spec["cumtime"]))


@dataclass(frozen=True)
class ProfileReport:
    """An immutable snapshot of one profiled section.

    ``functions`` is sorted by cumulative time, descending — index 0 is
    where the run actually went.
    """

    functions: Tuple[FunctionStat, ...]
    #: Total internal time across every function (pstats' ``total_tt``).
    total_seconds: float

    def to_dict(self) -> dict:
        return {
            "total_seconds": self.total_seconds,
            "functions": [stat.to_dict() for stat in self.functions],
        }


def _format_name(filename: str, line: int, func: str) -> str:
    """pstats' ``filename:lineno(function)``, with the path basename'd."""
    if filename == "~":          # built-ins: pstats' placeholder file
        return func
    return f"{os.path.basename(filename)}:{line}({func})"


def enable() -> None:
    """Start profiling; re-enabling restarts with a fresh profile."""
    global enabled, _profile
    if _profile is not None:
        _profile.disable()
    _profile = cProfile.Profile()
    enabled = True
    _profile.enable()


def disable() -> Optional[ProfileReport]:
    """Stop profiling; returns the report (``None`` if never enabled)."""
    global enabled, _profile
    profile, _profile = _profile, None
    enabled = False
    if profile is None:
        return None
    profile.disable()
    stats = pstats.Stats(profile)
    functions = [
        FunctionStat(name=_format_name(filename, line, func),
                     ncalls=nc, primitive_calls=cc,
                     tottime=tt, cumtime=ct)
        for (filename, line, func), (cc, nc, tt, ct, _callers)
        in stats.stats.items()  # type: ignore[attr-defined]
    ]
    functions.sort(key=lambda stat: stat.cumtime, reverse=True)
    return ProfileReport(functions=tuple(functions),
                         total_seconds=float(stats.total_tt))  # type: ignore[attr-defined]


def summary(report: Optional[ProfileReport], top: int = 15
            ) -> List[Tuple[str, int, float, float]]:
    """Top-N ``(name, ncalls, tottime, cumtime)`` rows by cumulative time.

    The frame that *contains* everything (the dispatch wrapper) is as
    uninteresting as it is dominant, so rows whose cumulative time is
    within 0.1 % of each other keep their relative order — the sort is
    already done by :func:`disable`.
    """
    if report is None:
        return []
    return [(stat.name, stat.ncalls, stat.tottime, stat.cumtime)
            for stat in report.functions[:max(0, top)]]


def cumulative_share(report: Optional[ProfileReport], needle: str) -> float:
    """Largest matching function's cumulative time over the run total.

    ``needle`` is substring-matched against the formatted name
    (``serializer.py:…(decode_object)`` matches ``decode_object``).  The
    *largest* match is used rather than a sum because cumulative times
    of a caller and its callee overlap.  Returns 0.0 when nothing
    matches or the run recorded no time.
    """
    if report is None or report.total_seconds <= 0.0:
        return 0.0
    matches = [stat.cumtime for stat in report.functions
               if needle in stat.name]
    if not matches:
        return 0.0
    return max(matches) / report.total_seconds


def write_json(report: ProfileReport, path: str, top: int = 200) -> None:
    """Persist the report's top-N functions as a JSON document.

    A full run touches thousands of functions; the default cap keeps the
    artifact reviewable while still dwarfing any plausible hot set.
    """
    document = {
        "total_seconds": report.total_seconds,
        "functions": [stat.to_dict()
                      for stat in report.functions[:max(0, top)]],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> ProfileReport:
    """Rebuild a (possibly truncated) report from :func:`write_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    functions = tuple(FunctionStat.from_dict(entry)
                      for entry in spec.get("functions", ()))
    return ProfileReport(functions=functions,
                         total_seconds=float(spec.get("total_seconds", 0.0)))
