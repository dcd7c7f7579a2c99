"""Measurement helpers: the op log, guarded percentiles, memory, host facts.

Two rules keep the figures steady:

* a percentile is reported only when the run holds at least
  :data:`MIN_BEYOND` samples beyond it, so a p99 never rests on the single
  slowest call of a short run;
* op times are scaled to a reference host speed.  The shared host this
  benchmark runs on moves between phases up to 40 % apart that last
  10-30 s, longer than a whole run.  A fixed pure-Python loop
  (:func:`reference_ms`) is timed every :data:`PROBE_EVERY_S` seconds
  between ops, and each op's time is multiplied by ``REFERENCE_MS / (the
  median of the five probes nearest to it)``; the median keeps one probe
  that another tenant's burst slowed from rescaling its neighbours.  The
  raw figures are printed beside the scaled ones.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Samples a run must hold beyond a percentile before it may be reported.
MIN_BEYOND = 10

#: The reference loop's time at the speed scaled times are reported at (its
#: typical time on the 2-vCPU Xeon host the benchmark was built on).
REFERENCE_MS = 1.5

#: Seconds between two reference probes inside a timed window.
PROBE_EVERY_S = 0.25


class PercentileRefused(ValueError):
    """A percentile was asked of a sample too small to support it."""


class WrongAnswer(AssertionError):
    """The program answered an op differently from the committed value."""


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) by linear interpolation between ranks.

    Refuses (raises :class:`PercentileRefused`) unless at least
    :data:`MIN_BEYOND` samples lie beyond the interpolation point: a p50
    needs 20 samples, a p90 92 and a p99 902.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    ordered = sorted(samples)
    count = len(ordered)
    position = q * (count - 1)
    lower = math.floor(position) if count else 0
    beyond = count - 1 - lower
    if count == 0 or beyond < MIN_BEYOND:
        raise PercentileRefused(
            f"p{q * 100:g} needs {MIN_BEYOND} samples beyond it; "
            f"{count} samples leave {max(beyond, 0)}"
        )
    upper = min(lower + 1, count - 1)
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def reference_ms() -> float:
    """The best of three timings of a fixed integer loop, in ms."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for value in range(20000):
            total += value * value % 7
        best = min(best, time.perf_counter() - start)
    return 1000.0 * best


def median(values: list[float]) -> float:
    """The plain median, for per-unit rates and set-up repeats (no guard)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty list")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


@dataclass
class OpLog:
    """Every op a run attempted: latencies of the ones that completed.

    A failed op (an exception, a non-2xx response, a timeout) counts as
    attempted and failed and contributes no latency.  ``extra`` holds named
    side samples, such as the latency of the ``update`` call inside an op.
    ``probes`` are reference timings; ``probe_of[i]`` is the last probe
    taken before latency ``i``, and ``units`` the latency index range of
    each whole unit.
    """

    latencies: list[float] = field(default_factory=list)
    extra: dict[str, list[float]] = field(default_factory=dict)
    probes: list[float] = field(default_factory=list)
    probe_of: list[int] = field(default_factory=list)
    units: list[tuple[int, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    _last_probe: float = field(default=-math.inf, init=False, repr=False)

    def probe(self, *, every: float = 0.0) -> None:
        """Time the reference loop, unless one ran less than ``every`` s ago."""
        if time.perf_counter() - self._last_probe >= every:
            self.probes.append(reference_ms())
            self._last_probe = time.perf_counter()

    def scale(self, index: int) -> float:
        """The factor taking latency ``index`` to the reference speed.

        The op ran between probes ``before`` and ``before + 1``; the factor
        uses the median of the five probes centred on that gap.
        """
        before = self.probe_of[index]
        nearest = self.probes[max(before - 2, 0):before + 3]
        return REFERENCE_MS / median(nearest)

    def scaled(self) -> list[float]:
        """Every latency scaled to the reference speed."""
        return [latency * self.scale(i) for i, latency in enumerate(self.latencies)]

    def unit_rates(self, *, scaled: bool = True) -> list[float]:
        """Completed ops per second of op time, per whole unit."""
        times = self.scaled() if scaled else self.latencies
        return [
            (end - start) / sum(times[start:end])
            for start, end in self.units
            if end > start
        ]

    def run(self, op: Callable[[], Any]) -> Any:
        """Time one op; count it, and record a failure instead of raising.

        :class:`WrongAnswer` is not a failure: it propagates and aborts the
        run, because a wrong answer makes every number of the run moot.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op()
        except WrongAnswer:
            raise
        except Exception as err:  # noqa: BLE001 - every failure is counted
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{type(err).__module__}.{type(err).__name__}: {err}")
            return None
        self.latencies.append(time.perf_counter() - start)
        self.probe_of.append(max(len(self.probes) - 1, 0))
        return result

    def add(self, name: str, seconds: float) -> None:
        self.extra.setdefault(name, []).append(seconds)


def expect(actual: Any, expected: Any, what: str) -> None:
    """Raise :class:`WrongAnswer` unless ``actual == expected``."""
    if actual != expected:
        raise WrongAnswer(f"{what}: expected {expected!r}, got {actual!r}")


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree(root: int) -> list[int]:
    """``root`` and its live descendants, from ``/proc/*/stat`` parent links."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may contain spaces; the fields after ")" do not.
        fields = stat.rsplit(")", 1)[1].split()
        parents[int(entry)] = int(fields[1])
    tree = [root]
    for pid in tree:
        tree.extend(child for child, parent in parents.items() if parent == pid)
    return tree


def tree_peak_rss_mb(root: int) -> float:
    """Sum of the peak RSS (``VmHWM``) of ``root`` and its descendants, MiB."""
    total_kib = 0
    for pid in process_tree(root):
        try:
            with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kib / 1024.0


def host_fingerprint(executor_workers: int | None) -> dict[str, Any]:
    """The facts that make two runs comparable: CPUs, CPU model, Python.

    ``executor_workers`` is the service's resolved process-pool size (its
    default is one worker per CPU); runs from hosts that differ in any field
    must not be compared.
    """
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "executor_workers": executor_workers,
    }
