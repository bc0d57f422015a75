"""Measurement arithmetic for the smallpunch benchmark.

Standard library only, so the tests of this file run without the package
under test.  It holds the span tracer, the self-time rule, the percentile
rule, the ledger that counts attempted and failed operations, and the
description of the machine that every result carries.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence


# ---------------------------------------------------------------- spans


OBSERVE_SPAN = "trace.observe"


@dataclass
class Span:
    """One timed call at a layer boundary."""

    sid: int
    parent: int | None
    name: str
    start: float
    end: float = math.nan

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory span recorder.

    Spans nest by call order: a span opened while another is open becomes
    its child.  Nothing is written until the caller asks for the spans.
    When ``enabled`` is false, wrapped calls go straight through.
    """

    enabled: bool = False
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, parent, name, time.perf_counter()))
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while span {popped} is innermost")

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form of open/close."""
        if not self.enabled:
            yield
            return
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside go untraced; their time stays with the caller."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        if self.enabled:
            self.samples.setdefault(name, []).append(value)

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[[tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """A stand-in for fn that records a span and, optionally, counts.

        observe(args, kwargs, result) runs after the span closes, inside a
        span of its own, so counting is charged neither to the layer nor to
        its caller.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if observe is not None:
                with self.span(OBSERVE_SPAN):
                    observe(args, kwargs, result)
            return result

        return traced


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for s in spans:
        covered = [
            (max(lo, s.start), min(hi, s.end))
            for lo, hi in children.get(s.sid, ())
            if hi > s.start and lo < s.end
        ]
        out.append(s.duration - _union_length(covered))
    return out


def self_time_by_name(spans: Sequence[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + own
    return totals


def root_wall(spans: Sequence[Span]) -> float:
    return sum(s.duration for s in spans if s.parent is None)


# ---------------------------------------------------------------- statistics


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-quantile, refused unless ten samples lie beyond it.

    A percentile read from fewer tail samples than that is mostly noise,
    so with n samples the highest reportable q is 1 - 10 / n.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    n = len(values)
    if n * (1.0 - q) < MIN_BEYOND - 1e-9:
        raise ValueError(
            f"p{round(q * 100)} needs at least {math.ceil(MIN_BEYOND / (1.0 - q) - 1e-9)} "
            f"samples, got {n}"
        )
    ordered = sorted(values)
    rank = max(1, math.ceil(q * n - 1e-9))
    return float(ordered[rank - 1])


# The probe's median on the machine the baseline was recorded on (2-vCPU
# x86-64 virtual machine, Python 3.11).  Scaled times read as seconds on
# that machine at its usual speed.
PROBE_REFERENCE_MS = 3.0


def probe_ms(repeats: int = 5) -> float:
    """ms of a fixed pure-Python loop: how fast the machine is right now.

    On a shared virtual machine the speed of the same code drifts by 1.5x
    and more over seconds to minutes.  The probe slows with it, and does
    not depend on the program under test.  It is the median of a few
    short loops, so that a preemption of a millisecond or two, which costs
    a long step next to nothing, does not count as a slow machine.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i
        times.append((time.perf_counter() - t0) * 1000.0)
    return median(times)


def scale_factor(probes: Sequence[float]) -> float:
    """Factor that brings times measured beside these probes to reference speed."""
    if not probes:
        raise ValueError("no probes to scale by")
    return PROBE_REFERENCE_MS * len(probes) / sum(probes)


# ---------------------------------------------------------------- ledger


@dataclass
class Ledger:
    """Operations attempted and failed, with the reason for each failure.

    An operation is a command, a request or an output check.  A check that
    does not hold is a failed operation, like a command that errs.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# ---------------------------------------------------------------- provenance


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digest(root: Path) -> str:
    """Digest of every file under root, by relative path and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def git_sha(repo: Path) -> str | None:
    """HEAD commit read from the .git directory, or None outside a clone."""
    git = repo / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def environment(repo: Path) -> dict[str, Any]:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": git_sha(repo),
        "src_sha256": tree_digest(repo / "src"),
        "machine": platform.machine(),
    }
