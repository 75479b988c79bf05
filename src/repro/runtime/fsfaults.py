"""Deterministic filesystem fault model and the FS-access seam.

The claim-file pool is designed for shared mounts (DESIGN.md §9), but
shared mounts fail in ways a local disk never shows: transient
``EIO``/``ESTALE`` on read, ``ENOSPC`` on write, torn writes that
leave a truncated entry behind, stale directory listings and delayed
visibility (NFS close-to-open semantics), and claim mtimes skewed by
clock drift between hosts.  This module provides both halves of the
hardening story:

- a **fault model** in the style of :mod:`repro.runtime.faults`: a
  seeded :class:`FsFaultPlan` of rule-matched :class:`FsFaultRule`
  entries, activated with :func:`inject_fs`, whose every decision is
  a pure function of ``(plan seed, rule, path name, op, occurrence
  index)`` — the same sequence of filesystem accesses always sees the
  same faults;
- a thin **FS-access seam** (:func:`read_bytes`, :func:`write_bytes`,
  :func:`append_line`, :func:`create_exclusive`, :func:`replace`,
  :func:`exists`, :func:`listdir`, :func:`stat_mtime`) that
  :class:`~repro.runtime.checkpoint.CheckpointStore`,
  :class:`~repro.runtime.pool.claims.ClaimStore`,
  :class:`~repro.runtime.pool.journal.PoolJournal` and the Liberty
  export writer all route through.  The seam retries *transient*
  errors — injected or real — with bounded deterministic backoff
  (:class:`RetryPolicy`), surfacing every retry as telemetry counters
  and an ``fs.retry`` span.

Fault kinds:

- ``read_error``    — transient ``OSError`` (``EIO`` or ``ESTALE``)
  on a matching read/stat op;
- ``write_error``   — transient ``ENOSPC`` on a matching
  write/append/create/replace op;
- ``torn_write``    — the write "succeeds" but only a prefix of the
  payload reaches the file (a crash mid-write / lost NFS commit);
- ``stale_listing`` — a directory listing omits matching entries
  (readdir cache staleness);
- ``hidden_entry``  — an existence probe reports a present file as
  absent (delayed close-to-open visibility);
- ``clock_skew``    — stat-reported mtimes are shifted by a constant
  (cross-host clock drift against claim heartbeats).

Per-process activation mirrors :func:`repro.runtime.faults.inject`:
each pool worker activates its own plan instance, so plan counters
never race across processes.  Decisions are keyed on the *path name*
and a per-``(rule, path, op)`` occurrence counter — not on global
ordering — so they are stable under worker interleaving for any fixed
per-process access sequence.
"""

from __future__ import annotations

import errno
import hashlib
import os
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from types import MappingProxyType
from typing import Callable, TypeVar

from repro.errors import ParameterError
from repro.runtime import telemetry

__all__ = [
    "DEFAULT_RETRY",
    "FsFaultPlan",
    "FsFaultRule",
    "RetryPolicy",
    "TRANSIENT_ERRNOS",
    "active_fs_plan",
    "append_line",
    "create_exclusive",
    "exists",
    "inject_fs",
    "listdir",
    "read_bytes",
    "read_text",
    "replace",
    "retry_policy",
    "set_retry_policy",
    "stat_mtime",
    "touch",
    "use_retry_policy",
    "write_bytes",
]

_KINDS = (
    "read_error",
    "write_error",
    "torn_write",
    "stale_listing",
    "hidden_entry",
    "clock_skew",
)

_READ_ERRNOS = MappingProxyType(
    {"EIO": errno.EIO, "ESTALE": errno.ESTALE}
)

#: Errno values the seam treats as transient and retries.  Everything
#: else (``ENOENT``, ``EACCES``...) is a real answer, not flakiness.
TRANSIENT_ERRNOS = frozenset(
    {errno.EIO, errno.ESTALE, errno.EAGAIN, errno.ENOSPC}
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with deterministic exponential backoff.

    Attributes:
        retries: Additional attempts after the first (0 disables
            retrying).
        backoff: Sleep before the first retry, in seconds.
        multiplier: Backoff growth factor per subsequent retry.
    """

    retries: int = 2
    backoff: float = 0.05
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ParameterError(
                f"fs retries must be >= 0, got {self.retries}"
            )
        if self.backoff < 0:
            raise ParameterError(
                f"fs backoff must be >= 0 seconds, got {self.backoff}"
            )
        if self.multiplier < 1.0:
            raise ParameterError(
                f"fs backoff multiplier must be >= 1, "
                f"got {self.multiplier}"
            )

    def delay(self, retry_index: int) -> float:
        """Sleep before retry ``retry_index`` (0-based), in seconds."""
        return self.backoff * self.multiplier**retry_index


DEFAULT_RETRY = RetryPolicy()


@dataclass(frozen=True)
class FsFaultRule:
    """One filesystem fault rule; glob selectors match anything by
    default.

    Attributes:
        kind: One of ``read_error``, ``write_error``, ``torn_write``,
            ``stale_listing``, ``hidden_entry``, ``clock_skew``.
        path_glob: ``fnmatch`` pattern over the file *name* (for
            ``stale_listing``: the entry names hidden from the
            listing).
        op: ``fnmatch`` pattern over the seam operation name
            (``"checkpoint.write"``, ``"claim.*"``...).
        times: Maximum fires per ``(path, op)`` pair; None removes
            the bound (persistent faults such as clock skew).
        probability: Chance a matching access fires, drawn
            deterministically from the plan seed.
        error: For ``read_error``: ``"EIO"`` or ``"ESTALE"``.
        keep_bytes: For ``torn_write``: exact surviving prefix length
            (overrides ``keep_fraction``).
        keep_fraction: For ``torn_write``: surviving fraction of the
            payload when ``keep_bytes`` is None.
        skew_seconds: For ``clock_skew``: mtime shift (may be
            negative — a host whose clock runs behind).
    """

    kind: str
    path_glob: str = "*"
    op: str = "*"
    times: int | None = 1
    probability: float = 1.0
    error: str = "EIO"
    keep_bytes: int | None = None
    keep_fraction: float = 0.5
    skew_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ParameterError(
                f"fs fault kind must be one of {_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.times is not None and self.times < 1:
            raise ParameterError(
                f"times must be >= 1 or None, got {self.times}"
            )
        if not 0.0 < self.probability <= 1.0:
            raise ParameterError(
                f"probability must lie in (0, 1], "
                f"got {self.probability}"
            )
        if self.error not in _READ_ERRNOS:
            raise ParameterError(
                f"read_error errno must be one of "
                f"{tuple(_READ_ERRNOS)}, got {self.error!r}"
            )
        if self.keep_bytes is not None and self.keep_bytes < 0:
            raise ParameterError(
                f"keep_bytes must be >= 0, got {self.keep_bytes}"
            )
        if not 0.0 <= self.keep_fraction <= 1.0:
            raise ParameterError(
                f"keep_fraction must lie in [0, 1], "
                f"got {self.keep_fraction}"
            )

    def matches(self, name: str, op: str) -> bool:
        """Whether this rule selects ``(file name, seam op)``."""
        return fnmatch(name, self.path_glob) and fnmatch(op, self.op)

    def torn(self, data: bytes) -> bytes:
        """The prefix of ``data`` that survives a torn write."""
        if self.keep_bytes is not None:
            return data[: self.keep_bytes]
        return data[: int(len(data) * self.keep_fraction)]


def _coin(
    seed: int, index: int, name: str, op: str, occurrence: int
) -> float:
    """Deterministic uniform draw in [0, 1) for one fault decision."""
    digest = hashlib.sha256(
        f"{seed}|{index}|{name}|{op}|{occurrence}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "little") / 2**64


@dataclass
class FsFaultPlan:
    """A seeded set of fault rules plus one run's firing state.

    Picklable (it travels to spawned pool workers inside a
    ``WorkerSpec``); each unpickled copy starts from the counters it
    was pickled with, so workers fire their faults independently.

    Attributes:
        rules: The fault rules, matched in order; every match fires
            independently.
        seed: Seed of the deterministic probability draws.
        fired: ``kind -> count`` of faults this plan instance fired.
    """

    rules: tuple[FsFaultRule, ...]
    seed: int = 0
    fired: dict[str, int] = field(default_factory=dict)
    _attempts: dict[tuple[int, str, str], int] = field(
        default_factory=dict
    )
    _fires: dict[tuple[int, str, str], int] = field(
        default_factory=dict
    )

    def __init__(
        self, rules: Iterator[FsFaultRule] | tuple[FsFaultRule, ...],
        seed: int = 0,
    ) -> None:
        self.rules = tuple(rules)
        self.seed = int(seed)
        self.fired = {}
        self._attempts = {}
        self._fires = {}

    def should_fire(
        self, index: int, rule: FsFaultRule, name: str, op: str
    ) -> bool:
        """Decide (and record) whether ``rule`` fires on this access."""
        key = (index, name, op)
        occurrence = self._attempts.get(key, 0)
        self._attempts[key] = occurrence + 1
        if (
            rule.times is not None
            and self._fires.get(key, 0) >= rule.times
        ):
            return False
        if (
            rule.probability < 1.0
            and _coin(self.seed, index, name, op, occurrence)
            >= rule.probability
        ):
            return False
        self._fires[key] = self._fires.get(key, 0) + 1
        self.fired[rule.kind] = self.fired.get(rule.kind, 0) + 1
        return True

    def matching(
        self, kind: str, name: str, op: str
    ) -> Iterator[tuple[int, FsFaultRule]]:
        """Indexed rules of ``kind`` selecting ``(name, op)``."""
        for index, rule in enumerate(self.rules):
            if rule.kind == kind and rule.matches(name, op):
                yield index, rule

    def total_fired(self) -> int:
        """Faults fired by this plan instance, all kinds summed."""
        return sum(self.fired.values())


_ACTIVE_FS: FsFaultPlan | None = None
_RETRY: RetryPolicy = DEFAULT_RETRY


def active_fs_plan() -> FsFaultPlan | None:
    """The currently injected filesystem fault plan, if any."""
    return _ACTIVE_FS


@contextmanager
def inject_fs(plan: FsFaultPlan) -> Iterator[FsFaultPlan]:
    """Activate ``plan`` for the duration of the ``with`` block."""
    # Deliberate process-local activation, mirroring faults.inject:
    # each parallel worker activates its own plan instance.
    global _ACTIVE_FS  # repro-lint: disable=PAR003
    previous = _ACTIVE_FS
    _ACTIVE_FS = plan
    try:
        yield plan
    finally:
        _ACTIVE_FS = previous


def retry_policy() -> RetryPolicy:
    """The process-wide retry policy the seam currently applies."""
    return _RETRY


def set_retry_policy(policy: RetryPolicy) -> RetryPolicy:
    """Install ``policy`` process-wide; returns the previous policy.

    The CLI calls this once per process from ``--fs-retries`` /
    ``--fs-backoff``; pool workers install the policy forwarded in
    their :class:`~repro.runtime.pool.worker.WorkerSpec`.
    """
    # Process-local config, set once at startup (CLI / worker main).
    global _RETRY  # repro-lint: disable=PAR003
    previous = _RETRY
    _RETRY = policy
    return previous


@contextmanager
def use_retry_policy(policy: RetryPolicy) -> Iterator[RetryPolicy]:
    """Scoped :func:`set_retry_policy` (tests and harnesses)."""
    previous = set_retry_policy(policy)
    try:
        yield policy
    finally:
        set_retry_policy(previous)


# ----------------------------------------------------------------------
# Fault hooks (no-ops without an active plan)
# ----------------------------------------------------------------------
def _maybe_error(kind: str, op: str, path: Path) -> None:
    """Raise the injected transient ``OSError`` when a rule fires."""
    plan = _ACTIVE_FS
    if plan is None:
        return
    for index, rule in plan.matching(kind, path.name, op):
        if plan.should_fire(index, rule, path.name, op):
            if kind == "write_error":
                code, label = errno.ENOSPC, "ENOSPC"
            else:
                code, label = _READ_ERRNOS[rule.error], rule.error
            telemetry.counter_inc(f"fsfaults.{kind}")
            raise OSError(
                code, f"injected {label} on {op} {path.name}"
            )


def _torn_payload(op: str, path: Path, data: bytes) -> bytes:
    """Apply matching ``torn_write`` rules to an outgoing payload."""
    plan = _ACTIVE_FS
    if plan is None:
        return data
    for index, rule in plan.matching("torn_write", path.name, op):
        if plan.should_fire(index, rule, path.name, op):
            telemetry.counter_inc("fsfaults.torn_write")
            data = rule.torn(data)
    return data


def _is_hidden(op: str, path: Path) -> bool:
    """Whether a ``hidden_entry`` rule hides this existence probe."""
    plan = _ACTIVE_FS
    if plan is None:
        return False
    for index, rule in plan.matching("hidden_entry", path.name, op):
        if plan.should_fire(index, rule, path.name, op):
            telemetry.counter_inc("fsfaults.hidden_entry")
            return True
    return False


def _filter_listing(
    op: str, directory: Path, entries: list[Path]
) -> list[Path]:
    """Apply ``stale_listing`` rules to one directory listing."""
    plan = _ACTIVE_FS
    if plan is None:
        return entries
    for index, rule in enumerate(plan.rules):
        # path_glob selects the *entries* to hide, so rule matching
        # here is by op alone; the firing counter keys on the
        # directory whose listing went stale.
        if rule.kind != "stale_listing" or not fnmatch(op, rule.op):
            continue
        if plan.should_fire(index, rule, directory.name, op):
            telemetry.counter_inc("fsfaults.stale_listing")
            entries = [
                entry
                for entry in entries
                if not fnmatch(entry.name, rule.path_glob)
            ]
    return entries


def _skewed(op: str, path: Path, mtime: float) -> float:
    """Apply ``clock_skew`` rules to a stat-reported mtime."""
    plan = _ACTIVE_FS
    if plan is None:
        return mtime
    for index, rule in plan.matching("clock_skew", path.name, op):
        if plan.should_fire(index, rule, path.name, op):
            telemetry.counter_inc("fsfaults.clock_skew")
            mtime += rule.skew_seconds
    return mtime


# ----------------------------------------------------------------------
# The seam: retried filesystem primitives
# ----------------------------------------------------------------------
_T = TypeVar("_T")


def _write_all(descriptor: int, payload: bytes) -> None:
    """Write ``payload`` fully; ``os.write`` may stop short."""
    view = memoryview(payload)
    while view:
        view = view[os.write(descriptor, view):]


def _with_retries(
    op: str, path: Path, attempt: Callable[[], _T]
) -> _T:
    """Run ``attempt``, retrying transient ``OSError`` per the active
    :class:`RetryPolicy`; re-raises the last error when exhausted."""
    policy = _RETRY
    try:
        return attempt()
    except OSError as error:
        if error.errno not in TRANSIENT_ERRNOS or policy.retries < 1:
            raise
        last = error
    with telemetry.span("fs.retry", op=op, path=path.name):
        for retry_index in range(policy.retries):
            telemetry.counter_inc("fs.retries")
            telemetry.counter_inc(f"fs.retries.{op}")
            delay = policy.delay(retry_index)
            if delay > 0:
                time.sleep(delay)
            try:
                result = attempt()
            except OSError as error:
                if error.errno not in TRANSIENT_ERRNOS:
                    raise
                last = error
                continue
            telemetry.counter_inc("fs.retry_recovered")
            return result
    telemetry.counter_inc("fs.retry_exhausted")
    raise last


def read_bytes(
    path: str | os.PathLike[str], *, op: str = "fs.read"
) -> bytes:
    """Read a file's bytes, retrying transient read errors."""
    target = Path(path)

    def attempt() -> bytes:
        _maybe_error("read_error", op, target)
        return target.read_bytes()

    return _with_retries(op, target, attempt)


def read_text(
    path: str | os.PathLike[str], *, op: str = "fs.read"
) -> str:
    """Read a file's text, retrying transient read errors."""
    return read_bytes(path, op=op).decode()


def write_bytes(
    path: str | os.PathLike[str],
    data: bytes,
    *,
    op: str = "fs.write",
    fsync: bool = False,
) -> int:
    """(Over)write a file, retrying transient errors; returns the
    bytes actually written (less than ``len(data)`` under an injected
    torn write — callers verify sizes where that matters)."""
    target = Path(path)

    def attempt() -> int:
        _maybe_error("write_error", op, target)
        payload = _torn_payload(op, target, data)
        descriptor = os.open(
            target, os.O_CREAT | os.O_WRONLY | os.O_TRUNC, 0o644
        )
        try:
            _write_all(descriptor, payload)
            if fsync:
                os.fsync(descriptor)
        finally:
            os.close(descriptor)
        return len(payload)

    return _with_retries(op, target, attempt)


def append_line(
    path: str | os.PathLike[str], data: bytes, *, op: str = "fs.append"
) -> int:
    """Append one record atomically (``O_APPEND``, single write),
    retrying transient errors; returns the bytes written."""
    target = Path(path)

    def attempt() -> int:
        _maybe_error("write_error", op, target)
        payload = _torn_payload(op, target, data)
        descriptor = os.open(
            target, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644
        )
        try:
            # One os.write is the atomicity unit; finishing a (rare)
            # short write can tear the line, which the lenient
            # readers tolerate — losing the bytes entirely is worse.
            _write_all(descriptor, payload)
        finally:
            os.close(descriptor)
        return len(payload)

    return _with_retries(op, target, attempt)


def create_exclusive(
    path: str | os.PathLike[str], data: bytes, *, op: str = "fs.create"
) -> bool:
    """``O_CREAT|O_EXCL``-create a file with ``data``; False when it
    already exists.  Transient errors are retried; the existence
    answer is never retried (it is an answer, not a failure)."""
    target = Path(path)

    def attempt() -> bool:
        _maybe_error("write_error", op, target)
        try:
            descriptor = os.open(
                target, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
            )
        except FileExistsError:
            return False
        payload = _torn_payload(op, target, data)
        try:
            _write_all(descriptor, payload)
        finally:
            os.close(descriptor)
        return True

    return _with_retries(op, target, attempt)


def replace(
    src: str | os.PathLike[str],
    dst: str | os.PathLike[str],
    *,
    op: str = "fs.replace",
) -> None:
    """Atomic rename, retrying transient errors."""
    target = Path(dst)

    def attempt() -> None:
        _maybe_error("write_error", op, target)
        os.replace(src, dst)

    _with_retries(op, target, attempt)


def touch(
    path: str | os.PathLike[str], *, op: str = "fs.touch"
) -> None:
    """Refresh an existing file's mtime, retrying transient errors.

    Claim heartbeats live on this: a heartbeat lost to a transient
    shared-mount error ages the claim toward the reclaim timeout, so
    it goes through the same retry discipline as every other protocol
    write.  The file must already exist — touch never creates (claim
    birth is :func:`create_exclusive`'s job)."""
    target = Path(path)

    def attempt() -> None:
        _maybe_error("write_error", op, target)
        os.utime(target)

    _with_retries(op, target, attempt)


def exists(
    path: str | os.PathLike[str], *, op: str = "fs.exists"
) -> bool:
    """Existence probe subject to ``hidden_entry`` visibility faults.

    A hidden probe answers False exactly like NFS close-to-open
    staleness would; callers that then recompute produce the same
    content-addressed bytes, so delayed visibility costs work, never
    correctness.
    """
    target = Path(path)
    if _is_hidden(op, target):
        return False
    return target.exists()


def listdir(
    directory: str | os.PathLike[str],
    pattern: str,
    *,
    op: str = "fs.list",
) -> tuple[Path, ...]:
    """Sorted glob listing subject to ``stale_listing`` faults."""
    root = Path(directory)
    entries = sorted(root.glob(pattern))
    return tuple(_filter_listing(op, root, entries))


def stat_mtime(
    path: str | os.PathLike[str], *, op: str = "fs.stat"
) -> float:
    """A file's mtime, retrying transient errors, with any injected
    clock skew applied (claim liveness reads mtimes through this)."""
    target = Path(path)

    def attempt() -> float:
        _maybe_error("read_error", op, target)
        return target.stat().st_mtime

    return _skewed(op, target, _with_retries(op, target, attempt))
