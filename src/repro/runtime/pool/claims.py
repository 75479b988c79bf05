"""Claim-file protocol: advisory per-item locks on a checkpoint store.

Parallel characterisation workers coordinate through the shared
checkpoint directory alone — no sockets, no manager process — so a
pool can span processes and (over a shared filesystem) hosts.  The
unit of coordination is a *claim file* next to the checkpoint entry it
protects: ``<key>.claim`` for the store's ``<key>.ckpt``.

The protocol:

- **Acquire** creates the claim with ``os.open(O_CREAT|O_EXCL)`` — the
  one filesystem primitive that is atomic on local filesystems and on
  NFS (v3+) alike, which is why the pool's multi-host story requires a
  locally-mounted or NFS-with-``O_EXCL`` directory.  The file body
  records the owner (host, pid, label) as JSON.
- **Heartbeat** touches the claim's mtime while the owner is working
  (:meth:`ClaimStore.hold` runs a daemon thread doing this), so a
  long-running fit does not look abandoned.
- **Liveness**: a claim is live while its mtime is younger than the
  store timeout; a same-host claim whose pid no longer exists is dead
  immediately (``os.kill(pid, 0)``), so a crashed worker's items are
  reclaimed without waiting out the timeout.
- **Reclaim**: acquiring over a stale/dead claim unlinks it and
  retries the ``O_EXCL`` race — when two reclaimers collide, exactly
  one wins the re-create.

Claims are advisory: the checkpoint store itself never requires them,
but :meth:`CheckpointStore.gc` respects them (a live claim protects
its entry from eviction) and the worker pool never simulates an item
whose claim it could not take.

Shared-mount hardening: all claim reads, stats, listings and the
``O_EXCL`` create route through the :mod:`repro.runtime.fsfaults`
seam, so transient ``EIO``/``ESTALE``/``ENOSPC`` are retried with
bounded backoff instead of mis-reading a live claim as dead.
Staleness judgements add a configurable ``skew_tolerance`` on top of
the timeout, because raw ``time.time() - mtime`` deltas lie when the
heartbeating host's clock drifts from ours (NFS stores the *server's*
idea of mtime).  In the worst case a duplicated claim only costs
duplicated work: payloads are content-addressed, so two owners
computing the same item write byte-identical entries.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ParameterError
from repro.runtime import fsfaults
from repro.runtime.checkpoint import CheckpointStore

__all__ = [
    "DEFAULT_CLAIM_TIMEOUT",
    "DEFAULT_SKEW_TOLERANCE",
    "ClaimInfo",
    "ClaimStore",
]

#: Seconds without a heartbeat after which a claim is presumed
#: abandoned.  Generous: a claim's owner refreshes the mtime several
#: times per timeout window, so only a hard-killed (or unreachable)
#: owner ever lets a claim go stale.
DEFAULT_CLAIM_TIMEOUT = 600.0

#: Extra seconds of cross-host clock skew tolerated on top of the
#: claim timeout before a claim is judged stale.  NTP-disciplined
#: hosts drift well under this; the cost of being generous is a
#: slightly slower reclaim of a genuinely dead foreign claim.
DEFAULT_SKEW_TOLERANCE = 5.0


@dataclass(frozen=True)
class ClaimInfo:
    """Decoded owner record of one claim file.

    Attributes:
        key: Content-addressed key the claim protects.
        host: Owner's hostname at acquire time.
        pid: Owner's process id.
        owner: Free-form owner label (``"host:pid"`` or worker tag).
        mtime: Last heartbeat (file mtime, epoch seconds).
    """

    key: str
    host: str
    pid: int
    owner: str
    mtime: float


class ClaimStore:
    """Claim files over a checkpoint directory.

    Attributes:
        directory: The shared store root (same as the checkpoint
            store's).
        timeout: Staleness threshold in seconds.
        skew_tolerance: Extra seconds of cross-host clock skew
            tolerated before a claim is judged stale.
        owner: Label written into claims this store acquires.
        acquired: Claims successfully taken by this store.
        contested: Acquire attempts lost to a live foreign claim.
        reclaimed: Stale/dead claims unlinked on the way to acquiring.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        *,
        timeout: float = DEFAULT_CLAIM_TIMEOUT,
        skew_tolerance: float = DEFAULT_SKEW_TOLERANCE,
        owner: str | None = None,
    ) -> None:
        if timeout <= 0:
            raise ParameterError(
                f"claim timeout must be > 0 seconds, got {timeout}"
            )
        if skew_tolerance < 0:
            raise ParameterError(
                f"claim skew tolerance must be >= 0 seconds, "
                f"got {skew_tolerance}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.timeout = float(timeout)
        self.skew_tolerance = float(skew_tolerance)
        self.owner = owner or f"{socket.gethostname()}:{os.getpid()}"
        self.acquired = 0
        self.contested = 0
        self.reclaimed = 0

    # ------------------------------------------------------------------
    # Paths and inspection
    # ------------------------------------------------------------------
    def path_for(self, token: str) -> Path:
        """Claim-file path for a request token."""
        return self.key_path(CheckpointStore.key_of(token))

    def key_path(self, key: str) -> Path:
        """Claim-file path for an already-hashed store key."""
        return self.directory / f"{key}.claim"

    def _read_path(self, path: Path) -> ClaimInfo | None:
        try:
            mtime = fsfaults.stat_mtime(path, op="claim.stat")
            body = json.loads(
                fsfaults.read_text(path, op="claim.read")
            )
        except (OSError, ValueError):
            # Absent, unreadable past the transient-error retries, or
            # a torn/garbage body (foreign files, editor droppings):
            # no decodable claim here.
            return None
        if not isinstance(body, dict):
            return None
        return ClaimInfo(
            key=path.stem,
            host=str(body.get("host", "")),
            pid=int(body.get("pid", 0) or 0),
            owner=str(body.get("owner", "")),
            mtime=mtime,
        )

    def read(self, token: str) -> ClaimInfo | None:
        """Decode the claim for ``token``; None when absent/unreadable."""
        return self._read_path(self.path_for(token))

    def is_live(self, info: ClaimInfo | None) -> bool:
        """Whether a claim still protects its entry.

        Stale mtime (older than the timeout plus the skew tolerance)
        means dead; a same-host claim whose pid no longer exists is
        dead regardless of mtime.  An unreadable/absent claim
        (``None``) is dead.  An mtime *ahead* of our clock (the
        heartbeating host runs fast) is trivially within the window —
        future mtimes never mark a claim dead.
        """
        if info is None:
            return False
        if time.time() - info.mtime > self.timeout + self.skew_tolerance:
            return False
        if info.pid and info.host == socket.gethostname():
            try:
                os.kill(info.pid, 0)
            except ProcessLookupError:
                return False
            except (PermissionError, OSError):
                pass  # exists but not ours — alive
        return True

    def live_claim_for_key(self, key: str) -> ClaimInfo | None:
        """The live claim protecting store key ``key``, if any."""
        info = self._read_path(self.key_path(key))
        return info if self.is_live(info) else None

    def scan(self, *, live_only: bool = False) -> tuple[ClaimInfo, ...]:
        """Decode every claim file in the directory, sorted by key.

        With ``live_only`` the stale/dead ones are filtered out —
        tests and post-run audits use this to assert that a completed
        pool left no claim debris behind (beyond deliberately injected
        kills).
        """
        infos = []
        for path in fsfaults.listdir(
            self.directory, "*.claim", op="claim.list"
        ):
            info = self._read_path(path)
            if info is None:
                continue
            if live_only and not self.is_live(info):
                continue
            infos.append(info)
        return tuple(infos)

    # ------------------------------------------------------------------
    # Acquire / heartbeat / release
    # ------------------------------------------------------------------
    def _acquire_one(self, path: Path) -> bool:
        """Take one claim file; reclaims a stale/dead previous owner."""
        # Two rounds: lose the first O_EXCL to an existing file, judge
        # it dead, unlink, and race the re-create once.  Losing the
        # second round means another reclaimer won — back off.
        body = json.dumps(
            {
                "host": socket.gethostname(),
                "pid": os.getpid(),
                "owner": self.owner,
                "acquired_at": time.time(),
            },
            sort_keys=True,
        )
        for _ in range(2):
            try:
                created = fsfaults.create_exclusive(
                    path, body.encode(), op="claim.create"
                )
            except OSError as error:
                raise ParameterError(
                    f"cannot create claim file {path}: {error}"
                ) from error
            if created:
                self.acquired += 1
                return True
            info = self._read_path(path)
            if self.is_live(info):
                self.contested += 1
                return False
            try:
                path.unlink()
            except OSError:
                pass
            self.reclaimed += 1
        self.contested += 1
        return False

    def acquire(
        self, token: str, companions: Iterable[str] = ()
    ) -> bool:
        """Claim ``token`` (the lock) plus its companion tokens.

        The primary token decides ownership; companions (e.g. the
        Monte-Carlo token a fitted-edge payload depends on) are
        claimed alongside so gc cannot evict them mid-flight.  A
        live foreign claim on any of them rolls the whole acquisition
        back and returns False.
        """
        if not self._acquire_one(self.path_for(token)):
            return False
        taken = [token]
        for companion in companions:
            if not self._acquire_one(self.path_for(companion)):
                self.release(taken)
                return False
            taken.append(companion)
        return True

    def heartbeat(self, tokens: Iterable[str]) -> None:
        """Refresh the mtime of claims this owner holds."""
        for token in tokens:
            try:
                fsfaults.touch(
                    self.path_for(token), op="claim.heartbeat"
                )
            except OSError:
                pass

    def release(self, tokens: Iterable[str]) -> int:
        """Unlink claims; returns how many existed."""
        released = 0
        for token in tokens:
            try:
                self.path_for(token).unlink()
            except OSError:
                continue
            released += 1
        return released

    @contextmanager
    def hold(self, tokens: tuple[str, ...]) -> Iterator[None]:
        """Heartbeat the given claims for the duration of the block.

        A daemon thread touches the claim files every quarter timeout,
        so a fit that takes longer than the claim timeout still looks
        live to other workers.  The thread dies with the process — a
        killed worker stops heartbeating, which is exactly what lets
        survivors reclaim its items.
        """
        interval = max(self.timeout / 4.0, 0.05)
        stop = threading.Event()

        def _beat() -> None:
            while not stop.wait(interval):
                self.heartbeat(tokens)

        thread = threading.Thread(
            target=_beat, name="repro-claim-heartbeat", daemon=True
        )
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join(timeout=interval + 1.0)
