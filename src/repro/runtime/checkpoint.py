"""Content-addressed checkpoint store for long-running pipelines.

Library characterisation simulates thousands of Monte-Carlo arc
populations; a killed run used to restart from zero.  The store in this
module gives every unit of work a *content-addressed* key — a hash of
the full request (engine corner, cell topology, grid, sample count,
seed) — and persists the finished payload under that key, so a re-run
of the same request resumes from the last completed arc while any
change to the request (different seed, grid, corner...) naturally maps
to fresh keys and recomputes.

Payloads are arbitrary Python objects (sample grids, fitted models)
persisted with :mod:`pickle`; the store is a private cache directory
owned by this library, not an interchange format.  Writes are atomic
(temp file + ``os.replace``) so a kill mid-write never leaves a
truncated checkpoint behind *on a well-behaved filesystem*.  Shared
mounts are not well behaved, so the store also defends its reads:

- every filesystem access routes through the seam in
  :mod:`repro.runtime.fsfaults`, which retries transient errors
  (``EIO``/``ESTALE``/``ENOSPC``) with bounded deterministic backoff;
- format v2 entries carry a sha256 checksum of the pickled payload,
  so a torn or bit-flipped entry is *detected* rather than trusted;
- a corrupt entry is **quarantined** — renamed to ``<name>.corrupt``,
  counted (``quarantined`` attribute, ``checkpoint.quarantined``
  telemetry) — and reported as a cache miss, so the caller recomputes
  it instead of aborting the whole run;
- v1 entries (no checksum) still load, so a pre-existing store
  resumes under the new format.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from collections.abc import Iterable
from pathlib import Path
from typing import Any

from repro.errors import CheckpointError
from repro.runtime import fsfaults, telemetry

__all__ = ["CheckpointStore", "QUARANTINE_SUFFIX"]

#: Bump when the on-disk layout changes.  v2 wraps the payload pickle
#: in a checksummed envelope; v1 (payload stored directly) is still
#: readable.  Unknown formats are quarantined, not fatal.
_FORMAT_VERSION = 2

#: Appended to a corrupt entry's file name when it is quarantined.
QUARANTINE_SUFFIX = ".corrupt"


class _CorruptEntry(Exception):
    """Internal: a stored entry failed decoding or verification."""


class CheckpointStore:
    """Directory of content-addressed pickled checkpoints.

    Attributes:
        directory: Store root; created on construction.
        reuse: When False, ``load`` always misses (fresh run) while
            ``save`` still records checkpoints for future resumes.
        hits: Number of successful loads.
        misses: Number of loads that found nothing.
        writes: Number of checkpoints saved.
        quarantined: Corrupt entries renamed aside and re-reported as
            misses (each one also counts into ``misses``).
    """

    def __init__(
        self, directory: str | os.PathLike[str], *, reuse: bool = True
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.reuse = reuse
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0

    @staticmethod
    def key_of(token: str) -> str:
        """Content-addressed key for a request token."""
        return hashlib.sha256(token.encode()).hexdigest()[:32]

    def path_for(self, token: str) -> Path:
        """On-disk path of the checkpoint for ``token``."""
        return self.directory / f"{self.key_of(token)}.ckpt"

    def contains(self, token: str) -> bool:
        """Whether a checkpoint for ``token`` exists on disk."""
        return fsfaults.exists(
            self.path_for(token), op="checkpoint.exists"
        )

    def missing(self, tokens: Iterable[str]) -> tuple[str, ...]:
        """The given tokens that have no checkpoint on disk yet.

        Order-preserving, so callers (pool respawn accounting, the
        parent sweep's completeness check) see missing work in the
        same serial order the items were generated in.
        """
        return tuple(
            token for token in tokens if not self.contains(token)
        )

    @staticmethod
    def _decode(blob: bytes, token: str) -> Any:
        """Decode and verify one stored entry.

        Raises:
            _CorruptEntry: On any torn, foreign, checksum-failing or
                unknown-format entry — the caller quarantines it.
        """
        try:
            entry = pickle.loads(blob)
        except Exception as error:
            raise _CorruptEntry(f"undecodable pickle: {error}")
        if not isinstance(entry, dict) or "payload" not in entry:
            raise _CorruptEntry("unknown entry layout")
        if entry.get("token") != token:
            raise _CorruptEntry("written for a different request")
        version = entry.get("version")
        if version == 1:
            # Pre-checksum format: the payload object is stored
            # directly.  Trusted as-is for read compatibility.
            return entry["payload"]
        if version != _FORMAT_VERSION:
            raise _CorruptEntry(f"unknown format version {version!r}")
        payload_bytes = entry["payload"]
        if not isinstance(payload_bytes, bytes):
            raise _CorruptEntry("v2 payload is not a byte string")
        digest = hashlib.sha256(payload_bytes).hexdigest()
        if digest != entry.get("sha256"):
            raise _CorruptEntry("payload checksum mismatch")
        try:
            return pickle.loads(payload_bytes)
        except Exception as error:
            raise _CorruptEntry(f"undecodable payload: {error}")

    def _quarantine(self, path: Path, reason: str) -> None:
        """Rename a corrupt entry aside and count it.

        The quarantined file keeps its bytes (``<name>.corrupt``
        next to the store entries) for post-mortem inspection; the
        key becomes a miss, so the payload is recomputed and saved
        fresh.  A quarantine that cannot rename falls back to
        unlinking — the entry must stop being loadable either way.
        """
        target = path.with_name(path.name + QUARANTINE_SUFFIX)
        try:
            fsfaults.replace(path, target, op="checkpoint.quarantine")
        except OSError:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        self.quarantined += 1
        telemetry.counter_inc("checkpoint.quarantined")

    def load(self, token: str) -> Any | None:
        """Load the payload for ``token``; None on miss (or fresh run).

        A corrupt entry — torn write, checksum mismatch, foreign or
        unknown format, or unreadable after the transient-error
        retries — is quarantined (renamed to ``*.corrupt``) and
        reported as a miss so the caller recomputes it; it never
        aborts the run.
        """
        path = self.path_for(token)
        if not self.reuse or not fsfaults.exists(
            path, op="checkpoint.exists"
        ):
            self.misses += 1
            telemetry.counter_inc("checkpoint.miss")
            return None
        with telemetry.span("checkpoint.load"):
            try:
                blob = fsfaults.read_bytes(path, op="checkpoint.read")
            except FileNotFoundError:
                # Raced a concurrent gc/invalidate between the
                # existence probe and the read: a plain miss.
                self.misses += 1
                telemetry.counter_inc("checkpoint.miss")
                return None
            except OSError as error:
                self._quarantine(
                    path, f"unreadable after retries: {error}"
                )
                self.misses += 1
                telemetry.counter_inc("checkpoint.miss")
                return None
            try:
                payload = self._decode(blob, token)
            except _CorruptEntry as corrupt:
                self._quarantine(path, str(corrupt))
                self.misses += 1
                telemetry.counter_inc("checkpoint.miss")
                return None
        self.hits += 1
        telemetry.counter_inc("checkpoint.hit")
        return payload

    def save(self, token: str, payload: Any) -> Path:
        """Atomically persist ``payload`` under ``token``'s key."""
        path = self.path_for(token)
        payload_bytes = pickle.dumps(
            payload, protocol=pickle.HIGHEST_PROTOCOL
        )
        entry = {
            "version": _FORMAT_VERSION,
            "token": token,
            "sha256": hashlib.sha256(payload_bytes).hexdigest(),
            "payload": payload_bytes,
        }
        blob = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        descriptor, tmp_name = tempfile.mkstemp(
            dir=self.directory, suffix=".tmp"
        )
        os.close(descriptor)
        with telemetry.span("checkpoint.save"):
            try:
                fsfaults.write_bytes(
                    tmp_name, blob, op="checkpoint.write"
                )
                fsfaults.replace(tmp_name, path, op="checkpoint.write")
            except BaseException:
                # A kill between mkstemp and replace must not leave temp
                # litter that a later clear() would miss.
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        self.writes += 1
        telemetry.counter_inc("checkpoint.write")
        return path

    def _entries(self) -> tuple[Path, ...]:
        """Every checkpoint file currently visible in the directory.

        Quarantined ``*.corrupt`` files and foreign debris
        (``.DS_Store``, editor swap files...) never match.
        """
        return fsfaults.listdir(
            self.directory, "*.ckpt", op="checkpoint.list"
        )

    def keys(self) -> tuple[str, ...]:
        """Keys of every checkpoint currently on disk (sorted)."""
        return tuple(sorted(p.stem for p in self._entries()))

    def __len__(self) -> int:
        return len(self.keys())

    def clear(self) -> int:
        """Delete every checkpoint; returns how many were removed.

        Tolerates a concurrent worker/gc unlinking entries
        mid-iteration: an entry that vanished before our unlink is
        simply not counted.  Quarantined ``*.corrupt`` files are
        swept as well (uncounted — they were never live entries).
        """
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            except OSError:
                continue
            removed += 1
        for path in fsfaults.listdir(
            self.directory, f"*.ckpt{QUARANTINE_SUFFIX}",
            op="checkpoint.list",
        ):
            try:
                path.unlink(missing_ok=True)
            except OSError:
                continue
        return removed

    def total_bytes(self) -> int:
        """Total on-disk size of every checkpoint, in bytes."""
        total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def invalidate(self, tokens: Iterable[str]) -> int:
        """Delete the entries for ``tokens``; returns how many existed.

        Pool runs use this to honour fresh-run (``reuse=False``)
        semantics: the parallel workers share a reusing store handle,
        so the parent drops this run's entries up front instead of
        suppressing loads per process.  Concurrent unlinks (another
        pool's gc racing this one) are tolerated, not errors.
        """
        removed = 0
        for token in tokens:
            try:
                self.path_for(token).unlink()
            except FileNotFoundError:
                continue
            except OSError:
                continue
            removed += 1
        return removed

    def _claimed_keys(self, claim_timeout: float | None) -> frozenset:
        """Keys of entries currently under a *live* claim file.

        A live claim means some pool worker (possibly on another host)
        is mid-computation on that key's companions — removing the key
        now would race its imminent ``save`` or force a recompute of
        work already in flight.
        """
        # Function-local import: claims.py imports CheckpointStore for
        # key derivation, so the dependency must stay one-way at
        # module-import time.
        from repro.runtime.pool.claims import ClaimStore

        claims = (
            ClaimStore(self.directory)
            if claim_timeout is None
            else ClaimStore(self.directory, timeout=claim_timeout)
        )
        live = []
        for path in fsfaults.listdir(
            self.directory, "*.claim", op="claim.list"
        ):
            info = claims.live_claim_for_key(path.stem)
            if info is not None:
                live.append(path.stem)
        return frozenset(live)

    def gc(
        self,
        valid_tokens: Iterable[str] | None = None,
        *,
        max_age_seconds: float | None = None,
        max_total_bytes: int | None = None,
        claim_timeout: float | None = None,
    ) -> int:
        """Drop stale checkpoints; returns how many were removed.

        An entry is stale when its key is not derived from any of
        ``valid_tokens`` (i.e. no arc of the *current* configuration
        can ever load it again — a changed seed, grid or corner maps
        to fresh keys and orphans the old ones), or when its file is
        older than ``max_age_seconds``.  After those selectors run,
        ``max_total_bytes`` caps the store size: surviving entries are
        evicted oldest-first (mtime order) until the total fits.
        Passing no selector removes nothing.

        Entries whose key carries a **live claim file** (a pool worker
        is computing against them right now) are never removed — by
        either selector or the size cap.  ``claim_timeout`` overrides
        the claim-staleness threshold used for that liveness check
        (default: the claim store's own default).

        Raises:
            CheckpointError: When ``max_age_seconds`` or
                ``max_total_bytes`` is negative.
        """
        if max_age_seconds is not None and max_age_seconds < 0:
            raise CheckpointError(
                f"max_age_seconds must be >= 0, got {max_age_seconds}"
            )
        if max_total_bytes is not None and max_total_bytes < 0:
            raise CheckpointError(
                f"max_total_bytes must be >= 0, got {max_total_bytes}"
            )
        valid = (
            {self.key_of(token) for token in valid_tokens}
            if valid_tokens is not None
            else None
        )
        claimed = self._claimed_keys(claim_timeout)
        now = time.time()
        removed = 0
        protected = 0
        survivors: list[tuple[float, int, Path]] = []
        for path in self._entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            stale = valid is not None and path.stem not in valid
            if not stale and max_age_seconds is not None:
                stale = now - stat.st_mtime > max_age_seconds
            if stale and path.stem in claimed:
                stale = False
                protected += 1
            if not stale:
                survivors.append((stat.st_mtime, stat.st_size, path))
                continue
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        if max_total_bytes is not None:
            total = sum(size for _, size, _ in survivors)
            # Evict oldest first; ties broken by name for determinism.
            survivors.sort(key=lambda item: (item[0], item[2].name))
            for _, size, path in survivors:
                if total <= max_total_bytes:
                    break
                if path.stem in claimed:
                    protected += 1
                    continue
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                removed += 1
        telemetry.counter_inc("checkpoint.gc_removed", removed)
        if protected:
            telemetry.counter_inc("checkpoint.gc_claim_skips", protected)
        return removed
