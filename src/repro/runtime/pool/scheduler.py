"""Deterministic work scheduling for the characterisation pool.

A :class:`WorkItem` names one unit of pool work: a content token (the
claim lock and the checkpoint key its payload lands under), a picklable
task callable, and any companion tokens the task writes along the way.

Sharding is by *content key*, not by list position or worker count
alone: ``shard_of`` hashes are stable across runs, hosts and Python
processes because the key is the checkpoint store's sha256 of the
token.  The assignment therefore never depends on arrival order, and —
more importantly — the *output* never depends on the assignment at
all: every payload is content-addressed, so whichever worker computes
an item produces the byte-identical entry a serial run would have
produced, and the parent assembles results in serial order regardless
of who computed what.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from repro.errors import ParameterError
from repro.runtime.checkpoint import CheckpointStore

__all__ = ["WorkItem", "shard_of", "shards"]


@dataclass(frozen=True)
class WorkItem:
    """One claimable unit of pool work.

    Attributes:
        token: Content token; its store key is both the claim-file
            name and the checkpoint key of the task's payload.
        label: Human-readable label (``"INV_X1/A/rise"``) for journals,
            spans and progress lines.
        task: Top-level picklable callable executed as
            ``task(store, *args)``; its return value is saved under
            ``token``.  Must be importable in a spawned worker.
        args: Positional arguments (must pickle under spawn).
        companions: Additional tokens the task writes (e.g. per-arc
            Monte-Carlo checkpoints); claimed alongside ``token``.
    """

    token: str
    label: str
    task: Callable[..., object]
    args: tuple = ()
    companions: tuple[str, ...] = field(default=())

    @property
    def key(self) -> str:
        """Content-addressed store key of this item's payload."""
        return CheckpointStore.key_of(self.token)


def shard_of(item: WorkItem, n_workers: int) -> int:
    """Stable worker index for ``item`` among ``n_workers`` shards."""
    if n_workers < 1:
        raise ParameterError(
            f"n_workers must be >= 1, got {n_workers}"
        )
    return int(item.key[:16], 16) % n_workers


def shards(
    items: Sequence[WorkItem] | Iterable[WorkItem], n_workers: int
) -> tuple[tuple[WorkItem, ...], ...]:
    """Partition items into per-worker shards by content key.

    Raises:
        ParameterError: On duplicate content keys — two items mapping
            to the same checkpoint key would race each other's claim
            and payload.  (Keys are sha256 of the token, so in
            practice this means duplicate tokens.)
    """
    sequence = tuple(items)
    seen: dict[str, str] = {}
    for item in sequence:
        other = seen.get(item.key)
        if other is not None:
            raise ParameterError(
                f"duplicate work-item content key: {item.label!r} "
                f"collides with {other!r}"
            )
        seen[item.key] = item.label
    buckets: list[list[WorkItem]] = [[] for _ in range(n_workers)]
    for item in sequence:
        buckets[shard_of(item, n_workers)].append(item)
    return tuple(tuple(bucket) for bucket in buckets)
