"""Edge-case tests for the pool's deterministic work scheduler.

These cover the degenerate shapes the characterisation pool meets in
practice: empty work lists (everything already checkpointed), a single
payload fanned across many workers, more workers than payloads, and
duplicate content keys.
"""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.runtime.pool import WorkItem, shard_of, shards


def noop_task(store):
    return {}


def item(token, label=None):
    return WorkItem(token=token, label=label or token, task=noop_task)


class TestEmptyAndTiny:
    def test_zero_payloads_yield_empty_shards(self):
        parts = shards((), 3)
        assert parts == ((), (), ())

    def test_one_payload_many_workers_lands_in_exactly_one_shard(self):
        single = item("lonely")
        parts = shards([single], 8)
        assert len(parts) == 8
        occupied = [index for index, part in enumerate(parts) if part]
        assert occupied == [shard_of(single, 8)]
        assert parts[occupied[0]] == (single,)

    def test_more_workers_than_payloads_loses_nothing(self):
        items = [item(f"tok-{index}") for index in range(3)]
        parts = shards(items, 16)
        flat = [one for part in parts for one in part]
        assert sorted(one.token for one in flat) == sorted(
            one.token for one in items
        )
        for one in flat:
            assert one in parts[shard_of(one, 16)]

    def test_zero_workers_rejected(self):
        with pytest.raises(ParameterError, match="n_workers"):
            shards([item("x")], 0)
        with pytest.raises(ParameterError, match="n_workers"):
            shard_of(item("x"), 0)


class TestDuplicateKeys:
    def test_duplicate_content_keys_rejected(self):
        clash = [item("same-token", "first"), item("same-token", "second")]
        with pytest.raises(ParameterError, match="duplicate"):
            shards(clash, 2)

    def test_error_names_both_colliding_labels(self):
        clash = [item("same-token", "first"), item("same-token", "second")]
        with pytest.raises(ParameterError, match="'second'.*'first'"):
            shards(clash, 2)

