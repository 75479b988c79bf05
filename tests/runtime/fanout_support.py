"""Telemetry comparison shared by the fan-out tests."""

from __future__ import annotations

from collections import Counter


def telemetry_shape(session):
    """Span-name counts, counters and histogram counts of a session.

    ``fanout.*`` names describe the fan-out itself (pool start-up,
    blocks delivered), so they are left out.
    """
    snapshot = session.metrics.snapshot()
    return (
        Counter(
            record.name
            for record in session.tracer.records()
            if not record.name.startswith("fanout.")
        ),
        {
            name: value
            for name, value in snapshot["counters"].items()
            if not name.startswith("fanout.")
        },
        {
            name: summary["count"]
            for name, summary in snapshot["histograms"].items()
        },
    )
