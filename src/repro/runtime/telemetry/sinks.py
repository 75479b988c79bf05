"""Telemetry sinks: where span/metric/manifest records go.

A sink is anything with ``write(record: dict)`` (and optionally
``close()``); sessions fan every record out to all attached sinks.
The built-in :class:`JsonlSink` streams records to a JSON-lines file
— one self-describing object per line, distinguished by its ``type``
key (``span``, ``metrics``, ``manifest``) — which is what
``repro trace summarize`` reads back.  Embedders attach their own
sinks (a queue, a socket, an OpenTelemetry bridge) via
:class:`CallableSink` or any duck-typed equivalent.

Line writes are serialised under a lock and each line is written with
a single ``write`` call, so concurrent threads (and, on POSIX,
processes appending to the same file) cannot interleave partial lines.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Callable, Iterator
from pathlib import Path

from repro.errors import ParameterError

__all__ = ["CallableSink", "JsonlSink", "read_jsonl", "read_jsonl_lenient"]


class JsonlSink:
    """Streams telemetry records to a JSON-lines file."""

    def __init__(self, path: str | Path, *, append: bool = False) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        try:
            self._handle = self.path.open("a" if append else "w")
        except OSError as error:
            raise ParameterError(
                f"cannot open trace file {self.path}: {error}"
            ) from error

    def write(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        with self._lock:
            if self._handle.closed:
                return
            self._handle.write(line)

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()


class CallableSink:
    """Adapts a plain callable into a sink."""

    def __init__(self, fn: Callable[[dict], None]) -> None:
        self._fn = fn

    def write(self, record: dict) -> None:
        self._fn(record)

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


def _parse_jsonl(path: str | Path) -> tuple[list[dict], int]:
    """The one JSON-lines loop behind both readers.

    Returns ``(records, truncated)``: ``truncated`` is the 1-based
    number of a malformed final line without a trailing newline — the
    signature of a killed writer, not a corrupt file — else 0.  Blank
    lines are skipped; any other malformed line raises
    :class:`ParameterError` naming its line number.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise ParameterError(
            f"cannot read trace file {path}: {error}"
        ) from error
    records: list[dict] = []
    lines = text.splitlines()
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            if number == len(lines) and not text.endswith("\n"):
                return records, number
            raise ParameterError(
                f"{path}:{number}: malformed trace line: {error}"
            ) from error
        if not isinstance(record, dict):
            raise ParameterError(
                f"{path}:{number}: trace records must be objects"
            )
        records.append(record)
    return records, 0


def read_jsonl_lenient(path: str | Path) -> tuple[list[dict], int]:
    """Parse a JSON-lines file, skipping a truncated final line.

    Returns ``(records, skipped)`` where ``skipped`` is 1 when the
    file ends mid-record without a trailing newline (a killed writer)
    and 0 otherwise.  Malformed lines *with* a trailing newline are
    real corruption and raise :class:`ParameterError`.
    """
    records, truncated = _parse_jsonl(path)
    return records, int(truncated > 0)


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield records from a JSON-lines trace file.

    Strict: any malformed line raises :class:`ParameterError` naming
    its 1-based line number.  A truncated final line says so, since a
    killed writer changes what the operator does next.
    """
    records, truncated = _parse_jsonl(path)
    if truncated:
        raise ParameterError(
            f"{path}:{truncated}: trace file is truncated "
            "mid-record (writer killed?); re-run or trim the "
            "partial last line"
        )
    yield from records
