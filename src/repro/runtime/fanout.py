"""Run one call's independent blocks on every usable core.

The lockstep EM engine (:func:`repro.stats.em.fit_mixture_em_batch`)
cuts a grid into independent row blocks.  :func:`run_blocks` runs such
blocks on spawned helper processes as well as in the calling process.
Every process claims its next block from one shared queue of block
indices, so none waits for another until the queue is empty.  A
block's output does not depend on which process computed it, so
fanning out changes no result, only the wall time.

Rules (DESIGN §8, §14):

- Only a top-level process fans out
  (``multiprocessing.parent_process() is None``).  Pool workers and
  the helpers themselves run every block inline, so ``--workers N``
  never oversubscribes the cores.
- The helper count is the number of usable cores (CPU affinity) minus
  one, for the caller.  With one usable core no process is started.
- Helpers start lazily (spawn context, as :mod:`repro.runtime.pool`)
  on the first call with at least two blocks, are reused by later
  calls, and are shut down at interpreter exit.  Like any spawned
  process they import the caller's ``__main__`` module, so a script
  must keep its work under ``if __name__ == "__main__":``; helpers
  that do not come up within :data:`_BOOT_TIMEOUT` are given up on
  for the rest of the process.
- Any failure to hand a block to a helper or to get its output back
  (pickling error, broken pipe, a helper that died) makes the caller
  compute that block itself; a pool that lost a helper is discarded
  and the next call starts a fresh one.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import queue
import select
import signal
import struct
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Any

from repro.runtime import telemetry

__all__ = ["run_blocks"]

#: First message of a helper: it is up and serving calls.
_READY = b"r"

#: End-of-call marker a helper sends after its last claimed block.
_DONE = b""

#: Seconds a new pool waits for its helpers to come up.
_BOOT_TIMEOUT = 20.0

#: Placeholder for a block whose output has not arrived.
_MISSING = object()

#: A block index in the claim queue.
_TOKEN = struct.Struct("<i")


def _helper_count() -> int:
    """Helper processes this process may start: usable cores minus one."""
    if multiprocessing.parent_process() is not None:
        return 0
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None:
        return 0
    return len(affinity(0)) - 1


def _claim(claims: Connection) -> int | None:
    """Take the next block index from the claim queue; ``None`` if empty.

    The queue is a non-blocking pipe holding one 4-byte token per
    unclaimed block, written in one atomic write.  A pipe read is
    atomic too, so every token goes to exactly one reader, and a
    reader that dies holds nothing the others wait for.
    """
    try:
        data = os.read(claims.fileno(), _TOKEN.size)
    except BlockingIOError:
        return None
    return _TOKEN.unpack(data)[0]


def _send_loop(outbox: queue.SimpleQueue, results: Connection) -> None:
    """Helper-side sender: a full pipe never stalls the block loop."""
    while (data := outbox.get()) is not None:
        try:
            results.send_bytes(data)
        except OSError:
            return


def _helper_main(
    tasks: Connection, results: Connection, claims: Connection
) -> None:
    """Helper process: per call, claim and run blocks until none remain."""
    # Ctrl-C reaches the whole process group; the caller handles it
    # and shuts the helpers down.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        results.send_bytes(_READY)
    except OSError:  # the caller gave up waiting for this helper
        return
    outbox: queue.SimpleQueue = queue.SimpleQueue()
    sender = threading.Thread(
        target=_send_loop, args=(outbox, results), daemon=True
    )
    sender.start()
    while True:
        try:
            task, payloads = pickle.loads(tasks.recv_bytes())
        except (EOFError, OSError):
            break
        except Exception:  # noqa: BLE001 — an unreadable call claims nothing
            outbox.put(_DONE)
            continue
        while (index := _claim(claims)) is not None:
            try:
                data = pickle.dumps(
                    (index, task(payloads[index])),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            except Exception:  # noqa: BLE001 — the caller recomputes it
                continue
            outbox.put(data)
        outbox.put(_DONE)
    outbox.put(None)
    sender.join()


@dataclass
class _Helper:
    process: Any
    tasks: Connection
    results: Connection


class _Helpers:
    """Helper processes sharing one claim queue.

    Attributes:
        claims: Read end of the claim queue (:func:`_claim`).
        queue: Its write end, held by the caller only.
        helpers: One process and its two pipe ends per helper.
        booted: Whether every helper came up; a pool that did not is
            closed at once and never used.
    """

    def __init__(self, count: int) -> None:
        context = multiprocessing.get_context("spawn")
        self.claims, self.queue = context.Pipe(duplex=False)
        os.set_blocking(self.claims.fileno(), False)
        self.helpers: list[_Helper] = []
        for number in range(count):
            task_reader, task_writer = context.Pipe(duplex=False)
            result_reader, result_writer = context.Pipe(duplex=False)
            process = context.Process(
                target=_helper_main,
                args=(task_reader, result_writer, self.claims),
                name=f"repro-fanout-h{number:02d}",
                daemon=True,
            )
            process.start()
            # Only the helper holds these ends now, so its death shows
            # as EOF on the results pipe and EPIPE on the tasks pipe.
            task_reader.close()
            result_writer.close()
            self.helpers.append(_Helper(process, task_writer, result_reader))
        self.booted = all(self._ready(helper) for helper in self.helpers)
        if not self.booted:
            self.close()

    @staticmethod
    def _ready(helper: _Helper) -> bool:
        try:
            return (
                helper.results.poll(_BOOT_TIMEOUT)
                and helper.results.recv_bytes() == _READY
            )
        except (EOFError, OSError):
            return False

    def alive(self) -> bool:
        return all(helper.process.is_alive() for helper in self.helpers)

    def close(self) -> None:
        if self.claims.closed:
            return
        # Empty the claim queue first: a helper still inside a call
        # finishes its current block and then finds nothing to take.
        while _claim(self.claims) is not None:
            pass
        self.claims.close()
        self.queue.close()
        for helper in self.helpers:
            helper.tasks.close()
            helper.results.close()
        for helper in self.helpers:
            helper.process.join(timeout=2.0)
            if helper.process.is_alive():
                helper.process.kill()
                helper.process.join()

    def run(
        self,
        task: Callable[[Any], Any],
        payloads: Sequence[Any],
        message: bytes,
    ) -> tuple[list[Any], bool]:
        """One call: the caller and the helpers drain the claim queue.

        Returns every block's output and whether the pool is still
        sound; blocks no helper delivered are computed here.
        """
        outputs: list[Any] = [_MISSING] * len(payloads)
        os.write(
            self.queue.fileno(),
            b"".join(_TOKEN.pack(index) for index in range(len(payloads))),
        )
        sound = True
        busy: list[Connection] = []
        for helper in self.helpers:
            try:
                helper.tasks.send_bytes(message)
            except OSError:
                sound = False
                continue
            busy.append(helper.results)
        while (index := _claim(self.claims)) is not None:
            outputs[index] = task(payloads[index])
        delivered = 0
        while busy:
            for connection in wait(busy):
                try:
                    data = connection.recv_bytes()
                except (EOFError, OSError):
                    busy.remove(connection)
                    sound = False
                    continue
                if data == _DONE:
                    busy.remove(connection)
                    continue
                try:
                    index, output = pickle.loads(data)
                except Exception:  # noqa: BLE001 — recomputed below
                    continue
                outputs[index] = output
                delivered += 1
        if delivered:
            telemetry.counter_inc("fanout.helper_blocks", delivered)
        for index, output in enumerate(outputs):
            if output is _MISSING:
                telemetry.counter_inc("fanout.recomputed")
                outputs[index] = task(payloads[index])
        return outputs, sound


#: This process's helper pool, started on first use.  Process-local
#: by design: a spawned child starts without one, and only a
#: top-level process ever creates one.
_POOL: _Helpers | None = None

#: Held while a call fans out; a concurrent call runs inline.
_BUSY = threading.Lock()


def _shutdown() -> None:
    """Stop this process's helpers (also run at interpreter exit)."""
    global _POOL  # repro-lint: disable=PAR003 — process-local helper pool
    pool, _POOL = _POOL, None
    if pool is not None:
        pool.close()


atexit.register(_shutdown)


def _pool(count: int) -> _Helpers | None:
    """The live helper pool: started, or restarted after a helper died.

    A pool whose helpers never came up stays in place, closed, so the
    process stops trying.
    """
    global _POOL  # repro-lint: disable=PAR003 — process-local helper pool
    if _POOL is not None and _POOL.booted and not _POOL.alive():
        _shutdown()
    if _POOL is None:
        with telemetry.span("fanout.start", helpers=count):
            _POOL = _Helpers(count)
    return _POOL if _POOL.booted else None


def run_blocks(
    task: Callable[[Any], Any], payloads: Sequence[Any]
) -> list[Any]:
    """``[task(p) for p in payloads]``, spread over the usable cores.

    ``task`` must be a module-level function and every payload must
    pickle, since helpers receive them by value; a call that does not
    pickle runs inline.  Blocks must be independent and ``task``
    deterministic: the outputs are the same wherever a block runs.
    Calls of more than ``PIPE_BUF / 4`` blocks (1024 on Linux) run
    inline, since the claim queue is written in one atomic write.  An
    exception raised by ``task`` in the caller propagates and discards
    the helpers, which may still be busy with this call.
    """
    if (
        not 2 <= len(payloads) <= select.PIPE_BUF // _TOKEN.size
        or (count := _helper_count()) < 1
        or not _BUSY.acquire(blocking=False)
    ):
        return [task(payload) for payload in payloads]
    try:
        try:
            message = pickle.dumps(
                (task, list(payloads)), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception:  # noqa: BLE001 — unpicklable: run inline
            return [task(payload) for payload in payloads]
        pool = _pool(count)
        if pool is None:
            return [task(payload) for payload in payloads]
        sound = False
        try:
            outputs, sound = pool.run(task, payloads, message)
        finally:
            if not sound:
                _shutdown()
        return outputs
    finally:
        _BUSY.release()
