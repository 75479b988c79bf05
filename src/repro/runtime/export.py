"""Verified atomic text export.

A characterisation run's final act is writing the ``.lib`` file; a
truncated or unsynced write there silently poisons every downstream
STA consumer, which is worse than failing.  This module writes export
artifacts the safe way:

1. serialise to a temp file in the destination directory;
2. flush and ``fsync`` the data to stable storage;
3. verify the on-disk size matches the serialised payload;
4. atomically ``os.replace`` onto the destination.

The write and rename route through the :mod:`repro.runtime.fsfaults`
seam, so *transient* filesystem errors (``ENOSPC``/``EIO``/``ESTALE``
— injected or real) are retried with bounded deterministic backoff
before anything is declared a failure.  A *short* write, however, is
never retried: the size verification exists to catch silent torn
writes, and a torn final artifact must fail loudly with the previous
good library left untouched.

Any failure raises :class:`~repro.errors.LibertyWriteError` (exit
code 4 via the CLI's per-family mapping) and leaves the destination
untouched — a previous good library is never clobbered by a bad
write.  The fault-injection plan kinds ``export_truncate`` and
``export_fsync`` (see :mod:`repro.runtime.faults`) exercise both
failure paths deterministically in tests; the filesystem fault model
(:mod:`repro.runtime.fsfaults`) exercises the transient-error retry
path.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from repro.errors import LibertyWriteError
from repro.runtime import faults, fsfaults, telemetry

__all__ = ["write_text_file"]


def write_text_file(
    path: str | os.PathLike[str], text: str, *, fsync: bool = True
) -> int:
    """Atomically write ``text`` to ``path``; returns bytes written.

    Args:
        path: Destination file; parent directories must exist.
        text: Full payload.
        fsync: Flush the payload to stable storage before the rename
            (disable only for throwaway scratch output).

    Raises:
        LibertyWriteError: On a short write, an fsync failure, or any
            OS-level write error that survives the transient-error
            retries.  The destination keeps its previous content.
    """
    destination = Path(path)
    data = text.encode()
    expected = len(data)
    truncate = faults.export_truncate_bytes()
    if truncate is not None:
        data = data[:truncate]
    with telemetry.span("export.write", path=str(destination)):
        try:
            descriptor, tmp_name = tempfile.mkstemp(
                dir=destination.parent, suffix=".tmp"
            )
        except OSError as error:
            raise LibertyWriteError(
                f"cannot create temp file next to {destination}: {error}"
            ) from error
        os.close(descriptor)
        try:
            try:
                fsync_error = (
                    faults.export_fsync_error() if fsync else None
                )
                if fsync_error is not None:
                    raise OSError(fsync_error)
                fsfaults.write_bytes(
                    tmp_name, data, op="export.write", fsync=fsync
                )
            except OSError as error:
                raise LibertyWriteError(
                    f"writing {destination} failed: {error}"
                ) from error
            written = os.path.getsize(tmp_name)
            if written != expected:
                raise LibertyWriteError(
                    f"short write to {destination}: {written} of "
                    f"{expected} bytes reached disk"
                )
            try:
                fsfaults.replace(
                    tmp_name, destination, op="export.replace"
                )
            except OSError as error:
                raise LibertyWriteError(
                    f"publishing {destination} failed: {error}"
                ) from error
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    telemetry.counter_inc("export.files")
    telemetry.counter_inc("export.bytes", expected)
    return expected
