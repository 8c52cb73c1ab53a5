"""The durable-record primitive shared by every on-disk store.

The run ledger's shard journal, the orchestrator's job queue and the
cross-run profile store all keep state that must outlive a killed
process.  Each file rule lives here exactly once:

* :func:`atomic_write_bytes` — temp file, fsync, atomic rename,
  directory fsync: a reader sees the old file or the complete new one;
* :func:`encode_record` / :func:`read_record` — the checksummed record
  frame: one JSON header line (``sort_keys``, holding the body's
  ``sha256``), a newline, then the body bytes verbatim;
* :func:`quarantine` — move a record that failed validation aside,
  never overwriting an earlier quarantined copy;
* :func:`sweep_temp_files` — remove temp files left by writes that died
  between ``open`` and ``rename``.

Callers keep only their own rules: a format constant, the identity
fields they check in the header, and the codec of their body.  This
module imports only the standard library, so writing a file never
drags in the crawl stack.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional, Tuple


def atomic_write_bytes(path: Path, data: bytes) -> int:
    """Write ``data`` to ``path`` durably: temp file, fsync, atomic rename.

    A reader (including a resumed run) can never observe a torn write:
    either the old file, or the complete new one.  The containing
    directory is fsync'd after the rename so the *name* survives a crash
    too (best-effort on platforms without directory fsync).

    Returns the number of bytes written.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    try:  # pragma: no cover - platform-dependent durability upgrade
        dir_fd = os.open(str(path.parent), os.O_RDONLY)
    except OSError:
        return len(data)
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - e.g. directories on some FSes
        pass
    finally:
        os.close(dir_fd)
    return len(data)


def encode_record(header: dict, body: bytes) -> bytes:
    """Frame ``body`` behind a JSON header line carrying its sha256.

    The checksum covers the body bytes exactly as they will sit on
    disk, so verification needs no re-serialization.
    """
    head = json.dumps(
        {**header, "sha256": hashlib.sha256(body).hexdigest()}, sort_keys=True
    )
    return head.encode("utf-8") + b"\n" + body


def read_record(path: Path) -> Tuple[Optional[dict], Optional[bytes]]:
    """``(header, body)`` of one record file, as far as each is trusted.

    The header is returned whenever the first line parses as a JSON
    object, so a record whose body was torn still yields the scalars
    its header committed.  The body is returned only when the header
    line is complete and the body's sha256 matches the header's.  An
    unreadable file reads as ``(None, None)``.
    """
    try:
        raw = path.read_bytes()
    except OSError:
        return None, None
    head, sep, body = raw.partition(b"\n")
    try:
        header = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None, None
    if not isinstance(header, dict):
        return None, None
    if not sep or header.get("sha256") != hashlib.sha256(body).hexdigest():
        return header, None
    return header, body


def quarantine(path: Path, directory: Path) -> Path:
    """Move ``path`` into ``directory``; returns where it landed.

    A name already taken there gets a ``.N`` suffix, so repeated
    failures of the same record are all kept for inspection.
    """
    target = directory / path.name
    suffix = 0
    while target.exists():
        suffix += 1
        target = directory / f"{path.name}.{suffix}"
    os.replace(path, target)
    return target


def sweep_temp_files(*directories: Path) -> None:
    """Remove :func:`atomic_write_bytes` temp files left by dead writers."""
    for directory in directories:
        for tmp in directory.glob(".*.tmp"):
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - raced removal
                pass
