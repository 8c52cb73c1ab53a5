"""Cross-run content-addressed profile store.

The PR-2 :class:`~repro.crawler.cache.ProfileCache` is per-shard,
per-run: every new :class:`~repro.core.Study` starts cold even when it
re-crawls the exact population the previous run just rendered.  For a
fleet of chained runs — the orchestrator's re-crawl beat — that throws
away the dominant cost: most sites are frozen or slow-moving, so run
N+1's profiles are overwhelmingly run N's profiles.

This module persists rendered :class:`~repro.fingerprint.PageProfile`
objects under content-address keys so they survive the process, with a
layout designed to keep the runtime determinism contract intact:

* **Generation snapshots.**  Each run writes to its *own* generation
  directory and reads only from *predecessor* generations, which are
  immutable for the duration of the run.  Lookup results therefore do
  not depend on shard execution order, worker count, or backend — the
  same property that makes the in-run cache's counters canonical.
* **Manifest mode only.**  The manifest-mode miss path
  (:func:`~repro.crawler.crawl.profile_from_manifest`) records no
  instrumentation, so substituting a store hit for a rebuild changes no
  canonical counter except the ``profile_store.*`` pair introduced
  here.  Full mode keeps its in-run cache untouched.
* **Checksummed, atomically written entries.**  Each entry is one
  :mod:`~repro.runtime.durable` record: a header naming the store format
  and the content address, over a pickled profile body.  A torn or
  bit-flipped entry is treated as a miss, never trusted.

The content-address covers everything a manifest-mode profile is a pure
function of: the domain's constant identity (name, rank) plus the
:func:`~repro.crawler.cache.site_state_key` fields.  The key is encoded
canonically — frozensets sorted, dataclasses by field order — because
the digest must agree across worker processes regardless of
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from ..fingerprint import PageProfile
from ..runtime.durable import atomic_write_bytes, encode_record, read_record
from .cache import SiteStateKey

#: Version of the generation-directory schema.  A generation whose
#: marker names another format is ignored wholesale (every lookup
#: misses) rather than half-read.
PROFILE_STORE_FORMAT = 1

MARKER_NAME = "profile-store.json"


def _encode(value: object) -> str:
    """Canonical text encoding of a site-state key component.

    ``repr`` alone is unstable for frozensets (iteration order follows
    the per-process hash seed), so sets are sorted and dataclasses are
    spelled out in declared field order.  Everything else in a key is a
    scalar whose ``repr`` is already canonical.
    """
    if isinstance(value, frozenset):
        return "{" + ",".join(sorted(_encode(v) for v in value)) + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(_encode(v) for v in value) + ")"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        body = ",".join(
            f"{field.name}={_encode(getattr(value, field.name))}"
            for field in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({body})"
    return repr(value)


def profile_digest(domain_name: str, rank: int, key: SiteStateKey) -> str:
    """The content-address of one (domain identity, site state) pair."""
    text = f"{domain_name}|{rank}|{_encode(key)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ProfileStore:
    """Durable cross-run profile cache over generation directories.

    Args:
        write_dir: This run's own generation directory (created and
            marked on first write); ``None`` disables writes.
        read_dirs: Predecessor generation directories, consulted in
            order — list the most recent generation first.  Directories
            without a valid format marker are ignored.

    Attributes:
        hits: Lookups answered from a predecessor generation.
        misses: Lookups no predecessor generation could answer,
            including every lookup when read generations were configured
            but none of them is valid.
    """

    __slots__ = (
        "write_dir", "read_dirs", "hits", "misses", "_marked", "_reading"
    )

    def __init__(
        self,
        write_dir: Optional[Union[str, Path]] = None,
        read_dirs: Sequence[Union[str, Path]] = (),
    ) -> None:
        self.write_dir = Path(write_dir) if write_dir else None
        self._reading = bool(read_dirs)
        self.read_dirs: Tuple[Path, ...] = tuple(
            path
            for path in (Path(d) for d in read_dirs)
            if self._valid_generation(path)
        )
        self.hits = 0
        self.misses = 0
        self._marked = False

    @classmethod
    def from_incremental(cls, incremental) -> Optional["ProfileStore"]:
        """Build a store from an :class:`~repro.config.IncrementalConfig`.

        Returns ``None`` when the config names neither a write
        generation nor read generations, so callers can keep the
        store-less path branch-free.
        """
        write_dir = getattr(incremental, "profile_store_write", None)
        read_dirs = getattr(incremental, "profile_store_read", ())
        if not write_dir and not read_dirs:
            return None
        return cls(write_dir=write_dir, read_dirs=read_dirs)

    # ------------------------------------------------------------------
    @staticmethod
    def _valid_generation(path: Path) -> bool:
        try:
            marker = json.loads((path / MARKER_NAME).read_text())
        except (OSError, ValueError):
            return False
        return (
            isinstance(marker, dict)
            and marker.get("format") == PROFILE_STORE_FORMAT
        )

    def _entry_name(self, digest: str) -> str:
        return f"{digest}.profile"

    # ------------------------------------------------------------------
    def lookup(
        self, domain_name: str, rank: int, key: SiteStateKey
    ) -> Optional[PageProfile]:
        """The stored profile for this site state, from any predecessor.

        A readable, checksum-valid entry whose recorded digest matches
        is a hit; anything else — absent file, torn write, bit flip,
        foreign format — is a miss.  A store configured with no read
        generation at all (a fleet's first tick) counts nothing.
        """
        if not self._reading:
            return None
        digest = profile_digest(domain_name, rank, key)
        name = self._entry_name(digest)
        for directory in self.read_dirs:
            profile = self._read_entry(directory / name, digest)
            if profile is not None:
                self.hits += 1
                return profile
        self.misses += 1
        return None

    @staticmethod
    def _read_entry(path: Path, digest: str) -> Optional[PageProfile]:
        header, body = read_record(path)
        if (
            body is None
            or header.get("format") != PROFILE_STORE_FORMAT
            or header.get("digest") != digest
        ):
            return None
        try:
            profile = pickle.loads(body)
        except Exception:  # noqa: BLE001 - any unpickle failure is a miss
            return None
        return profile if isinstance(profile, PageProfile) else None

    # ------------------------------------------------------------------
    def store(
        self,
        domain_name: str,
        rank: int,
        key: SiteStateKey,
        profile: PageProfile,
    ) -> None:
        """Persist one rendered profile into this run's generation.

        Idempotent and concurrency-safe: the entry is content-addressed,
        so shards racing on the same key write equivalent entries, and
        the atomic rename means readers only ever see complete files.
        An already-present entry is left alone.
        """
        if self.write_dir is None:
            return
        if not self._marked:
            self.write_dir.mkdir(parents=True, exist_ok=True)
            marker = self.write_dir / MARKER_NAME
            if not marker.exists():
                atomic_write_bytes(
                    marker,
                    json.dumps(
                        {"format": PROFILE_STORE_FORMAT}, sort_keys=True
                    ).encode("utf-8"),
                )
            self._marked = True
        digest = profile_digest(domain_name, rank, key)
        path = self.write_dir / self._entry_name(digest)
        if path.exists():
            return
        header = {"format": PROFILE_STORE_FORMAT, "digest": digest}
        atomic_write_bytes(path, encode_record(header, pickle.dumps(profile)))

    # ------------------------------------------------------------------
    def record(self, instruments) -> None:
        """Flush hit/miss counters into an :class:`~repro.obs.Instruments`.

        Both keys are written (even at zero) whenever a store is
        configured, so fleets get a stable metrics shape; store-less
        runs keep their pre-existing document shape byte-identical.
        """
        instruments.inc("profile_store.hits", self.hits)
        instruments.inc("profile_store.misses", self.misses)

    def __len__(self) -> int:
        if self.write_dir is None:
            return 0
        return sum(1 for _ in self.write_dir.glob("*.profile"))
