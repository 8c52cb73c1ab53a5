"""Content-addressed profile cache for incremental crawling.

Most sites change rarely (42% of the population is frozen, another 41%
updates with a 0.6% weekly hazard), so re-rendering and re-fingerprinting
every landing page every week mostly reproduces last week's
:class:`~repro.fingerprint.PageProfile`.  The cache makes crawl cost
proportional to *changes* instead: each domain-week derives a cheap
site-state key from the ground-truth manifest — before any HTML is
rendered — and an unchanged key reuses a profile already built.

The key is the manifest's content fields themselves (all immutable and
hashable), not a lossy hash: equal keys therefore *prove* the rendered
page and its fingerprint would be identical, because page rendering and
manifest-mode profiling are pure functions of those fields plus the
domain's constant name and rank.  ``week_ordinal`` is deliberately
excluded — it never reaches the page body.

One :class:`ProfileCache` has two tiers over that key:

* **Memory** (``cache.hits/misses``).  One entry per domain, scoped to
  one :meth:`~repro.crawler.Crawler.crawl_block` call, i.e. per shard.
  Shards already crawl each domain's weeks contiguously (the planning
  invariant), so "previous crawled week" is exact within a shard, and
  shards stay independent — the bit-identical-stores determinism
  contract across backends and worker counts is untouched.
* **Generations** (``profile_store.hits/misses``, optional).  Profiles
  persisted across runs, so a fleet's re-crawl of the population the
  previous run just rendered starts warm.  Each run writes to its *own*
  generation directory and reads only *predecessor* generations, which
  are immutable for the duration of the run; lookup results therefore
  do not depend on shard execution order, worker count, or backend.
  The crawler configures this tier in manifest mode only: there the
  miss path (:func:`~repro.crawler.crawl.profile_from_manifest`) records
  no instrumentation, so a generation hit changes no canonical counter
  except the ``profile_store.*`` pair.  Each entry is one
  :mod:`~repro.runtime.durable` record — a header naming the format and
  the content address over a pickled profile body — so a torn or
  bit-flipped entry is a miss, never trusted.

A generation entry's address covers the domain's constant identity
(name, rank) plus the site-state key, encoded canonically — frozensets
sorted, dataclasses by field order — because the digest must agree
across worker processes regardless of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from ..fingerprint import PageProfile
from ..runtime.durable import atomic_write_bytes, encode_record, read_record
from ..webgen.domains import Domain
from ..webgen.site import SiteManifest

#: The manifest fields a landing page's content is a pure function of.
SiteStateKey = Tuple[object, ...]

#: Version of the generation-directory schema.  A generation whose
#: marker names another format is ignored wholesale (every lookup
#: misses) rather than half-read.
PROFILE_STORE_FORMAT = 1

MARKER_NAME = "profile-store.json"


def site_state_key(manifest: SiteManifest) -> SiteStateKey:
    """The content-address of one domain-week's landing page.

    Everything :func:`~repro.webgen.html.render_page` and
    :func:`~repro.crawler.crawl.profile_from_manifest` read from the
    manifest, except the constant per-domain identity (name, rank) that
    the cache already keys on and the week ordinal that neither uses.
    """
    return (
        manifest.wordpress_version,
        manifest.libraries,
        manifest.extra_scripts,
        manifest.resource_types,
        manifest.flash,
        manifest.vendored,
    )


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


class ProfileCache:
    """Two-tier profile cache: per-domain memory, optional generations.

    Args:
        enabled: The memory tier.  When False it never hits or stores,
            so the crawler's cache-off path needs no branching; the
            generation tier, if configured, is still consulted.
        write_dir: This run's own generation directory (created and
            marked on first write); ``None`` disables writes.
        read_dirs: Predecessor generation directories, consulted in
            order — list the most recent generation first.  Directories
            without a valid format marker are ignored.

    Attributes:
        active: Whether any tier is on, i.e. whether a caller should
            derive a site-state key at all.
        hits: Memory lookups that returned a reusable profile.
        misses: Memory lookups that found no entry (or a stale one).
        durable_hits: Memory misses answered from a predecessor
            generation.
        durable_misses: Memory misses no predecessor generation could
            answer, including every one when read generations were
            configured but none of them is valid.
    """

    __slots__ = (
        "enabled", "active", "hits", "misses", "_entries",
        "write_dir", "read_dirs", "durable_hits", "durable_misses",
        "_durable", "_reading", "_marked", "_pending",
    )

    def __init__(
        self,
        enabled: bool = True,
        write_dir: Optional[Union[str, Path]] = None,
        read_dirs: Sequence[Union[str, Path]] = (),
    ) -> None:
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self._entries: Dict[int, Tuple[SiteStateKey, PageProfile]] = {}
        self.write_dir = Path(write_dir) if write_dir else None
        self._reading = bool(read_dirs)
        self._durable = self._reading or self.write_dir is not None
        self.active = enabled or self._durable
        self.read_dirs: Tuple[Path, ...] = tuple(
            path
            for path in (Path(d) for d in read_dirs)
            if _valid_generation(path)
        )
        self.durable_hits = 0
        self.durable_misses = 0
        self._marked = False
        # (domain, key, digest) of the last generation miss, so the
        # store() that follows it does not hash the key a second time.
        self._pending: Optional[Tuple[Domain, SiteStateKey, str]] = None

    # ------------------------------------------------------------------
    def lookup(
        self, domain: Domain, key: SiteStateKey
    ) -> Optional[PageProfile]:
        """The profile for ``domain`` in state ``key``, from either tier.

        Memory first (``domain``'s latest crawled state), then the read
        generations in order.  A generation hit is promoted into memory
        and written through to this run's generation.  In a generation,
        a readable, checksum-valid entry whose recorded digest matches
        is a hit; anything else — absent file, torn write, bit flip,
        foreign format — is a miss.  With no read generation configured
        at all (a fleet's first tick) the generation tier counts
        nothing.
        """
        if self.enabled:
            entry = self._entries.get(domain.rank)
            if entry is not None and entry[0] == key:
                self.hits += 1
                return entry[1]
            self.misses += 1
        if not self._reading:
            return None
        digest = profile_digest(domain.name, domain.rank, key)
        name = _entry_name(digest)
        for directory in self.read_dirs:
            profile = _read_entry(directory / name, digest)
            if profile is not None:
                self.durable_hits += 1
                self._fill(domain, key, profile, digest)
                return profile
        self.durable_misses += 1
        self._pending = (domain, key, digest)
        return None

    def store(
        self, domain: Domain, key: SiteStateKey, profile: PageProfile
    ) -> None:
        """Remember a freshly built ``profile`` in both tiers."""
        pending = self._pending
        digest = None
        if pending is not None and pending[0] is domain and pending[1] is key:
            digest = pending[2]
        self._fill(domain, key, profile, digest)

    def _fill(
        self,
        domain: Domain,
        key: SiteStateKey,
        profile: PageProfile,
        digest: Optional[str],
    ) -> None:
        self._pending = None
        if self.enabled:
            self._entries[domain.rank] = (key, profile)
        if self.write_dir is not None:
            if digest is None:
                digest = profile_digest(domain.name, domain.rank, key)
            self._write_entry(digest, profile)

    def _write_entry(self, digest: str, profile: PageProfile) -> None:
        """Persist one profile into this run's generation.

        Idempotent and concurrency-safe: the entry is content-addressed,
        so shards racing on the same key write equivalent entries, and
        the atomic rename means readers only ever see complete files.
        An already-present entry is left alone.
        """
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
        path = self.write_dir / _entry_name(digest)
        if path.exists():
            return
        header = {"format": PROFILE_STORE_FORMAT, "digest": digest}
        atomic_write_bytes(path, encode_record(header, pickle.dumps(profile)))

    # ------------------------------------------------------------------
    def record(self, instruments) -> None:
        """Flush the hit/miss counters into an :class:`~repro.obs.Instruments`.

        Always writes ``cache.hits``/``cache.misses``, even at zero, so
        the metrics document has a stable shape whether the cache was
        enabled or not.  ``profile_store.hits``/``profile_store.misses``
        are written (even at zero) exactly when a generation tier is
        configured, so fleets get a stable shape and generation-less
        runs keep theirs byte-identical.
        """
        instruments.inc("cache.hits", self.hits)
        instruments.inc("cache.misses", self.misses)
        if self._durable:
            instruments.inc("profile_store.hits", self.durable_hits)
            instruments.inc("profile_store.misses", self.durable_misses)


def _valid_generation(path: Path) -> bool:
    try:
        marker = json.loads((path / MARKER_NAME).read_text())
    except (OSError, ValueError):
        return False
    return (
        isinstance(marker, dict)
        and marker.get("format") == PROFILE_STORE_FORMAT
    )


def _entry_name(digest: str) -> str:
    return f"{digest}.profile"


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
