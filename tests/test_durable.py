"""Durable records: pinned on-disk bytes, corruption handling, primitives.

The run ledger's journal, the job queue and the profile cache's
generation tier share one checksummed record frame (a JSON header line holding the
body's sha256, a newline, the body).  Checkpoint and queue directories
outlive the process that wrote them, so the bytes each store writes are
pinned here: a resumed run must read what an earlier build wrote.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.crawler.cache import (
    MARKER_NAME,
    PROFILE_STORE_FORMAT,
    ProfileCache,
    profile_digest,
)
from repro.fingerprint import PageProfile
from repro.obs import Instruments
from repro.orchestrator import FleetPlan, JobQueue
from repro.orchestrator.queue import PENDING, JobRecord
from repro.runtime.ledger import LEDGER_FORMAT, RunLedger
from repro.webgen.domains import Domain, Reachability

#: A journaled shard payload.  The store blob is opaque to the journal,
#: so any bytes do; the metadata is what ``execute_shard`` carries.
_PAYLOAD = {
    "ok": True,
    "store": b"RPS2" + bytes(range(60)),
    "metrics": {"counters": {"crawl.cells": 12}, "events": []},
    "shard_index": 3,
}
_SHARD_KEY = "a" * 64

_RECORD = JobRecord(
    job_id="crawl-001",
    state="running",
    attempt=1,
    expiries_served=2,
    error="CrawlError: boom",
    lease_owner="orchestrator-4242",
    lease_expires=65.0,
    updated_at=5.0,
)

_PROFILE = PageProfile(
    page_host="www.example.com",
    resource_types=frozenset({"javascript", "css", "favicon"}),
    wordpress_version="5.8.1",
    script_count=4,
    external_script_count=1,
)
_KEY = ("5.8.1", ("jquery",), (), frozenset({"javascript", "css"}), None, ())
_DOMAIN = Domain(rank=17, name="www.example.com", reachability=Reachability.STABLE)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _split(path: Path):
    head, _, body = path.read_bytes().partition(b"\n")
    return head, body


# ----------------------------------------------------------------------
# Golden bytes: what each store writes must not drift
# ----------------------------------------------------------------------
class TestGoldenBytes:
    def test_journal_entry_bytes(self, tmp_path):
        ledger = RunLedger(tmp_path / "run")
        ledger.journal_dir.mkdir(parents=True)
        written = ledger.journal(3, _SHARD_KEY, dict(_PAYLOAD))
        path = ledger.entry_path(3)
        assert written == path.stat().st_size
        head, _ = _split(path)
        assert json.loads(head)["format"] == LEDGER_FORMAT
        assert _sha256(path) == (
            "7cc863953ece4b96b50cceb3d3b971138e7a7882a11d868550616ce25cdd3006"
        )

    def test_job_record_bytes(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.jobs_dir.mkdir(parents=True)
        queue._write_record(JobRecord(**vars(_RECORD)))
        assert _sha256(queue.record_path("crawl-001")) == (
            "4e1dd5de7a62f0ea3f4b5ee33d36e910b2542f8cc92f23cc9afc623b59624cd2"
        )

    def test_torn_job_record_bytes(self, tmp_path, monkeypatch):
        # A planned tear keeps the full body's checksum in the header and
        # cuts the body to half its length.
        queue = JobQueue(tmp_path / "q")
        queue.jobs_dir.mkdir(parents=True)
        monkeypatch.setattr(queue, "_should_tear", lambda record: True)
        queue._write_record(JobRecord(**vars(_RECORD)))
        assert _sha256(queue.record_path("crawl-001")) == (
            "b69d2602eef4602cff65c352d2b2ea2f02bf0092c8517f19cee088e683ed96e3"
        )

    def test_profile_entry_header_and_round_trip(self, tmp_path):
        generation = tmp_path / "gen-000"
        ProfileCache(write_dir=generation).store(_DOMAIN, _KEY, _PROFILE)
        digest = profile_digest("www.example.com", 17, _KEY)
        assert digest == (
            "9b81e2d5eb8690838aeab96719f9231629c5a18a58c8762d9e658e88f0b3c589"
        )
        head, body = _split(generation / f"{digest}.profile")
        # The pickled body follows the hash seed (frozenset order), so
        # the header line is pinned with the body's own checksum.
        assert head == json.dumps(
            {
                "digest": digest,
                "format": PROFILE_STORE_FORMAT,
                "sha256": hashlib.sha256(body).hexdigest(),
            },
            sort_keys=True,
        ).encode("utf-8")
        assert (generation / MARKER_NAME).read_bytes() == b'{"format": 1}'
        reader = ProfileCache(read_dirs=[generation])
        assert reader.lookup(_DOMAIN, _KEY) == _PROFILE
        assert (reader.durable_hits, reader.durable_misses) == (1, 0)


# ----------------------------------------------------------------------
# Generation tier: every damaged entry is a counted miss, never an error
# ----------------------------------------------------------------------
def _generation(root: Path, name: str) -> Path:
    """A generation directory holding one intact entry for ``_KEY``."""
    generation = root / name
    ProfileCache(write_dir=generation).store(_DOMAIN, _KEY, _PROFILE)
    return generation


def _entry(generation: Path) -> Path:
    return generation / f"{profile_digest('www.example.com', 17, _KEY)}.profile"


def _rewrite_header(path: Path, **changes) -> None:
    head, body = _split(path)
    header = dict(json.loads(head), **changes)
    path.write_bytes(
        json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body
    )


def _flip_body_byte(path: Path) -> None:
    raw = bytearray(path.read_bytes())
    raw[raw.index(b"\n") + 20] ^= 0x01
    path.write_bytes(bytes(raw))


def _lookup(read_dirs):
    cache = ProfileCache(read_dirs=read_dirs)
    profile = cache.lookup(_DOMAIN, _KEY)
    instruments = Instruments()
    cache.record(instruments)
    return profile, instruments


class TestProfileStoreCorruption:
    def test_intact_entry_hits(self, tmp_path):
        profile, instruments = _lookup([_generation(tmp_path, "gen-000")])
        assert profile == _PROFILE
        assert instruments.counter("profile_store.hits") == 1
        assert instruments.counter("profile_store.misses") == 0

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(
                lambda p: p.write_bytes(p.read_bytes()[:20]),
                id="truncated-in-header",
            ),
            pytest.param(
                lambda p: p.write_bytes(p.read_bytes()[:-10]),
                id="truncated-in-body",
            ),
            pytest.param(_flip_body_byte, id="flipped-body-byte"),
            pytest.param(
                lambda p: _rewrite_header(p, format=PROFILE_STORE_FORMAT + 1),
                id="foreign-format",
            ),
            pytest.param(
                lambda p: _rewrite_header(p, digest="0" * 64),
                id="foreign-digest",
            ),
        ],
    )
    def test_damaged_entry_misses(self, tmp_path, damage):
        generation = _generation(tmp_path, "gen-000")
        damage(_entry(generation))
        profile, instruments = _lookup([generation])
        assert profile is None
        assert instruments.counter("profile_store.hits") == 0
        assert instruments.counter("profile_store.misses") == 1

    def test_foreign_generation_marker_misses(self, tmp_path):
        # The foreign generation holds an intact entry for the key; it
        # is ignored wholesale, so the lookup falls through to the
        # (empty) valid generation and misses there.
        foreign = _generation(tmp_path, "gen-001")
        (foreign / MARKER_NAME).write_text(
            json.dumps({"format": PROFILE_STORE_FORMAT + 1})
        )
        empty = tmp_path / "gen-000"
        other = Domain(rank=3, name="other.example", reachability=Reachability.STABLE)
        ProfileCache(write_dir=empty).store(other, _KEY, _PROFILE)
        profile, instruments = _lookup([foreign, empty])
        assert profile is None
        assert instruments.counter("profile_store.hits") == 0
        assert instruments.counter("profile_store.misses") == 1

    def test_lone_foreign_generation_counts_a_miss(self, tmp_path):
        # Configured read generations that are all invalid still make
        # the lookup a miss, not an uncounted no-op.
        foreign = _generation(tmp_path, "gen-001")
        (foreign / MARKER_NAME).write_text(
            json.dumps({"format": PROFILE_STORE_FORMAT + 1})
        )
        profile, instruments = _lookup([foreign])
        assert profile is None
        assert instruments.counter("profile_store.hits") == 0
        assert instruments.counter("profile_store.misses") == 1

    def test_no_read_generation_counts_nothing(self, tmp_path):
        profile, instruments = _lookup([])
        assert profile is None
        assert instruments.counter("profile_store.hits") == 0
        assert instruments.counter("profile_store.misses") == 0


# ----------------------------------------------------------------------
# Tier order: memory, then read generations, then the caller builds
# ----------------------------------------------------------------------
_TIER_COUNTERS = (
    "cache.hits", "cache.misses", "profile_store.hits", "profile_store.misses"
)


def _counters(cache: ProfileCache) -> dict:
    instruments = Instruments()
    cache.record(instruments)
    return {name: instruments.counters.get(name) for name in _TIER_COUNTERS}


class TestTierOrder:
    def test_memory_hit_reads_no_generation(self, tmp_path, monkeypatch):
        generation = _generation(tmp_path, "gen-000")
        cache = ProfileCache(read_dirs=[generation])
        cache.store(_DOMAIN, _KEY, _PROFILE)

        def no_read(path, digest):
            raise AssertionError(f"generation read {path}")

        monkeypatch.setattr("repro.crawler.cache._read_entry", no_read)
        assert cache.lookup(_DOMAIN, _KEY) == _PROFILE
        assert _counters(cache) == {
            "cache.hits": 1,
            "cache.misses": 0,
            "profile_store.hits": 0,
            "profile_store.misses": 0,
        }

    def test_generation_hit_fills_memory_and_writes_through(self, tmp_path):
        source = _generation(tmp_path, "gen-000")
        target = tmp_path / "gen-001"
        cache = ProfileCache(write_dir=target, read_dirs=[source])
        assert cache.lookup(_DOMAIN, _KEY) == _PROFILE
        assert _counters(cache) == {
            "cache.hits": 0,
            "cache.misses": 1,
            "profile_store.hits": 1,
            "profile_store.misses": 0,
        }
        assert _entry(target).read_bytes() == _entry(source).read_bytes()
        assert (target / MARKER_NAME).read_bytes() == b'{"format": 1}'
        # Promoted into memory: the next lookup never reaches a generation.
        _entry(source).unlink()
        assert cache.lookup(_DOMAIN, _KEY) == _PROFILE
        assert _counters(cache)["cache.hits"] == 1

    def test_disabled_memory_still_consults_generations(self, tmp_path):
        generation = _generation(tmp_path, "gen-000")
        cache = ProfileCache(enabled=False, read_dirs=[generation])
        assert cache.active
        assert cache.lookup(_DOMAIN, _KEY) == _PROFILE
        assert cache.lookup(_DOMAIN, _KEY) == _PROFILE
        assert _counters(cache) == {
            "cache.hits": 0,
            "cache.misses": 0,
            "profile_store.hits": 2,
            "profile_store.misses": 0,
        }

    def test_miss_then_store_hashes_the_key_once(self, tmp_path, monkeypatch):
        import repro.crawler.cache as cache_module

        calls = []
        digest = cache_module.profile_digest

        def counting(*args):
            calls.append(args)
            return digest(*args)

        monkeypatch.setattr(cache_module, "profile_digest", counting)
        target = tmp_path / "gen-001"
        cache = ProfileCache(write_dir=target, read_dirs=[tmp_path / "gen-000"])
        assert cache.lookup(_DOMAIN, _KEY) is None
        cache.store(_DOMAIN, _KEY, _PROFILE)
        assert len(calls) == 1
        assert _entry(target).exists()
        assert _counters(cache)["profile_store.misses"] == 1

    def test_full_mode_crawl_block_has_no_generation_tier(self, tmp_path):
        from repro import ScenarioConfig
        from repro.config import IncrementalConfig
        from repro.crawler import Crawler
        from repro.webgen import WebEcosystem

        config = ScenarioConfig(population=30, seed=5)
        weeks = config.calendar.weeks[:2]
        ecosystem = WebEcosystem(config)
        manifest = Crawler(
            ecosystem,
            mode="manifest",
            apply_filter=False,
            incremental=IncrementalConfig(
                profile_store_write=str(tmp_path / "gen-000")
            ),
        )
        written = manifest.crawl_block(weeks, list(ecosystem.population))
        assert written.counters["profile_store.misses"] == 0
        assert any((tmp_path / "gen-000").glob("*.profile"))

        full = Crawler(
            WebEcosystem(config),
            mode="full",
            apply_filter=False,
            incremental=IncrementalConfig(
                profile_store_read=(str(tmp_path / "gen-000"),),
                profile_store_write=str(tmp_path / "gen-001"),
            ),
        )
        instruments = full.crawl_block(weeks, list(full.ecosystem.population))
        assert not (tmp_path / "gen-001").exists()
        assert instruments.counter("cache.hits") > 0
        assert not any(
            name.startswith("profile_store.") for name in instruments.counters
        )


# ----------------------------------------------------------------------
# Queue status and ledger open: validate and sweep like a resume does
# ----------------------------------------------------------------------
def test_status_view_rejects_another_jobs_record(tmp_path):
    plan = FleetPlan.build(population=24, seed=7, ticks=1, weeks_per_tick=2)
    queue = JobQueue(tmp_path / "q")
    records = queue.open(plan).records
    queue.mark_running(records["crawl-000"], now=1.0)
    # A checksum-valid record, but job A's: B's status must not adopt it.
    queue.record_path("analyses-000").write_bytes(
        queue.record_path("crawl-000").read_bytes()
    )
    before = sorted(p.name for p in (tmp_path / "q").rglob("*"))
    records = queue.load_records(plan)
    assert [r.job_id for r in records] == [spec.job_id for spec in plan.jobs]
    status = {record.job_id: record for record in records}
    assert status["crawl-000"].state == "running"
    assert status["analyses-000"].state == PENDING
    assert status["analyses-000"].error.startswith("unreadable record")
    # Read-only: nothing quarantined or rewritten.
    assert sorted(p.name for p in (tmp_path / "q").rglob("*")) == before


def test_ledger_open_sweeps_manifest_temp_file(tmp_path):
    from repro import ScenarioConfig
    from repro.runtime.ledger import RunManifest

    config = ScenarioConfig(population=10, seed=3)
    manifest = RunManifest.build(
        config=config,
        mode="manifest",
        fault_plan=None,
        week_ordinals=(0, 1),
        domain_names=("a.example", "b.example"),
        shards=(),
        store_format=2,
    )
    root = tmp_path / "run"
    RunLedger(root).open(manifest, resume=False)
    stale = root / f".manifest.json.{os.getpid() + 1}.tmp"
    stale.write_bytes(b'{"format": ')
    journal_stale = root / "journal" / ".shard-00000.wal.77.tmp"
    journal_stale.write_bytes(b"torn")
    scan = RunLedger(root).open(manifest, resume=True)
    assert scan.resumed
    assert not stale.exists()
    assert not journal_stale.exists()


# ----------------------------------------------------------------------
# The primitive itself
# ----------------------------------------------------------------------
@pytest.fixture
def durable():
    from repro.runtime import durable

    return durable


class TestDurablePrimitive:
    def test_round_trip(self, durable, tmp_path):
        path = tmp_path / "r.rec"
        durable.atomic_write_bytes(
            path, durable.encode_record({"kind": "x"}, b"body\nbytes")
        )
        header, body = durable.read_record(path)
        assert body == b"body\nbytes"
        assert header == {
            "kind": "x",
            "sha256": hashlib.sha256(b"body\nbytes").hexdigest(),
        }

    def test_torn_body_keeps_the_header(self, durable, tmp_path):
        path = tmp_path / "r.rec"
        data = durable.encode_record({"state": "done"}, b"0123456789")
        path.write_bytes(data[:-4])
        header, body = durable.read_record(path)
        assert header["state"] == "done"
        assert body is None

    @pytest.mark.parametrize(
        "raw", [b"", b'{"state": "do', b"[1, 2]\nbody", b"\xff\xfe\nbody"]
    )
    def test_unreadable_header(self, durable, tmp_path, raw):
        path = tmp_path / "r.rec"
        path.write_bytes(raw)
        assert durable.read_record(path) == (None, None)

    def test_missing_file(self, durable, tmp_path):
        assert durable.read_record(tmp_path / "absent") == (None, None)

    def test_quarantine_never_overwrites(self, durable, tmp_path):
        target_dir = tmp_path / "quarantine"
        target_dir.mkdir()
        moved = []
        for content in (b"one", b"two", b"three"):
            path = tmp_path / "job.rec"
            path.write_bytes(content)
            moved.append(durable.quarantine(path, target_dir))
        assert [p.name for p in moved] == ["job.rec", "job.rec.1", "job.rec.2"]
        assert [p.read_bytes() for p in moved] == [b"one", b"two", b"three"]

    def test_sweep_removes_only_temp_files(self, durable, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        first.mkdir()
        second.mkdir()
        (first / ".x.rec.12.tmp").write_bytes(b"")
        (second / ".y.json.9.tmp").write_bytes(b"")
        (first / "x.rec").write_bytes(b"kept")
        durable.sweep_temp_files(first, second)
        assert [p.name for p in first.iterdir()] == ["x.rec"]
        assert list(second.iterdir()) == []
