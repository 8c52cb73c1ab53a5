"""One program process of the benchmark: ``child.py <task> <json-args>``.

Started by :mod:`common` in a fresh interpreter with ``src/`` on the
path.  It drives the program only through its public API or CLI, stamps
its phases with ``time.monotonic()`` (system-wide, so the parent can
subtract its own spawn time), and prints one JSON report as its last
stdout line.  With ``trace_out`` set it installs the span wrappers of
:mod:`tracing` first and writes their summary there at exit.

Tasks:

* ``crawl`` — ``Study(config)``, ``Study.run()``, ``save_store``,
  ``Study.results()``; then, untimed, the output checks.
* ``fleet`` — a ``repro orchestrate run`` fleet, optionally killed with
  ``os._exit`` just before the job ``kill_job`` records its completion,
  or (``resume``) ``Orchestrator(root, plan).run()`` over an existing
  queue.
* ``serve`` — ``repro serve`` with tracing installed (the untraced
  server is started as the plain CLI).
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402  (the benchmark's own module)


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _start_tracer(args: dict):
    if not args.get("trace_out"):
        return None
    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def _write_trace(tracer, args: dict) -> None:
    if tracer is None:
        return
    with open(args["trace_out"], "w", encoding="utf-8") as handle:
        json.dump(tracer.summary(), handle)


def _region(tracer):
    return tracer.span(tracing.REGION) if tracer else contextlib.nullcontext()


def task_crawl(args: dict) -> dict:
    from repro import ScenarioConfig, Study
    from repro.crawler.persistence import load_store, save_store, store_to_bytes
    from repro.options import ObservabilityOptions, RunOptions

    tracer = _start_tracer(args)
    options = None
    if args.get("metrics_out"):
        options = RunOptions(observability=ObservabilityOptions(metrics=True))
    study = Study(
        ScenarioConfig(population=args["population"], seed=args["seed"]),
        mode=args["mode"],
        options=options,
    )
    ready = time.monotonic()
    with _region(tracer):
        weeks = None
        if args.get("weeks"):
            weeks = study.config.calendar.weeks[: args["weeks"]]
        run_start = time.monotonic()
        report = study.run(weeks=weeks)
        run_end = time.monotonic()
        save_store(study.store, args["store"])
        study.results()
    done = time.monotonic()
    # Before the checks below load a second copy of the store.
    peak_rss_kib = _peak_rss_kib()
    _write_trace(tracer, args)

    # Untimed output checks.
    saved = open(args["store"], "rb").read()
    reloaded = load_store(args["store"], study.config.calendar, study.matcher)
    if args.get("metrics_out"):
        with open(args["metrics_out"], "w", encoding="utf-8") as handle:
            handle.write(report.metrics.canonical_json())
    grid = report.weeks_crawled * report.domains_crawled
    return {
        "ready": ready,
        "run_start": run_start,
        "run_end": run_end,
        "done": done,
        "peak_rss_kib": peak_rss_kib,
        "weeks": report.weeks_crawled,
        "domains": report.domains_crawled,
        "grid": grid,
        "pages": report.pages_collected,
        "fetch_failures": report.fetch_failures,
        "dropped_cells": report.dropped_cells,
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
        "reencode_identical": store_to_bytes(reloaded) == saved,
    }


def _fleet_argv(args: dict) -> list:
    return [
        "orchestrate",
        "run",
        "--queue-dir",
        args["root"],
        "--population",
        str(args["population"]),
        "--seed",
        str(args["seed"]),
        "--ticks",
        str(args["ticks"]),
        "--weeks-per-tick",
        str(args["weeks_per_tick"]),
        "--backend",
        args["backend"],
        "--workers",
        str(args["workers"]),
    ]


def task_fleet(args: dict) -> dict:
    """``repro orchestrate run``, killed at ``kill_job`` when given."""
    from repro import cli

    kill_job = args.get("kill_job")
    if kill_job:
        from repro.orchestrator.queue import JobQueue

        original = JobQueue.write_done_manifest

        def write_done_then_maybe_die(self, job_id, *rest, **kwargs):
            if job_id == kill_job:
                # Hard abort: no cleanup, no atexit, no flush.  The job's
                # shards are journaled, its completion proof is not.
                os._exit(137)
            return original(self, job_id, *rest, **kwargs)

        JobQueue.write_done_manifest = write_done_then_maybe_die
    with open(os.devnull, "w") as sink:
        stdout, sys.stdout = sys.stdout, sink
        try:
            code = cli.main(_fleet_argv(args))
        finally:
            sys.stdout = stdout
    if code != 0:
        raise SystemExit(code)
    return {}


def task_resume(args: dict) -> dict:
    """Resume a killed fleet: ``Orchestrator(root, plan).run()``."""
    from repro.options import OrchestratorOptions
    from repro.orchestrator import Orchestrator

    tracer = _start_tracer(args)
    plan = OrchestratorOptions(
        queue_dir=args["root"],
        population=args["population"],
        seed=args["seed"],
        ticks=args["ticks"],
        weeks_per_tick=args["weeks_per_tick"],
        backend=args["backend"],
        workers=args["workers"],
    ).to_plan()
    orchestrator = Orchestrator(args["root"], plan)
    ready = time.monotonic()
    with _region(tracer):
        records = orchestrator.run()
    done = time.monotonic()
    peak_rss_kib = _peak_rss_kib()
    _write_trace(tracer, args)
    return {
        "ready": ready,
        "done": done,
        "peak_rss_kib": peak_rss_kib,
        "states": {job: record.state for job, record in records.items()},
    }


def task_serve(args: dict) -> int:
    """``repro serve`` with span tracing; the summary is written on exit."""
    from repro import cli

    tracer = _start_tracer(args)
    code = cli.main(args["argv"])
    _write_trace(tracer, args)
    return code


def main() -> int:
    task, raw = sys.argv[1], sys.argv[2]
    args = json.loads(raw)
    if task == "serve":
        return task_serve(args)
    report = {"crawl": task_crawl, "fleet": task_fleet, "resume": task_resume}[
        task
    ](args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
