"""Serving throughput and latency under a seeded Zipf replay.

Two measurements, same request mix:

* **Over real sockets** — ``make_server`` on an ephemeral port, one
  keep-alive ``http.client`` connection replaying the sampled stream.
  Client-side wall latencies feed a :class:`repro.obs.Histogram`, so
  the reported p50/p99 use the same bucketing as the server's own
  ``serve.latency_us``.  The socket rate must be at least
  ``MIN_SOCKET_RATIO`` times an in-process replay of the same stream.
* **In-process** — the deterministic harness the tests use.  Two
  same-seed replays must be digest-identical *and* leave identical
  canonical metrics; the benchmark then reports the in-process
  request rate.

``REPRO_SERVE_REQUESTS`` / ``REPRO_SERVE_SOCKET_REQUESTS`` shrink the
replays for CI smoke runs.
"""

from __future__ import annotations

import http.client
import os
import threading
import time

from _helpers import record

from repro.obs import Histogram
from repro.serve import (
    LoadGenerator,
    ServeApp,
    WallServeClock,
    build_mix,
    make_server,
)
from repro.serve.app import LATENCY_US_EDGES
from repro.serve.loadgen import response_digest
from repro.vulndb import default_database

MIX_SEED = 7
REQUESTS = int(os.environ.get("REPRO_SERVE_REQUESTS", "3000"))
SOCKET_REQUESTS = int(os.environ.get("REPRO_SERVE_SOCKET_REQUESTS", "800"))
#: Floor on socket req/s over in-process req/s for the same stream.  A
#: delayed-ACK stall per response puts the ratio near 0.001; one write
#: on a no-delay socket puts it near 0.1.
MIN_SOCKET_RATIO = 0.02


def test_serve_socket_replay(benchmark, store):
    """Requests/sec and latency percentiles over a real TCP connection."""
    database = default_database()
    app = ServeApp(store, database=database, clock=WallServeClock())
    # /metrics reflects wall-clock cache expiry, so keep it out of the
    # byte comparison against the simulated-clock in-process replay.
    mix = build_mix(store, database, seed=MIX_SEED, include_metrics=False)
    server = make_server(app)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    latencies = Histogram(LATENCY_US_EDGES)
    holder = {}

    def replay():
        sampler = LoadGenerator(app, mix)  # used for sampling only
        etags = {}
        digests = []
        conn = http.client.HTTPConnection(host, port)
        started = time.perf_counter()
        for _ in range(SOCKET_REQUESTS):
            target, conditional = sampler.sample()
            headers = {}
            known = etags.get(target)
            if known is not None and conditional:
                headers["If-None-Match"] = known
            sent = time.perf_counter_ns()
            conn.request("GET", target, headers=headers)
            response = conn.getresponse()
            body = response.read()
            latencies.observe((time.perf_counter_ns() - sent) // 1_000)
            etag = response.getheader("ETag")
            if response.status == 200 and etag:
                etags[target] = etag
            digests.append(
                response_digest(target, response.status, etag, body)
            )
        holder["seconds"] = time.perf_counter() - started
        holder["digests"] = digests
        conn.close()
        return digests

    try:
        digests = benchmark.pedantic(replay, rounds=1, iterations=1)
    finally:
        server.shutdown()
        server.server_close()

    # The socket stream serves the same bytes the in-process harness
    # replays — the transport cannot change a byte.
    generator = LoadGenerator(ServeApp(store, database=database), mix)
    started = time.perf_counter()
    in_process = generator.run(SOCKET_REQUESTS)
    in_process_rate = SOCKET_REQUESTS / (time.perf_counter() - started)
    assert tuple(digests) == in_process.digests

    socket_rate = SOCKET_REQUESTS / holder["seconds"]
    ratio = socket_rate / in_process_rate
    record(
        benchmark,
        requests=SOCKET_REQUESTS,
        requests_per_second=socket_rate,
        in_process_requests_per_second=in_process_rate,
        socket_to_in_process_ratio=ratio,
        p50_us=latencies.quantile(0.5),
        p99_us=latencies.quantile(0.99),
        mean_us=latencies.mean,
    )
    assert ratio >= MIN_SOCKET_RATIO, (
        f"socket {socket_rate:,.0f} req/s is {ratio:.4f} of in-process "
        f"{in_process_rate:,.0f} req/s (floor {MIN_SOCKET_RATIO})"
    )


def test_serve_replay_determinism(benchmark, store):
    """Two same-seed in-process replays are digest- and metric-identical."""
    database = default_database()
    mix = build_mix(store, database, seed=MIX_SEED)
    holder = {}

    def replay():
        app = ServeApp(store, database=database)
        started = time.perf_counter()
        result = LoadGenerator(app, mix).run(REQUESTS)
        holder["seconds"] = time.perf_counter() - started
        holder["app"] = app
        return result

    first = benchmark.pedantic(replay, rounds=1, iterations=1)
    first_app = holder["app"]

    second_app = ServeApp(store, database=database)
    second = LoadGenerator(second_app, mix).run(REQUESTS)
    assert first.digests == second.digests
    assert first.digest == second.digest
    assert (
        first_app.canonical_metrics_json() == second_app.canonical_metrics_json()
    )

    seconds = holder["seconds"]
    served = first_app.obs.histograms["serve.latency_us"]
    record(
        benchmark,
        requests=REQUESTS,
        requests_per_second=REQUESTS / seconds,
        hit_ratio=first.hit_ratio,
        not_modified=first.not_modified,
        bytes_served=first.bytes_served,
        simulated_p50_us=served.quantile(0.5),
        simulated_p99_us=served.quantile(0.99),
        digest=first.digest[:16],
    )
