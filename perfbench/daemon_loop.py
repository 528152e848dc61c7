"""Workload ``daemon-closed-loop``: one ``repro serve`` process.

Why: build tools wait for each reply, so the load is a closed loop of
two client connections (the host has two cores; a sharded fleet plus
the load generator would measure the scheduler instead): one speaks
NDJSON over the Unix socket, the other ``POST /v1/expand`` on the HTTP
gateway.  Framing, admission, worker-pool acquire and replenish, and
the metrics store do the work.  Requests are Zipf-drawn over the
``build-incremental`` corpus; every SCRAPE_EVERY requests the NDJSON
client also reads ``GET /metrics`` and the ``stats`` op, beside the
counter writes every request makes.

Set-up is spawning the daemon until ``ping`` answers, done SPAWNS
times; a cold start runs on to the answer of the first request on
each fresh daemon.  The last daemon takes the load and is drained at
the end.
"""

from __future__ import annotations

import threading
import time
import urllib.request
from statistics import median
from typing import Any

from common import (
    SPAWN_CAL_SAMPLES,
    Context,
    HostSpeed,
    Outcome,
    coverage,
    layer_metrics,
    percentile,
    pin_to_one_cpu,
    setup_probes,
)
from daemon import Daemon
from gen import PACKAGES, corpus, zipf_requests
from oracle import Oracle, digest, reference

UNITS = 200
SPAWNS = 11
SCRAPE_EVERY = 50
#: The load runs in segments of SEGMENT_S seconds.  Between segments,
#: with no client running and the daemon idle, the benchmark takes
#: CAL_SAMPLES host-speed calibration samples: a sample taken beside a
#: client would hold the GIL that client needs to read its reply, and
#: one taken beside the daemon's work would share its CPU.
SEGMENT_S = 1.0
CAL_SAMPLES = 3
#: Fixed tail percentile of request latency.
TAIL = 99
#: Requests drawn up front; a run stops at its deadline long before.
MAX_REQUESTS = 100_000
#: Client socket timeout: a stuck daemon fails requests, never hangs.
TIMEOUT_S = 10.0


class _Client:
    """One closed-loop connection, kept open across segments."""

    def __init__(self, daemon, transport, units, plan, scrape=False):
        self.address = (daemon.http_address if transport == "http"
                        else daemon.address)
        self.daemon_proc = daemon
        self.units = units
        self.plan = plan
        self.scrape = scrape
        self.metrics_url = f"{daemon.http_address}/metrics"
        self._client = None
        #: (unit, seconds, output digest or None, error or None)
        self.requests: list[tuple[int, float, str | None, str | None]] = []
        self.output_bytes = 0
        self.scrapes: list[tuple[str, float, str | None]] = []
        #: Set when the daemon was found dead; the client stops.
        self.dead = False

    def _get_metrics(self):
        with urllib.request.urlopen(self.metrics_url, timeout=TIMEOUT_S) as r:
            body = r.read().decode("utf-8")
        if "ms2_requests_total" not in body:
            raise ValueError("/metrics lacks ms2_requests_total")

    def _stats_op(self, client):
        stats = client.stats()
        if "requests" not in stats:
            raise ValueError("stats op lacks requests")

    def _timed(self, kind, fn, *args):
        start = time.perf_counter()
        try:
            fn(*args)
            error = None
        except Exception as exc:  # counted as a failed operation
            error = f"{type(exc).__name__}: {exc}"
        self.scrapes.append((kind, time.perf_counter() - start, error))

    def run(self, deadline, count=None) -> None:
        """Send the next requests of the plan until ``deadline``, or
        until ``count`` requests have been sent in all."""
        from repro.client import Ms2Client

        if self._client is None:
            self._client = Ms2Client(self.address, timeout=TIMEOUT_S)
        client = self._client
        while not self.dead and len(self.requests) < len(self.plan):
            i = len(self.requests)
            if count is not None and i >= count:
                break
            if time.perf_counter() >= deadline:
                break
            unit = self.plan[i]
            name, source = self.units[unit]
            t0 = time.perf_counter()
            try:
                output = client.expand(source, name).output
                self.output_bytes += len(output)
                self.requests.append((unit, time.perf_counter() - t0,
                                      digest(output), None))
            except Exception as exc:  # counted as a failed operation
                client.close()
                error = f"{type(exc).__name__}: {exc}"
                self.requests.append(
                    (unit, time.perf_counter() - t0, None, error))
                self.dead = not self.daemon_proc.alive()
            if self.scrape and (i + 1) % SCRAPE_EVERY == 0:
                self._timed("metrics", self._get_metrics)
                self._timed("stats", self._stats_op, client)

    def close(self) -> None:
        if self._client is not None:
            self._client.close()


def _load(daemon, units, plans, speed, seconds, counts=(None, None)):
    """The two clients in segments until ``seconds`` of load, or until
    each client has sent its ``counts``.  Returns the clients and the
    segments, each as (seconds, calibration mark, number of requests
    each client had sent when it ended)."""
    clients = [
        _Client(daemon, "unix", units, plans[0], scrape=True),
        _Client(daemon, "http", units, plans[1]),
    ]
    wall = 0.0
    segments = []
    try:
        daemon.wait_idle()
        speed.sample(CAL_SAMPLES)
        while wall < seconds and not any(c.dead for c in clients):
            if all(n is not None and len(c.requests) >= n
                   for c, n in zip(clients, counts)):
                break
            start = time.perf_counter()
            end = start + min(SEGMENT_S, seconds - wall)
            threads = [
                threading.Thread(target=c.run, args=(end, n), daemon=True)
                for c, n in zip(clients, counts)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - start
            wall += elapsed
            segments.append((elapsed, speed.mark(),
                             tuple(len(c.requests) for c in clients)))
            daemon.wait_idle()
            speed.sample(CAL_SAMPLES)
    finally:
        for c in clients:
            c.close()
    return clients, segments


def _scaled(clients, segments, speed):
    """The latencies of the answered requests and the wall time of the
    load, each scaled by the calibration samples nearest its
    segment."""
    latencies, wall = [], 0.0
    starts = [0] * len(clients)
    for seconds, mark, ends in segments:
        wall += speed.scale(seconds, mark)
        for k, c in enumerate(clients):
            latencies += [speed.scale(s, mark)
                          for _, s, _, error in c.requests[starts[k]:ends[k]]
                          if error is None]
        starts = list(ends)
    return latencies, wall


def _spawn(ctx, tag, trace_dump=None):
    start = time.perf_counter()
    daemon = Daemon(ctx.root, ctx.workdir / tag, PACKAGES, trace_dump,
                    ctx.bytecode)
    daemon.wait_ready()
    return daemon, time.perf_counter() - start


def _cold_request(daemon, unit):
    from repro.client import Ms2Client

    name, source = unit
    with Ms2Client(daemon.address, timeout=TIMEOUT_S) as client:
        start = time.perf_counter()
        output = client.expand(source, name).output
    return time.perf_counter() - start, output


def _stop(daemon, oracle):
    code = daemon.stop()
    if code != 0:
        oracle.fail("daemon", f"exit code {code} after drain")


def _check(units, threads, colds, oracle):
    """Daemon outputs against library outputs, and library outputs
    against the reference path, for every unit requested."""
    from repro.api import expand

    wanted = {r[0] for t in threads for r in t.requests}
    wanted |= {unit for unit, _ in colds}
    library = {}
    for unit in sorted(wanted):
        name, source = units[unit]
        out = expand(source, name, packages=PACKAGES).output
        oracle.check(f"{name} (library)", out, reference(source, name))
        library[unit] = digest(out)
    for unit, output in colds:
        if digest(output) == library[unit]:
            oracle.checked += 1
        else:
            oracle.fail(units[unit][0], "cold daemon output differs")
    for t in threads:
        for unit, _, got, error in t.requests:
            if error is not None:
                oracle.fail(units[unit][0], error)
            elif got != library[unit]:
                oracle.fail(units[unit][0], "daemon output differs "
                            "from library output")
            else:
                oracle.checked += 1
        for kind, _, error in t.scrapes:
            if error is None:
                oracle.checked += 1
            else:
                oracle.fail(kind, error)


#: The unit every cold request expands: a fixed index, so each seed's
#: cold request has the same shape (corpus units vary in size with
#: their index).
COLD_UNIT = 1


def _plans(ctx):
    draws = zipf_requests(ctx.seed, UNITS, MAX_REQUESTS)
    return draws[0::2], draws[1::2]


def run(ctx: Context) -> Outcome:
    pin_to_one_cpu()
    units = corpus(ctx.seed, UNITS)
    plans = _plans(ctx)
    oracle = Oracle()
    info: dict[str, Any] = {
        "units": UNITS, "clients": 2, "transports": ["unix", "http"],
        "scrape_every": SCRAPE_EVERY, "spawns": SPAWNS,
    }
    if ctx.trace:
        return _traced(ctx, units, plans, oracle, info)
    setups, colds, cold_times = [], [], []
    daemon = None
    try:
        for i in range(SPAWNS):
            if daemon is not None:
                _stop(daemon, oracle)
            # Each spawn is scaled by samples taken right before and
            # right after it, as in common.setup_probes.
            speed = HostSpeed()
            speed.sample(SPAWN_CAL_SAMPLES)
            daemon, setup_s = _spawn(ctx, f"d{i}")
            seconds, output = _cold_request(daemon, units[COLD_UNIT])
            daemon.wait_idle()
            speed.sample(SPAWN_CAL_SAMPLES)
            scale = speed.factor()
            setups.append(setup_s * scale)
            cold_times.append((setup_s + seconds) * scale)
            colds.append((COLD_UNIT, output))
        speed = HostSpeed()
        threads, segments = _load(daemon, units, plans, speed, ctx.seconds)
        if daemon.alive():
            rss = daemon.peak_rss_mb()
        else:
            oracle.fail("daemon", "died during the load")
            rss = 0.0  # not measurable; the run is already incorrect
    finally:
        if daemon is not None:
            _stop(daemon, oracle)
    _check(units, threads, colds, oracle)
    oracle.golden(ctx.root)
    latencies, wall = _scaled(threads, segments, speed)
    info.update(
        requests=sum(len(t.requests) for t in threads),
        distinct_units=len({r[0] for t in threads for r in t.requests}),
        tail_percentile=TAIL,
        host_speed=round(speed.factor(), 4),
    )
    metrics = {
        "setup_s": (median(setups), "s"),
        "cold_s": (median(cold_times), "s"),
        "p50_ms": (percentile(latencies, 50) * 1000.0, "ms"),
        "tail_ms": (percentile(latencies, TAIL) * 1000.0, "ms"),
        "throughput_per_s": (len(latencies) / wall, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return Outcome(metrics, oracle, info)


def _latency(before: dict, after: dict) -> tuple[float, int]:
    """Summed server-side latency (ms) of the work requests answered
    between two ``stats`` op payloads, and their number."""
    def total(stats):
        lat = stats["latency_ms"]
        return lat["mean"] * lat["count"], lat["count"]

    total_a, count_a = total(after)
    total_b, count_b = total(before)
    return total_a - total_b, count_a - count_b


def _delta(before: dict, after: dict) -> dict[str, float]:
    """Server-side per-layer metrics from two ``stats`` op payloads."""
    requests = (after["requests"].get("expand", 0)
                - before["requests"].get("expand", 0))
    latency_ms, count = _latency(before, after)
    w_after, w_before = after["workers"], before["workers"]
    per = max(1, requests)
    return {
        "server.latency_mean_ms": latency_ms / max(1, count),
        "server.warm_ratio": (
            (w_after["warm_hits"] - w_before["warm_hits"]) / per),
        "server.replenish_ms_per_req": (
            w_after["replenish_ms"] - w_before["replenish_ms"]) / per,
        "server.busy_share": (
            after["busy_rejections"] - before["busy_rejections"]) / per,
    }


def _per_request(threads, wall: float) -> float:
    return wall / max(1, sum(len(t.requests) for t in threads))


def _pipeline_delta(before: dict, after: dict) -> dict[str, float]:
    a, b = after["pipeline"], before["pipeline"]
    return {k: a[k] - b.get(k, 0) for k, v in a.items()
            if isinstance(v, (int, float))}


def _traced(ctx, units, plans, oracle, info) -> Outcome:
    """Half the time on an untraced daemon, then the same requests per
    connection on a daemon started under the span wrappers.

    Coverage is that of the daemon: the time under ``server.work``
    spans (an admitted request's work on an executor thread, engine
    included) over the latency the daemon itself measured for those
    requests, which also holds the wait for an executor thread.
    Framing runs on the event loop, outside both; the client sees it
    in ``client.overhead_ms``."""
    from repro.client import Ms2Client

    probes = setup_probes(ctx)
    daemon = None
    try:
        daemon, _ = _spawn(ctx, "plain")
        plain_speed, traced_speed = HostSpeed(), HostSpeed()
        plain, plain_segments = _load(daemon, units, plans, plain_speed,
                                      ctx.seconds / 2)
        _stop(daemon, oracle)
        dump = ctx.workdir / "daemon-spans.json"
        daemon, _ = _spawn(ctx, "traced", trace_dump=dump)
        with Ms2Client(daemon.address, timeout=TIMEOUT_S) as client:
            before = client.stats()
        # The same requests per connection; the time limit only bounds
        # a run whose traced daemon stalls.
        traced, traced_segments = _load(
            daemon, units, plans, traced_speed, 3 * ctx.seconds,
            counts=tuple(len(t.requests) for t in plain))
        with Ms2Client(daemon.address, timeout=TIMEOUT_S) as client:
            after = client.stats()
    finally:
        if daemon is not None:
            _stop(daemon, oracle)
    server_totals = daemon.trace_totals()
    _check(units, plain + traced, [], oracle)
    oracle.golden(ctx.root)
    requests = sum(len(t.requests) for t in traced)

    def p50(transport):
        ok = [s for t in traced if t.address.startswith(transport)
              for _, s, _, e in t.requests if e is None]
        return percentile(ok, 50) * 1000.0 if ok else 0.0

    def mean_ms(kind):
        samples = [s for t in traced for k, s, e in t.scrapes if k == kind]
        return sum(samples) * 1000.0 / len(samples) if samples else 0.0

    client_mean = sum(
        r[1] for t in traced for r in t.requests) * 1000.0 / max(1, requests)
    server = _delta(before, after)
    extra = {
        **server,
        "client.ndjson_p50_ms": p50("unix"),
        "client.http_p50_ms": p50("http"),
        "client.overhead_ms": client_mean - server["server.latency_mean_ms"],
        "metrics_http.scrape_ms": mean_ms("metrics"),
        "server.stats_op_ms": mean_ms("stats"),
        "import.ms": median([p["import_s"] for p in probes]) * 1000.0,
        "trace.overhead_share": (
            _per_request(traced, _scaled(traced, traced_segments,
                                         traced_speed)[1])
            / _per_request(plain, _scaled(plain, plain_segments,
                                          plain_speed)[1]) - 1.0),
        "trace.coverage_share": coverage(
            server_totals["incl_s"].get("server.work", 0.0)
            + server_totals["incl_s"].get("server.handoff", 0.0),
            _latency(before, after)[0] / 1000.0),
    }
    info.update(traced_requests=requests, unit="request",
                server_spans="recorded inside the daemon by "
                "perfbench/traced_serve.py and written when it drained")
    metrics = layer_metrics([server_totals], _pipeline_delta(before, after),
                            requests, sum(t.output_bytes for t in traced),
                            extra)
    return Outcome(metrics, oracle, info)
