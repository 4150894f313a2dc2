"""The ``online`` phase: ``repro serve`` under open-loop load.

``repro serve --model PATH --workers 1`` runs as a subprocess; this
process is its only client — one single-threaded open-loop generator
(:mod:`perfbench.loadgen`) with at most ``nproc`` keep-alive
connections.  Two servers run side by side: one takes only ``/check``,
the other also ``/accept``.  After a warm-up pass that sends every
distinct password of the stream once to the first (outside the clock,
so its parse cache is filled), every round of the run (between the
other phases' repetitions) drives:

* **read** — ``/check`` only, at the reference rate, one slice of
  :data:`READ_SLICE` requests;
* **capacity** (traced runs only) — after the read slice, a
  ``/check`` probe at another rate, bisecting towards the highest rate
  whose probe keeps p99 within the latency limit with no failed
  request and no growing backlog (the search always runs
  :data:`MAX_PROBES` probes, the rest of them after the last round);
* **mixed** (untraced runs) — on the second server, ``/check`` at the
  reference rate with one ``/accept`` in every window of
  :data:`ACCEPT_EVERY` requests, :data:`ACCEPTS_PER_ROUND` windows.
  Each accept updates the grammar, rebuilds the frozen grammar,
  publishes a new shared-memory segment and swaps the worker onto it.  The swap
  empties the worker's parse cache and checks after accepts run
  slower, so the read stage never runs on this server.

The reference rate sits below the capacity of one worker on a shared
two-core host (700–3,000 req/s measured, as the host's load varies):
nearer to it, queueing behind host stalls, not the program, sets the
latency.

Every ``/check`` response is compared with a score computed here from
the same model file; in the mixed stage, with a replica of the model
that applies the same accepts, at the epoch the response reports.

The run's end-to-end figures from this phase are set-up, the mixed
stage's p99 and the accept latency.  The read stage's p50/p99 are
reported beside them, and with the capacity in the traced run, not
gated: on a shared two-core host they follow the host's scheduling
more than the program.  The capacity probes run in the traced run
only, so that the untraced run's time goes to the gated figures.

With tracing on, the untraced server serves the read slices (the
baseline for the tracing overhead) and the capacity probes, then
``perfbench/traced_serve.py`` serves as many read slices and the mixed
stage and writes its spans.
Each read request's latency splits into generator lag, time outside
the server's route handler (HTTP parsing and sockets), route self
time, batcher wait, executor hop, pipe round trip and worker compute.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from perfbench import loadgen, spans as spanlib
from perfbench.inputs import PARSE_CACHE
from perfbench.loadgen import OpenLoop, Request, http_request

now = time.perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Reference arrival rate (requests per second) of the read and mixed
#: stages.
REF_RATE = 400.0
#: Latency limit on p99 for the capacity search.
LATENCY_LIMIT_S = 0.020
#: Warm-up arrival rate (below capacity, so warm-up never piles up).
WARM_RATE = 2000.0
#: Requests per read slice (one per round).
READ_SLICE = 300
#: One /accept in every window of this many mixed-stage requests, and
#: windows per round.
ACCEPT_EVERY = 300
ACCEPTS_PER_ROUND = 3
#: Capacity search: requests per probe (two p99 windows) and probes.
PROBE_REQUESTS = 1000
MAX_PROBES = 5
#: Requests per group of :func:`median_p99` in a probe.
P99_WINDOW = 500
#: Seconds a server may take to announce its port.
START_TIMEOUT = 60.0
#: Server spawns timed per run (median reported as set-up); the last
#: two serve the read and the mixed stage.
SETUP_REPEATS = 3


def median_p99(groups: List[List[Request]]) -> float:
    """Median over groups of the p99 latency within each group.

    Groups hold hundreds of requests, so each p99 has several samples
    beyond it; the median over groups keeps one stall (a GC pause, a
    descheduled process) from deciding the figure.
    """
    return statistics.median(
        quantile([r.latency for r in group], 0.99) for group in groups)


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (``inf`` entries sort last)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


class CapacitySearch:
    """Bisection for the highest rate whose probe passes.

    Starts at twice the reference rate and steps up by half while
    probes pass; after the first failure it bisects between the highest
    pass and the lowest failure.  It always runs ``max_probes`` probes,
    so a run's work does not depend on how the probes fare.  The
    reported capacity interpolates, in log p99, where between those two
    rates p99 crosses the latency limit, so it is not quantised to the
    probed rates.
    """

    def __init__(self, max_probes: int) -> None:
        self.low = REF_RATE
        self.high: Optional[float] = None
        self.rate = 2 * REF_RATE
        self.max_probes = max_probes
        self.history: List[Tuple[float, bool, float]] = []
        self._p99: Dict[float, float] = {}

    @property
    def done(self) -> bool:
        return len(self.history) >= self.max_probes

    def record(self, passed: bool, p99: float) -> None:
        self.history.append((self.rate, passed, p99))
        self._p99[self.rate] = p99
        if passed:
            self.low = self.rate
        else:
            self.high = self.rate
        self.rate = (1.5 * self.low if self.high is None
                     else (self.low + self.high) / 2)

    @property
    def capacity(self) -> float:
        low_p99 = self._p99.get(self.low)
        high_p99 = self._p99.get(self.high) if self.high else None
        if (low_p99 is None or high_p99 is None
                or high_p99 <= LATENCY_LIMIT_S or low_p99 <= 0):
            return self.low
        share = (math.log(LATENCY_LIMIT_S / low_p99)
                 / math.log(high_p99 / low_p99))
        return self.low + (self.high - self.low) * min(1.0, max(0.0, share))


def child_env() -> Dict[str, str]:
    """The environment for a program process: this checkout's ``src``
    first on ``PYTHONPATH``."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Server:
    """One ``repro serve`` subprocess, ready once ``/healthz`` says 200."""

    def __init__(self, model: str, workdir: str, index: int,
                 spans_path: Optional[str] = None) -> None:
        serve = ["serve", "--model", model, "--workers", "1",
                 "--port", "0"]
        if spans_path is None:
            command = [sys.executable, "-m", "repro"] + serve
        else:
            command = [sys.executable,
                       os.path.join(ROOT, "perfbench", "traced_serve.py"),
                       spans_path] + serve
        self.stderr_path = os.path.join(workdir, f"server-{index}.stderr")
        start = now()
        with open(self.stderr_path, "w", encoding="utf-8") as stderr:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=stderr,
                env=child_env(), cwd=ROOT, text=True,
            )
        ready, _w, _x = select.select([self.process.stdout], [], [],
                                      START_TIMEOUT)
        line = self.process.stdout.readline() if ready else ""
        if "http://" not in line:
            self.stop()
            raise RuntimeError(
                f"server did not start: {line!r}; see {self.stderr_path}"
            )
        self.port = int(line.rsplit(":", 1)[1])
        while True:
            status, _body = loadgen.http_get(self.port, "/healthz")
            if status == 200:
                break
            time.sleep(0.005)
        self.setup_s = now() - start

    def get(self, path: str) -> Dict[str, Any]:
        status, body = loadgen.http_get(self.port, path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def stop(self) -> str:
        """SIGTERM, wait, and return the server's stderr."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        with open(self.stderr_path, encoding="utf-8") as handle:
            return handle.read()


class Online:
    def __init__(self, inputs: Any, model: str, workdir: str, trace: bool,
                 connections: int, spans_dir: str, rounds: int,
                 smoke: bool) -> None:
        from repro import load_meter

        self.inputs = inputs
        self.model = model
        self.workdir = workdir
        self.trace = trace
        self.connections = connections
        self.spans_dir = spans_dir
        self.accept_count = rounds * ACCEPTS_PER_ROUND
        self.search = CapacitySearch(2 if smoke else MAX_PROBES)
        self.server: Optional[Server] = None
        self.mixed_server: Optional[Server] = None
        self.pids: List[int] = []
        self.live: List[Server] = []
        self.setups: List[float] = []
        self.reads: List[List[Request]] = []
        self.read_cpu = 0.0
        self.overhead = (0.0, 0.0)
        self.attributed = (0.0, 0.0)
        self.failures: List[str] = []
        self.ops = 0
        self.failed_ops = 0
        self.stderrs: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.why: Dict[str, Any] = {}
        self.outputs: Dict[str, Any] = {}
        self._rid = itertools.count()
        self._stream: Iterator[str] = itertools.cycle(inputs.requests)
        # The reference scores: the model file, scored here.
        self.replica = load_meter(model)
        distinct = list(dict.fromkeys(inputs.requests))
        self.distinct = distinct
        self.expected = dict(
            zip(distinct, self.replica.probability_many(distinct))
        )
        self.epoch = self.replica.grammar.epoch
        # The mixed stage's server moves on with each accept.
        self.mixed_epoch = self.epoch
        self.windows: List[List[Request]] = []
        self.accepted: List[Request] = []

    def fail(self, message: str, count: int) -> None:
        """Record ``count`` failed operations under one message."""
        self.failed_ops += count
        self.failures.append(message)

    # --- request building ------------------------------------------------

    def _checks(self, passwords: List[str]) -> Tuple[List[str], List[bytes],
                                                     List[int]]:
        rids = [next(self._rid) for _ in passwords]
        payloads = [
            http_request("/check", {"password": pw, "rid": rid})
            for pw, rid in zip(passwords, rids)
        ]
        return passwords, payloads, rids

    def _next(self, n: int) -> List[str]:
        return list(itertools.islice(self._stream, n))

    def _drive(self, server: Server, requests: List[Request]) -> float:
        """Run ``requests``; returns the generator's CPU seconds.

        The generator's own garbage collector is held off while it
        drives, so its pauses are not charged to the server.
        """
        with OpenLoop(server.port, self.connections) as loop:
            gc.disable()
            cpu = time.process_time()  # lint-ok: FPM009 -- the generator's own CPU time, not program telemetry
            try:
                loop.run(requests)
            finally:
                gc.enable()
            return time.process_time() - cpu  # lint-ok: FPM009 -- as above

    def _verify_checks(self, stage: str, passwords: List[str],
                       requests: List[Request]) -> None:
        wrong = 0
        failed = 0
        for password, request in zip(passwords, requests):
            self.ops += 1
            if not request.ok:
                failed += 1
                continue
            body = json.loads(request.body)
            if (body["probability"] != self.expected[password]
                    or body["epoch"] != self.epoch):
                wrong += 1
        if failed:
            self.fail(f"online/{stage}: {failed} of {len(requests)} "
                      "requests failed or timed out", failed)
        if wrong:
            self.fail(f"online/{stage}: {wrong} responses differ from the "
                      "scores computed from the model file", wrong)

    # --- stages ----------------------------------------------------------

    def warm(self, server: Server) -> None:
        passwords, payloads, _rids = self._checks(self.distinct)
        requests = loadgen.schedule(WARM_RATE, payloads)
        self._drive(server, requests)
        self._verify_checks("warm-up", passwords, requests)

    def read(self, server: Server, n: int
             ) -> Tuple[List[Request], List[int], float]:
        passwords, payloads, rids = self._checks(self._next(n))
        requests = loadgen.schedule(REF_RATE, payloads)
        cpu = self._drive(server, requests)
        self._verify_checks("read", passwords, requests)
        return requests, rids, cpu

    def probe(self, server: Server, rate: float) -> Tuple[bool, float]:
        """One capacity probe: ``(passed, p99 seconds)``."""
        n = PROBE_REQUESTS
        passwords, payloads, _rids = self._checks(self._next(n))
        requests = loadgen.schedule(rate, payloads)
        self._drive(server, requests)
        latencies = [r.latency for r in requests]
        failed = sum(1 for r in requests if not r.ok)
        wrong = sum(
            1 for pw, r in zip(passwords, requests)
            if r.ok and json.loads(r.body)["probability"] != self.expected[pw]
        )
        self.ops += n
        if wrong:
            self.fail(f"online/capacity: {wrong} responses at {rate:.0f} "
                      "req/s differ from the scores computed from the "
                      "model file", wrong)
        tail = max(1, n // 10)
        head_median = statistics.median(latencies[:tail])
        tail_median = statistics.median(latencies[-tail:])
        growing = tail_median > max(2 * head_median, LATENCY_LIMIT_S / 2)
        time.sleep(0.2)  # let the server go idle between probes
        p99 = median_p99([requests[i:i + P99_WINDOW]
                          for i in range(0, n, P99_WINDOW)])
        return failed == 0 and not growing and p99 <= LATENCY_LIMIT_S, p99

    def mixed(self, server: Server, accepts_wanted: int
              ) -> Tuple[List[List[Request]], List[Request]]:
        """``accepts_wanted`` windows of :data:`ACCEPT_EVERY` requests,
        each with one ``/accept`` a third of the way in; returns the
        ``/check`` requests of each window, and the accepts."""
        n = accepts_wanted * ACCEPT_EVERY
        slots = [k * ACCEPT_EVERY + ACCEPT_EVERY // 3
                 for k in range(accepts_wanted)]
        sent = len(self.accepted)
        accepts = self.inputs.accepts[sent:sent + len(slots)]
        passwords, payloads, _rids = self._checks(self._next(n))
        heavy = {
            slot: http_request("/accept", {"password": pw, "count": 1,
                                           "rid": next(self._rid)})
            for slot, pw in zip(slots, accepts)
        }
        requests = loadgen.schedule(REF_RATE, payloads, heavy_at=heavy)
        self._drive(server, requests)
        checks = [(pw, r) for i, (pw, r) in enumerate(zip(passwords,
                                                          requests))
                  if i not in heavy]
        accepted = [requests[slot] for slot in slots[:len(accepts)]]
        self._verify_mixed(checks, list(zip(accepts, accepted)))
        windows = [
            [r for i, r in enumerate(requests[k:k + ACCEPT_EVERY], k)
             if i not in heavy]
            for k in range(0, n, ACCEPT_EVERY)
        ]
        return windows, accepted

    def _verify_mixed(self, checks: List[Tuple[str, Request]],
                      accepts: List[Tuple[str, Request]]) -> None:
        by_epoch: Dict[int, List[Tuple[str, float]]] = {}
        failed = 0
        for password, request in checks:
            self.ops += 1
            if not request.ok:
                failed += 1
                continue
            body = json.loads(request.body)
            by_epoch.setdefault(body["epoch"], []).append(
                (password, body["probability"]))
        replica = self.replica

        def compare(epoch: int) -> int:
            """Responses at ``epoch`` that differ from the replica,
            which is at that epoch."""
            pending = by_epoch.pop(epoch, [])
            expected = replica.probability_many([pw for pw, _v in pending])
            return sum(1 for (_pw, value), score in zip(pending, expected)
                       if value != score)

        wrong = compare(self.mixed_epoch)
        answered = []
        for password, request in accepts:
            self.ops += 1
            if request.ok:
                answered.append((json.loads(request.body)["epoch"], password))
            else:
                failed += 1
        # Replay in the order the server applied them.
        for epoch, password in sorted(answered):
            replica.update(password, 1)
            if epoch != replica.grammar.epoch:
                self.fail(f"online/mixed: accept answered epoch {epoch}, "
                          f"the replica is at {replica.grammar.epoch}", 1)
            wrong += compare(epoch)
        stray = sum(len(items) for items in by_epoch.values())
        if failed:
            self.fail(f"online/mixed: {failed} requests failed or timed out",
                      failed)
        if wrong or stray:
            self.fail(f"online/mixed: {wrong} responses differ from the "
                      f"replica, {stray} report an epoch no accept "
                      "produced", wrong + stray)
        self.outputs.setdefault("mixed_epochs", []).extend(
            epoch for epoch, _pw in answered)
        # The next mixed window starts at the epoch the server is at.
        self.mixed_epoch = replica.grammar.epoch

    # --- the phase -------------------------------------------------------
    #
    # ``start`` spawns the servers and warms the read server; ``round``
    # runs between the other phases' repetitions; ``finish`` completes
    # the capacity search (traced) and stops the servers.

    def _spawn(self, index: int, spans_path: Optional[str] = None
               ) -> Server:
        server = Server(self.model, self.workdir, index, spans_path)
        self.pids.append(server.process.pid)
        self.live.append(server)
        return server

    def _stop(self, server: Server) -> None:
        self.live.remove(server)
        self.stderrs.append(server.stop())

    def close(self) -> None:
        """Stop every server still running (on any way out)."""
        for server in list(self.live):
            self._stop(server)

    def start(self) -> None:
        """Time :data:`SETUP_REPEATS` spawns (one, traced); keep the
        last two and warm the read server."""
        spawns = 1 if self.trace else SETUP_REPEATS
        servers = []
        for index in range(spawns):
            if len(servers) > 1:
                self._stop(servers.pop(0))
            servers.append(self._spawn(index))
            self.setups.append(servers[-1].setup_s)
        self.server = servers[0]
        gc.collect()
        gc.freeze()
        self.warm(self.server)
        if len(servers) > 1:
            # Not warmed: every accept empties its parse cache anyway.
            self.mixed_server = servers[1]

    def round(self) -> None:
        """A read slice; traced, a capacity probe while the search
        runs; untraced, mixed windows on the second server."""
        server = self.server
        requests, _rids, cpu = self.read(server, READ_SLICE)
        self.reads.append(requests)
        self.read_cpu += cpu
        if self.trace and not self.search.done:
            self.search.record(*self.probe(server, self.search.rate))
        if self.mixed_server is not None:
            windows, accepted = self.mixed(self.mixed_server,
                                           ACCEPTS_PER_ROUND)
            self.windows += windows
            self.accepted += accepted

    def finish(self) -> None:
        if self.trace:
            self.finish_traced()
            return
        crashes = 0
        try:
            for server in (self.server, self.mixed_server):
                counters = server.get("/metrics")["counters"]
                crashes += counters.get("serve.worker.crashes", 0)
        finally:
            self._stop(self.server)
            self._stop(self.mixed_server)
        latencies = [r.latency for reqs in self.reads for r in reqs]

        self.metrics = {
            "setup_s": statistics.median(self.setups),
            # Each window's p99 is how long its accept stalled the
            # checks beside it; the mean over windows, not the median,
            # because whether checks keep flowing while the snapshot
            # is built varies from accept to accept, so window p99s
            # fall into two modes, and not the p99 of all mixed checks,
            # which the slowest one or two accepts decide.
            "mixed_check_p99_ms": statistics.mean(
                quantile([r.latency for r in w], 0.99)
                for w in self.windows) * 1e3,
            "accept_p50_ms":
                quantile([r.latency for r in self.accepted], 0.50) * 1e3,
        }
        self.why = {
            "requests_read": len(latencies),
            "requests_mixed": sum(len(w) for w in self.windows),
            "accepts": len(self.accepted),
            "accept_ms": [round(r.latency * 1e3, 1) for r in self.accepted],
            "mixed_window_p99_ms": [
                round(quantile([r.latency for r in w], 0.99) * 1e3, 1)
                for w in self.windows],
            "stream_distinct": len(self.distinct),
            "distinct_over_parse_cache": len(self.distinct) / PARSE_CACHE,
            "repeat_share": 1.0 - len(self.distinct)
            / len(self.inputs.requests),
            "loadgen_lag_p99_ms": quantile(
                [r.lag for reqs in self.reads for r in reqs], 0.99) * 1e3,
            "loadgen_cpu_s": self.read_cpu,
            # Reported, not gated: on a shared two-core host the read
            # stage's latencies and the capacity it allows are set by
            # when the host deschedules the processes.
            "check_p50_ms": quantile(latencies, 0.50) * 1e3,
            "check_p99_ms": median_p99(self.reads) * 1e3,
            "read_slice_p99_ms": [
                round(quantile([r.latency for r in reqs], 0.99) * 1e3, 3)
                for reqs in self.reads],
            "worker_crashes": crashes,
            "dominant_layers": "serve.http / serve.batcher / executor hop "
                               "/ worker pipe; parses are cache hits",
        }

    def finish_traced(self) -> None:
        try:
            while not self.search.done:
                self.search.record(*self.probe(self.server,
                                               self.search.rate))
        finally:
            self._stop(self.server)
        read_latencies = [r.latency for reqs in self.reads for r in reqs]
        untraced_latency = sum(read_latencies)
        spans_path = os.path.join(self.spans_dir, "online-server.jsonl")
        server = self._spawn(SETUP_REPEATS, spans_path)
        self.setups.append(server.setup_s)
        self.metrics["setup_s"] = statistics.median(self.setups)
        try:
            self.warm(server)
            before = server.get("/metrics")["counters"]
            read: List[Request] = []
            rids: List[int] = []
            cpu = 0.0
            for _ in self.reads:
                requests, slice_rids, slice_cpu = self.read(
                    server, READ_SLICE)
                read += requests
                rids += slice_rids
                cpu += slice_cpu
            after_read = server.get("/metrics")
            _windows, accepts = self.mixed(server, self.accept_count)
            counters = server.get("/metrics")["counters"]
        finally:
            self._stop(server)
        recorded = spanlib.load(spans_path)
        self._read_layers(read, rids, recorded, before, after_read)
        self._accept_layers(accepts, recorded)
        traced_latency = sum(r.latency for r in read)
        self.layers.update({
            "online.serve.worker.crashes":
                counters.get("serve.worker.crashes", 0),
            "online.serve.worker.fallback.inline":
                counters.get("serve.worker.fallback.inline", 0),
            "online.loadgen.lag_p99_ms":
                quantile([r.lag for r in read], 0.99) * 1e3,
            "online.loadgen.cpu_s": cpu,
            "online.check_p50_ms": quantile(read_latencies, 0.50) * 1e3,
            "online.check_p99_ms": median_p99(self.reads) * 1e3,
            "online.check_capacity_rps": self.search.capacity,
            "online.trace.overhead_frac":
                traced_latency / untraced_latency - 1.0,
        })
        self.overhead = (traced_latency, untraced_latency)

    def _read_layers(self, read: List[Request], rids: List[int],
                     recorded: List[Dict[str, Any]],
                     before: Dict[str, int], after: Dict[str, Any]) -> None:
        route = {s["rid"]: s for s in recorded
                 if s["name"] == "serve.app.route" and s["rid"] is not None}
        submit_of: Dict[int, Dict[str, Any]] = {}
        batch_of: Dict[int, Dict[str, Any]] = {}
        score_of: Dict[int, Dict[str, Any]] = {}
        for s in recorded:
            if s["name"] == "serve.batcher.submit":
                submit_of[s["parent"]] = s
            elif s["name"] == "serve.executor.batch":
                for carried in s["carries"]:
                    batch_of[carried] = s
            elif s["name"] == "serve.workers.score":
                score_of[s["parent"]] = s
        parts: Dict[str, List[float]] = {
            k: [] for k in ("lag", "outside", "app", "wait", "hop", "ipc",
                            "compute", "score")}
        attributed = 0.0
        total = 0.0
        for request, rid in zip(read, rids):
            total += request.latency
            span = route.get(rid)
            submit = submit_of.get(span["id"]) if span else None
            batch = batch_of.get(submit["id"]) if submit else None
            score = score_of.get(batch["id"]) if batch else None
            if not (span and submit and batch and score):
                continue
            dur = lambda s: s["end"] - s["start"]  # noqa: E731
            values = {
                "lag": request.lag,
                "outside": (request.done - request.sent) - dur(span),
                "app": dur(span) - dur(submit),
                "wait": dur(submit) - dur(batch),
                "hop": dur(batch) - dur(score),
                "ipc": dur(score) - (score["value"] or 0.0),
                "compute": score["value"] or 0.0,
            }
            values["score"] = dur(score)
            for key, value in values.items():
                parts[key].append(value)
            attributed += sum(v for k, v in values.items() if k != "score")
        ms = 1e3
        med = lambda key: (statistics.median(parts[key]) * ms  # noqa: E731
                           if parts[key] else 0.0)
        counters = after["counters"]
        dispatches = (counters.get("serve.batch.dispatches", 0)
                      - before.get("serve.batch.dispatches", 0))
        requests = (counters.get("serve.batch.requests", 0)
                    - before.get("serve.batch.requests", 0))
        latency = after["latency"]
        self.layers.update({
            "online.serve.app.server_p50_ms": (latency["p50"] or 0.0) * ms,
            "online.serve.app.server_p99_ms": (latency["p99"] or 0.0) * ms,
            "online.serve.http.outside_ms": med("outside"),
            "online.serve.app.self_ms": med("app"),
            "online.serve.batcher.batch_size": requests / max(1, dispatches),
            "online.serve.batcher.wait_ms": med("wait"),
            "online.serve.executor.hop_ms": med("hop"),
            "online.serve.workers.score_ms": med("score"),
            "online.serve.workers.compute_ms": med("compute"),
            "online.serve.workers.ipc_ms": med("ipc"),
            "online.trace.matched_frac": len(parts["lag"]) / max(1, len(read)),
        })
        self.attributed = (attributed, total)

    def _accept_layers(self, accepts: List[Request],
                       recorded: List[Dict[str, Any]]) -> None:
        children: Dict[int, List[Dict[str, Any]]] = {}
        for s in recorded:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)

        def below(span: Dict[str, Any], name: str) -> float:
            total = 0.0
            for child in children.get(span["id"], []):
                if child["name"] == name:
                    total += child["end"] - child["start"]
                else:
                    total += below(child, name)
            return total

        routes = [s for s in recorded if s["name"] == "serve.app.route"
                  and any(c["name"] == "core.grammar.update"
                          for c in children.get(s["id"], []))]
        names = {
            "update": "core.grammar.update",
            "frozen": "core.frozen.build",
            "publish": "core.shm.publish",
            "snapshot": "serve.snapshot.build",
            "swap": "serve.workers.swap",
        }
        parts: Dict[str, List[float]] = {k: [] for k in names}
        parts["route_other"] = []
        for route in routes:
            for key, name in names.items():
                parts[key].append(below(route, name))
            accounted = (parts["update"][-1] + parts["snapshot"][-1]
                         + parts["swap"][-1])
            parts["route_other"].append(
                route["end"] - route["start"] - accounted)
        ms = 1e3
        med = lambda key: (statistics.median(parts[key]) * ms  # noqa: E731
                           if parts[key] else 0.0)
        route_ms = statistics.median(
            [r["end"] - r["start"] for r in routes]) * ms if routes else 0.0
        # The same median as ``route_ms``: each accept's client latency
        # holds its route span, so the gap cannot come out negative.
        client_ms = statistics.median(
            [r.latency for r in accepts]) * ms if accepts else 0.0
        self.layers.update({
            "accept.core.grammar.update_ms": med("update"),
            "accept.core.frozen.build_ms": med("frozen"),
            "accept.core.shm.publish_ms": med("publish"),
            "accept.serve.snapshot.build_ms": med("snapshot"),
            "accept.serve.workers.swap_ms": med("swap"),
            # The swap's broadcast round trip: the worker attaches the
            # new segment and rebuilds its scorer.
            "accept.serve.workers.attach_ms": med("swap") - med("publish"),
            "accept.serve.app.other_ms": med("route_other"),
            "accept.serve.http.outside_ms": client_ms - route_ms,
        })
