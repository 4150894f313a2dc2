"""Hot-reload and fault-injection tests for the serving layer.

Two lifecycle guarantees under test, both black-box:

* **Hot reload**: an ``/accept`` (online ``update()`` + snapshot swap)
  in the middle of concurrent ``/check`` traffic drops zero requests,
  and every response is *consistent with the epoch it reports* — old
  snapshot scores before the swap, new snapshot scores after, never a
  half-updated hybrid.
* **Worker faults**: SIGKILLing a scoring worker never loses a
  request (the pool redispatches/respawns), and ``/healthz`` reflects
  the degraded → healthy transition.

The last section drives :class:`~repro.serve.WorkerPool` directly:
its two shared segments (matchers once per pool, grammar once per
epoch), bit-identity across consecutive swaps under every start
method, and a worker killed between swaps.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal

import pytest

from repro import obs
from repro.core.meter import FuzzyPSM
from repro.core.shm import SEGMENT_PREFIX, START_METHOD_ENV
from repro.serve import ServeConfig, ServingSnapshot, WorkerPool
from repro.serve.workers import _WorkerScoring

from tests.serve_utils import (
    ServeClient,
    one_shot,
    run,
    running_server,
    train_serve_meter,
)

#: The online update applied mid-traffic; with count high enough the
#: post-swap probabilities differ measurably from pre-swap.
ACCEPTED_PASSWORD = "zebra42!"
ACCEPTED_COUNT = 50

#: Passwords whose scores the reload traffic keeps checking.
TRAFFIC = ["password", "password123", "qwerty12", "monkey99",
           "woaini520", ACCEPTED_PASSWORD]


def _clone(meter: FuzzyPSM) -> FuzzyPSM:
    return FuzzyPSM.from_dict(meter.to_dict())


def test_hot_reload_mid_traffic_consistent_and_lossless():
    meter = train_serve_meter()
    pre_epoch = meter.grammar.epoch
    pre_reference = {
        pw: _clone(meter).probability(pw) for pw in TRAFFIC
    }
    post_meter = _clone(meter)
    post_meter.update(ACCEPTED_PASSWORD, ACCEPTED_COUNT)
    post_reference = {
        pw: post_meter.probability(pw) for pw in TRAFFIC
    }
    # The update must actually change something, or consistency
    # against the reported epoch would be vacuous.
    assert post_reference[ACCEPTED_PASSWORD] != pre_reference[
        ACCEPTED_PASSWORD
    ]

    responses = []

    async def traffic_loop(port, rounds):
        async with ServeClient(port) as client:
            for _ in range(rounds):
                for password in TRAFFIC:
                    responses.append(
                        (password, await client.check(password))
                    )

    async def main():
        config = ServeConfig(workers=2, batch_window=0.001)
        async with running_server(meter, config) as server:
            clients = [
                asyncio.ensure_future(traffic_loop(server.port, 6))
                for _ in range(4)
            ]
            await asyncio.sleep(0.05)  # let pre-swap traffic flow
            status, payload = await one_shot(
                server.port, "POST", "/accept",
                {"password": ACCEPTED_PASSWORD,
                 "count": ACCEPTED_COUNT},
            )
            assert status == 200
            assert payload["epoch"] == pre_epoch + 1
            await asyncio.gather(*clients)
            # Sequential-after-accept: a fresh request must see the
            # new epoch (the swap completed before /accept answered).
            final = await one_shot(
                server.port, "POST", "/check",
                {"password": ACCEPTED_PASSWORD},
            )
            assert final[1]["epoch"] == pre_epoch + 1

    run(main())

    assert len(responses) == 4 * 6 * len(TRAFFIC)  # zero dropped
    epochs_seen = set()
    for password, payload in responses:
        epoch = payload["epoch"]
        epochs_seen.add(epoch)
        if epoch == pre_epoch:
            assert payload["probability"] == pre_reference[password]
        else:
            assert epoch == pre_epoch + 1
            assert payload["probability"] == post_reference[password]
    assert pre_epoch in epochs_seen  # traffic genuinely straddled
    assert pre_epoch + 1 in epochs_seen  # the swap


def test_accept_validates_input():
    meter = train_serve_meter()

    async def main():
        async with running_server(meter) as server:
            status, payload = await one_shot(
                server.port, "POST", "/accept", {"password": ""}
            )
            assert status == 400
            status, payload = await one_shot(
                server.port, "POST", "/accept",
                {"password": "ok-pass", "count": 0},
            )
            assert status == 400
            status, payload = await one_shot(
                server.port, "POST", "/accept",
                {"password": "ok-pass", "count": "many"},
            )
            assert status == 400

    run(main())


async def _wait_pool_unhealthy(server, deadline=15.0):
    """Wait (white-box) until the pool has noticed a worker death.

    SIGKILL delivery is asynchronous: immediately after ``os.kill``
    the victim can still look alive, so black-box assertions about
    the degraded state must wait for the corpse to be observable.
    This reads pool liveness directly — unlike a ``/healthz`` probe
    it cannot itself trigger a respawn.
    """
    elapsed = 0.0
    while server._pool.healthy():
        assert elapsed < deadline, "pool never saw the kill"
        await asyncio.sleep(0.01)
        elapsed += 0.01


async def _poll_health(port, want_status, deadline=15.0):
    """Poll /healthz until it reports ``want_status``."""
    interval = 0.02
    elapsed = 0.0
    while True:
        _, payload = await one_shot(port, "GET", "/healthz")
        if payload["status"] == want_status:
            return payload
        if elapsed >= deadline:
            pytest.fail(
                f"healthz never became {want_status!r}: {payload}"
            )
        await asyncio.sleep(interval)
        elapsed += interval


def test_killed_worker_respawns_and_healthz_tracks_it():
    meter = train_serve_meter()

    async def main():
        # supervisor off: the degraded state must be observable, and
        # recovery must come from the /healthz-triggered respawn.
        config = ServeConfig(workers=1, supervisor_interval=0.0,
                             batch_window=0.001)
        async with running_server(meter, config) as server:
            port = server.port
            status, payload = await one_shot(port, "GET", "/healthz")
            assert status == 200 and payload["status"] == "healthy"
            victim = payload["workers"][0]["pid"]

            os.kill(victim, signal.SIGKILL)
            await _wait_pool_unhealthy(server)
            status, payload = await one_shot(port, "GET", "/healthz")
            assert status == 503
            assert payload["status"] == "degraded"

            payload = await _poll_health(port, "healthy")
            assert payload["workers"][0]["alive"] is True

            # The respawned worker actually scores.
            status, checked = await one_shot(
                port, "POST", "/check", {"password": "password123"}
            )
            assert status == 200
            assert checked["probability"] > 0

    run(main())


def test_check_survives_worker_kill_without_dropping():
    """A request hitting a just-killed worker is redispatched (or
    scored inline as last resort) — the client always gets a score."""
    served = train_serve_meter()
    expected = _clone(served).probability("password123")

    async def main():
        config = ServeConfig(workers=1, supervisor_interval=0.0,
                             batch_window=0.0)
        async with running_server(served, config) as server:
            port = server.port
            _, payload = await one_shot(port, "GET", "/healthz")
            victim = payload["workers"][0]["pid"]
            os.kill(victim, signal.SIGKILL)
            await _wait_pool_unhealthy(server)
            # No health probe: the /check itself discovers the corpse
            # and must still answer correctly.
            status, checked = await one_shot(
                port, "POST", "/check", {"password": "password123"}
            )
            assert status == 200
            assert checked["probability"] == expected

            status, metrics = await one_shot(port, "GET", "/metrics")
            counters = metrics["counters"]
            # The pool noticed the corpse one way or another: a pipe
            # crash mid-request, a liveness skip straight to the
            # inline fallback, or a respawn.
            recovered = (counters.get("serve.worker.crashes", 0)
                         + counters.get("serve.worker.respawns", 0)
                         + counters.get("serve.worker.fallback.inline",
                                        0))
            assert recovered >= 1

    run(main())


def test_supervisor_respawns_without_healthz_traffic():
    meter = train_serve_meter()

    async def main():
        config = ServeConfig(workers=1, supervisor_interval=0.02,
                             batch_window=0.001)
        async with running_server(meter, config) as server:
            port = server.port
            _, payload = await one_shot(port, "GET", "/healthz")
            victim = payload["workers"][0]["pid"]
            os.kill(victim, signal.SIGKILL)
            await _wait_pool_unhealthy(server)
            # No request traffic at all (a /healthz poll would itself
            # trigger a respawn): the background supervisor alone must
            # restore the pool, observed white-box through the server.
            elapsed = 0.0
            while not server._pool.healthy():
                assert elapsed < 15.0, "supervisor never respawned"
                await asyncio.sleep(0.02)
                elapsed += 0.02
            status, checked = await one_shot(
                port, "POST", "/check", {"password": "password123"}
            )
            assert status == 200 and checked["probability"] > 0

    run(main())


def test_worker_mode_requires_parallel_scorable_capability():
    from repro.meters.nist import NISTMeter
    from repro.serve import ReproServer

    with pytest.raises(ValueError, match="parallel-scorable"):
        ReproServer(NISTMeter(), ServeConfig(workers=1))


# --- WorkerPool: matcher segment once, grammar segment per epoch -------

START_METHODS = [
    method for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()
]

#: Fixed probes scored after every swap: base words, composites,
#: transformed and unseen strings, and the passwords being accepted.
PROBES = TRAFFIC + ["p@ssw0rd", "PASSWORD", "Zx9#kk", "pässword", "",
                    "zebra0!", "zebra2!"]

#: Consecutive swaps the differentials walk through.
SWAPS = 4


def _pool_segments() -> set:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return set()
    return {name for name in os.listdir("/dev/shm")
            if name.startswith(SEGMENT_PREFIX)}


def _snapshot(meter: FuzzyPSM) -> ServingSnapshot:
    return ServingSnapshot.from_meter(meter)


def _accept(served: FuzzyPSM, replica: FuzzyPSM, step: int) -> None:
    """One online update, applied to the served meter and its replica."""
    served.update(f"zebra{step}!", 10 + step)
    replica.update(f"zebra{step}!", 10 + step)


@pytest.mark.parametrize("method", START_METHODS)
def test_pool_swaps_stay_bit_identical_to_a_replica(method, monkeypatch):
    monkeypatch.setenv(START_METHOD_ENV, method)
    served = train_serve_meter()
    replica = train_serve_meter()
    pool = WorkerPool(_snapshot(served), 1)
    try:
        for step in range(SWAPS + 1):
            if step:
                _accept(served, replica, step - 1)
                pool.swap(_snapshot(served))
            epoch, scores, _ = pool.score(PROBES)
            assert epoch == replica.grammar.epoch
            assert scores == [replica.probability(pw) for pw in PROBES]
    finally:
        pool.stop()


def test_swap_rejects_a_snapshot_with_other_matchers():
    served = train_serve_meter()
    other = FuzzyPSM.train(["dragon", "monkey", "sunshine"],
                           ["dragon1", "monkey99"])
    pool = WorkerPool(_snapshot(served), 1)
    try:
        with pytest.raises(ValueError, match="matchers"):
            pool.swap(_snapshot(other))
        # The rejected swap left the pool serving its own epoch.
        epoch, scores, _ = pool.score(["password123"])
        assert epoch == served.grammar.epoch
        assert scores == [_clone(served).probability("password123")]
    finally:
        pool.stop()


def test_live_pool_owns_one_matcher_and_one_grammar_segment():
    served = train_serve_meter()
    before = _pool_segments()
    pool = WorkerPool(_snapshot(served), 1)
    try:
        matcher_name, grammar_name = pool.segment_names
        assert _pool_segments() - before == {matcher_name, grammar_name}
        served.update("zebra42!", 5)
        pool.swap(_snapshot(served))
        # Same matcher segment, a new grammar segment, the old unlinked.
        assert pool.segment_names[0] == matcher_name
        assert pool.segment_names[1] != grammar_name
        assert _pool_segments() - before == set(pool.segment_names)
    finally:
        pool.stop()
    assert _pool_segments() - before == set()


def test_worker_killed_between_swaps_respawns_on_the_current_epoch():
    served = train_serve_meter()
    replica = train_serve_meter()
    pool = WorkerPool(_snapshot(served), 1)
    try:
        _accept(served, replica, 0)
        pool.swap(_snapshot(served))
        victim = pool._handles[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=15.0)
        assert not victim.is_alive()

        # The batch that finds the corpse is redispatched to a respawn,
        # attached to the matcher segment and the *current* grammar.
        epoch, scores, _ = pool.score(PROBES)
        assert pool._handles[0].pid != victim.pid
        assert epoch == replica.grammar.epoch
        assert scores == [replica.probability(pw) for pw in PROBES]

        # The respawned worker keeps swapping like the original.
        _accept(served, replica, 1)
        pool.swap(_snapshot(served))
        epoch, scores, _ = pool.score(PROBES)
        assert epoch == replica.grammar.epoch
        assert scores == [replica.probability(pw) for pw in PROBES]
    finally:
        pool.stop()


def test_worker_swap_step_closes_the_retired_grammar_at_once():
    """The worker-side swap, in-process: one parser (and parse cache)
    across epochs, and every retired mapping closes without taking the
    deferred-close fallback."""
    served = train_serve_meter()
    replica = train_serve_meter()
    snapshot = _snapshot(served)
    matchers = snapshot.publish_matchers()
    grammar = snapshot.publish_grammar()
    with obs.session() as telemetry:
        state = _WorkerScoring(matchers.name, grammar.name)
        parser = state.scorer.parser
        try:
            for step in range(SWAPS):
                state.scorer.score_many(PROBES)
                _accept(served, replica, step)
                retired = grammar
                grammar = _snapshot(served).publish_grammar()
                assert state.swap(grammar.name) == replica.grammar.epoch
                retired.unlink()
                assert state.scorer.parser is parser
                assert state.scorer.score_many(PROBES) == [
                    replica.probability(pw) for pw in PROBES
                ]
            # Post-swap scoring hit the parses cached before the swap.
            assert telemetry.counter("parser.cache.hit") > 0
            del parser  # a view into the matcher mapping
        finally:
            state.close()
            grammar.unlink()
            matchers.unlink()
        assert telemetry.counter("shm.segment.close_deferred") == 0
