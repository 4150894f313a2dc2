"""Warm scoring workers: segment-seeded, supervised, hot-swappable.

Each worker is a long-lived ``multiprocessing.Process`` connected to
the server by one duplex pipe.  Workers never receive model state by
value: the pool publishes its :class:`ServingSnapshot` into two
shared-memory segments (DESIGN.md §16) and hands each worker their
*names* — attach is a millisecond ``mmap``, identical under the fork
and spawn start methods (:func:`repro.core.shm.mp_context`), and
request traffic carries only password lists and score lists.  The
*matcher* segment is published once per pool, and each worker builds
one parser over it for its whole life, parse cache included.  The
*grammar* segment is published once per epoch: a hot reload ships the
new name down the pipe exactly once per worker, then unlinks the
retired segment; because the pipe is FIFO and each worker handles one
message at a time, every batch queued ahead of the swap finishes on
the old mapping.

Crash handling is the pool's job, not the caller's: a batch sent to a
worker that died (killed, OOM, segfault) surfaces as a pipe error, the
pool marks the worker dead, respawns it attached to the matcher
segment and the *current* grammar segment, and redispatches the batch
to a surviving worker — falling back to scoring inline in the server
process when every worker is down — so no request is ever dropped on
a worker failure.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.core.frozen import FrozenGrammar
from repro.core.shm import SharedScoringSegment, mp_context
from repro.obs.core import Telemetry, now as _now
from repro.serve.snapshot import ServingSnapshot, SnapshotScorer

#: Seconds a dispatcher waits on a worker reply before declaring the
#: worker wedged.  Generous — batches score in milliseconds; this only
#: fires for a live-but-stuck process, which is treated like a crash.
WORKER_REPLY_TIMEOUT = 30.0


class WorkerCrash(RuntimeError):
    """A worker died (or wedged) under a request; the pool retries."""


def _attach_grammar(
    name: str,
) -> Tuple[SharedScoringSegment, FrozenGrammar]:
    segment = SharedScoringSegment.attach(name)
    frozen = segment.materialize().frozen
    if frozen is None:
        raise ValueError(f"segment {name!r} carries no grammar tables")
    return segment, frozen


class _WorkerScoring:
    """A worker's scoring state: one parser (and parse cache) for
    life, one epoch's grammar segment at a time."""

    __slots__ = ("_matchers", "_grammar", "scorer")

    def __init__(self, matcher_name: str, grammar_name: str) -> None:
        self._matchers = SharedScoringSegment.attach(matcher_name)
        self._grammar, frozen = _attach_grammar(grammar_name)
        self.scorer = SnapshotScorer(
            self._grammar.epoch,
            self._matchers.materialize().build_parser(),
            frozen,
        )

    def swap(self, grammar_name: str) -> int:
        """Adopt the epoch in grammar segment ``grammar_name``.

        The old scorer goes first: its frozen grammar holds the only
        views into the retired mapping, so the close that follows
        succeeds at once (no ``shm.segment.close_deferred``).
        """
        parser = self.scorer.parser
        del self.scorer
        retired = self._grammar
        self._grammar, frozen = _attach_grammar(grammar_name)
        self.scorer = SnapshotScorer(self._grammar.epoch, parser, frozen)
        retired.close()
        return self.scorer.epoch

    def close(self) -> None:
        """Drop every view, then detach both mappings."""
        del self.scorer
        self._grammar.close()
        self._matchers.close()


def _serve_worker_main(
    connection: Any, matcher_name: str, grammar_name: str
) -> None:
    """Worker process entrypoint: score batches until told to stop.

    Scoring state comes from attaching the pool's two segments
    (zero-copy; no module global is touched).  Messages are
    ``(kind, ...)`` tuples:

    * ``("score", [pw, ...])`` → ``("scored", epoch, [p, ...], secs)``;
    * ``("swap", name)``       → ``("swapped", epoch)`` — attaches the
      new epoch's grammar segment under the same parser; in-flight
      batches queued earlier already drained on the old mapping;
    * ``("ping",)``            → ``("pong", epoch)``;
    * ``("stop",)``            → ``("stopped",)`` and exit.
    """
    state = _WorkerScoring(matcher_name, grammar_name)
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "score":
            start = _now()
            scores = state.scorer.score_many(message[1])
            connection.send(
                ("scored", state.scorer.epoch, scores, _now() - start)
            )
        elif kind == "swap":
            connection.send(("swapped", state.swap(message[1])))
        elif kind == "ping":
            connection.send(("pong", state.scorer.epoch))
        elif kind == "stop":
            connection.send(("stopped",))
            break
    state.close()
    connection.close()


class _WorkerHandle:
    """One worker process plus its pipe and dispatch lock."""

    __slots__ = ("process", "connection", "lock", "dead")

    def __init__(self, matcher_name: str, grammar_name: str) -> None:
        context = mp_context()
        parent, child = context.Pipe()
        self.process = context.Process(
            target=_serve_worker_main,
            args=(child, matcher_name, grammar_name),
            daemon=True,
        )
        self.process.start()
        child.close()
        self.connection = parent
        self.lock = threading.Lock()
        self.dead = False

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def alive(self) -> bool:
        return not self.dead and self.process.is_alive()

    def request(self, message: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """Blocking send/recv round trip (executor threads only).

        The per-handle lock serialises dispatchers onto the pipe; any
        pipe failure or reply timeout marks the handle dead and raises
        :class:`WorkerCrash` so the pool can respawn and retry.
        """
        with self.lock:
            if self.dead:
                raise WorkerCrash(
                    f"worker pid={self.pid} already marked dead"
                )
            try:
                self.connection.send(message)
                if not self.connection.poll(WORKER_REPLY_TIMEOUT):
                    self.dead = True
                    raise WorkerCrash(
                        f"worker pid={self.pid} timed out after "
                        f"{WORKER_REPLY_TIMEOUT}s"
                    )
                return self.connection.recv()
            except (EOFError, BrokenPipeError, OSError) as error:
                self.dead = True
                raise WorkerCrash(
                    f"worker pid={self.pid} died mid-request: {error!r}"
                ) from error

    def stop(self, join_timeout: float = 2.0) -> None:
        """Best-effort graceful stop, then terminate."""
        if self.alive():
            try:
                with self.lock:
                    self.connection.send(("stop",))
            except (BrokenPipeError, OSError):
                self.dead = True
        self.process.join(timeout=join_timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=join_timeout)
        self.dead = True
        self.connection.close()


class WorkerPool:
    """A fixed-size pool of warm workers with supervised respawn.

    All methods are blocking (the async server calls them through an
    executor).  The pool owns two shared segments: the matcher segment,
    published once from the snapshot it was built with, and the
    *current* grammar segment.  Spawns and respawns attach to both by
    name; :meth:`swap` publishes the new epoch's grammar segment,
    broadcasts its name to the live workers and unlinks the retired
    one.  :meth:`stop` unlinks both, so a stopped pool leaves nothing
    in ``/dev/shm``.
    """

    def __init__(
        self,
        snapshot: ServingSnapshot,
        size: int,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if size < 1:
            raise ValueError(f"worker pool size must be >= 1, got {size}")
        self._snapshot = snapshot
        self._matchers = snapshot.publish_matchers()
        self._grammar = snapshot.publish_grammar()
        self._telemetry = telemetry if telemetry is not None else obs.get()
        self._handles: List[_WorkerHandle] = [
            self._spawn() for _ in range(size)
        ]
        self._round_robin = 0
        self._respawn_lock = threading.Lock()
        self._fallback: Optional[SnapshotScorer] = None

    # --- introspection -------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._handles)

    @property
    def epoch(self) -> int:
        """Epoch of the snapshot workers are (being) seeded with."""
        return self._snapshot.epoch

    @property
    def segment_names(self) -> Tuple[str, str]:
        """``(matcher, current grammar)`` segment names (for
        tests/operators)."""
        return self._matchers.name, self._grammar.name

    def statuses(self) -> List[Dict[str, Any]]:
        """Liveness of every worker, for ``/healthz``."""
        return [
            {"pid": handle.pid, "alive": handle.alive()}
            for handle in self._handles
        ]

    def healthy(self) -> bool:
        return all(handle.alive() for handle in self._handles)

    # --- scoring -------------------------------------------------------

    def score(
        self, passwords: List[str]
    ) -> Tuple[int, List[float], float]:
        """Score one batch on some worker; never drops the batch.

        Returns ``(epoch, scores, worker_seconds)``.  Crashed workers
        are respawned and the batch redispatched; with every worker
        down the batch is scored inline on the pool's current snapshot
        (``serve.worker.fallback.inline``).
        """
        telemetry = self._telemetry
        for _ in range(len(self._handles) + 1):
            handle = self._next_alive()
            if handle is None:
                break
            try:
                reply = handle.request(("score", passwords))
            except WorkerCrash:
                telemetry.incr("serve.worker.crashes")
                self.respawn_dead()
                continue
            return reply[1], reply[2], reply[3]
        telemetry.incr("serve.worker.fallback.inline")
        self.respawn_dead()
        scorer = self._fallback_scorer()
        start = _now()
        scores = scorer.score_many(passwords)
        return scorer.epoch, scores, _now() - start

    def _next_alive(self) -> Optional[_WorkerHandle]:
        """Round-robin over live workers (None when all are dead)."""
        handles = self._handles
        for _ in range(len(handles)):
            self._round_robin = (self._round_robin + 1) % len(handles)
            handle = handles[self._round_robin]
            if handle.alive():
                return handle
        return None

    def _fallback_scorer(self) -> SnapshotScorer:
        """In-process scorer over the current snapshot (last resort);
        its parser, like a worker's, carries over across epochs."""
        scorer = self._fallback
        if scorer is None or scorer.epoch != self._snapshot.epoch:
            scorer = self._snapshot.build_scorer(
                None if scorer is None else scorer.parser
            )
            self._fallback = scorer
        return scorer

    # --- lifecycle -----------------------------------------------------

    def _spawn(self) -> _WorkerHandle:
        return _WorkerHandle(self._matchers.name, self._grammar.name)

    def respawn_dead(self) -> int:
        """Replace every dead worker with one seeded from the current
        snapshot; returns how many were replaced."""
        with self._respawn_lock:
            replaced = 0
            for index, handle in enumerate(self._handles):
                if handle.alive():
                    continue
                handle.stop()
                self._handles[index] = self._spawn()
                replaced += 1
            if replaced:
                self._telemetry.incr("serve.worker.respawns", replaced)
            return replaced

    def swap(self, snapshot: ServingSnapshot) -> None:
        """Atomically adopt ``snapshot``'s grammar and broadcast it.

        Only the grammar changes: a snapshot compiled from other
        matchers raises ``ValueError`` (serve a new model from a new
        pool).  The new epoch's grammar segment is published and
        adopted first, so any respawn from here on attaches the new
        epoch; each live worker then receives the segment name once.
        Workers that die during the broadcast are respawned — already
        attached to the new segment.  The retired segment is unlinked
        last: mappings in workers still draining queued batches stay
        valid, only the name disappears.
        """
        if not self._snapshot.same_matchers(snapshot):
            raise ValueError(
                "snapshot was compiled from other matchers than this "
                "pool's; a new model needs a new WorkerPool"
            )
        retired = self._grammar
        self._grammar = snapshot.publish_grammar()
        self._snapshot = snapshot
        for handle in list(self._handles):
            try:
                handle.request(("swap", self._grammar.name))
            except WorkerCrash:
                self._telemetry.incr("serve.worker.crashes")
                self.respawn_dead()
        retired.unlink()

    def stop(self) -> None:
        for handle in self._handles:
            handle.stop()
        self._grammar.unlink()
        self._matchers.unlink()
