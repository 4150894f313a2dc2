"""``repro serve`` with spans recorded at the serving layer boundaries.

Usage: ``python perfbench/traced_serve.py SPANS.jsonl serve --model ...``

Runs the ordinary CLI entry point after wrapping, in this process
only, the calls that cross a layer: the request route, the
micro-batcher, the executor hop to the worker pool, the pool's round
trip, and the accept path (grammar update, frozen-grammar build,
snapshot build, shared-memory publish, pool swap).  Spans stay in
memory and are written to ``SPANS.jsonl`` when the server exits.

The request id comes from the ``rid`` field the load generator puts
in each JSON body (the server ignores unknown fields).  A batch span
records the ids of the submit spans it carried, in the batcher's FIFO
order, so each request's wait can be separated from its batch's work.
"""

from __future__ import annotations

import asyncio
import contextvars
import os
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Deque, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench.spans import Recorder, instrument  # noqa: E402


class _ContextExecutor(ThreadPoolExecutor):
    """Runs each call in a copy of the caller's context, so spans
    opened in executor threads nest under the span that submitted
    them."""

    def submit(self, fn: Any, /, *args: Any, **kwargs: Any) -> Any:
        run = contextvars.copy_context().run
        return super().submit(run, fn, *args, **kwargs)


def _targets(recorder: Recorder) -> List[Any]:
    from repro.core.meter import FuzzyPSM
    from repro.core.shm import SharedScoringSegment
    from repro.serve.app import ReproServer
    from repro.serve.batcher import MicroBatcher
    from repro.serve.http import HttpError
    from repro.serve.snapshot import ServingSnapshot
    from repro.serve.workers import WorkerPool

    waiting: Deque[int] = deque()

    def request_id(_server: Any, request: Any) -> Any:
        if request.path in ("/check", "/accept") and request.body:
            try:
                return request.json().get("rid")
            except HttpError:  # a malformed body is the server's to reject
                return None
        return None

    def make_submit(fn: Any) -> Any:
        async def submit(self: Any, password: str) -> Any:
            with recorder.span("serve.batcher.submit") as span:
                waiting.append(span.id)
                return await fn(self, password)
        return submit

    def make_score_batch(fn: Any) -> Any:
        async def score_batch(self: Any, runtime: Any,
                              passwords: List[str]) -> Any:
            carried = tuple(
                waiting.popleft() for _ in range(min(len(passwords),
                                                     len(waiting)))
            )
            with recorder.span("serve.executor.batch") as span:
                span.carries = carried
                return await fn(self, runtime, passwords)
        return score_batch

    def make_start(fn: Any) -> Any:
        async def start(self: Any) -> None:
            asyncio.get_running_loop().set_default_executor(
                _ContextExecutor(max_workers=4)
            )
            await fn(self)
        return start

    return [
        (ReproServer, "start", make_start),
        (ReproServer, "_route",
         lambda fn: recorder.wrap_async("serve.app.route", fn, request_id)),
        (ReproServer, "_score_batch", make_score_batch),
        (MicroBatcher, "submit", make_submit),
        (WorkerPool, "score",
         lambda fn: recorder.wrap("serve.workers.score", fn,
                                  value=lambda result: result[2])),
        (WorkerPool, "swap",
         lambda fn: recorder.wrap("serve.workers.swap", fn)),
        (FuzzyPSM, "update",
         lambda fn: recorder.wrap("core.grammar.update", fn)),
        (FuzzyPSM, "frozen_grammar",
         lambda fn: recorder.wrap("core.frozen.build", fn)),
        (ServingSnapshot, "from_meter",
         lambda fn: recorder.wrap("serve.snapshot.build", fn)),
        (SharedScoringSegment, "create",
         lambda fn: recorder.wrap("core.shm.publish", fn)),
    ]


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_serve.py SPANS.jsonl serve ...", file=sys.stderr)
        return 2
    from repro.cli import main as cli_main

    recorder = Recorder()
    try:
        with instrument(_targets(recorder)):
            return cli_main(argv[1:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
