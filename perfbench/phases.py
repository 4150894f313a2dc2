"""The in-process phases of a run: ``train``, ``bulk`` and ``guess``.

Usage: ``python perfbench/phases.py PHASE WORKDIR``, driven by
``run.py`` over stdin/stdout: the process answers ``done`` once its
inputs are loaded; then each ``op`` line runs one timed
repetition of the phase's operation (with its set-up, timed apart)
and answers ``done``; ``finish`` checks the outputs, runs the traced
pass when tracing, writes ``WORKDIR/PHASE.json`` and exits.

Each phase lives in a process of its own, so that its peak memory, its
stderr and the shared-memory segments it leaves behind can be checked
after it exits.  ``run.py`` interleaves the repetitions of all phases
over the whole run, so each phase's median is taken over the same
stretch of time rather than one short burst of it.

Only program work is timed.  Set-up (loading or building what the
timed operation needs) is timed apart, once per repetition, and
reported as a median.  With tracing on, ``finish`` runs the operation
once more with spans around the calls into each layer; its time
against the untraced median is the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import statistics
import sys
import time
from typing import Any, Callable, Dict, Iterator, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench.inputs import PARSE_CACHE  # noqa: E402
from perfbench.spans import Recorder, instrument, layer_self_times  # noqa: E402

now = time.perf_counter

#: ``repro train --stream-chunk`` size used by the train phase.
STREAM_CHUNK = 5_000
#: Scoring processes for bulk scoring.
SCORE_JOBS = 2
#: Distinct passwords re-scored serially to check the parallel path.
CHECK_SAMPLE = 2_000
#: Distinct passwords traced one by one for the parse-layer figures.
TRACE_SAMPLE = 4_000


def digest(values: Any) -> str:
    return hashlib.sha256(
        json.dumps(values, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def _subtree(spans: List[Any], root: int) -> List[Any]:
    """``spans`` descending from ``root`` (ids grow with start order,
    so one forward pass sees every parent before its children)."""
    inside = {root}
    out = []
    for span in spans:
        if span.id == root or span.parent in inside:
            inside.add(span.id)
            out.append(span)
    return out


class Phase:
    """Shared bookkeeping: timings, operations, failed checks."""

    name = ""

    def __init__(self, config: Dict[str, Any]) -> None:
        self.config = config
        self.workdir: str = config["workdir"]
        self.trace: bool = config["trace"]
        self.seed: int = config["seed"]
        self.model = os.path.join(self.workdir, "model.bin")
        self.setups: List[float] = []
        self.times: Dict[str, List[float]] = {}
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.why: Dict[str, Any] = {}
        self.ops = 0
        self.failures: List[str] = []
        self.outputs: Any = None
        self.recorder = Recorder()
        self.unattributed = 0.0
        self.traced_total = 0.0
        self.overhead = (0.0, 0.0)

    def input(self, name: str) -> Any:
        with open(os.path.join(self.workdir, name), encoding="utf-8") as f:
            return json.load(f)

    def check(self, ok: bool, message: str) -> None:
        self.ops += 1
        if not ok:
            self.failures.append(f"{self.name}: {message}")

    def timed(self, key: str, seconds: float) -> None:
        self.times.setdefault(key, []).append(seconds)

    def median(self, key: str) -> float:
        return statistics.median(self.times[key])

    def traced(self, targets: List[Any], root: str,
               body: Callable[[], None]) -> Dict[str, float]:
        """Run ``body`` under one root span with ``targets`` wrapped;
        returns per-layer self times and books the root's own."""
        recorder = self.recorder
        with instrument(targets):
            with recorder.span(root) as span:
                body()
        spans = [s.to_json() for s in _subtree(recorder.spans, span.id)]
        selfs = layer_self_times(spans)
        self.unattributed += selfs.pop(root, 0.0)
        self.traced_total += span.duration
        return selfs

    def op(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        raise NotImplementedError

    def result(self) -> Dict[str, Any]:
        return {
            "metrics": self.metrics, "layers": self.layers, "why": self.why,
            "ops": self.ops, "failures": self.failures,
            "failed_ops": len(self.failures),
            "digest": digest(self.outputs), "overhead": list(self.overhead),
            "unattributed_s": self.unattributed,
            "traced_s": self.traced_total,
        }


class Train(Phase):
    """``repro train --stream-chunk N --model-format binary``, in process.

    Set-up is what ``FuzzyPSM.train_streaming`` does before its first
    read: ``build_base_trie`` plus compiling the matcher.  The timed
    operation runs from the call to the saved model file.
    """

    name = "train"

    def __init__(self, config: Dict[str, Any]) -> None:
        super().__init__(config)
        from repro.datasets.loaders import iter_password_entries

        self.base: List[str] = self.input("base.json")
        self.path = os.path.join(self.workdir, "train.txt")
        self.out = os.path.join(self.workdir, "train-out.bin")
        self.corpus = list(iter_password_entries(self.path))
        self.entries = sum(count for _pw, count in self.corpus)
        self.meter: Any = None

    def op(self) -> None:
        from repro import FuzzyPSM, FuzzyPSMConfig, save_meter
        from repro.core.parser import FuzzyParser
        from repro.core.training import build_base_trie
        from repro.datasets.loaders import stream_corpus_chunks

        start = now()
        trie = build_base_trie(
            self.base, min_length=FuzzyPSMConfig().min_base_length
        )
        FuzzyParser(trie).ensure_compiled_matchers()
        self.setups.append(now() - start)
        start = now()
        meter = FuzzyPSM.train_streaming(
            self.base, stream_corpus_chunks(self.path, chunk_size=STREAM_CHUNK)
        )
        save_meter(meter, self.out, fmt="binary")
        self.timed("train", now() - start)
        self.ops += 1
        if self.meter is None:
            # The first model serves every other phase.
            self.meter = meter
            os.replace(self.out, self.model)

    def finish(self) -> None:
        from repro import load_meter

        entries = self.entries
        distinct = len(self.corpus)
        self.metrics = {
            "setup_s": statistics.median(self.setups),
            "train_entries_per_s": entries / self.median("train"),
        }
        self.why = {
            "entries": entries, "distinct": distinct,
            "repeat_share": 1.0 - distinct / entries,
            "timed_repeats": len(self.times["train"]),
            "dominant_layers": "core.parser (parse_cached), "
                               "core.grammar.observe, persistence.save",
        }
        # Output checks: counts reconcile, the saved model round-trips.
        grammar = self.meter.grammar
        self.check(grammar.total_passwords == entries,
                   f"grammar holds {grammar.total_passwords} passwords, "
                   f"the corpus has {entries} entries")
        characters = sum(count * len(pw) for pw, count in self.corpus)
        covered = sum(count * sum(structure)
                      for structure, count in grammar.structures.items())
        self.check(covered == characters,
                   f"structures cover {covered} characters, the corpus "
                   f"has {characters}")
        probes: List[str] = self.input("probes.json")
        expected = self.meter.probability_many(probes)
        reloaded = load_meter(self.model).probability_many(probes)
        self.check(reloaded == expected,  # lint-ok: FPM001 -- scores must be bit-identical
                   "the reloaded binary model scores probes differently")
        with open(self.model, "rb") as handle:
            model_digest = hashlib.sha256(handle.read()).hexdigest()
        self.outputs = {"model": model_digest, "probes": expected}
        if self.trace:
            self.trace_layers()

    def trace_layers(self) -> None:
        import repro.core.meter as meter_module
        from repro import FuzzyPSM, save_meter
        from repro.core.grammar import FuzzyGrammar
        from repro.core.parser import FuzzyParser
        from repro.datasets.loaders import stream_corpus_chunks

        start = now()
        for _chunk in stream_corpus_chunks(self.path,
                                           chunk_size=STREAM_CHUNK):
            pass
        read_alone = now() - start
        recorder = self.recorder

        def chunks() -> Iterator[Any]:
            source = stream_corpus_chunks(self.path, chunk_size=STREAM_CHUNK)
            while True:
                with recorder.span("datasets.read"):
                    chunk = next(source, None)
                if chunk is None:
                    return
                yield chunk

        def body() -> None:
            with recorder.span("core.training"):
                meter = FuzzyPSM.train_streaming(self.base, chunks())
            with recorder.span("persistence.save"):
                save_meter(meter, self.out, fmt="binary")

        wrap = recorder.wrap
        selfs = self.traced([
            (meter_module, "build_base_trie",
             lambda fn: wrap("core.trie.build", fn)),
            (FuzzyParser, "parse", lambda fn: wrap("core.parser.parse", fn)),
            (FuzzyParser, "parse_cached",
             lambda fn: wrap("core.parser.parse", fn)),
            (FuzzyGrammar, "observe",
             lambda fn: wrap("core.grammar.observe", fn)),
        ], "bench.train", body)
        parse_calls = sum(1 for s in recorder.spans
                          if s.name == "core.parser.parse")
        untraced = self.median("train")
        self.layers = {
            "train.core.trie.build_s": selfs.get("core.trie.build", 0.0),
            "train.datasets.read_s": read_alone,
            "train.datasets.read_traced_s": selfs.get("datasets.read", 0.0),
            "train.core.parser.parse_s": selfs.get("core.parser.parse", 0.0),
            "train.core.parser.parse_calls": parse_calls,
            "train.core.grammar.observe_s":
                selfs.get("core.grammar.observe", 0.0),
            "train.core.training.other_s": selfs.get("core.training", 0.0),
            "train.persistence.save_s": selfs.get("persistence.save", 0.0),
            "train.core.training.distinct_ratio":
                len(self.corpus) / self.entries,
            "train.trace.overhead_frac":
                self.traced_total / untraced - 1.0,
        }
        self.overhead = (self.traced_total, untraced)


class Bulk(Phase):
    """``FuzzyPSM.probability_many(stream, jobs=2)`` on a loaded model.

    Set-up is ``load_meter`` plus the frozen scoring grammar; the timed
    call publishes the shared segment and runs the process pool.
    """

    name = "bulk"

    def __init__(self, config: Dict[str, Any]) -> None:
        super().__init__(config)
        self.stream: List[str] = self.input("bulk.json")
        self.distinct = list(dict.fromkeys(self.stream))
        self.scores: List[float] = []

    def op(self) -> None:
        from repro import load_meter

        start = now()
        meter = load_meter(self.model)
        meter.frozen_grammar()
        loaded = now()
        scores = meter.probability_many(self.stream, jobs=SCORE_JOBS)
        self.timed("score", now() - loaded)
        self.setups.append(loaded - start)
        self.ops += 1
        if not self.scores:
            self.scores = scores
        else:
            self.check(scores == self.scores,
                       "a repetition scored the stream differently")

    def finish(self) -> None:
        from repro import load_meter

        stream, distinct = self.stream, self.distinct
        self.metrics = {
            "setup_s": statistics.median(self.setups),
            "score_pw_per_s": len(stream) / self.median("score"),
        }
        self.why = {
            "entries": len(stream), "distinct": len(distinct),
            "repeat_share": 1.0 - len(distinct) / len(stream),
            "distinct_over_parse_cache": len(distinct) / PARSE_CACHE,
            "timed_repeats": len(self.times["score"]),
            "dominant_layers": "core.parser / core.compiled_trie "
                               "(cold parse per distinct), core.shm "
                               "publish, the process pool",
        }
        # Output check: the pool's scores equal serial scoring.
        by_password = dict(zip(stream, self.scores))
        rng = random.Random(self.seed)
        sample = rng.sample(distinct, min(CHECK_SAMPLE, len(distinct)))
        serial = load_meter(self.model).probability_many(sample)
        mismatched = sum(1 for password, value in zip(sample, serial)
                         if by_password[password] != value)
        self.check(mismatched == 0,
                   f"{mismatched} of {len(sample)} parallel scores differ "
                   "from serial scoring")
        self.outputs = self.scores
        if self.trace:
            self.trace_layers(by_password)

    def trace_layers(self, by_password: Dict[str, float]) -> None:
        from repro import FuzzyPSM, load_meter
        from repro.core.compiled_trie import CompiledTrie
        from repro.core.parser import SegmentKind
        from repro.core.shm import SharedScoringSegment

        recorder = self.recorder
        wrap = recorder.wrap
        timings: Dict[str, float] = {}

        def score_body() -> None:
            with recorder.span("persistence.load"):
                meter = load_meter(self.model)
            meter.frozen_grammar()
            start = now()
            with recorder.span("core.meter.probability_many"):
                meter.probability_many(self.stream, jobs=SCORE_JOBS)
            timings["score"] = now() - start

        selfs = self.traced([
            (FuzzyPSM, "frozen_grammar",
             lambda fn: wrap("core.frozen.build", fn)),
            (SharedScoringSegment, "create",
             lambda fn: wrap("core.shm.publish", fn)),
        ], "bench.bulk", score_body)
        rng = random.Random(self.seed + 1)
        sample = rng.sample(self.distinct,
                            min(TRACE_SAMPLE, len(self.distinct)))
        meter = load_meter(self.model)
        parser = meter.parser
        frozen = meter.frozen_grammar()
        parser.ensure_compiled_matchers()
        parses: List[Any] = []
        values: List[float] = []

        def serial_body() -> None:
            span = recorder.span
            for password in sample:
                with span("core.parser.parse"):
                    parsed = parser.parse(password)
                with span("core.parser.to_derivation"):
                    derivation = parsed.to_derivation()
                with span("core.frozen.kernel"):
                    values.append(frozen.derivation_probability(derivation))
                parses.append(parsed)

        serial = self.traced([
            (CompiledTrie, "longest_fuzzy_match",
             lambda fn: wrap("core.compiled_trie.match", fn)),
        ], "bench.bulk.serial", serial_body)
        mismatched = sum(1 for password, value in zip(sample, values)
                         if value != by_password[password])
        self.check(mismatched == 0,
                   f"{mismatched} traced serial scores differ from the "
                   "pool's")
        segments = [seg for parsed in parses for seg in parsed.segments]
        fallback = sum(1 for seg in segments
                       if seg.kind is not SegmentKind.DICTIONARY)
        n = len(sample)
        match_calls = sum(1 for s in recorder.spans
                          if s.name == "core.compiled_trie.match")
        pm_duration = next(s.duration for s in recorder.spans
                           if s.name == "core.meter.probability_many")
        publish = sum(s.duration for s in recorder.spans
                      if s.name == "core.shm.publish")
        untraced = self.median("score")
        self.layers = {
            "bulk.persistence.load_ms":
                selfs.get("persistence.load", 0.0) * 1e3,
            "bulk.core.shm.publish_ms": publish * 1e3,
            "bulk.core.meter.pool_ms": (pm_duration - publish) * 1e3,
            "bulk.core.parser.parse_us":
                serial.get("core.parser.parse", 0.0) / n * 1e6,
            "bulk.core.compiled_trie.match_us":
                serial.get("core.compiled_trie.match", 0.0) / n * 1e6,
            "bulk.core.compiled_trie.match_calls": match_calls / n,
            "bulk.core.parser.to_derivation_us":
                serial.get("core.parser.to_derivation", 0.0) / n * 1e6,
            "bulk.core.frozen.kernel_us":
                serial.get("core.frozen.kernel", 0.0) / n * 1e6,
            "bulk.core.parser.fallback_ratio":
                fallback / max(1, len(segments)),
            "bulk.core.meter.distinct_ratio":
                len(self.distinct) / len(self.stream),
            "bulk.trace.overhead_frac": timings["score"] / untraced - 1.0,
        }
        self.overhead = (timings["score"], untraced)


class Guess(Phase):
    """Top-N enumeration and a Monte Carlo estimator on one model.

    Set-up is ``load_meter`` plus ``FuzzyPSM.attack_engine``; the two
    timed operations are ``AttackEngine.guesses(N)`` drained to the end
    and a ``MonteCarloEstimator`` built over ``AttackEngine.sample``.
    """

    name = "guess"

    def __init__(self, config: Dict[str, Any]) -> None:
        super().__init__(config)
        self.n: int = config["guesses"]
        self.samples: int = config["samples"]
        self.first: Any = None

    def op(self) -> None:
        from repro import MonteCarloEstimator, load_meter

        start = now()
        meter = load_meter(self.model)
        engine = meter.attack_engine()
        built = now()
        guesses = list(engine.guesses(self.n))
        enumerated = now()
        estimator = MonteCarloEstimator(
            engine, sample_size=self.samples, rng=random.Random(self.seed)
        )
        self.timed("mc", now() - enumerated)
        self.timed("guess", enumerated - built)
        self.setups.append(built - start)
        self.ops += 2
        if self.first is None:
            self.first = (guesses, estimator)
        else:
            self.check(guesses == self.first[0],
                       "a repetition enumerated differently")

    def finish(self) -> None:
        n, samples = self.n, self.samples
        guesses, estimator = self.first
        self.metrics = {
            "setup_s": statistics.median(self.setups),
            "guesses_per_s": n / self.median("guess"),
            "mc_samples_per_s": samples / self.median("mc"),
        }
        self.why = {
            "guesses": n, "samples": samples,
            "timed_repeats": len(self.times["guess"]),
            "dominant_layers": "attacks.engine (heap lattice), "
                               "attacks.sampler + core.parser "
                               "(canonical-parse rejection)",
        }
        probabilities = [p for _surface, p in guesses]
        self.check(len(guesses) == n,
                   f"enumeration gave {len(guesses)} guesses, asked for {n}")
        self.check(all(a >= b for a, b in zip(probabilities,
                                                probabilities[1:])),
                   "guess probabilities increase somewhere")
        self.check(len({s for s, _p in guesses}) == len(guesses),
                   "enumeration repeated a surface")
        numbers = estimator.guess_numbers(probabilities[::max(1, n // 64)])
        self.check(estimator.sample_size == samples
                   and all(a <= b for a, b in zip(numbers, numbers[1:])),
                   "Monte Carlo guess numbers are not monotone")
        self.outputs = {"guesses": guesses, "guess_numbers": numbers}
        if self.trace:
            self.trace_layers()

    def trace_layers(self) -> None:
        from repro import FuzzyPSM, MonteCarloEstimator, load_meter

        recorder = self.recorder
        wrap = recorder.wrap
        timings: Dict[str, float] = {}
        stats: Dict[str, Any] = {}

        def body() -> None:
            with recorder.span("persistence.load"):
                meter = load_meter(self.model)
            engine = meter.attack_engine()
            start = now()
            with recorder.span("attacks.engine.enumerate"):
                stream = engine.guesses(self.n)
                list(stream)
            stats["stream"] = stream.stats
            with recorder.span("attacks.sampler.build"):
                engine.sampler()
            with recorder.span("attacks.sampler.draw"):
                MonteCarloEstimator(engine, sample_size=self.samples,
                                    rng=random.Random(self.seed))
            timings["op"] = now() - start

        selfs = self.traced([
            (FuzzyPSM, "attack_engine",
             lambda fn: wrap("attacks.engine.build", fn)),
            (FuzzyPSM, "frozen_grammar",
             lambda fn: wrap("core.frozen.build", fn)),
        ], "bench.guess", body)
        enumeration = stats["stream"]
        untraced = self.median("guess") + self.median("mc")
        self.layers = {
            "guess.persistence.load_ms":
                selfs.get("persistence.load", 0.0) * 1e3,
            "guess.core.frozen.build_ms":
                selfs.get("core.frozen.build", 0.0) * 1e3,
            "guess.attacks.engine.build_ms":
                selfs.get("attacks.engine.build", 0.0) * 1e3,
            "guess.attacks.engine.enumerate_ms":
                selfs.get("attacks.engine.enumerate", 0.0) * 1e3,
            "guess.attacks.engine.yield_per_pop":
                enumeration.yielded / max(1, enumeration.pops),
            "guess.attacks.engine.pushes_per_guess":
                enumeration.pushes / max(1, enumeration.yielded),
            "guess.attacks.sampler.build_ms":
                selfs.get("attacks.sampler.build", 0.0) * 1e3,
            "guess.attacks.sampler.draw_us":
                selfs.get("attacks.sampler.draw", 0.0) / self.samples * 1e6,
            "guess.trace.overhead_frac": timings["op"] / untraced - 1.0,
        }
        self.overhead = (timings["op"], untraced)


PHASES = {cls.name: cls for cls in (Train, Bulk, Guess)}


def main(argv: List[str]) -> int:
    phase_name, workdir = argv
    with open(os.path.join(workdir, "config.json"), encoding="utf-8") as f:
        config = json.load(f)
    phase = PHASES[phase_name](config)
    print("done", flush=True)  # inputs loaded, ready for commands
    for line in sys.stdin:
        command = line.strip()
        if command == "op":
            # Collect the last repetition's garbage, then exempt what is
            # still alive (mostly this benchmark's inputs) from later
            # collections, so they are not charged to the program.
            gc.collect()
            gc.freeze()
            phase.op()
        elif command == "finish":
            phase.finish()
            if phase.trace:
                phase.recorder.dump(os.path.join(
                    config["spans_dir"], f"{phase_name}.jsonl"))
            with open(os.path.join(workdir, f"{phase_name}.json"), "w",
                      encoding="utf-8") as handle:
                json.dump(phase.result(), handle)
        else:
            raise ValueError(f"unknown command {command!r}")
        print("done", flush=True)
        if command == "finish":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
