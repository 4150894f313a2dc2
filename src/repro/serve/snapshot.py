"""The immutable serving snapshot: compiled trie + frozen grammar.

The online serving layer never scores against the mutable training
tables.  At start-up (and again after every grammar-epoch bump) the
server compiles the meter's state into a :class:`ServingSnapshot` —
the flat-array :class:`~repro.core.compiled_trie.CompiledTrie`
matchers plus the :class:`~repro.core.frozen.FrozenGrammar` scoring
kernel, stamped with the grammar epoch they were taken at.  The
snapshot is the *only* thing worker processes ever see, and it
travels as *shared-memory segment names*, never a pickle (DESIGN.md
§16), in two parts with different lifetimes:

* the **matchers** — :meth:`ServingSnapshot.publish_matchers` — are
  published once per worker pool: ``/accept`` only changes grammar
  counts, so every epoch of one model shares the same compiled tries;
* the **grammar** — :meth:`ServingSnapshot.publish_grammar` — is
  published once per epoch, and a hot reload replaces only it.

:class:`SnapshotScorer` is the executable form: a parser around the
compiled matchers (:meth:`FuzzyParser.from_compiled`; a worker keeps
one, parse cache included, for its whole life) plus one epoch's frozen
kernel, scoring batches through the same parse-cached/distinct-memo
path as ``FuzzyPSM.probability_many`` — so served scores are
bit-identical to direct per-call ``FuzzyPSM.probability`` (asserted
black-box by ``tests/test_serve_http.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.compiled_trie import CompiledTrie
from repro.core.frozen import FrozenGrammar
from repro.core.parser import FuzzyParser
from repro.core.shm import SharedScoringSegment


class ServingSnapshot:
    """Everything a scoring worker needs, frozen at one grammar epoch.

    Holds only compiled flat-array state (trie snapshots, the frozen
    grammar, parser flags) — exactly what :meth:`publish_matchers` and
    :meth:`publish_grammar` lay out in shared segments, so every
    worker scores against the same physical bytes.
    """

    __slots__ = (
        "epoch", "forward", "reversed_matcher", "min_length",
        "flags", "parse_cache_size",
        "frozen",
    )

    def __init__(
        self,
        epoch: int,
        forward: CompiledTrie,
        reversed_matcher: Optional[CompiledTrie],
        min_length: int,
        flags: Dict[str, bool],
        parse_cache_size: int,
        frozen: FrozenGrammar,
    ) -> None:
        self.epoch = epoch
        self.forward = forward
        self.reversed_matcher = reversed_matcher
        self.min_length = min_length
        self.flags = flags
        self.parse_cache_size = parse_cache_size
        self.frozen = frozen

    @classmethod
    def from_meter(cls, meter: Any) -> "ServingSnapshot":
        """Snapshot a ``FuzzyPSM``-shaped meter at its current epoch.

        The duck-typed surface (``parser``, ``frozen_grammar``,
        ``trie``, ``config``) is exactly the parallel-scorable
        capability's; callers gate on the registry capability, never
        on a concrete meter type.
        """
        parser: FuzzyParser = meter.parser
        forward, reversed_matcher = parser.ensure_compiled_matchers()
        frozen: FrozenGrammar = meter.frozen_grammar()
        return cls(
            epoch=frozen.epoch,
            forward=forward,
            reversed_matcher=reversed_matcher,
            min_length=meter.trie.min_length,
            flags=parser.flags,
            parse_cache_size=meter.config.parse_cache_size,
            frozen=frozen,
        )

    def same_matchers(self, other: "ServingSnapshot") -> bool:
        """True when ``other`` parses with this snapshot's matchers."""
        return (
            other.forward is self.forward
            and other.reversed_matcher is self.reversed_matcher
            and other.flags == self.flags
        )

    def publish_matchers(self) -> SharedScoringSegment:
        """Pack the compiled matchers into a trie-only segment.

        The caller (the worker pool) owns the segment and must
        ``unlink`` it; workers attach it once by name, regardless of
        start method, and build their parser over it.
        """
        return SharedScoringSegment.create(
            epoch=self.epoch,
            forward=self.forward,
            min_length=self.min_length,
            flags=self.flags,
            parse_cache_size=self.parse_cache_size,
            reversed_matcher=self.reversed_matcher,
        )

    def publish_grammar(self) -> SharedScoringSegment:
        """Pack this epoch's frozen grammar into a grammar-only segment
        (owned, and unlinked on retirement, by the caller)."""
        return SharedScoringSegment.create(
            epoch=self.epoch,
            forward=None,
            min_length=self.min_length,
            flags=self.flags,
            parse_cache_size=self.parse_cache_size,
            frozen=self.frozen,
        )

    def build_scorer(
        self, parser: Optional[FuzzyParser] = None
    ) -> "SnapshotScorer":
        """An executable scorer over this snapshot.

        Pass the ``parser`` of a previous epoch's scorer (built over
        the same matchers) to keep its parse cache warm.
        """
        if parser is None:
            parser = FuzzyParser.from_compiled(
                self.forward,
                self.reversed_matcher,
                self.min_length,
                self.flags,
                parse_cache_size=self.parse_cache_size,
            )
        return SnapshotScorer(self.epoch, parser, self.frozen)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServingSnapshot(epoch={self.epoch}, "
            f"terminals={self.frozen.terminal_count})"
        )


class SnapshotScorer:
    """Batch scorer: one parser plus one epoch's frozen grammar.

    Mirrors the serial fast path of ``FuzzyPSM.probability_many``:
    parses through the LRU parse cache, memoises per distinct password
    within the batch, and evaluates derivations against the frozen
    kernel — the blessed batch configuration (ROADMAP item 5), never
    the per-call dict-table loop.  Parses depend only on the matchers,
    so one parser (and its cache) serves every epoch of a model.
    """

    __slots__ = ("epoch", "parser", "_frozen")

    def __init__(
        self, epoch: int, parser: FuzzyParser, frozen: FrozenGrammar
    ) -> None:
        self.epoch = epoch
        self.parser = parser
        self._frozen = frozen

    def score_many(self, passwords: Sequence[str]) -> List[float]:
        """One probability per input, bit-identical to per-call scores."""
        parse = self.parser.parse_cached
        score = self._frozen.derivation_probability
        memo: Dict[str, float] = {}
        out: List[float] = []
        for password in passwords:
            value = memo.get(password)
            if value is None:
                if password:
                    value = score(parse(password).to_derivation())
                else:
                    value = 0.0
                memo[password] = value
            out.append(value)
        return out
