"""Reference implementations the production fast paths are pinned to.

Neither oracle runs in production; each is the slow, obviously-correct
form of a hot path, kept here so the differential tests (and the
timing benches' baselines) can compare against it bit for bit.

* :class:`PointerMatcher` — the fuzzy longest-prefix match as a
  depth-first search over the pointer nodes of a
  :class:`~repro.core.trie.PrefixTrie`.  :func:`pointer_parser` injects
  it into :meth:`FuzzyParser.from_compiled`, so the production parse
  loop runs over it unchanged and only the matcher differs from the
  flat-array :class:`~repro.core.compiled_trie.CompiledTrie`.
* :func:`iter_guesses_reference` — the pre-engine guess enumerator:
  per-structure products of per-slot variant streams over the
  training-side count tables, the oracle of
  :class:`~repro.attacks.engine.AttackEngine`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.grammar import DerivedSegment, leet_rule_for_char
from repro.core.parser import FuzzyParser
from repro.core.training import PasswordEntry, build_base_trie, train_grammar
from repro.core.trie import FuzzyMatch, PrefixTrie, toggle_partner
from repro.metrics.enumeration import (
    LazyDescendingList,
    deduplicate_guesses,
    descending_products,
    merge_weighted_descending,
)

# --- the pointer-trie matcher ----------------------------------------------


class PointerMatcher:
    """Fuzzy prefix queries answered by a DFS over pointer-trie nodes.

    >>> matcher = PointerMatcher(PrefixTrie(["password", "p@ssword"]))
    >>> match = matcher.longest_fuzzy_match("P@ssw0rd123")
    >>> match.base, match.capitalized, match.toggled_offsets
    ('p@ssword', True, (5,))
    """

    def __init__(self, trie: PrefixTrie) -> None:
        self._root = trie._root

    def longest_exact_prefix(self, text: str) -> Optional[str]:
        """Longest stored word that is a verbatim prefix of ``text``."""
        node = self._root
        best: Optional[str] = None
        for i, ch in enumerate(text):
            node = node.children.get(ch)
            if node is None:
                break
            if node.terminal:
                best = text[: i + 1]
        return best

    def fuzzy_matches(self, text: str, allow_capitalization: bool = True,
                      allow_leet: bool = True) -> List[FuzzyMatch]:
        """All stored words matching a prefix of ``text`` under the rules.

        The search explores every per-character alternative (exact,
        capitalization at offset 0, leet toggle), so all candidate
        matches are found; branching is bounded by 2 per character.
        """
        matches: List[FuzzyMatch] = []
        # Depth-first over (node, offset, base-so-far, cap, toggles).
        stack = [(self._root, 0, "", False, ())]
        while stack:
            node, offset, base, capitalized, toggles = stack.pop()
            if node.terminal:
                matches.append(
                    FuzzyMatch(base, offset, capitalized, toggles)
                )
            if offset >= len(text):
                continue
            observed = text[offset]
            # Exact character match.
            child = node.children.get(observed)
            if child is not None:
                stack.append(
                    (child, offset + 1, base + observed, capitalized, toggles)
                )
            # Capitalization of the first character of the segment.
            if allow_capitalization and offset == 0 and observed.isupper():
                lowered = observed.lower()
                child = node.children.get(lowered)
                if child is not None:
                    stack.append(
                        (child, offset + 1, base + lowered, True, toggles)
                    )
            # Leet toggle: observed char is the partner of the stored one.
            if allow_leet:
                partner = toggle_partner(observed)
                if partner is not None:
                    child = node.children.get(partner)
                    if child is not None:
                        stack.append((
                            child, offset + 1, base + partner,
                            capitalized, toggles + (offset,),
                        ))
        return matches

    def longest_fuzzy_match(self, text: str,
                            allow_capitalization: bool = True,
                            allow_leet: bool = True,
                            start: int = 0) -> Optional[FuzzyMatch]:
        """The preferred match for a prefix of ``text[start:]``: longest,
        then fewest transformations, then lexicographic base — the
        contract of :meth:`CompiledTrie.longest_fuzzy_match`."""
        matches = self.fuzzy_matches(
            text[start:],
            allow_capitalization=allow_capitalization,
            allow_leet=allow_leet,
        )
        if not matches:
            return None
        return min(
            matches, key=lambda m: (-m.length, m.transformations, m.base)
        )


def pointer_parser(trie: PrefixTrie, allow_capitalization: bool = True,
                   allow_leet: bool = True, allow_reverse: bool = False,
                   allow_allcaps: bool = False) -> FuzzyParser:
    """The production parser, matching through :class:`PointerMatcher`.

    Takes the :class:`FuzzyParser` rule flags.  The reverse rule gets a
    pointer matcher over the reversed non-palindromic words, the word
    set the parser builds its own reverse matcher from.
    """
    flags = {
        "allow_capitalization": allow_capitalization,
        "allow_leet": allow_leet,
        "allow_reverse": allow_reverse,
        "allow_allcaps": allow_allcaps,
    }
    reversed_matcher = None
    if allow_reverse:
        reversed_trie = PrefixTrie(min_length=trie.min_length)
        for word in trie.iter_words():
            if word != word[::-1]:
                reversed_trie.insert(word[::-1])
        reversed_matcher = PointerMatcher(reversed_trie)
    return FuzzyParser.from_compiled(
        PointerMatcher(trie), reversed_matcher, trie.min_length, flags,
    )


def pointer_probabilities(
    base_dictionary: List[str],
    training: List[PasswordEntry],
    passwords: List[str],
) -> List[float]:
    """Train and score with every parse going through the pointer DFS.

    The reference for ``FuzzyPSM.train(...).probability_many(...)``:
    same trie, same grammar code, only the matcher differs.
    """
    trie = build_base_trie(base_dictionary)
    parser = pointer_parser(trie)
    grammar = train_grammar(training, trie, parser=parser)
    return [
        grammar.derivation_probability(parser.parse(pw).to_derivation())
        if pw else 0.0
        for pw in passwords
    ]


# --- the pre-engine guess enumerator ----------------------------------------


def iter_guesses_reference(
    meter: Any, limit: Optional[int] = None
) -> Iterator[Tuple[str, float]]:
    """The pre-engine per-guess enumeration of a ``FuzzyPSM``.

    Merges, over all learned base structures, the product of per-slot
    variant streams (terminal x capitalization x leet), walking the
    training-side count tables.  Same guesses as the engine, in the
    same order up to ties, with probabilities equal within float
    re-association; appends zero-probability variants the engine omits.
    """
    grammar = meter.grammar
    slot_cache: Dict[int, LazyDescendingList[str]] = {}

    def slot_list(length: int) -> LazyDescendingList[str]:
        if length not in slot_cache:
            slot_cache[length] = LazyDescendingList(
                slot_variants(meter, length)
            )
        return slot_cache[length]

    def structure_stream(structure: Tuple[int, ...]
                         ) -> Iterator[Tuple[str, float]]:
        factors = [slot_list(length) for length in structure]
        for surfaces, probability in descending_products(factors):
            yield "".join(surfaces), probability

    total = grammar.structures.total
    if total == 0:
        return
    streams = [
        (count / total, structure_stream(structure))
        for structure, count in grammar.structures.most_common()
    ]
    deduplicated = deduplicate_guesses(merge_weighted_descending(streams))
    for index, item in enumerate(deduplicated):
        if limit is not None and index >= limit:
            return
        yield item


def slot_variants(meter: Any, length: int) -> Iterator[Tuple[str, float]]:
    """Descending (surface, probability) stream for one B_n slot."""
    table = meter.grammar.terminals.get(length)
    if table is None or table.total == 0:
        return iter(())
    total = table.total

    def variants_of(base: str) -> Iterator[Tuple[str, float]]:
        # Heterogeneous slots (case/reverse choices vs leet-toggle
        # offsets), so the factor element type is Any by design.
        factors: List[List[Tuple[Any, float]]] = [
            case_reverse_factor(meter, base)
        ]
        for offset, ch in enumerate(base):
            rule = leet_rule_for_char(ch)
            if rule is not None:
                factors.append(leet_factor(meter.grammar, rule, offset))
        for choices, probability in descending_products(factors):
            capitalized, reversed_word, all_caps = choices[0]
            toggles = tuple(
                offset for offset in choices[1:] if offset is not None
            )
            segment = DerivedSegment(base, capitalized, toggles,
                                     reversed_word, all_caps)
            yield segment.surface(), probability

    weighted = [
        (count / total, variants_of(base))
        for base, count in table.most_common()
    ]
    return merge_weighted_descending(weighted)


def case_reverse_factor(
    meter: Any, base: str
) -> List[Tuple[Tuple[bool, bool, bool], float]]:
    """(capitalized, reversed, all_caps) choices for a slot.

    Enumeration must only emit variants the measuring parse can report,
    or measured and enumerated probabilities would drift:

    * ``capitalized=True`` needs a lower-case first character;
    * ``reversed_word=True`` needs the reverse rule enabled and
      observed, a non-palindromic base that is an actual trie word
      (fallback runs are not reverse-matchable), and — matching the
      parser's semantics — no case rule on the same segment;
    * ``all_caps=True`` needs the rule enabled and observed, a
      trie-word base, and an upper-casing that changes a character
      beyond position 0 (otherwise the surface collides with the
      first-letter or plain reading, which the parser prefers).
    """
    grammar, config, trie = meter.grammar, meter.config, meter.trie
    p_cap_yes = grammar.capitalization_probability(True)
    p_cap_no = grammar.capitalization_probability(False)
    p_rev_yes = grammar.reverse_probability(True)
    p_rev_no = grammar.reverse_probability(False)
    p_ac_yes = grammar.allcaps_probability(True)
    p_ac_no = grammar.allcaps_probability(False)
    options = [((False, False, False), p_cap_no * p_rev_no * p_ac_no)]
    if base[:1].islower():
        options.append(
            ((True, False, False), p_cap_yes * p_rev_no * p_ac_no)
        )
    if (
        config.allow_reverse
        and grammar.reverse.count(True) > 0
        and base != base[::-1]
        and base in trie
    ):
        options.append(
            ((False, True, False), p_cap_no * p_rev_yes * p_ac_no)
        )
    if (
        config.allow_allcaps
        and grammar.allcaps.count(True) > 0
        and base in trie
        and base[1:] != base[1:].upper()
    ):
        options.append(
            ((False, False, True), p_cap_no * p_rev_no * p_ac_yes)
        )
    options.sort(key=lambda item: (-item[1], item[0]))
    return options


def leet_factor(
    grammar: Any, rule: str, offset: int
) -> List[Tuple[Optional[int], float]]:
    """(toggled offset or None, probability) choices for one leet slot."""
    p_yes = grammar.leet_probability(rule, True)
    p_no = grammar.leet_probability(rule, False)
    options = [(None, p_no), (offset, p_yes)]
    options.sort(key=lambda item: (-item[1], item[0] is not None))
    return options
