"""Prefix trie over the base dictionary, and the fuzzy-match rules.

fuzzyPSM lower-cases every password from the base dictionary ``B``,
drops entries shorter than three characters and inserts the rest into a
trie (paper Sec. IV-C).  :class:`PrefixTrie` only collects the words;
:meth:`PrefixTrie.compile` freezes it into the flat-array
:class:`~repro.core.compiled_trie.CompiledTrie`, the one matcher the
parser queries.  Passwords are parsed against it by
*longest prefix match*, where a password character may match a stored
character either

* exactly,
* through **capitalization** of the first character of the segment
  (``P`` matches stored ``p`` at segment offset 0), or
* through one of the six **leet** toggles of Table VI, applied
  per-character in either direction (``0`` matches stored ``o``;
  ``o`` matches stored ``0``).

The per-character, bidirectional toggle semantics reproduce the worked
derivation of ``p@ssw0rd1`` in the paper (Fig. 11), where every stored
character that belongs to a leet pair contributes one Yes/No factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.util.leet import LEET_BY_LETTER, LEET_BY_SUBSTITUTE

#: Map from an *observed* character to the (rule-relevant) stored
#: character it may have been toggled from, e.g. ``"0" -> "o"`` and
#: ``"o" -> "0"``.  Both directions exist because base passwords may
#: themselves contain substitute characters (``p@ssword`` in Table IV).
_TOGGLE: Dict[str, str] = {}
_TOGGLE.update(LEET_BY_LETTER)        # letter observed -> substitute stored
_TOGGLE.update(LEET_BY_SUBSTITUTE)    # substitute observed -> letter stored


def toggle_partner(ch: str) -> Optional[str]:
    """The other side of ``ch``'s leet pair, or ``None``.

    >>> toggle_partner("o")
    '0'
    >>> toggle_partner("0")
    'o'
    >>> toggle_partner("x") is None
    True
    """
    return _TOGGLE.get(ch)


@dataclass(frozen=True)
class FuzzyMatch:
    """One way a password prefix matches a stored base password.

    Attributes:
        base: the stored (dictionary) form that was matched.
        length: number of password characters consumed (== ``len(base)``).
        capitalized: True when the first character matched through the
            capitalization rule.
        toggled_offsets: offsets (into ``base``) where a leet toggle
            fired, i.e. the observed character is the leet partner of
            the stored character.
        transformations: total number of transformation operations.
    """

    base: str
    length: int
    capitalized: bool
    toggled_offsets: Tuple[int, ...]

    @property
    def transformations(self) -> int:
        return int(self.capitalized) + len(self.toggled_offsets)


class _Node:
    """A trie node; ``terminal`` marks the end of a stored word."""

    __slots__ = ("children", "terminal")

    def __init__(self) -> None:
        self.children: Dict[str, _Node] = {}
        self.terminal = False


class PrefixTrie:
    """Stores base-dictionary words; :meth:`compile` makes the matcher.

    >>> trie = PrefixTrie(["password", "p@ssword", "123qwe"])
    >>> "password" in trie
    True
    >>> match = trie.compile().longest_fuzzy_match("P@ssw0rd123")
    >>> match.base, match.capitalized
    ('p@ssword', True)
    """

    def __init__(self, words: Optional[List[str]] = None,
                 min_length: int = 3) -> None:
        if min_length < 1:
            raise ValueError("min_length must be positive")
        self._root = _Node()
        self._min_length = min_length
        self._size = 0
        if words:
            for word in words:
                self.insert(word)

    @property
    def min_length(self) -> int:
        return self._min_length

    def __len__(self) -> int:
        """Number of stored words."""
        return self._size

    def insert(self, word: str) -> bool:
        """Insert a word verbatim; returns False if too short or present.

        Callers are expected to lower-case base passwords before
        insertion (see :func:`repro.core.training.build_base_trie`).
        """
        if len(word) < self._min_length:
            return False
        node = self._root
        for ch in word:
            node = node.children.setdefault(ch, _Node())
        if node.terminal:
            return False
        node.terminal = True
        self._size += 1
        return True

    def __contains__(self, word: object) -> bool:
        if not isinstance(word, str):
            return False
        node = self._find(word)
        return node is not None and node.terminal

    def _find(self, word: str) -> Optional[_Node]:
        node = self._root
        for ch in word:
            node = node.children.get(ch)
            if node is None:
                return None
        return node

    def iter_words(self) -> Iterator[str]:
        """Yield every stored word in lexicographic order."""

        def walk(node: _Node, prefix: str) -> Iterator[str]:
            if node.terminal:
                yield prefix
            for ch in sorted(node.children):
                yield from walk(node.children[ch], prefix + ch)

        yield from walk(self._root, "")

    def compile(self) -> "CompiledTrie":
        """Freeze this trie into a :class:`CompiledTrie`.

        The compiled form answers the fuzzy prefix queries from
        contiguous arrays (no per-node Python objects) and is the
        parser's only matcher.  It is a snapshot: words inserted
        afterwards do not appear in it.

        Compilation cost lands in the ``trie.compile.seconds``
        telemetry histogram (one observation per snapshot), so a
        profile can separate matcher build time from parse time.
        """
        from repro import obs
        from repro.core.compiled_trie import CompiledTrie

        with obs.get().timer("trie.compile.seconds"):
            return CompiledTrie(self._root, self._min_length, self._size)
