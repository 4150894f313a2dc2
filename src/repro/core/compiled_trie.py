"""Array-backed compiled form of the base-dictionary trie.

:class:`~repro.core.trie.PrefixTrie` stores one Python object per trie
node (a dict of children plus a terminal flag).  That layout is ideal
for incremental construction but costly to hold and query at scale:
every node is a heap object with its own hash table, and the fuzzy
search pushes per-branch state through an explicit DFS stack.

:class:`CompiledTrie` freezes a finished trie into flat buffers
(a CSR-style sorted-edge-span layout):

* ``edge_starts[i] .. edge_starts[i+1]`` — the edge span of node ``i``
  (an ``array('l')`` of span boundaries);
* ``edge_chars`` — one ``str`` holding every edge character, grouped
  per node and sorted within each span;
* ``edge_children`` — an ``array('l')`` of child node ids, parallel to
  ``edge_chars``;
* ``parents`` / ``parent_chars`` — for each node, its parent id and
  the character on the incoming edge, so a matched node's stored word
  is reconstructed in one upward walk instead of being accumulated
  (and reallocated) on every live search state;
* ``terminal`` — a ``bytes`` flagging end-of-word nodes;
* ``transitions`` — one flat hash index mapping the packed integer
  ``(node << _CHAR_BITS) | ord(char)`` to the child node id, derived
  from the CSR arrays.  This single dict replaces the per-node child
  dicts of the pointer trie in the matching hot path.

Nodes are numbered in breadth-first order with children sorted by edge
character, which makes the layout deterministic for a given word set.
There are **no per-node Python objects**: a million-word dictionary
compiles to a handful of flat buffers plus one shared index, which
also makes the compiled trie cheap to pickle into ``multiprocessing``
workers.

``longest_fuzzy_match`` — the parser's only matcher — is
non-recursive: an explicit-stack DFS over the packed transition index.
Each observed character expands a state into at most three successors
(exact match, first-letter capitalization, leet toggle), and the
preference order is longest, then fewest transformations, then
lexicographic base.  The differential tests pin it against a reference
DFS over the pointer trie's nodes (``tests/oracles.py``).
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.trie import FuzzyMatch, _Node, _TOGGLE

#: Upper bound on bits reserved for the character ordinal in a packed
#: transition key; 21 bits cover the full Unicode range (max code point
#: 0x10FFFF).  The actual shift is sized to the trie's edge alphabet at
#: compile time: an ASCII dictionary needs only 7 bits, which keeps the
#: packed keys below CPython's 30-bit "single digit" integer threshold
#: even for multi-million-node tries, so hot-path key arithmetic never
#: allocates big ints.
_MAX_CHAR_BITS = 21

#: Observed character -> ordinal of the stored character its leet
#: toggle may have come from (both directions, like ``_TOGGLE``).
_TOGGLE_ORD: Dict[str, int] = {ch: ord(p) for ch, p in _TOGGLE.items()}


class CompiledTrie:
    """Immutable, flat-array snapshot of a
    :class:`~repro.core.trie.PrefixTrie`, answering fuzzy prefix queries.

    Build one with :meth:`PrefixTrie.compile`:

    >>> from repro.core.trie import PrefixTrie
    >>> compiled = PrefixTrie(["password", "p@ssword", "123qwe"]).compile()
    >>> "password" in compiled
    True
    >>> match = compiled.longest_fuzzy_match("P@ssw0rd123")
    >>> match.base, match.capitalized
    ('p@ssword', True)
    """

    __slots__ = (
        "_edge_starts", "_edge_chars", "_edge_children", "_parents",
        "_parent_chars", "_terminal", "_transitions", "_shift",
        "_ord_bound", "_toggle_ord", "_min_length", "_size",
    )

    # Flat buffers are ``array``s when compiled in-process and zero-copy
    # ``memoryview`` casts when attached from a shared-memory segment
    # (:meth:`from_arrays`); every consumer indexes them, so the common
    # ``Sequence`` surface is all that is relied on.
    _edge_starts: Sequence[int]
    _edge_chars: str
    _edge_children: Sequence[int]
    _parents: Sequence[int]
    _parent_chars: str
    _terminal: Sequence[int]
    _transitions: Dict[int, int]
    _shift: int
    _ord_bound: int
    _toggle_ord: Dict[str, int]
    _min_length: int
    _size: int

    def __init__(self, root: _Node, min_length: int, size: int) -> None:
        """Flatten a pointer-trie ``root`` (a ``trie._Node``).

        Prefer :meth:`PrefixTrie.compile` over calling this directly.
        """
        edge_starts = array("l", [0])
        edge_chars: List[str] = []
        edge_children = array("l")
        parents = array("l", [0])
        parent_chars: List[str] = ["\0"]  # placeholder for the root
        terminal = bytearray()
        # Breadth-first numbering: node i's edges are appended while
        # processing position i of ``nodes``, so spans are contiguous.
        nodes = [root]
        index = 0
        while index < len(nodes):
            node = nodes[index]
            terminal.append(1 if node.terminal else 0)
            for ch in sorted(node.children):
                edge_chars.append(ch)
                edge_children.append(len(nodes))
                parents.append(index)
                parent_chars.append(ch)
                nodes.append(node.children[ch])
            edge_starts.append(len(edge_children))
            index += 1
        # Size the shift to the edge alphabet (see _MAX_CHAR_BITS); any
        # observed character with ordinal >= _ord_bound cannot label an
        # edge, and callers must treat it as a miss *before* packing a
        # key, because smaller shifts make out-of-range ordinals alias
        # other nodes' keys.
        max_ord = max(map(ord, edge_chars), default=0)
        shift = min(max(max_ord.bit_length(), 1), _MAX_CHAR_BITS)
        transitions: Dict[int, int] = {}
        for parent, ch, child in zip(parents[1:], edge_chars,
                                     edge_children):
            transitions[(parent << shift) | ord(ch)] = child
        self._edge_starts = edge_starts
        self._edge_chars = "".join(edge_chars)
        self._edge_children = edge_children
        self._parents = parents
        self._parent_chars = "".join(parent_chars)
        self._terminal = bytes(terminal)
        self._transitions = transitions
        self._shift = shift
        self._ord_bound = 1 << shift
        # Toggle partners whose ordinal fits the packed layout; others
        # cannot label an edge, so dropping them here lets the matcher
        # skip per-state bound checks on the leet branch.
        self._toggle_ord = {
            ch: code for ch, code in _TOGGLE_ORD.items()
            if code < self._ord_bound
        }
        self._min_length = min_length
        self._size = size
        telemetry = obs.get()
        if telemetry.enabled:
            telemetry.incr("trie.compiled")
            telemetry.observe("trie.compiled.nodes", float(len(terminal)))

    # --- flat-column export / attach ----------------------------------

    def to_arrays(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """``(meta, sections)`` flat columns for the snapshot plane.

        Every buffer becomes a section the shared-memory segment
        (:mod:`repro.core.shm`) can store behind its directory: the CSR
        arrays and the packed transition index as ``int64`` columns
        (keys and values in insertion order, so ``dict(zip(...))``
        rebuilds the identical dict), the character tables as UTF-8
        blobs, and the terminal flags as raw bytes.  ``meta`` carries
        the scalars (``shift``, ``min_length``, ``size``).
        """
        transitions = self._transitions
        sections: Dict[str, Any] = {
            "edge_starts": array("q", self._edge_starts),
            "edge_chars": self._edge_chars,
            "edge_children": array("q", self._edge_children),
            "parents": array("q", self._parents),
            "parent_chars": self._parent_chars,
            "terminal": bytes(self._terminal),
            "transition_keys": array("q", transitions.keys()),
            "transition_values": array("q", transitions.values()),
        }
        meta = {
            "shift": self._shift,
            "min_length": self._min_length,
            "size": self._size,
        }
        return meta, sections

    @classmethod
    def from_arrays(
        cls, meta: Dict[str, Any], sections: Dict[str, Any]
    ) -> "CompiledTrie":
        """Rebuild a compiled trie from :meth:`to_arrays` columns.

        The attach half of the snapshot plane: numeric columns are
        adopted by reference (typically zero-copy ``memoryview('q')``
        casts into a shared segment), so no per-node Python objects are
        ever built.  The only per-entry work is ``dict(zip(...))`` over
        the stored transition columns — C-speed, and the dict it builds
        is identical (same pairs, same insertion order) to the one
        :meth:`__init__` derives, so matching behaviour is bit-for-bit
        the same.
        """
        self = cls.__new__(cls)
        self._edge_starts = sections["edge_starts"]
        self._edge_chars = sections["edge_chars"]
        self._edge_children = sections["edge_children"]
        self._parents = sections["parents"]
        self._parent_chars = sections["parent_chars"]
        self._terminal = sections["terminal"]
        self._transitions = dict(
            zip(sections["transition_keys"], sections["transition_values"])
        )
        shift = int(meta["shift"])
        self._shift = shift
        self._ord_bound = 1 << shift
        self._toggle_ord = {
            ch: code for ch, code in _TOGGLE_ORD.items()
            if code < self._ord_bound
        }
        self._min_length = int(meta["min_length"])
        self._size = int(meta["size"])
        telemetry = obs.get()
        if telemetry.enabled:
            telemetry.incr("trie.attached")
        return self

    # --- basic queries ------------------------------------------------

    @property
    def min_length(self) -> int:
        return self._min_length

    @property
    def node_count(self) -> int:
        """Number of trie nodes in the compiled layout."""
        return len(self._terminal)

    def __len__(self) -> int:
        """Number of stored words."""
        return self._size

    def __contains__(self, word: object) -> bool:
        if not isinstance(word, str):
            return False
        transitions = self._transitions
        shift = self._shift
        bound = self._ord_bound
        node = 0
        for ch in word:
            code = ord(ch)
            if code >= bound:
                return False
            node = transitions.get((node << shift) | code)
            if node is None:
                return False
        return bool(self._terminal[node])

    def word_at(self, node: int) -> str:
        """The stored string spelled by the path from the root to
        ``node`` (the word itself when ``node`` is terminal)."""
        parents = self._parents
        chars = self._parent_chars
        pieces: List[str] = []
        while node:
            pieces.append(chars[node])
            node = parents[node]
        pieces.reverse()
        return "".join(pieces)

    def iter_words(self) -> Iterator[str]:
        """Yield every stored word in lexicographic order."""
        starts, chars, children = (
            self._edge_starts, self._edge_chars, self._edge_children,
        )
        # Explicit-stack DFS; edges are sorted within each span, so
        # pushing a span in reverse yields lexicographic order.
        stack: List[Tuple[int, str]] = [(0, "")]
        while stack:
            node, prefix = stack.pop()
            if self._terminal[node]:
                yield prefix
            for index in range(starts[node + 1] - 1, starts[node] - 1, -1):
                stack.append((children[index], prefix + chars[index]))

    # --- fuzzy prefix matching ----------------------------------------

    def longest_fuzzy_match(self, text: str,
                            allow_capitalization: bool = True,
                            allow_leet: bool = True,
                            start: int = 0) -> Optional[FuzzyMatch]:
        """The preferred match for a prefix of ``text[start:]``: longest,
        then fewest transformations, then lexicographically smallest
        base.

        ``start`` lets the parser match mid-password without slicing a
        fresh remainder string per position.  This is the scoring hot
        path: an iterative DFS over the packed transition index whose
        states carry only ``(node, position, capitalized, toggles,
        transformations)``.  The best match is tracked inline by the
        ``(longest, fewest transformations, lexicographic base)`` key;
        the base string is reconstructed from the parent arrays lazily,
        and only when both earlier criteria tie.
        """
        length = len(text)
        if start >= length:
            return None
        # Root level handled inline: node 0 packs to 0, so root edges
        # are keyed by the bare ordinal, and since capitalization only
        # ever applies at offset 0 the DFS loop below does not need a
        # capitalization branch at all.  Words are at least one
        # character long, so the root is never terminal and a miss
        # here means no match: the common case (most positions of a
        # password match nothing) returns before any further setup.
        get = self._transitions.get
        bound = self._ord_bound
        observed = text[start]
        observed_ord = ord(observed)
        # State: (node, position, capitalized, toggles, transformations).
        stack = []
        if observed_ord < bound:
            child = get(observed_ord)
            if child is not None:
                stack.append((child, start + 1, False, (), 0))
        if allow_capitalization and observed.isupper():
            lowered_ord = ord(observed.lower())
            if lowered_ord < bound:
                child = get(lowered_ord)
                if child is not None:
                    stack.append((child, start + 1, True, (), 1))
        if allow_leet:
            partner_ord = self._toggle_ord.get(observed)
            if partner_ord is not None:
                child = get(partner_ord)
                if child is not None:
                    stack.append((child, start + 1, False, (0,), 1))
        if not stack:
            return None
        terminal = self._terminal
        shift = self._shift
        # In-alphabet toggle partners only, so no bound check is
        # needed on the leet branch inside the loop.
        toggle_ord = self._toggle_ord
        push = stack.append
        pop = stack.pop
        best_length = -1
        best_cost = 0
        best_state = None
        while stack:
            state = pop()
            node, position, capitalized, toggles, cost = state
            if terminal[node]:
                matched = position - start
                if matched > best_length:
                    best_length, best_cost, best_state = matched, cost, state
                elif matched == best_length and (
                    cost < best_cost
                    or (cost == best_cost
                        and self.word_at(node)
                        < self.word_at(best_state[0]))
                ):
                    best_cost, best_state = cost, state
            if position >= length:
                continue
            packed_base = node << shift
            observed = text[position]
            observed_ord = ord(observed)
            if observed_ord < bound:
                child = get(packed_base | observed_ord)
                if child is not None:
                    push((child, position + 1, capitalized, toggles, cost))
            if allow_leet:
                partner_ord = toggle_ord.get(observed)
                if partner_ord is not None:
                    child = get(packed_base | partner_ord)
                    if child is not None:
                        push((
                            child, position + 1, capitalized,
                            toggles + (position - start,), cost + 1,
                        ))
        if best_state is None:
            return None
        base = self.word_at(best_state[0])
        return FuzzyMatch(base, len(base), best_state[2], best_state[3])
