"""Fragment store: the trusted vocabulary for positive taint inference.

Fragments are string literals extracted from the application and its plugins
(paper Section IV-A).  The store deduplicates them and maintains the
inverted index that implements the daemon's second optimization
(Section VI-A): *"first parse the query to determine the critical set of
tokens before attempting to match these tokens"* -- for a given critical
token, only fragments that actually contain the token's text can possibly
cover it, so the index maps lowercased critical-token text to candidate
fragments.

Matching inside queries is **case-sensitive** (Taintless explicitly
"matches the letter case of attack tokens with those available in the
application"), so the index is a recall-complete prefilter whose candidates
are verified with exact ``str.find``.

The store serves two matching engines (DESIGN.md section 9): the per-token
scan consumes :meth:`FragmentStore.iter_candidates`, while the one-pass
Aho-Corasick engine (:mod:`repro.pti.automaton`) compiles the whole
vocabulary once per store (:meth:`FragmentStore.compiled_automaton`) and
ignores the index entirely.
"""

from __future__ import annotations

import itertools
import re
import threading
from typing import Iterable

from ..phpapp.source import extract_fragments
from ..sqlparser.tokens import CRITICAL_OPERATORS, Token, TokenType
from .automaton import FragmentAutomaton

__all__ = [
    "FragmentStore",
    "fragment_index_keys",
    "token_index_key",
]

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_COMMENT_MARKERS = ("/*", "--", "#")


def fragment_index_keys(fragment: str) -> set[str]:
    """Index keys (lowercased critical-token texts) a fragment can cover.

    Application fragments are *partial* SQL -- ``' ORDER BY x DESC`` starts
    with the closing quote of the preceding placeholder -- so running the
    SQL lexer over them misclassifies everything after an orphan quote as
    string content.  Indexing therefore uses a plain lexical scan: keyword /
    function words, critical operator characters and comment markers.  The
    index is a recall-complete over-approximation; PTI verifies candidates
    with exact containment checks.
    """
    keys: set[str] = set()
    for word in _WORD.findall(fragment):
        # Every word is indexed, not only keywords/functions: identifier
        # coverage matters under the strict token policy, and the index is
        # harmless over-approximation elsewhere.
        keys.add(word.lower())
    for operator in CRITICAL_OPERATORS:
        if operator in fragment:
            keys.add(operator)
    if ";" in fragment:
        keys.add(";")
    for marker in _COMMENT_MARKERS:
        if marker in fragment:
            keys.add(marker)
    return keys


def token_index_key(token: Token) -> str:
    """The index key to look up candidates for one critical token.

    Comments key on their opening marker (their text includes arbitrary
    content); other tokens key on their lowercased text.
    """
    if token.type is TokenType.COMMENT:
        if token.text.startswith("/*"):
            return "/*"
        if token.text.startswith("--"):
            return "--"
        return "#"
    return token.text.lower()


#: The source of store epochs (:attr:`FragmentStore.epoch`).  Process-wide
#: on purpose: an epoch must name one store among every store the process
#: builds, since caches outlive the store they were filled under.
_EPOCHS = itertools.count(1)
_EPOCH_LOCK = threading.Lock()


def _dedupe_and_index(
    fragments: Iterable[str], *, skip=frozenset(), offset: int = 0
) -> tuple[tuple[str, ...], frozenset, dict]:
    """One pass over ``fragments``: the unique ones, their set and index.

    Empty fragments, repeats and members of ``skip`` are dropped; first
    occurrences keep their order.  The index maps each lowercased key to
    the tuple of positions (counted from ``offset``) of the fragments
    that carry it.
    """
    seen: set[str] = set()
    unique: list[str] = []
    index: dict[str, list[int]] = {}
    for fragment in fragments:
        if not fragment or fragment in seen or fragment in skip:
            continue
        seen.add(fragment)
        position = offset + len(unique)
        unique.append(fragment)
        for key in fragment_index_keys(fragment):
            index.setdefault(key, []).append(position)
    return (
        tuple(unique),
        frozenset(seen),
        {key: tuple(positions) for key, positions in index.items()},
    )


class FragmentStore:
    """Immutable deduplicated fragment set with a critical-token inverted index.

    A store never changes once built (DESIGN.md section 10).  A vocabulary
    change -- plugin installed, updated or removed -- builds a new store
    and swaps it in through
    :meth:`~repro.pti.daemon.PTIDaemon.refresh_fragments`.  Readers need
    no lock, and whatever is derived from a store (cached verdicts, shape
    plans, the compiled automaton) stays valid for as long as the store
    is in use.
    """

    def __init__(self, fragments: Iterable[str] = ()) -> None:
        self._publish(*_dedupe_and_index(fragments))

    def _publish(self, fragments: tuple[str, ...], seen, index) -> None:
        """Install the store's contents and draw its epoch (construction)."""
        self._fragments = fragments
        self._seen = seen
        self._index = index
        self._automaton = None
        self._automaton_lock = threading.Lock()
        with _EPOCH_LOCK:
            self._epoch = next(_EPOCHS)

    @classmethod
    def from_sources(cls, sources: Iterable[str]) -> "FragmentStore":
        """Build a store by running fragment extraction over source texts."""
        return cls(itertools.chain.from_iterable(map(extract_fragments, sources)))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._fragments)

    def __contains__(self, fragment: str) -> bool:
        return fragment in self._seen

    @property
    def epoch(self) -> int:
        """This store's number, drawn from one process-wide counter.

        An epoch names exactly one store, and a store built later has a
        larger epoch.  The caches keyed on it
        (:class:`~repro.pti.caches.EpochLRU`) therefore flush when a newer
        store's epoch arrives, miss for a reader still on an older store
        and refuse a put proven under an older store.
        """
        return self._epoch

    def compiled_automaton(self):
        """``(automaton, built_now)``: compiled once per store, on first use.

        Every analyzer bound to this store resolves its one-pass matcher
        here, so concurrent analyzers compile the vocabulary once under
        one lock; a reload that compiles it before the swap leaves no
        build on the request path.  ``built_now`` tells the caller whether
        *its* call paid for the compile (the analyzer's
        ``automaton_builds`` counter).
        """
        automaton = self._automaton
        if automaton is not None:
            return automaton, False
        with self._automaton_lock:
            if self._automaton is not None:
                return self._automaton, False
            self._automaton = self._compile_automaton()
            return self._automaton, True

    def _compile_automaton(self):
        return FragmentAutomaton(self._fragments)

    def __iter__(self):
        return iter(self._fragments)

    @property
    def fragments(self) -> tuple[str, ...]:
        """All fragments, in insertion order (immutable, O(1))."""
        return self._fragments

    def iter_all(self):
        """Iterate the fragments without copying (hot path)."""
        return iter(self._fragments)

    def candidates_for(self, token_text: str) -> list[str]:
        """Fragments that contain ``token_text`` (case-insensitive prefilter).

        A superset of the fragments that can cover an occurrence of the
        token, in insertion order.
        """
        return list(self.iter_candidates(token_text))

    def iter_candidates(self, token_text: str):
        """Iterator over the index candidates of one token text."""
        fragments = self._fragments
        for position in self._index.get(token_text.lower(), ()):
            yield fragments[position]

    def stats(self) -> dict[str, int]:
        """Extraction statistics (reported by Table III's bench)."""
        return {
            "fragments": len(self._fragments),
            "indexed_tokens": len(self._index),
            "total_characters": sum(len(f) for f in self._fragments),
        }

    # ------------------------------------------------------------------
    # Persistence (daemon warm restarts; the paper's long-lived daemon
    # keeps fragments in memory, a restart re-extracts -- persisting the
    # store makes restarts cheap for large applications)
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialise the fragment list (the index is rebuilt on load)."""
        import json

        return json.dumps({"version": 1, "fragments": list(self._fragments)})

    @classmethod
    def from_json(cls, text: str) -> "FragmentStore":
        """Load a :meth:`to_json` document.

        Only ``{"version": 1, "fragments": [str, ...]}`` is accepted;
        anything else raises :class:`ValueError`.
        """
        import json

        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("not a fragment store: expected a JSON object")
        if payload.get("version") != 1:
            raise ValueError(f"unsupported fragment store version: {payload.get('version')!r}")
        fragments = payload.get("fragments")
        if not isinstance(fragments, list) or not all(
            isinstance(fragment, str) for fragment in fragments
        ):
            raise ValueError("fragment store 'fragments' must be a list of strings")
        return cls(fragments)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "FragmentStore":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())
