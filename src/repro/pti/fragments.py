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
vocabulary once per :attr:`FragmentStore.epoch` and ignores the index
entirely.
"""

from __future__ import annotations

import re
import threading
from typing import Iterable, NamedTuple

from ..phpapp.source import extract_fragments
from ..sqlparser.tokens import CRITICAL_OPERATORS, Token, TokenType

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


class AutomatonCell:
    """Per-state slot for the compiled Aho-Corasick automaton.

    The automaton is *derived* state of exactly one :class:`_StoreState`
    (same fragment tuple, same epoch), so it lives inside the state it
    describes: the cell is created empty alongside the state and filled at
    most once, under its own lock so concurrent analyzers sharing a store
    compile the vocabulary a single time instead of once per analyzer.

    This is also the warm-handoff hook (DESIGN.md section 13): a reload
    that wants the swap to be stall-free compiles the successor state's
    cell *before* publishing the state, so the first post-swap query finds
    a ready automaton instead of paying the build on-path.  Because the
    cell travels with its state, a racing reader can never pair an old
    vocabulary with a new automaton or vice versa.

    ``factory`` overrides how the automaton is produced -- the tenancy
    layer injects a factory composing a shared base automaton (compiled
    once per base set, across all tenants) with the tenant's tiny overlay
    automaton.
    """

    __slots__ = ("_lock", "_automaton", "_factory")

    def __init__(self, factory=None) -> None:
        self._lock = threading.Lock()
        self._automaton = None
        self._factory = factory

    def peek(self):
        """The compiled automaton, or ``None`` if nobody built it yet."""
        return self._automaton

    def get_or_build(self, state: "_StoreState"):
        """Return ``(automaton, built_now)``; compiles at most once."""
        automaton = self._automaton
        if automaton is not None:
            return automaton, False
        with self._lock:
            if self._automaton is None:
                from .automaton import FragmentAutomaton

                if self._factory is not None:
                    self._automaton = self._factory(state)
                else:
                    self._automaton = FragmentAutomaton(
                        state.fragments, epoch=state.epoch
                    )
                return self._automaton, True
            return self._automaton, False


class _StoreState(NamedTuple):
    """One immutable epoch of the fragment vocabulary.

    The store's entire readable surface -- fragment tuple, membership set,
    inverted index, epoch number -- lives in a single immutable object that
    mutations *replace* rather than edit.  Readers grab ``store._state``
    once (one atomic attribute load under the GIL) and work against a
    self-consistent snapshot: the index positions always resolve into the
    fragment tuple of the *same* epoch, no matter how many reloads happen
    mid-iteration on other threads.

    ``automaton`` is the state's compiled-matcher slot (see
    :class:`AutomatonCell`); it defaults to ``None`` only for direct
    construction in tests -- every state the store publishes carries a
    fresh cell.
    """

    fragments: tuple[str, ...]
    seen: frozenset
    index: dict  # lowercased key -> tuple of positions into ``fragments``
    epoch: int
    automaton: AutomatonCell | None = None


def _build_index(fragments: tuple[str, ...]) -> dict:
    index: dict[str, list[int]] = {}
    for position, fragment in enumerate(fragments):
        for key in fragment_index_keys(fragment):
            index.setdefault(key, []).append(position)
    return {key: tuple(positions) for key, positions in index.items()}


class FragmentStore:
    """Deduplicated fragment set with a critical-token inverted index.

    Concurrency model (DESIGN.md section 10): reads are lock-free against
    copy-on-write :class:`_StoreState` snapshots; mutations serialize on an
    internal lock, build the successor state off to the side, and publish
    it with one reference assignment.  A reader therefore always sees some
    *complete* epoch -- possibly one that is already stale, never a torn
    mix of two -- and stale reads are safe by the epoch protocol: every
    dependent cache revalidates against :attr:`epoch` before trusting
    derived state, and a stale verdict is simply the verdict of a
    serialization in which the read happened before the mutation.
    """

    def __init__(self, fragments: Iterable[str] = ()) -> None:
        self._mutation_lock = threading.RLock()
        self._state = _StoreState((), frozenset(), {}, 0, AutomatonCell())
        self.add_many(fragments)

    def _automaton_cell(self) -> AutomatonCell:
        """Cell for a successor state -- subclass hook (tenancy overrides
        this to inject a factory that composes the shared base automaton
        with the tenant overlay instead of compiling the full vocabulary)."""
        return AutomatonCell()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_sources(cls, sources: Iterable[str]) -> "FragmentStore":
        """Build a store by running fragment extraction over source texts."""
        store = cls()
        for source in sources:
            store.add_many(extract_fragments(source))
        return store

    def add(self, fragment: str) -> None:
        """Insert one fragment (idempotent; no-ops do not bump the epoch)."""
        self.add_many((fragment,))

    def add_many(self, fragments: Iterable[str]) -> None:
        """Insert fragments; one copy-on-write state swap for the batch.

        The epoch advances by the number of fragments actually inserted
        (preserving the seed's one-bump-per-add counting); no-op batches
        publish nothing at all.
        """
        with self._mutation_lock:
            state = self._state
            seen = set(state.seen)
            added: list[str] = []
            for fragment in fragments:
                if not fragment or fragment in seen:
                    continue
                seen.add(fragment)
                added.append(fragment)
            if not added:
                return
            new_fragments = state.fragments + tuple(added)
            # Appends never shift existing positions, so the successor
            # index extends the current one instead of re-scanning the
            # whole vocabulary -- a store grown by many small batches
            # would otherwise cost O(batches x vocabulary).  Each touched
            # bucket is extended once per batch: growing a tuple position
            # by position costs time quadratic in the bucket's size.
            grown: dict[str, list[int]] = {}
            for position, fragment in enumerate(added, len(state.fragments)):
                for key in fragment_index_keys(fragment):
                    grown.setdefault(key, []).append(position)
            new_index = dict(state.index)
            for key, positions in grown.items():
                new_index[key] = new_index.get(key, ()) + tuple(positions)
            self._state = _StoreState(
                new_fragments,
                frozenset(seen),
                new_index,
                state.epoch + len(added),
                self._automaton_cell(),
            )

    def remove(self, fragment: str) -> bool:
        """Remove one fragment (plugin uninstalled); returns True if present.

        Removal invalidates positional index entries, so the successor
        state's index is rebuilt; removal is rare (administrative action),
        lookups are hot.
        """
        with self._mutation_lock:
            state = self._state
            if fragment not in state.seen:
                return False
            new_fragments = tuple(f for f in state.fragments if f != fragment)
            self._state = _StoreState(
                new_fragments,
                state.seen - {fragment},
                _build_index(new_fragments),
                state.epoch + 1,
                self._automaton_cell(),
            )
            return True

    def reload(self, fragments: Iterable[str], *, warm: bool = False) -> None:
        """Replace the whole vocabulary (bulk plugin update).

        With ``warm=True`` the successor state's automaton is compiled
        *before* the state is published (warm handoff): readers are
        lock-free, so they keep serving the old epoch -- old automaton,
        old index -- for the entire build, and the first query after the
        atomic swap finds a ready matcher instead of stalling on the
        per-epoch compile.
        """
        with self._mutation_lock:
            state = self._state
            seen: set[str] = set()
            kept: list[str] = []
            for fragment in fragments:
                if not fragment or fragment in seen:
                    continue
                seen.add(fragment)
                kept.append(fragment)
            new_fragments = tuple(kept)
            new_state = _StoreState(
                new_fragments,
                frozenset(seen),
                _build_index(new_fragments),
                state.epoch + 1,
                self._automaton_cell(),
            )
            if warm:
                new_state.automaton.get_or_build(new_state)
            self._state = new_state

    # ------------------------------------------------------------------
    # Queries (lock-free snapshot reads)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._state.fragments)

    def __contains__(self, fragment: str) -> bool:
        return fragment in self._state.seen

    @property
    def epoch(self) -> int:
        """Monotonic mutation counter; equal epochs imply equal contents.

        (The converse does not hold -- a remove+re-add of the same fragment
        bumps the epoch twice -- which only costs dependent caches a
        spurious flush, never a stale hit.)
        """
        return self._state.epoch

    def snapshot(self) -> _StoreState:
        """The current immutable state (fragments/membership/index/epoch).

        The concurrency-aware way to do multi-field reads: one attribute
        load yields a self-consistent epoch that later mutations can never
        tear.  The automaton compiler and the chaos harness use this to
        pin "the store as of one instant".
        """
        return self._state

    def compiled_automaton(self):
        """``(automaton, built_now)`` for the current state (shared).

        Every analyzer bound to this store resolves its one-pass matcher
        here, so a vocabulary is compiled once per epoch *per store*
        rather than once per analyzer -- and a warm reload's precompiled
        automaton is picked up without any build at all.  ``built_now``
        tells the caller whether *its* call paid for the compile (the
        analyzer's ``automaton_builds`` counter keeps its seed meaning:
        builds this analyzer triggered).
        """
        state = self._state
        cell = state.automaton
        if cell is None:  # directly-constructed state (tests)
            from .automaton import FragmentAutomaton

            return FragmentAutomaton(state.fragments, epoch=state.epoch), True
        return cell.get_or_build(state)

    def __iter__(self):
        return iter(self._state.fragments)

    @property
    def fragments(self) -> tuple[str, ...]:
        """All fragments, in insertion order (immutable snapshot, O(1))."""
        return self._state.fragments

    def iter_all(self):
        """Iterate one consistent snapshot without copying (hot path)."""
        return iter(self._state.fragments)

    def candidates_for(self, token_text: str) -> list[str]:
        """Fragments that contain ``token_text`` (case-insensitive prefilter).

        A superset of the fragments that can cover an occurrence of the
        token, in insertion order.
        """
        return list(self.iter_candidates(token_text))

    def iter_candidates(self, token_text: str):
        """Iterator over index candidates of one consistent snapshot."""
        state = self._state
        fragments = state.fragments
        for position in state.index.get(token_text.lower(), ()):
            yield fragments[position]

    def stats(self) -> dict[str, int]:
        """Extraction statistics (reported by Table III's bench)."""
        state = self._state
        return {
            "fragments": len(state.fragments),
            "indexed_tokens": len(state.index),
            "total_characters": sum(len(f) for f in state.fragments),
        }

    # ------------------------------------------------------------------
    # Persistence (daemon warm restarts; the paper's long-lived daemon
    # keeps fragments in memory, a restart re-extracts -- persisting the
    # store makes restarts cheap for large applications)
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialise the fragment list (the index is rebuilt on load)."""
        import json

        return json.dumps({"version": 1, "fragments": list(self._state.fragments)})

    @classmethod
    def from_json(cls, text: str) -> "FragmentStore":
        import json

        payload = json.loads(text)
        if payload.get("version") != 1:
            raise ValueError(f"unsupported fragment store version: {payload.get('version')!r}")
        return cls(payload["fragments"])

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "FragmentStore":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())
