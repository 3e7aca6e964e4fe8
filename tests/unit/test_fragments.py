"""Unit tests for the fragment store."""

from repro.pti.fragments import (
    FragmentStore,
    fragment_index_keys,
    token_index_key,
)
from repro.sqlparser import critical_tokens


def test_deduplication():
    store = FragmentStore(["SELECT ", "SELECT ", " OR "])
    assert len(store) == 2


def test_empty_fragment_ignored():
    store = FragmentStore(["", "SELECT "])
    assert len(store) == 1


def test_insertion_order_preserved():
    store = FragmentStore(["b SELECT", "a SELECT"])
    assert store.fragments == ("b SELECT", "a SELECT")


def test_fragments_snapshot_memoised_and_invalidated():
    store = FragmentStore(["a"])
    first = store.fragments
    assert first is store.fragments  # memoised: no per-access copy
    successor = FragmentStore([*store, "b"])
    assert successor.fragments == ("a", "b")
    assert store.fragments is first == ("a",)  # the old store is untouched


def test_contains_and_iter():
    store = FragmentStore(["x = "])
    assert "x = " in store
    assert "y" not in store
    assert list(store) == ["x = "]
    assert list(store.iter_all()) == ["x = "]


def test_from_sources_runs_extraction():
    store = FragmentStore.from_sources(
        ['$q = "SELECT a FROM t WHERE id = $id";', "$p = ' OR ';"]
    )
    assert "SELECT a FROM t WHERE id = " in store
    assert " OR " in store


def test_index_keys_keywords_and_functions():
    keys = fragment_index_keys("SELECT name, SLEEP(2) FROM t")
    assert {"select", "sleep", "from"} <= keys


def test_index_keys_operators_and_comments():
    keys = fragment_index_keys("a = b /* c */ -- d # e;")
    assert {"=", "/*", "--", "#", ";"} <= keys


def test_index_keys_orphan_quote_fragment():
    # The regression that motivated lexical indexing: fragments that begin
    # with a closing quote must still index their keywords.
    keys = fragment_index_keys("' ORDER BY hits DESC")
    assert {"order", "by", "desc"} <= keys


def test_index_keys_include_plain_words():
    # Identifier words are indexed too: strict-mode coverage needs them.
    assert fragment_index_keys("hello world") == {"hello", "world"}


def test_candidates_for_is_recall_complete():
    fragments = ["' ORDER BY x DESC", " UNION ", "plain text", "a = b"]
    store = FragmentStore(fragments)
    assert "' ORDER BY x DESC" in store.candidates_for("DESC")
    assert " UNION " in store.candidates_for("union")
    assert "a = b" in store.candidates_for("=")
    assert store.candidates_for("sleep") == []


def test_token_index_key_for_comments():
    q = "SELECT 1 -- tail text"
    comment = [t for t in critical_tokens(q) if t.text.startswith("--")][0]
    assert token_index_key(comment) == "--"
    q = "SELECT 1 /* x */"
    comment = [t for t in critical_tokens(q) if t.text.startswith("/*")][0]
    assert token_index_key(comment) == "/*"


def test_token_index_key_lowercases():
    token = critical_tokens("UNION")[0]
    assert token_index_key(token) == "union"


def test_stats():
    store = FragmentStore(["SELECT ", " OR ", "plain"])
    stats = store.stats()
    assert stats["fragments"] == 3
    assert stats["total_characters"] == len("SELECT ") + len(" OR ") + len("plain")
    assert stats["indexed_tokens"] >= 2


def test_incremental_add_updates_index():
    store = FragmentStore()
    assert store.candidates_for("union") == []
    store = FragmentStore([*store, " UNION ALL "])
    assert store.candidates_for("union") == [" UNION ALL "]
    assert store.candidates_for("all") == [" UNION ALL "]
    # A successor adding fragments that share keys: each bucket lists its
    # fragments in insertion order, exactly as a per-fragment scan would.
    store = FragmentStore(
        [*store, "SELECT a FROM t", " UNION ALL SELECT ", "SELECT b FROM t", " ALL "]
    )
    assert store.candidates_for("union") == [" UNION ALL ", " UNION ALL SELECT "]
    for key in {k for f in store for k in fragment_index_keys(f)}:
        expected = [f for f in store if key in fragment_index_keys(f)]
        assert store.candidates_for(key) == expected


# ---------------------------------------------------------------------------
# Epochs: one per store (dependent caches key their validity on it)
# ---------------------------------------------------------------------------


def test_epoch_bumps_on_add_remove_reload():
    # A vocabulary change is a new store; each one carries a newer epoch.
    store = FragmentStore(["a SELECT"])
    added = FragmentStore([*store, "b SELECT"])
    removed = FragmentStore(f for f in added if f != "b SELECT")
    reloaded = FragmentStore(["c SELECT"])
    assert store.epoch < added.epoch < removed.epoch < reloaded.epoch
    assert reloaded.fragments == ("c SELECT",)


def test_remove_rebuilds_index_and_snapshot():
    store = FragmentStore([" UNION ALL ", " OR "])
    before = store.fragments
    removed = FragmentStore(f for f in store if f != " UNION ALL ")
    assert removed.candidates_for("union") == []
    assert removed.candidates_for("all") == []
    assert " UNION ALL " not in removed
    assert removed.fragments == (" OR ",)
    assert store.fragments is before  # the old store is untouched
    assert store.candidates_for("union") == [" UNION ALL "]


def test_reload_drops_duplicates_and_empties():
    store = FragmentStore(["x SELECT", "", "x SELECT", "y"])
    assert store.fragments == ("x SELECT", "y")
    assert store.candidates_for("select") == ["x SELECT"]
