"""Unit tests for the CLI (and fragment-store persistence it drives)."""

import io
import json

import pytest

from repro.cli import main
from repro.pti.fragments import FragmentStore

PHP = """<?php
$id = $_GET['id'];
$q = "SELECT id, name FROM things WHERE id = $id ORDER BY name";
?>
"""


@pytest.fixture
def php_dir(tmp_path):
    (tmp_path / "plugin.php").write_text(PHP)
    (tmp_path / "ignored.txt").write_text("'SELECT should not be scanned'")
    sub = tmp_path / "inc"
    sub.mkdir()
    (sub / "extra.php").write_text("<?php $x = ' OR '; ?>")
    return tmp_path


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_fragments_command_scans_recursively(php_dir):
    code, output = run(["fragments", str(php_dir)])
    assert code == 0
    assert "files scanned:    2" in output
    assert "' OR '" in output


def test_fragments_save_and_reload(php_dir, tmp_path):
    store_path = tmp_path / "store.json"
    code, __ = run(["fragments", str(php_dir), "--save", str(store_path)])
    assert code == 0
    store = FragmentStore.load(str(store_path))
    assert "SELECT id, name FROM things WHERE id = " in store
    assert " OR " in store


def test_fragments_no_sources(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, output = run(["fragments", str(empty)])
    assert code == 1


def test_inspect_safe_query(php_dir):
    code, output = run(
        [
            "inspect",
            "SELECT id, name FROM things WHERE id = 5 ORDER BY name",
            "--php", str(php_dir),
            "--input", "5",
        ]
    )
    assert code == 0
    assert "safe  : True" in output


def test_inspect_attack_query(php_dir):
    code, output = run(
        [
            "inspect",
            "SELECT id, name FROM things WHERE id = 0 OR 1=1 ORDER BY name",
            "--php", str(php_dir),
            "--input", "0 OR 1=1",
        ]
    )
    assert code == 2
    assert "ATTACK" in output
    assert "'OR'" in output


def test_inspect_with_saved_store(php_dir, tmp_path):
    store_path = tmp_path / "store.json"
    run(["fragments", str(php_dir), "--save", str(store_path)])
    code, output = run(
        [
            "inspect",
            "SELECT id, name FROM things WHERE id = 3 ORDER BY name",
            "--fragments-file", str(store_path),
        ]
    )
    assert code == 0


def test_inspect_strict_mode(php_dir):
    query = "SELECT id, name FROM things WHERE id = 5 ORDER BY name"
    code_pragmatic, __ = run(["inspect", query, "--php", str(php_dir), "--input", "name"])
    code_strict, __ = run(
        ["inspect", query, "--php", str(php_dir), "--input", "name", "--strict"]
    )
    assert code_pragmatic == 0
    assert code_strict == 2  # identifier supplied via input flagged


def test_crawl_command():
    code, output = run(["crawl", "--posts", "4", "--comments", "3", "--searches", "3"])
    assert code == 0
    assert "false positives: 0" in output


# -- store persistence details -------------------------------------------


def test_store_json_roundtrip_preserves_order_and_index():
    store = FragmentStore(["' ORDER BY x", " UNION ", "b"])
    restored = FragmentStore.from_json(store.to_json())
    assert restored.fragments == store.fragments
    assert restored.candidates_for("union") == [" UNION "]
    assert restored.candidates_for("order") == ["' ORDER BY x"]


def test_store_json_version_check():
    with pytest.raises(ValueError):
        FragmentStore.from_json(json.dumps({"version": 99, "fragments": []}))


@pytest.mark.parametrize(
    "text",
    [
        '{"version": 1, "fragments": "SELECT"}',
        '{"version": 1, "fragments": ["SELECT ", 7]}',
        '{"version": 1}',
        '["SELECT "]',
        "null",
        "SELECT * FROM t WHERE id=",
    ],
)
def test_store_json_refuses_malformed_documents(text):
    with pytest.raises(ValueError):
        FragmentStore.from_json(text)


@pytest.fixture
def bad_files(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("SELECT * FROM t WHERE id=\n LIMIT 5\n")
    string = tmp_path / "string.json"
    string.write_text(json.dumps({"version": 1, "fragments": "SELECT"}))
    braces = tmp_path / "braces.json"
    braces.write_text("{bad")
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps(["SELECT "]))
    return {
        "plain": (plain, "not JSON"),
        "string": (string, "must be a list of strings"),
        "missing": (tmp_path / "missing.json", "No such file or directory"),
        "unreadable": (plain / "plugin.php", "Not a directory"),
        "braces": (braces, "not JSON"),
        "listed": (listed, "expected a non-empty JSON object"),
    }


#: Each loader's argv for a file ``path``, and the file kind it names.
LOADERS = {
    "inspect": (["inspect", "SELECT 1", "--fragments-file"], "fragments file"),
    "serve": (["serve", "--unix", "{sock}", "--selfcheck", "--fragments-file"],
              "fragments file"),
    "inspect-php": (["inspect", "SELECT 1", "--php"], "PHP source"),
    "serve-php": (["serve", "--unix", "{sock}", "--selfcheck", "--php"],
                  "PHP source"),
    "fragments": (["fragments"], "PHP source"),
    "serve-tenants": (["serve", "--unix", "{sock}", "--selfcheck", "--tenants"],
                      "tenants file"),
}
UNLOADABLE = [
    (command, kind)
    for command in ("inspect", "serve")
    for kind in ("missing", "plain", "string")
] + [
    ("inspect-php", "missing"),
    ("inspect-php", "unreadable"),
    ("serve-php", "missing"),
    ("fragments", "missing"),
    ("serve-tenants", "missing"),
    ("serve-tenants", "braces"),
    ("serve-tenants", "listed"),
]


@pytest.mark.parametrize(
    "command,kind", UNLOADABLE, ids=[f"{c}-{k}" for c, k in UNLOADABLE]
)
def test_unloadable_fragments_file_exits_1_with_one_line(
    bad_files, command, kind, tmp_path, capsys
):
    path, reason = bad_files[kind]
    prefix, what = LOADERS[command]
    sock = str(tmp_path / "gw.sock")
    argv = [arg.format(sock=sock) for arg in prefix] + [str(path)]
    code, output = run(argv)
    assert code == 1
    assert output == ""
    err = capsys.readouterr().err
    assert err.startswith(f"repro: cannot load {what} {path}: ")
    assert reason in err
    assert err.count("\n") == 1 and "Traceback" not in err


# -- serve subcommand ----------------------------------------------------


def test_serve_requires_a_listen_flag():
    with pytest.raises(SystemExit) as exc:
        run(["serve"])
    assert exc.value.code == 2


def test_serve_rejects_unix_and_host_together(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(
            [
                "serve",
                "--unix",
                str(tmp_path / "gw.sock"),
                "--host",
                "127.0.0.1",
            ]
        )
    assert exc.value.code == 2


def test_serve_selfcheck_over_unix_socket(tmp_path):
    code, output = run(
        [
            "serve",
            "--unix",
            str(tmp_path / "gw.sock"),
            "--workers",
            "1",
            "--seed",
            "1337",
            "--selfcheck",
        ]
    )
    assert code == 0, output
    assert "benign via gateway: safe=True" in output
    assert "attack via gateway: safe=False" in output
    assert "parity with direct engine: True" in output
    assert "selfcheck passed" in output


def test_serve_selfcheck_over_tcp_ephemeral_port(tmp_path):
    code, output = run(
        [
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--workers",
            "1",
            "--seed",
            "1337",
            "--selfcheck",
        ]
    )
    assert code == 0, output
    assert "selfcheck passed" in output


def test_serve_selfcheck_with_php_fragments_stays_fail_closed(php_dir):
    # Custom fragments do not cover the selfcheck vocabulary, so the
    # benign query resolves unsafe -- but parity must hold and the
    # attack must never come back safe.
    code, output = run(
        [
            "serve",
            "--host",
            "127.0.0.1",
            "--workers",
            "1",
            "--php",
            str(php_dir),
            "--selfcheck",
        ]
    )
    assert code == 0, output
    assert "attack via gateway: safe=False" in output
    assert "parity with direct engine: True" in output
