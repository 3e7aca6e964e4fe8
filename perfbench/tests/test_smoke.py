"""Smoke tests of the benchmark itself (tiny workloads, seconds each).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import config, drive, gen, trace
from perfbench.oracle import FailOpen, Oracle
from perfbench.run import END_TO_END

ROOT = config.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_benchmark_json_matches_the_code():
    with open(config.BENCHMARK_JSON, encoding="utf-8") as handle:
        bench = json.load(handle)
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    workloads = [w["name"] for w in bench["workloads"]]
    assert set(workloads) <= set(config.WORKLOADS)
    # The in-process layers are judged on these two; the gateway's layers
    # are measured by gateway_tenants runs.
    assert {"wp_mix", "cold_wpcom"} <= set(workloads)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(trace.PER_LAYER)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for workload in bench["workloads"]:
        why = workload["why"]
        assert len(why) <= 200 and "\n" not in why
        loop = config.OPEN_LOOP[workload["name"]]
        # The open-loop rate and latency limit are stated where readers look.
        assert f"Open loop {loop['rate']:g} req/s" in why
        assert f"limit {loop['limit_us'] / 1000:g} ms" in why


@pytest.mark.parametrize("traced", [0, 1])
@pytest.mark.parametrize("workload", config.WORKLOADS)
def test_each_workload_prints_every_metric(workload, traced):
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1.5",
        "--trace", str(traced), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    if not traced:
        expected = dict(END_TO_END)
    elif workload == "gateway_tenants":
        expected = dict(trace.PER_LAYER + trace.GATEWAY_LAYER)
    else:
        expected = dict(trace.PER_LAYER)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    human = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert re.search(rf"^  {re.escape(name)} .* {re.escape(unit)}$", human, re.M), name
    assert re.search(r"^cpu_count \d+", human, re.M)
    if traced:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        # Rows a workload does not emit (the gateway's, in process) are zero.
        rows = sum(metrics.get(row, 0.0) for row in trace.SELF_ROWS)
        assert rows == pytest.approx(metrics["harness.traced_request_us"], rel=1e-9)
        assert "trace overhead" in human
    else:
        assert re.search(r"^verdict_digest [0-9a-f]{64}$", human, re.M)
        assert all(v["value"] > 0 for v in result["metrics"].values())


class _PassesOneAttack(drive.InProcessGuard):
    """A stub guard: the real engine, except the first attack query passes."""

    passed = None

    def vet(self, request, conn=0):
        verdicts = super().vet(request, conn)
        if self.passed is None and request.is_attack:
            index = request.attack.index(True)
            self.passed = request.queries[index]
            verdicts[index] = {"safe": True, "failsafe": False, "degraded": False}
        return verdicts


def test_a_stub_guard_that_passes_one_attack_is_caught():
    workload = gen.cold_wpcom(5, "tiny")
    guard, __, __ = drive.setup_in_process(workload, 1)
    stub = _PassesOneAttack(guard.engine)
    with pytest.raises(FailOpen) as caught:
        drive.verification_pass(stub, workload, Oracle())
    assert stub.passed is not None
    assert caught.value.query == stub.passed


def test_a_fail_open_aborts_the_run_without_a_result(monkeypatch, capsys):
    from perfbench import run

    monkeypatch.setattr(drive, "InProcessGuard", _PassesOneAttack)
    code = run.main(
        ["--workload", "cold_wpcom", "--seed", "5", "--seconds", "1", "--size", "tiny"]
    )
    out, err = capsys.readouterr()
    assert code == 3
    assert "fail-open" in err
    assert not out.strip().splitlines()[-1].startswith("{")


def test_same_seed_same_verdict_digest():
    digests = set()
    for __ in range(2):
        workload = gen.wp_mix(9, "tiny")
        guard, __, __ = drive.setup_in_process(workload, 1)
        digests.add(drive.verification_pass(guard, workload, Oracle()))
    assert len(digests) == 1


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(config.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_bench(
        "--workload", "wp_mix", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
