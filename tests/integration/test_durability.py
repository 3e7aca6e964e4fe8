"""Integration proof of crash-safe durable state across the stack.

The restart-equivalence and never-fail-open contracts (DESIGN.md section
15), exercised at every layer boundary:

- **Gateway**: a gateway with ``--state-dir`` killed crash-shaped
  (``stop(drain=False)``) and restarted produces byte-identical verdicts
  and still holds the journaled attack evidence, journaling only the
  unsafe verdicts it relays; a corrupted state dir makes ``start()``
  refuse with :class:`JournalCorrupt` instead of serving a wrong
  vocabulary.
- **Tenancy**: a tenant-mode gateway restarted after a crash-shaped stop
  serves each tenant's reloaded overlay, hostile tenant ids included,
  from the same two files.
- **Gateway audit ring**: the gateway's audit ring journals through its
  sink, so evicted ring entries are recovered drops, not lost evidence.
- **Real SIGKILL**: the :mod:`tests.support.crashfaults` subprocess
  harness kills an actual child mid-append / mid-rename and recovery
  restores an exact oracle prefix.
- **CLI**: ``serve --selfcheck --state-dir`` runs the kill/restore leg
  end to end.

Schedules are seeded (CHAOS_SEED env, default 1337) so failures replay.
"""

import io
import os
import random

import pytest

from repro.cli import main
from repro.persist import DurableState, FsyncPolicy, JournalCorrupt, recover
from repro.service import AsyncGateway, GatewayClient, GatewayConfig, GatewayThread
from repro.service import gateway as gateway_module
from repro.service.codec import encode_verdict
from tests.support.concurrency import SWARM_FRAGMENTS
from tests.support.crashfaults import (
    StoreOracle,
    apply_op,
    flip_byte,
    generate_ops,
    run_to_sigkill,
)

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "1337"))

ATTACK = "SELECT name FROM users WHERE id=1 OR 1=1 LIMIT 1"
BENIGN = "SELECT * FROM records WHERE ID=7 LIMIT 5"
MATRIX = [
    (BENIGN, [("get", "p0", "7")]),
    (ATTACK, [("get", "p0", "1 OR 1=1")]),
    (
        "SELECT * FROM records WHERE ID=7 UNION SELECT user_pass FROM users LIMIT 5",
        [("get", "p0", "7 UNION SELECT user_pass FROM users")],
    ),
]


def make_gateway(tmp_path, **overrides):
    kwargs = dict(
        unix_path=str(tmp_path / "gw.sock"),
        host=None,
        workers=1,
        seed=CHAOS_SEED,
        max_deadline=5.0,
        state_dir=str(tmp_path / "state"),
    )
    kwargs.update(overrides)
    return AsyncGateway(SWARM_FRAGMENTS, gateway=GatewayConfig(**kwargs))


def ask_matrix(gateway):
    client = GatewayClient(unix_path=gateway.gw.unix_path, client_id="dur")
    try:
        return [
            client.inspect([query], inputs=inputs, budget=5.0)[0]
            for query, inputs in MATRIX
        ]
    finally:
        client.close()


# ----------------------------------------------------------------------
# Gateway restart equivalence
# ----------------------------------------------------------------------


def test_gateway_crash_restart_byte_identical_and_audit_survives(tmp_path):
    gateway = make_gateway(tmp_path)
    thread = GatewayThread(gateway).start()
    try:
        before = ask_matrix(gateway)
    finally:
        thread.stop(drain=False)  # crash-shaped: no final checkpoint

    restarted = make_gateway(tmp_path)
    thread = GatewayThread(restarted).start()
    try:
        after = ask_matrix(restarted)
    finally:
        assert thread.stop()

    assert [encode_verdict(d) for d in after] == [
        encode_verdict(d) for d in before
    ]
    # The unsafe verdicts were journaled at the gateway before the crash
    # and recovered on restart -- attack evidence survives the kill.
    recovered = restarted.durable.recovered
    assert recovered.source in ("checkpoint+journal", "journal")
    attacks = [e for e in recovered.audit if e.get("verdict", {}).get("safe") is False]
    assert len(attacks) >= 2
    assert {e["client_id"] for e in attacks} == {"dur"}
    report = restarted.resilience_report()["gateway"]["durability"]
    assert report["recovery"]["source"] == recovered.source
    assert report["corruption_refusals"] == 0


def test_gateway_persisted_state_wins_over_config_seed(tmp_path):
    gateway = make_gateway(tmp_path)
    thread = GatewayThread(gateway).start()
    thread.stop()  # graceful: drains into a final checkpoint
    assert gateway.durable.recovered.source == "fresh"

    wrong_seed = AsyncGateway(
        ["WRONG VOCAB ONLY "],
        gateway=GatewayConfig(
            unix_path=str(tmp_path / "gw2.sock"),
            host=None,
            workers=1,
            seed=CHAOS_SEED,
            state_dir=str(tmp_path / "state"),
        ),
    )
    thread = GatewayThread(wrong_seed).start()
    try:
        verdicts = ask_matrix(wrong_seed)
    finally:
        assert thread.stop()
    assert wrong_seed.durable.recovered.source == "checkpoint"
    assert sorted(wrong_seed.fragments) == sorted(SWARM_FRAGMENTS)
    assert verdicts[0]["safe"] is True and verdicts[1]["safe"] is False


def test_gateway_refuses_to_start_on_corrupt_state(tmp_path):
    gateway = make_gateway(tmp_path)
    thread = GatewayThread(gateway).start()
    try:
        ask_matrix(gateway)
    finally:
        thread.stop(drain=False)

    journal = tmp_path / "state" / "journal.jz"
    assert journal.stat().st_size > 8
    flip_byte(str(journal), 20)

    poisoned = make_gateway(tmp_path, unix_path=str(tmp_path / "gw3.sock"))
    # GatewayThread surfaces startup failures wrapped in RuntimeError;
    # the cause must be the typed refusal, not a generic crash.
    with pytest.raises(RuntimeError) as exc:
        GatewayThread(poisoned).start()
    assert isinstance(exc.value.__cause__, JournalCorrupt)
    # Fail-closed: the gateway refused to serve rather than vet queries
    # against a silently wrong vocabulary.
    assert poisoned.corruption_refusals == 1


def test_gateway_journals_unsafe_verdicts_without_decoding_safe_ones(
    tmp_path, monkeypatch
):
    decoded = []
    real_decode = gateway_module.decode_verdict

    def counting_decode(payload):
        decoded.append(payload)
        return real_decode(payload)

    monkeypatch.setattr(gateway_module, "decode_verdict", counting_decode)
    gateway = make_gateway(tmp_path)
    thread = GatewayThread(gateway).start()
    client = GatewayClient(unix_path=gateway.gw.unix_path, client_id="dur")
    try:
        benign = client.inspect(
            [BENIGN, BENIGN], inputs=[("get", "p0", "7")], budget=5.0
        )
        assert [v["safe"] for v in benign] == [True, True]
        assert decoded == []

        mixed = client.inspect(
            [BENIGN, ATTACK, BENIGN],
            inputs=[("get", "p0", "7"), ("get", "p1", "1 OR 1=1")],
            budget=5.0,
        )
        assert [v["safe"] for v in mixed] == [True, False, True]
        assert len(decoded) == 1
        journaled = [e["verdict"] for e in gateway.durable.audit_tail()]
        assert journaled == [v for v in mixed if not v["safe"]]
    finally:
        client.close()
        assert thread.stop()


# ----------------------------------------------------------------------
# Tenant overlays across a crash-shaped gateway restart
# ----------------------------------------------------------------------

HOSTILE_TENANT = "shop/../../etc"
TENANTS = {
    "blog": ["SELECT post FROM blog WHERE id="],
    HOSTILE_TENANT: ["SELECT sku FROM shop WHERE id="],
}
RELOADED_BLOG = TENANTS["blog"] + [
    "SELECT hits FROM blog_stats WHERE post_id="
]
#: Benign query only blog's reloaded overlay covers.
RELOAD_PROBE = "SELECT hits FROM blog_stats WHERE post_id=7"
SHOP_PROBE = "SELECT sku FROM shop WHERE id=7"


def ask_tenant(gateway, tenant_id, query):
    client = GatewayClient(unix_path=gateway.gw.unix_path, client_id=tenant_id)
    try:
        return client.inspect(
            [query], inputs=[("get", "p0", "7")], budget=5.0
        )[0]
    finally:
        client.close()


def test_gateway_tenant_overlays_survive_crash_restart(tmp_path):
    def tenant_gateway():
        # A fresh copy of the original config on every boot: the gateway
        # folds recovered overlays into its tenant map.
        return make_gateway(
            tmp_path,
            tenants={tenant_id: list(o) for tenant_id, o in TENANTS.items()},
        )

    gateway = tenant_gateway()
    thread = GatewayThread(gateway).start()
    try:
        assert ask_tenant(gateway, "blog", RELOAD_PROBE)["safe"] is False
        thread.run_coro(gateway.reload_tenant("blog", RELOADED_BLOG))
        assert ask_tenant(gateway, "blog", RELOAD_PROBE)["safe"] is True
    finally:
        thread.stop(drain=False)  # crash-shaped: no final checkpoint

    restarted = tenant_gateway()
    thread = GatewayThread(restarted).start()
    try:
        blog = ask_tenant(restarted, "blog", RELOAD_PROBE)
        shop = ask_tenant(restarted, HOSTILE_TENANT, SHOP_PROBE)
    finally:
        assert thread.stop()

    # The reloaded overlay wins over the config's original one.
    assert blog["safe"] is True
    # The hostile id round-trips as a tenant, not a path.
    assert shop["safe"] is True and not shop["failsafe"]
    recovered = restarted.durable.recovered
    assert recovered.source == "checkpoint+journal"
    # The hostile tenant was never reloaded: the journal holds it only
    # because the first boot journaled every configured tenant.
    assert recovered.overlays == {
        "blog": RELOADED_BLOG,
        HOSTILE_TENANT: TENANTS[HOSTILE_TENANT],
    }
    assert sorted(os.listdir(tmp_path / "state")) == [
        "checkpoint.jz",
        "journal.jz",
    ]


# ----------------------------------------------------------------------
# Gateway audit ring -> journal sink
# ----------------------------------------------------------------------


def test_gateway_audit_ring_evictions_are_recovered_not_dropped(tmp_path):
    gateway = make_gateway(tmp_path, audit_capacity=4)
    thread = GatewayThread(gateway).start()
    client = GatewayClient(unix_path=gateway.gw.unix_path, client_id="dur")
    try:
        for _ in range(10):
            # A spent budget sheds on arrival: one audited failsafe block
            # per request, recorded through the gateway's ring.
            [verdict] = client.inspect([BENIGN], budget=-1.0)
            assert verdict["failsafe"] is True
        gateway_report = gateway.resilience_report()["gateway"]
    finally:
        client.close()
        thread.stop(drain=False)  # crash-shaped: no final checkpoint

    assert gateway_report["expired_on_arrival"] == 10
    assert gateway_report["audit_dropped_records"] == 0
    durability = gateway_report["durability"]
    assert durability["audit_drops_recovered"] == 6
    assert durability["audit_sink_failures"] == 0
    assert durability["audit_persisted"] == 10
    assert len(gateway.audit) == 4

    restarted = make_gateway(tmp_path, audit_capacity=4)
    thread = GatewayThread(restarted).start()
    assert thread.stop()
    # Every evicted event is still in the journal.
    audit = restarted.durable.recovered.audit
    assert restarted.durable.recovered.source == "checkpoint+journal"
    assert len(audit) == 10
    assert {e["reason"] for e in audit} == {
        gateway_module.REASON_EXPIRED_ON_ARRIVAL
    }


# ----------------------------------------------------------------------
# Real SIGKILL through the subprocess harness
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "schedule",
    [
        {"crash_at_write": 9, "partial_fraction": 0.4},  # mid-append
        {"crash_at_write": 3, "partial_fraction": 0.0},  # torn header
        {"crash_at_rename": 2},  # mid-checkpoint publish
    ],
    ids=["mid-append", "torn-header", "mid-rename"],
)
def test_sigkill_child_recovers_to_exact_oracle_prefix(tmp_path, schedule):
    ops = generate_ops(random.Random(CHAOS_SEED), 24)
    state_dir = str(tmp_path / "state")
    killed = run_to_sigkill(state_dir, ops, **schedule)
    assert killed, "fault schedule never fired"
    recovered = recover(state_dir)
    prefixes = [
        k
        for k in range(len(ops) + 1)
        if StoreOracle().apply_all(ops[:k]).matches(recovered)
    ]
    assert prefixes, f"SIGKILL recovery matches no op prefix: {recovered!r}"


def test_sigkill_then_reopen_serves_and_keeps_compacting(tmp_path):
    ops = generate_ops(random.Random(CHAOS_SEED + 1), 24)
    state_dir = str(tmp_path / "state")
    assert run_to_sigkill(state_dir, ops, crash_at_write=14)
    # Reopening a crashed dir compacts it and journals new work normally.
    state = DurableState(state_dir, fsync=FsyncPolicy.NEVER)
    overlays = dict(state.overlays)
    audit = state.audit_tail()
    apply_op(state, ("overlay", "post-crash", ["POST-CRASH FRAGMENT "]))
    apply_op(state, ("audit", {"post": "crash"}))
    state.close()
    reopened = recover(state_dir)
    assert reopened.overlays == {
        **overlays, "post-crash": ["POST-CRASH FRAGMENT "]
    }
    assert reopened.audit == audit + [{"post": "crash"}]


# ----------------------------------------------------------------------
# CLI: serve --selfcheck --state-dir
# ----------------------------------------------------------------------


def test_cli_selfcheck_restart_leg_with_explicit_state_dir(tmp_path):
    out = io.StringIO()
    code = main(
        [
            "serve",
            "--unix",
            str(tmp_path / "gw.sock"),
            "--workers",
            "1",
            "--seed",
            str(CHAOS_SEED),
            "--state-dir",
            str(tmp_path / "state"),
            "--selfcheck",
        ],
        out=out,
    )
    output = out.getvalue()
    assert code == 0, output
    assert "restart: source=checkpoint+journal byte-identical=True" in output
    assert "audit_survived=True" in output
    assert "selfcheck passed" in output
