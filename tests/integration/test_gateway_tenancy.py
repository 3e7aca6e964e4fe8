"""Integration suite for the multi-tenant gateway (DESIGN.md section 13).

End-to-end over real sockets and real worker processes:

1. **Per-tenant parity** -- each tenant's verdicts through the gateway are
   byte-identical (canonical verdict JSON) to a dedicated single-tenant
   engine built over ``base + that tenant's overlay``.
2. **Tenant routing isolation** -- a query only a tenant's own overlay can
   cover is blocked for that tenant and *not* covered for a sibling (no
   cross-tenant fragment leak), and an unregistered tenant id gets
   fail-closed verdicts, never another tenant's vocabulary.
3. **Warm snapshot handoff** -- ``reload_tenant`` pushes the new overlay
   to every live worker in place (no worker restart: same PIDs before and
   after), new verdicts reflect the new vocabulary, and the other
   tenant's verdicts are untouched.
"""

import os

from repro.core import JozaEngine
from repro.phpapp.context import CapturedInput, RequestContext
from repro.service import (
    AsyncGateway,
    GatewayClient,
    GatewayConfig,
    GatewayThread,
)
from repro.service.codec import encode_verdict, verdict_to_dict
from repro.service.worker import REASON_UNKNOWN_TENANT
from tests.support.concurrency import SWARM_FRAGMENTS

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "1337"))

ALPHA_OVERLAY = [
    "SELECT slot FROM alpha_widgets WHERE slot_id=",
    "SELECT meta FROM alpha_meta WHERE post_id=",
]
BETA_OVERLAY = [
    "SELECT tag FROM beta_tags WHERE tag_name='",
]

#: (query, input values, is_attack) -- the Table IV families driven per
#: tenant, plus one overlay-specific probe each.
SHARED_MATRIX = [
    ("SELECT * FROM records WHERE ID=7 LIMIT 5", ["7"], False),
    (
        "SELECT name FROM users WHERE id=1 OR 1=1 LIMIT 1",
        ["1 OR 1=1"],
        True,
    ),
    (
        "SELECT * FROM records WHERE ID=7 UNION SELECT user_pass FROM users"
        " LIMIT 5",
        ["7 UNION SELECT user_pass FROM users"],
        True,
    ),
    (
        "SELECT name FROM users WHERE id=2; DROP TABLE records-- LIMIT 1",
        ["2; DROP TABLE records--"],
        True,
    ),
]

#: Benign query only alpha's overlay can cover: safe for alpha, blocked
#: for any tenant whose vocabulary lacks the fragment.
ALPHA_ONLY_PROBE = ("SELECT slot FROM alpha_widgets WHERE slot_id=7", ["7"])


def make_tenant_gateway(tmp_path, **overrides):
    kwargs = dict(
        unix_path=str(tmp_path / "gw.sock"),
        host=None,
        workers=2,
        seed=CHAOS_SEED,
        max_deadline=5.0,
        tenants={
            "alpha": list(ALPHA_OVERLAY),
            "beta": list(BETA_OVERLAY),
        },
    )
    kwargs.update(overrides)
    return AsyncGateway(SWARM_FRAGMENTS, gateway=GatewayConfig(**kwargs))


def matrix_inputs(values):
    return [("get", f"p{i}", v) for i, v in enumerate(values)]


def dedicated_engine(overlay):
    return JozaEngine.from_fragments(list(SWARM_FRAGMENTS) + list(overlay))


def test_per_tenant_verdicts_byte_identical_to_dedicated_engine(tmp_path):
    gateway = make_tenant_gateway(tmp_path)
    thread = GatewayThread(gateway).start()
    try:
        for tenant, overlay in (
            ("alpha", ALPHA_OVERLAY),
            ("beta", BETA_OVERLAY),
        ):
            client = GatewayClient(
                unix_path=gateway.gw.unix_path, client_id=tenant
            )
            engine = dedicated_engine(overlay)
            try:
                for query, values, is_attack in SHARED_MATRIX:
                    inputs = matrix_inputs(values)
                    via_gateway = client.inspect(
                        [query], inputs=inputs, budget=5.0
                    )[0]
                    context = RequestContext(
                        inputs=[CapturedInput(s, n, v) for s, n, v in inputs]
                    )
                    direct = verdict_to_dict(
                        engine.inspect_batch([query], context)[0]
                    )
                    assert encode_verdict(via_gateway) == encode_verdict(
                        direct
                    ), f"tenant {tenant} parity broken for {query!r}"
                    assert via_gateway["safe"] is (not is_attack)
            finally:
                client.close()
    finally:
        assert thread.stop()


def test_tenant_overlay_isolation_and_unknown_tenant_fail_closed(tmp_path):
    gateway = make_tenant_gateway(tmp_path)
    thread = GatewayThread(gateway).start()
    try:
        query, values = ALPHA_ONLY_PROBE
        inputs = matrix_inputs(values)

        def verdict_for(tenant):
            client = GatewayClient(
                unix_path=gateway.gw.unix_path, client_id=tenant
            )
            try:
                return client.inspect([query], inputs=inputs, budget=5.0)[0]
            finally:
                client.close()

        # Only alpha's overlay covers this benign query: alpha passes it,
        # beta blocks it.  If beta's engine could see alpha's fragments
        # (a cross-tenant leak) it would pass too.
        alpha, beta = verdict_for("alpha"), verdict_for("beta")
        assert alpha["safe"]
        assert not beta["safe"]
        assert not beta["failsafe"]  # a real verdict, not a routing refusal
        ghost = verdict_for("ghost")
        assert not ghost["safe"]
        assert ghost["failsafe"]
        assert any(
            REASON_UNKNOWN_TENANT in reason
            for reason in ghost["failure_reasons"]
        )
        assert "tenant: ghost" in ghost["failure_reasons"]
    finally:
        assert thread.stop()


def test_reload_tenant_is_warm_and_isolated(tmp_path):
    gateway = make_tenant_gateway(tmp_path)
    thread = GatewayThread(gateway).start()
    try:
        pids_before = sorted(gateway.worker_pids())
        new_overlay = ["SELECT v2 FROM alpha_widgets_v2 WHERE slot_id="]
        result = thread.run_coro(gateway.reload_tenant("alpha", new_overlay))
        assert not result["failures"]
        assert len(result["epochs"]) == len(pids_before)
        # Warm handoff: the same worker processes keep serving.
        assert sorted(gateway.worker_pids()) == pids_before

        client = GatewayClient(
            unix_path=gateway.gw.unix_path, client_id="alpha"
        )
        try:
            query = "SELECT v2 FROM alpha_widgets_v2 WHERE slot_id=1 OR 1=1"
            verdict = client.inspect(
                [query], inputs=matrix_inputs(["1 OR 1=1"]), budget=5.0
            )[0]
        finally:
            client.close()
        engine = dedicated_engine(new_overlay)
        context = RequestContext(
            inputs=[CapturedInput("get", "p0", "1 OR 1=1")]
        )
        direct = verdict_to_dict(engine.inspect_batch([query], context)[0])
        assert encode_verdict(verdict) == encode_verdict(direct)
        assert not verdict["safe"]

        # Beta rides through the storm untouched.
        client = GatewayClient(
            unix_path=gateway.gw.unix_path, client_id="beta"
        )
        try:
            benign = client.inspect(
                ["SELECT * FROM records WHERE ID=7 LIMIT 5"],
                inputs=matrix_inputs(["7"]),
                budget=5.0,
            )[0]
        finally:
            client.close()
        assert benign["safe"]

        report = gateway.resilience_report()
        assert report["gateway"]["snapshot_pushes"] == len(pids_before)
        assert report["gateway"]["tenancy"] == {
            "tenants": 2,
            "base_fragments": len(gateway.fragments),
        }
        worker_report = report["workers"][0]["engine"]
        assert worker_report["tenancy"]["handoff_swaps"] == 1
        assert worker_report["tenancy"]["tenants"] == 2
    finally:
        assert thread.stop()


def test_one_config_serves_two_gateways_in_turn(tmp_path):
    """A gateway works on its own copy of the overlays: a reload on the
    first gateway leaves the caller's config, and so a second gateway
    built from it, on the configured overlays."""
    tenants = {"alpha": list(ALPHA_OVERLAY), "beta": list(BETA_OVERLAY)}
    config = GatewayConfig(
        unix_path=str(tmp_path / "gw.sock"),
        host=None,
        workers=1,
        max_deadline=5.0,
        tenants={t: list(overlay) for t, overlay in tenants.items()},
    )
    query, values = ALPHA_ONLY_PROBE

    def alpha_verdict(gateway):
        client = GatewayClient(
            unix_path=gateway.gw.unix_path, client_id="alpha"
        )
        try:
            return client.inspect(
                [query], inputs=matrix_inputs(values), budget=5.0
            )[0]
        finally:
            client.close()

    first = AsyncGateway(SWARM_FRAGMENTS, gateway=config)
    thread = GatewayThread(first).start()
    try:
        assert alpha_verdict(first)["safe"]
        reloaded = ["SELECT v2 FROM alpha_widgets_v2 WHERE slot_id="]
        result = thread.run_coro(first.reload_tenant("alpha", reloaded))
        assert not result["failures"]
        assert not alpha_verdict(first)["safe"]  # the probe lost its fragment
    finally:
        assert thread.stop()
    assert config.tenants == tenants

    second = AsyncGateway(SWARM_FRAGMENTS, gateway=config)
    thread = GatewayThread(second).start()
    try:
        assert alpha_verdict(second)["safe"]  # the configured overlay
    finally:
        assert thread.stop()
