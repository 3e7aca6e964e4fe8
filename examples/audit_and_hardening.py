"""Operator tour: reconnaissance kill chain, audit export, hardening knobs.

Walks through the features past the paper's core evaluation:

1. a SQLMap-style reconnaissance chain (information_schema enumeration ->
   column discovery -> extraction) against the unprotected testbed;
2. the same chain under Joza, with the JSON audit log an operator would
   ship to their SIEM;
3. the strict (Ray/Ligatti-style) token policy and the false-positive cost
   the paper's Section II warns about;
4. prepared statements as the constructive fix.

Run:  python examples/audit_and_hardening.py
"""

import json

from repro.core import JozaConfig, JozaEngine, dict_to_verdict
from repro.phpapp import HttpRequest
from repro.phpapp.context import RequestContext
from repro.testbed import ADMIN_PASSWORD_HASH, build_testbed, make_request, plugin_by_name

RECON_STEPS = [
    ("enumerate tables",
     "-1 UNION SELECT 1, table_name, 3 FROM information_schema.tables"),
    ("discover columns",
     "-1 UNION SELECT 1, column_name, 3 FROM information_schema.columns"),
    ("extract the hash",
     "-1 UNION SELECT 1, user_pass, 3 FROM wp_users LIMIT 1"),
]


def main() -> None:
    defn = plugin_by_name("allowphp")

    print("=== 1. Reconnaissance chain, unprotected ===")
    app = build_testbed(num_posts=5)
    for label, payload in RECON_STEPS:
        body = app.handle(make_request(defn, payload)).body
        marker = (
            "wp_users" if "table" in label
            else "user_pass" if "column" in label
            else ADMIN_PASSWORD_HASH
        )
        print(f"  {label}: leaked={marker in body}")

    print("\n=== 2. Same chain under Joza, with audit export ===")
    app = build_testbed(num_posts=5)
    engine = JozaEngine.protect(app)
    for label, payload in RECON_STEPS:
        response = app.handle(make_request(defn, payload))
        print(f"  {label}: blocked={response.blocked}")
    audit = json.loads(engine.export_attack_log())
    # Each attack is one audit event; its verdict says which technique
    # flagged which token.
    first = dict_to_verdict(audit["attacks"][0]["verdict"])
    flagged = sorted(t.value for t in first.detected_by())
    print(f"  audit log: {audit['application_stats']['attacks_blocked']} attacks, "
          f"first flagged by {flagged}")

    print("\n=== 3. Strict token policy: the Section II trade-off ===")
    fragments = ["SELECT name, price FROM things ORDER BY ", "price", "name"]
    query = "SELECT name, price FROM things ORDER BY price"
    pragmatic = JozaEngine.from_fragments(fragments)
    strict = JozaEngine.from_fragments(fragments, JozaConfig(strict_tokens=True))
    from repro.phpapp.context import CapturedInput

    sort_request = RequestContext(inputs=[CapturedInput("get", "by", "price")])
    print(f"  user sorts by 'price' -> pragmatic safe="
          f"{pragmatic.inspect(query, sort_request).safe}, "
          f"strict safe={strict.inspect(query, sort_request).safe}  "
          f"(strict breaks search-by-column apps)")
    swap = "SELECT name, price FROM things ORDER BY secret_margin"
    swap_request = RequestContext(inputs=[CapturedInput("get", "by", "secret_margin")])
    print(f"  attacker sorts by 'secret_margin' -> pragmatic safe="
          f"{pragmatic.inspect(swap, swap_request).safe}, "
          f"strict safe={strict.inspect(swap, swap_request).safe}  "
          f"(strict catches column swapping)")

    print("\n=== 4. Prepared statements: the constructive fix ===")
    app = build_testbed(num_posts=5)
    JozaEngine.protect(app)
    # The template must exist in the application's source -- PTI vets it
    # like any other query.  Installing the (fixed) login plugin publishes
    # its template string; the fragment set refreshes automatically.
    from repro.phpapp import Plugin

    app.register_plugin(
        Plugin(
            name="login-fixed",
            source='<?php $q = "SELECT user_login FROM wp_users WHERE '
                   'user_login = ?"; ?>',
        )
    )
    app.wrapper.begin_request(RequestContext())
    hostile = "' OR '1'='1"
    result = app.wrapper.execute_prepared(
        "SELECT user_login FROM wp_users WHERE user_login = ?", [hostile]
    )
    print(f"  hostile parameter {hostile!r} bound safely -> {result.rowcount} rows")
    result = app.wrapper.execute_prepared(
        "SELECT user_login FROM wp_users WHERE user_login = ?", ["admin"]
    )
    print(f"  legitimate parameter 'admin' -> {result.rows[0][0]!r}")


if __name__ == "__main__":
    main()
