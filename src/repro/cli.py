"""Command-line interface: ``python -m repro <command>``.

Mirrors the workflows a Joza operator performs:

- ``fragments`` -- run the installer's extraction over PHP sources and
  optionally persist the fragment store (paper Section IV-A);
- ``inspect`` -- analyse one query against a fragment vocabulary with
  optional request inputs, printing per-technique verdicts and markings;
- ``evaluate`` -- run the WP-SQLI-LAB security evaluation and print the
  Table II / Section V-A headline numbers;
- ``crawl`` -- run the benign crawl false-positive study (Section V-B);
- ``serve`` -- run the guard as a network sidecar (asyncio gateway +
  worker fleet, DESIGN.md section 12) until SIGTERM drains it.
"""

from __future__ import annotations

import argparse
import os
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Joza hybrid taint inference (DSN 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fragments = sub.add_parser(
        "fragments", help="extract PTI fragments from PHP source files"
    )
    fragments.add_argument("paths", nargs="+", help=".php files or directories")
    fragments.add_argument("--save", metavar="FILE", help="persist the store as JSON")
    fragments.add_argument(
        "--show", type=int, default=10, metavar="N", help="print the first N fragments"
    )

    inspect = sub.add_parser("inspect", help="analyse one query")
    inspect.add_argument("query", help="the SQL query string")
    inspect.add_argument(
        "--input", action="append", default=[], metavar="VALUE",
        help="a raw request input value (repeatable; feeds NTI)",
    )
    source = inspect.add_mutually_exclusive_group()
    source.add_argument(
        "--fragments-file", metavar="FILE", help="JSON store from 'fragments --save'"
    )
    source.add_argument(
        "--php", nargs="+", metavar="PATH", help="PHP sources to extract fragments from"
    )
    inspect.add_argument(
        "--strict", action="store_true",
        help="Ray/Ligatti-style policy: identifiers are critical tokens",
    )
    inspect.add_argument(
        "--threshold", type=float, default=0.20, help="NTI difference-ratio threshold"
    )

    evaluate = sub.add_parser(
        "evaluate", help="run the WP-SQLI-LAB security evaluation"
    )
    evaluate.add_argument("--posts", type=int, default=8, help="testbed size")

    crawl = sub.add_parser("crawl", help="run the benign-crawl FP study")
    crawl.add_argument("--posts", type=int, default=10, help="testbed size")
    crawl.add_argument("--comments", type=int, default=10)
    crawl.add_argument("--searches", type=int, default=10)

    serve = sub.add_parser(
        "serve", help="run the guard gateway sidecar until SIGTERM"
    )
    listen = serve.add_mutually_exclusive_group(required=True)
    listen.add_argument(
        "--unix", metavar="PATH", help="unix socket path to listen on"
    )
    listen.add_argument(
        "--host", metavar="ADDR", help="TCP host to bind (use with --port)"
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = ephemeral, printed at startup)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="engine worker processes"
    )
    serve.add_argument(
        "--max-queue", type=int, default=16,
        help="requests allowed to wait beyond the worker count",
    )
    serve.add_argument(
        "--deadline", type=float, default=2.0, metavar="SECONDS",
        help="server-side clamp on client deadline budgets (0 = unbounded)",
    )
    serve.add_argument(
        "--admission-timeout", type=float, default=1.0, metavar="SECONDS",
        help="max wait for a free worker before shedding",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="grace for in-flight work after SIGTERM",
    )
    fragsource = serve.add_mutually_exclusive_group()
    fragsource.add_argument(
        "--fragments-file", metavar="FILE",
        help="JSON store from 'fragments --save'",
    )
    fragsource.add_argument(
        "--php", nargs="+", metavar="PATH",
        help="PHP sources to extract fragments from",
    )
    serve.add_argument(
        "--tenants", metavar="FILE",
        help="multi-tenant mode: JSON object mapping tenant-id -> overlay "
        "fragment list; the fragment source becomes the shared base "
        "vocabulary and the wire client_id routes to the tenant's engine",
    )
    serve.add_argument(
        "--seed", type=int, default=None,
        help="base RNG seed of the fleet (currently no effect)",
    )
    serve.add_argument(
        "--state-dir", metavar="DIR",
        help="durable state directory (WAL journal + checkpoints); the "
        "gateway restores vocabulary, tenant overlays and the attack "
        "audit trail from it before accepting, and refuses to start on "
        "corrupt state (DESIGN.md section 15)",
    )
    serve.add_argument(
        "--fsync", choices=["always", "batch", "never"], default="batch",
        help="journal fsync policy: per-append / group commit (default) / "
        "OS-buffered",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=512, metavar="N",
        help="journal records between compacting checkpoint snapshots",
    )
    serve.add_argument(
        "--selfcheck", action="store_true",
        help="start the gateway, round-trip one attack + one benign query "
        "against a direct in-process engine, then kill and restore from "
        "the state dir asserting byte-identical verdicts; exit nonzero "
        "on divergence",
    )
    return parser


def _iter_php_files(paths):
    for path in paths:
        if os.path.isdir(path):
            for root, __, files in os.walk(path):
                for name in sorted(files):
                    if name.endswith(".php"):
                        yield os.path.join(root, name)
        else:
            yield path


def _load_sources(paths) -> list[str]:
    sources = []
    for file_path in _iter_php_files(paths):
        with open(file_path, "r", encoding="utf-8", errors="replace") as handle:
            sources.append(handle.read())
    return sources


class _CliError(Exception):
    """A user error: ``main`` prints ``repro: <message>`` and returns 1."""


def _load_fragments_file(path: str):
    """The :class:`~repro.pti.fragments.FragmentStore` saved at ``path``."""
    from .pti.fragments import FragmentStore

    try:
        return FragmentStore.load(path)
    except (OSError, ValueError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise _CliError(f"cannot load fragments file {path}: {reason}") from None


def _cmd_fragments(args, out) -> int:
    from .pti.fragments import FragmentStore

    sources = _load_sources(args.paths)
    if not sources:
        print("no PHP sources found", file=out)
        return 1
    store = FragmentStore.from_sources(sources)
    stats = store.stats()
    print(f"files scanned:    {len(sources)}", file=out)
    print(f"fragments:        {stats['fragments']}", file=out)
    print(f"indexed tokens:   {stats['indexed_tokens']}", file=out)
    print(f"total characters: {stats['total_characters']}", file=out)
    for fragment in store.fragments[: args.show]:
        print(f"  {fragment!r}", file=out)
    if args.save:
        store.save(args.save)
        print(f"saved to {args.save}", file=out)
    return 0


def _cmd_inspect(args, out) -> int:
    from .core import JozaConfig, JozaEngine
    from .nti.inference import NTIConfig
    from .phpapp.context import CapturedInput, RequestContext
    from .pti.fragments import FragmentStore

    if args.fragments_file:
        store = _load_fragments_file(args.fragments_file)
    elif args.php:
        store = FragmentStore.from_sources(_load_sources(args.php))
    else:
        store = FragmentStore()
    config = JozaConfig(
        nti=NTIConfig(threshold=args.threshold), strict_tokens=args.strict
    )
    engine = JozaEngine(store, config)
    context = RequestContext(
        inputs=[CapturedInput("cli", f"input{i}", v) for i, v in enumerate(args.input)]
    )
    verdict = engine.inspect(args.query, context)
    print(f"query : {args.query}", file=out)
    print(f"safe  : {verdict.safe}", file=out)
    if verdict.pti is not None:
        print(f"PTI   : {'safe' if verdict.pti.safe else 'ATTACK'}", file=out)
    if verdict.nti is not None:
        print(f"NTI   : {'safe' if verdict.nti.safe else 'ATTACK'}", file=out)
    for detection in verdict.detections:
        print(
            f"  [{detection.technique.value}] token {detection.token_text!r} "
            f"at {detection.token_start}..{detection.token_end}: {detection.reason}",
            file=out,
        )
    return 0 if verdict.safe else 2


def _cmd_evaluate(args, out) -> int:
    from .testbed.evaluation import evaluate_corpus

    ev = evaluate_corpus(num_posts=args.posts)
    nti_hit, nti_total = ev.nti_baseline
    pti_hit, pti_total = ev.pti_baseline
    joza_hit, joza_total = ev.joza_detections
    print(f"original exploits functional: "
          f"{sum(r.original_works for r in ev.reports)}/{len(ev.reports)}", file=out)
    print(f"NTI baseline detection:       {nti_hit}/{nti_total}", file=out)
    print(f"PTI baseline detection:       {pti_hit}/{pti_total}", file=out)
    print(f"NTI-evasive mutants:          {ev.nti_evasions}/{len(ev.reports)}", file=out)
    print(f"Taintless PTI evasions:       {ev.taintless_successes}/{len(ev.reports)}", file=out)
    print(f"Joza detection:               {joza_hit}/{joza_total}", file=out)
    for scenario in ev.scenario_reports:
        print(
            f"  {scenario.name}: NTI orig={scenario.nti_original} "
            f"PTI orig={scenario.pti_original} Joza={scenario.joza}",
            file=out,
        )
    return 0


def _cmd_crawl(args, out) -> int:
    from .core import JozaEngine
    from .testbed import build_testbed, full_crawl

    app = build_testbed(num_posts=args.posts)
    JozaEngine.protect(app)
    report = full_crawl(
        app, num_posts=args.posts, comments=args.comments, searches=args.searches
    )
    print(f"requests:        {report.total_requests}", file=out)
    print(f"queries:         {report.total_queries}", file=out)
    print(f"false positives: {report.false_positives}", file=out)
    print(f"errors:          {report.error_requests}", file=out)
    return 0 if report.false_positives == 0 else 3


#: ``serve``'s vocabulary when no fragment source is given: a small
#: WordPress-like application, large enough (>= 16 fragments) that
#: ``matcher="auto"`` resolves to the Aho-Corasick engine.  The test
#: suites' swarm and gateway workloads run against it too.
SWARM_FRAGMENTS = [
    "SELECT * FROM records WHERE ID=",
    "SELECT name FROM users WHERE id=",
    "SELECT post_title FROM posts WHERE post_status='publish' AND ID=",
    "SELECT option_value FROM options WHERE option_name='",
    "UPDATE posts SET comment_count=comment_count+1 WHERE ID=",
    "INSERT INTO comments (post_id, content) VALUES (",
    "DELETE FROM sessions WHERE token='",
    " LIMIT 5",
    " LIMIT 1",
    " OR ",
    " = ",
    " AND approved=1",
    " ORDER BY created_at DESC",
    "', '",
    "')",
    "'",
    ")",
    " WHERE post_id=",
    "SELECT COUNT(*) FROM comments WHERE post_id=",
    "SELECT id FROM terms WHERE slug='",
]

#: Canonical selfcheck pair: one benign query the default vocabulary
#: covers, one classic UNION exfiltration that must be blocked.
_SELFCHECK_BENIGN = ("SELECT * FROM records WHERE ID=7 LIMIT 5", "7")
_SELFCHECK_ATTACK = (
    "SELECT * FROM records WHERE ID=7 UNION SELECT user_pass FROM users"
    " LIMIT 5",
    "7 UNION SELECT user_pass FROM users",
)


def _serve_fragments(args) -> list[str]:
    from .pti.fragments import FragmentStore

    if args.fragments_file:
        return list(_load_fragments_file(args.fragments_file).fragments)
    if args.php:
        return list(
            FragmentStore.from_sources(_load_sources(args.php)).fragments
        )
    return list(SWARM_FRAGMENTS)


def _serve_tenants(args) -> dict[str, list[str]] | None:
    """Parse the --tenants JSON file: tenant-id -> overlay fragments.

    Accepts either a flat ``{"tenant": ["frag", ...], ...}`` object or a
    wrapped ``{"tenants": {...}}`` document (the shape ``fragments
    --save`` users tend to hand-extend).  Fail-fast on anything else --
    a malformed tenant map must never silently start a single-tenant
    gateway.
    """
    if not args.tenants:
        return None
    import json

    with open(args.tenants, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if isinstance(document, dict) and isinstance(
        document.get("tenants"), dict
    ):
        document = document["tenants"]
    if not isinstance(document, dict) or not document:
        raise SystemExit(
            f"--tenants {args.tenants}: expected a non-empty JSON object "
            "mapping tenant-id -> fragment list"
        )
    tenants: dict[str, list[str]] = {}
    for tenant_id, overlay in document.items():
        if not isinstance(overlay, list) or not all(
            isinstance(fragment, str) for fragment in overlay
        ):
            raise SystemExit(
                f"--tenants {args.tenants}: tenant {tenant_id!r} must map "
                "to a list of fragment strings"
            )
        tenants[str(tenant_id)] = overlay
    return tenants


def _serve_gateway(args, out):
    from .core.policy import JozaConfig
    from .service import AsyncGateway, GatewayConfig

    if args.unix and os.path.exists(args.unix):
        os.unlink(args.unix)  # stale socket from an unclean predecessor
    gateway_config = GatewayConfig(
        unix_path=args.unix,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.max_queue,
        max_deadline=None if args.deadline <= 0 else args.deadline,
        admission_timeout=args.admission_timeout,
        drain_timeout=args.drain_timeout,
        seed=args.seed,
        tenants=_serve_tenants(args),
        state_dir=args.state_dir,
        fsync_policy=args.fsync,
        checkpoint_every=args.checkpoint_every,
    )
    return AsyncGateway(
        _serve_fragments(args),
        JozaConfig(),
        gateway_config,
        audit_sink=lambda document: print(document, file=out),
    )


def _selfcheck_round_trip(gateway, queries, inputs):
    """Start a gateway thread, inspect the selfcheck batch, return verdicts.

    The caller owns stopping the thread (drain vs kill semantics differ
    between the two selfcheck legs)."""
    from .service import GatewayClient, GatewayThread

    thread = GatewayThread(gateway).start()
    client = GatewayClient(
        unix_path=gateway.gw.unix_path,
        host=gateway.gw.host,
        port=gateway.gw.port,
        client_id="selfcheck",
    )
    try:
        return thread, client.inspect(queries, inputs=inputs, budget=None)
    finally:
        client.close()


def _serve_selfcheck(gateway, args, out) -> int:
    """Round-trip one benign + one attack query; nonzero on divergence.

    Two legs.  Leg one: verdicts through the live gateway must match a
    direct in-process ``inspect_batch`` over the same fragments and
    config, and the attack must come back unsafe (fail-open is the one
    unforgivable state).  Leg two (restart): the gateway is killed
    crash-shaped -- no drain, no final checkpoint -- and a fresh gateway
    restores from the state dir; its verdicts must be byte-identical to
    the pre-crash ones and the journaled attack evidence must survive.
    With no ``--state-dir``, a temporary directory hosts the restart leg
    so the durability path is always exercised.
    """
    import shutil
    import tempfile

    from .core import JozaEngine
    from .phpapp.context import CapturedInput, RequestContext
    from .service.codec import encode_verdict, verdict_to_dict

    benign_query, benign_value = _SELFCHECK_BENIGN
    attack_query, attack_value = _SELFCHECK_ATTACK
    queries = [benign_query, attack_query]
    inputs = [("get", "p0", benign_value), ("get", "p1", attack_value)]
    failures = []

    temp_dir = None
    if gateway.gw.state_dir is None:
        temp_dir = tempfile.mkdtemp(prefix="joza-selfcheck-")
        gateway.gw.state_dir = temp_dir

    # Leg 1: live gateway, then a crash-shaped kill (no final checkpoint,
    # so the restart leg exercises real journal replay).
    thread, via_gateway = _selfcheck_round_trip(gateway, queries, inputs)
    thread.stop(drain=False)

    # Leg 2: restore from the state dir and re-inspect.
    restarted = _serve_gateway(args, out)
    restarted.gw.state_dir = gateway.gw.state_dir
    try:
        thread2, after_restart = _selfcheck_round_trip(
            restarted, queries, inputs
        )
        drained = thread2.stop()
    finally:
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)

    engine = JozaEngine.from_fragments(restarted.fragments, restarted.config)
    context = RequestContext(
        inputs=[CapturedInput(s, n, v) for s, n, v in inputs]
    )
    direct = [
        verdict_to_dict(v) for v in engine.inspect_batch(queries, context)
    ]
    restart_parity = [encode_verdict(d) for d in after_restart] == [
        encode_verdict(d) for d in via_gateway
    ]
    if via_gateway != direct:
        failures.append("gateway verdicts diverge from in-process engine")
    if via_gateway[1]["safe"] or after_restart[1]["safe"]:
        failures.append("attack query came back safe through the gateway")
    if not restart_parity:
        failures.append(
            "restart: restored gateway verdicts diverge from pre-crash"
        )
    if restarted.fragments != gateway.fragments:
        failures.append("restart: vocabulary not restored from state dir")
    recovered = restarted.durable.recovered if restarted.durable else None
    if recovered is None or not recovered.audit:
        failures.append("restart: journaled attack evidence did not survive")
    if not drained:
        failures.append("gateway did not drain cleanly")
    print(f"benign via gateway: safe={via_gateway[0]['safe']}", file=out)
    print(f"attack via gateway: safe={via_gateway[1]['safe']}", file=out)
    print(f"parity with direct engine: {via_gateway == direct}", file=out)
    print(
        f"restart: source={recovered.source if recovered else 'none'} "
        f"byte-identical={restart_parity} "
        f"audit_survived={bool(recovered and recovered.audit)}",
        file=out,
    )
    print(f"drained: {drained}", file=out)
    if failures:
        for failure in failures:
            print(f"SELFCHECK FAILED: {failure}", file=out)
        return 1
    print("selfcheck passed", file=out)
    return 0


def _cmd_serve(args, out) -> int:
    import asyncio

    from .service import serve as serve_gateway

    gateway = _serve_gateway(args, out)
    if args.selfcheck:
        return _serve_selfcheck(gateway, args, out)

    def on_ready(gw) -> None:
        if gw.gw.unix_path is not None:
            print(f"listening on unix:{gw.gw.unix_path}", file=out)
        if gw.gw.host is not None:
            print(f"listening on {gw.gw.host}:{gw.gw.port}", file=out)
        print(
            f"workers={gw.gw.workers} max_queue={gw.gw.max_queue} "
            f"max_deadline={gw.gw.max_deadline}",
            file=out,
        )
        if gw.gw.tenants is not None:
            print(
                f"tenants={len(gw.gw.tenants)} over "
                f"{len(gw.fragments)} shared base fragments",
                file=out,
            )
        if gw.durable is not None:
            recovery = gw.durable.recovered
            print(
                f"durable state: {gw.gw.state_dir} "
                f"(fsync={gw.gw.fsync_policy}, "
                f"restored {len(gw.fragments)} fragments "
                f"from {recovery.source})",
                file=out,
            )
        print("", file=out, end="", flush=True)

    return asyncio.run(serve_gateway(gateway, on_ready=on_ready))


def main(argv=None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    handler = {
        "fragments": _cmd_fragments,
        "inspect": _cmd_inspect,
        "evaluate": _cmd_evaluate,
        "crawl": _cmd_crawl,
        "serve": _cmd_serve,
    }[args.command]
    try:
        return handler(args, out)
    except _CliError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
