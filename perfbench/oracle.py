"""Verdict oracle: judge every verdict against the generator's labels.

A fail-open (an attack answered safe) is never counted: it aborts the run
with the offending query.  Everything else that is not a clean verdict --
a transport error, a failsafe or degraded verdict, a blocked benign query
-- fails its request and is counted against the requests attempted.
"""

from __future__ import annotations

import hashlib


class FailOpen(Exception):
    """An attack query was answered safe."""

    def __init__(self, query: str, tenant: str = "") -> None:
        where = f" (tenant {tenant})" if tenant else ""
        super().__init__(f"fail-open{where}: attack answered safe: {query!r}")
        self.query = query


def outcome(verdict) -> tuple[bool, bool]:
    """(safe, refused) of an engine verdict or a gateway verdict dict.

    ``refused`` = the verdict is failsafe or degraded: analysis did not run
    in full, so the request fails even when the answer happens to be right.
    """
    if isinstance(verdict, dict):
        return verdict["safe"], verdict["failsafe"] or verdict["degraded"]
    return verdict.safe, verdict.failsafe or verdict.degraded


def detected(verdict) -> str:
    """Which techniques flagged the query, as a stable string."""
    if isinstance(verdict, dict):
        flagged = [
            result["technique"]
            for result in (verdict["pti"], verdict["nti"])
            if result is not None and not result["safe"]
        ]
    else:
        flagged = [t.value for t in verdict.detected_by()]
    return "+".join(sorted(flagged))


class Oracle:
    """Counts attempted and failed requests; raises on any fail-open."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.transport_errors = 0
        self.refused = 0
        self.false_positives = 0
        self.attacks_blocked = 0

    def judge(self, request, verdicts) -> bool:
        """Check one request's verdicts; True when the request failed.

        ``verdicts`` is ``None`` when no verdict could be obtained at all
        (a transport error): the request fails, which is also what the
        application must do with it.
        """
        self.attempted += 1
        if verdicts is None:
            self.transport_errors += 1
            self.failed += 1
            return True
        failed = False
        for query, attack, verdict in zip(request.queries, request.attack, verdicts):
            safe, refused = outcome(verdict)
            if attack:
                if safe:
                    raise FailOpen(query, request.tenant)
                self.attacks_blocked += 1
            elif not safe and not refused:
                self.false_positives += 1
                failed = True
            if refused:
                self.refused += 1
                failed = True
        if len(verdicts) != len(request.queries):
            failed = True
        if failed:
            self.failed += 1
        return failed

    @property
    def correct(self) -> bool:
        return self.false_positives == 0


class Digest:
    """SHA-256 over one ordered verdict stream (the verification pass)."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.items = 0

    def add(self, request, verdicts) -> None:
        for attack, verdict in zip(request.attack, verdicts):
            safe, refused = outcome(verdict)
            line = f"{self.items}:{int(attack)}:{int(safe)}:{int(refused)}:{detected(verdict)}\n"
            self._hash.update(line.encode())
            self.items += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
