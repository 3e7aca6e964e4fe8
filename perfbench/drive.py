"""Guards under test and the closed- and open-loop drivers.

Two guards share one interface, ``vet(request, conn) -> verdicts | None``:
the in-process engine (``JozaEngine.inspect``, one query at a time, as the
paper's DB wrapper calls it) and the gateway (``GatewayClient.inspect``,
one request's queries per frame, so workers use ``inspect_batch``).
"""

from __future__ import annotations

import array
import itertools
import math
import multiprocessing
import os
import queue
import shutil
import statistics
import threading
import time

from repro.core import JozaEngine
from repro.pti import FragmentStore
from repro.service import GatewayClient, GatewayConfig, GatewayError

from . import config, server
from .gen import tenant_overlay
from .oracle import Digest, Oracle

perf = time.perf_counter


def rss_mb(pids=()) -> float:
    """Resident memory of this process plus ``pids``, in MiB."""
    total_kb = 0
    for pid in ("self", *pids):
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU time of a live process (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list.

    The benchmark's own, not ``repro.bench.reporting``'s: a change to the
    program must not be able to change the measuring stick.
    """
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


def _windows(ordered, window: int) -> list:
    return [ordered[i : i + window] for i in range(0, len(ordered) - window + 1, window)]


def windowed_percentile(ordered, q: float, window: int = config.WINDOW) -> float:
    """Median over consecutive ``window``-sample windows of each one's percentile.

    ``ordered`` is in completion (or due) order.  A host stall or a slow
    spell of the virtual machine moves the windows it hits, not the median
    window, so a run's figure stops depending on whether the host happened
    to stall during it.  With fewer than three whole windows this is the
    plain percentile of all samples.
    """
    windows = _windows(ordered, window)
    if len(windows) < 3:
        return percentile(sorted(ordered), q)
    return statistics.median(percentile(sorted(w), q) for w in windows)


def windowed_rate(t_start: float, ends, window: int = config.WINDOW) -> float:
    """Median over ``window``-request windows of requests completed per second.

    ``ends`` are completion times in order; each window runs from the
    previous window's last completion (or ``t_start``) to its own last.
    """
    marks = [t_start] + [w[-1] for w in _windows(ends, window)]
    if len(marks) < 4:
        return len(ends) / (ends[-1] - t_start)
    return statistics.median(window / (b - a) for a, b in zip(marks, marks[1:]))


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------


class InProcessGuard:
    """``JozaEngine.inspect`` called once per query, in the caller's thread."""

    connections = 1

    def __init__(self, engine: JozaEngine) -> None:
        self.engine = engine
        self.reload_seconds: list[float] = []

    def vet(self, request, conn: int = 0):
        # Looked up per call so a traced run can wrap ``engine.inspect``.
        inspect = self.engine.inspect
        context = request.context
        return [inspect(query, context) for query in request.queries]

    def before(self, index: int, conn: int = 0) -> None:
        """Hook run before request ``index``; nothing to do in process."""

    def pids(self) -> list[int]:
        return []

    def cpu_seconds(self) -> float:
        """CPU time the guard has used: this (single-threaded) process."""
        return time.process_time()

    def close(self) -> None:
        pass


class GatewayGuard:
    """An unpaced gateway (see :mod:`perfbench.server`) and its clients.

    The gateway runs in a spawned process with durable state and tenants;
    this process holds one ``GatewayClient`` per connection and drives the
    control plane over a pipe.
    """

    connections = config.GATEWAY_CONNECTIONS

    def __init__(self, workload, state_dir: str, sock: str, *, traced: bool = False) -> None:
        fragments = list(FragmentStore.from_sources(workload.sources).iter_all())
        context = multiprocessing.get_context("spawn")
        self._control, child = context.Pipe()
        self._lock = threading.Lock()
        # Not a daemon: the gateway forks its own workers.  It stops on
        # "stop" or when this process dies and the pipe hits EOF.
        self.process = context.Process(
            target=server.serve,
            args=(child, fragments, _gateway_config(workload, state_dir, sock), traced),
        )
        self.process.start()
        child.close()
        self._reply(timeout=120.0)
        self.clients = [
            GatewayClient(unix_path=sock) for __ in range(self.connections)
        ]
        self.tenants = sorted(workload.tenants)
        self._revisions = dict.fromkeys(self.tenants, 0)
        self.reload_seconds: list[float] = []

    def _reply(self, timeout: float = 60.0):
        if not self._control.poll(timeout):
            raise RuntimeError(f"gateway process silent for {timeout:g} s")
        try:
            kind, value = self._control.recv()
        except EOFError:
            raise RuntimeError("gateway process exited") from None
        if kind != "ok":
            raise RuntimeError(f"gateway process: {value}")
        return value

    def call(self, op: str, *args):
        """One control operation on the gateway process."""
        with self._lock:
            self._control.send((op, *args))
            return self._reply()

    def vet(self, request, conn: int = 0):
        client = self.clients[conn]
        client.client_id = request.tenant
        try:
            return client.inspect(
                request.queries, path=request.context.path, inputs=request.inputs
            )
        except GatewayError:
            return None

    def before(self, index: int, conn: int = 0) -> None:
        """Every ``RELOAD_EVERY`` requests, one tenant's overlay is rewritten."""
        if index == 0 or index % config.RELOAD_EVERY:
            return
        with self._lock:
            tenant = self.tenants[(index // config.RELOAD_EVERY) % len(self.tenants)]
            self._revisions[tenant] += 1
            overlay = tenant_overlay(tenant, self._revisions[tenant])
        t0 = perf()
        self.call("reload", tenant, overlay)
        self.reload_seconds.append(perf() - t0)

    def pids(self) -> list[int]:
        return [self.process.pid, *self.call("pids")]

    def cpu_seconds(self) -> float:
        """CPU time the gateway process and its workers have used.

        The client side (this process) is not counted: it also runs the
        benchmark's own bookkeeping.
        """
        return sum(process_cpu_seconds(pid) for pid in self.pids())

    def close(self, drain: bool = True) -> bool:
        """Stop the gateway (drained, or crash-shaped) and reap its process."""
        for client in self.clients:
            client.close()
        drained = False
        try:
            with self._lock:
                self._control.send(("stop", drain))
                drained = bool(self._reply(timeout=60.0))
        except (OSError, EOFError, RuntimeError):
            pass
        self.process.join(timeout=30.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=10.0)
        self._control.close()
        return drained


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def _first_verdict(guard, workload) -> None:
    first = workload.warm[0]
    verdicts = guard.vet(first, 0)
    if verdicts is None or len(verdicts) != len(first.queries):
        raise RuntimeError("set-up produced no first verdict")


def setup_in_process(workload, reps: int, *, split_build: bool = False):
    """Build store + engine and get the first verdict, ``reps`` times.

    Returns ``(guard, setup_seconds, automaton_seconds)``.  With
    ``split_build`` the matcher is compiled by ``PTIDaemon.warm`` before
    the first verdict so the traced run can report the compile alone.
    """
    times, compiles = [], []
    guard = None
    for __ in range(reps):
        guard = None  # let the previous engine go before timing the next
        t0 = perf()
        if workload.sources:
            store = FragmentStore.from_sources(workload.sources)
        else:
            store = FragmentStore(workload.fragments)
        engine = JozaEngine(store)
        if split_build:
            t1 = perf()
            engine.daemon.warm()
            compiles.append(perf() - t1)
        guard = InProcessGuard(engine)
        _first_verdict(guard, workload)
        times.append(perf() - t0)
    return guard, times, compiles


def _gateway_config(workload, state_dir: str, sock: str) -> GatewayConfig:
    return GatewayConfig(
        unix_path=sock,
        workers=config.GATEWAY_WORKERS,
        tenants={t: list(o) for t, o in workload.tenants.items()},
        state_dir=state_dir,
        fsync_policy="batch",
        checkpoint_every=config.CHECKPOINT_EVERY,
        seed=workload.seed,
    )


def prepare_gateway_state(workload, work_dir: str) -> str:
    """A crash-shaped state directory for set-up to recover from.

    First boot, a few reloads and the verification pass's first requests
    (blocked attacks journal audit events), then a hard stop: the journal
    keeps its tail, so every set-up replays it.
    """
    template = os.path.join(work_dir, "state-template")
    guard = GatewayGuard(workload, template, os.path.join(work_dir, "prep.sock"))
    try:
        for index, request in enumerate(workload.warm[: 4 * config.RELOAD_EVERY]):
            guard.before(index)
            guard.vet(request, 0)
    finally:
        guard.close(drain=False)
    return template


def setup_gateway(workload, reps: int, work_dir: str, template: str, *, traced: bool = False):
    """Spawn the gateway process, recover state, fork workers, first round trip.

    ``reps`` times from a fresh copy of the same crash-shaped state; the
    last gateway stays up for the run.
    """
    times = []
    guard = None
    for rep in range(reps):
        if guard is not None:
            guard.close()
        state_dir = os.path.join(work_dir, f"state-{rep}")
        shutil.copytree(template, state_dir)
        sock = os.path.join(work_dir, f"gw{rep}.sock")
        t0 = perf()
        guard = GatewayGuard(workload, state_dir, sock, traced=traced)
        try:
            _first_verdict(guard, workload)
        except BaseException:
            guard.close(drain=False)
            raise
        times.append(perf() - t0)
    return guard, times, []


# ---------------------------------------------------------------------------
# Loops
# ---------------------------------------------------------------------------


#: Program-independent interpreter work for :func:`reference_seconds`.
_REFERENCE_TEXT = " ".join(
    f"SELECT col_{i % 37}, val FROM tbl_{i % 11} WHERE id = {i} AND (a, b) IN (1, 2)"
    for i in range(60)
)


def reference_seconds() -> float:
    """Time one fixed piece of interpreter work (split, case-fold, count).

    It touches nothing of the program, so only the host's speed moves it;
    see ``config.REFERENCE_US``.
    """
    t0 = perf()
    counts: dict[str, int] = {}
    for __ in range(6):
        for word in _REFERENCE_TEXT.split():
            key = word.lower().strip(",()")
            counts[key] = counts.get(key, 0) + 1
    return perf() - t0


class Sampler:
    """Peak (own + worker) resident memory and host speed at sample points."""

    def __init__(self, guard) -> None:
        self.guard = guard
        self.peak_mb = 0.0
        #: :func:`reference_seconds` at every sample, in order.
        self.reference = array.array("d")

    def sample(self) -> None:
        self.peak_mb = max(self.peak_mb, rss_mb(self.guard.pids()))
        self.reference.append(reference_seconds())


def verification_pass(guard, workload, oracle: Oracle) -> str:
    """Every verification request once, in order; returns the verdict digest.

    Runs on connection 0 with the same reload schedule as the timed loops,
    and doubles as the warm-up pass.
    """
    digest = Digest()
    for index, request in enumerate(workload.warm):
        guard.before(index)
        verdicts = guard.vet(request, 0)
        oracle.judge(request, verdicts)
        if verdicts is not None:
            digest.add(request, verdicts)
    return digest.hexdigest()


def _run_threads(targets) -> None:
    errors: list[BaseException] = []

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # re-raised in the caller below
                errors.append(exc)

        return run

    threads = [threading.Thread(target=wrap(fn)) for fn in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def closed_loop(guard, requests, oracle: Oracle, seconds: float, counter, sampler):
    """Each connection sends its next request when the last one returns.

    Returns ``(latencies_s, completion_times, start_time)``, both lists in
    completion order.  Request ``n`` of the run is
    ``requests[n % len(requests)]``; ``counter`` continues across phases so
    the reload schedule does too.
    """
    lock = threading.Lock()
    stop = threading.Event()
    # Flat float arrays, not lists of tuples: the samples must not grow the
    # resident memory this run reports.
    ends = [array.array("d") for __ in range(guard.connections)]
    lats = [array.array("d") for __ in range(guard.connections)]
    count = len(requests)
    end = perf() + seconds

    def connection(conn: int):
        done, took = ends[conn], lats[conn]
        vet, before, judge = guard.vet, guard.before, oracle.judge
        while not stop.is_set():
            index = next(counter)
            before(index, conn)
            request = requests[index % count]
            t0 = perf()
            verdicts = vet(request, conn)
            t1 = perf()
            done.append(t1)
            took.append(t1 - t0)
            if guard.connections == 1:
                judge(request, verdicts)
            else:
                with lock:
                    judge(request, verdicts)
            if conn == 0 and len(done) % 1024 == 0:
                sampler.sample()
            if t1 >= end:
                stop.set()

    t_start = perf()
    if guard.connections == 1:
        connection(0)
    else:
        _run_threads([lambda c=c: connection(c) for c in range(guard.connections)])
    if guard.connections == 1:
        return lats[0], ends[0], t_start
    merged = sorted(zip(itertools.chain(*ends), itertools.chain(*lats)))
    return [lat for __, lat in merged], [t for t, __ in merged], t_start


def _spin_until(due: float) -> None:
    while perf() < due:
        pass


def _sleep_until(due: float) -> None:
    remaining = due - perf()
    if remaining > 0.0:
        time.sleep(remaining)


def open_loop(guard, requests, oracle: Oracle, seconds: float, rate: float, counter, sampler):
    """Requests are due at a fixed rate whether or not earlier ones returned.

    Latency is timed from each request's due time, so a stall also charges
    the requests queued behind it.  Returns ``(latencies_s, lateness_s,
    failed_flags)``; lateness is how late the generator handed each
    request over.  In process the generator is the caller and spins: a
    sleeping thread on a busy virtual machine can wake milliseconds late.
    For the gateway it sleeps, so it never holds the interpreter lock the
    connection threads need; its lateness is reported either way.
    """
    total = max(1, int(seconds * rate))
    period = 1.0 / rate
    count = len(requests)
    latencies = [0.0] * total
    lateness = [0.0] * total
    failed = [False] * total
    t_start = perf() + 0.005

    def serve(slot: int, index: int, due: float, conn: int, lock=None):
        guard.before(index, conn)
        request = requests[index % count]
        verdicts = guard.vet(request, conn)
        latencies[slot] = perf() - due
        if lock is None:
            failed[slot] = oracle.judge(request, verdicts)
        else:
            with lock:
                failed[slot] = oracle.judge(request, verdicts)

    if guard.connections == 1:
        for slot in range(total):
            due = t_start + slot * period
            _spin_until(due)
            lateness[slot] = perf() - due
            serve(slot, next(counter), due, 0)
            if slot % 1024 == 0:
                sampler.sample()
        return latencies, lateness, failed

    work: queue.Queue = queue.Queue()
    lock = threading.Lock()

    def connection(conn: int):
        while True:
            item = work.get()
            if item is None:
                return
            serve(*item, conn, lock)

    def generator():
        try:
            for slot in range(total):
                due = t_start + slot * period
                _sleep_until(due)
                lateness[slot] = perf() - due
                work.put((slot, next(counter), due))
                if slot % 1024 == 0:
                    sampler.sample()
        finally:
            for __ in range(guard.connections):
                work.put(None)

    _run_threads([generator] + [lambda c=c: connection(c) for c in range(guard.connections)])
    return latencies, lateness, failed
