"""``serve_mixed``: what an operator of ``repro serve`` gets by default.

The server is a separate process started with the documented command
line and nothing else.  This process is the load generator: a closed
loop of 2 connections (one per core) with 8 requests in flight each,
every connection interleaving the op streams of 2 tenants.  Closed,
because the clients of an ingest server are programs that wait for
their acks.  Each round boots a fresh server on an empty data directory.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import deque
from pathlib import Path

import ops as opgen
from batch import ar1, isolated
from harness import Round, digest, latency_tails
from repro import ServingClient
from stream import apply_write, candidate_keys, fast_session

TENANTS = 4
CONNECTIONS = 2
WINDOW = 8
QUERY_K = 10
#: Ids per tenant queried through the server once its queues have drained.
SAMPLE_IDS = 50
#: Ids per tenant scored against the ground truth on the in-process
#: reference session (the first ``SAMPLE_IDS`` of them are the served sample).
_SCORED_IDS = 250
_PROFILES_PER_TENANT = 1_000
#: Ops per tenant held back from the loaded phase of the unloaded probe
#: and then sent with one request in flight.
_UNLOADED_TAIL = 75
_EXIT_TIMEOUT_S = 30
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: How every successful reply begins (``protocol.ok_response`` puts ``ok``
#: first); anything else is decoded in full.
_OK = b'{"ok": true'
_STATS_KEY = {"upsert": "upserts", "delete": "deletes", "query": "queries"}


def request_line(tenant: str, op) -> bytes:
    verb, pid, source, profile = op
    record = {"v": verb, "tenant": tenant, "id": pid, "source": source}
    if verb == "upsert":
        record["attributes"] = [list(pair) for pair in profile.attributes]
    elif verb == "query":
        record["k"] = QUERY_K
    return json.dumps(record).encode("utf-8") + b"\n"


def interleave(first: list, second: list) -> list:
    merged = [item for pair in zip(first, second) for item in pair]
    shorter = min(len(first), len(second))
    return merged + first[shorter:] + second[shorter:]


class Server:
    """One ``python -m repro serve`` child process and its data directory."""

    def __init__(self, src_dir: Path, out_dir: Path) -> None:
        self.data_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=out_dir))
        env = dict(os.environ, PYTHONPATH=str(src_dir))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--data-dir",
             str(self.data_dir), "--port", "0", "--clean-clean"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True,
        )
        try:
            banner = self.process.stdout.readline()
            self.port = int(banner.split("127.0.0.1:")[1].split()[0])
        except (IndexError, ValueError):
            self.kill()
            raise RuntimeError(f"server did not start: {banner!r}") from None

    def cpu_seconds(self) -> tuple[float, float]:
        """(user, sys) CPU seconds the server process has used so far."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return int(fields[11]) / _CLOCK_TICKS, int(fields[12]) / _CLOCK_TICKS

    def wait(self) -> None:
        """Reap the process (killing it if it does not exit by itself) and
        remove its data directory."""
        try:
            self.process.wait(timeout=_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)

    def kill(self) -> None:
        self.process.kill()
        self.wait()


class Tally:
    """What the generator saw in one phase."""

    def __init__(self) -> None:
        self.latency_ms: dict[str, list[float]] = {"query": [], "write": []}
        self.acked = 0
        self.retries = 0
        self.bytes = 0
        self.responses: list[bytes] = []


async def drive(port, requests, window, tally, recorder=None, keep=False):
    """Send *requests* (``(verb, line)`` pairs) over one connection, at
    most *window* in flight; replies come back in request order.
    ``overloaded`` replies are sent again after a backoff."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    queue = deque(requests)
    inflight: deque = deque()
    backoff = 0.005
    try:
        while queue or inflight:
            while queue and len(inflight) < window:
                verb, line = queue.popleft()
                writer.write(line)
                inflight.append((verb, line, time.perf_counter()))
            await writer.drain()
            reply = await reader.readline()
            if not reply:
                raise ConnectionError("server closed the connection")
            verb, line, sent = inflight.popleft()
            done = time.perf_counter()
            tally.bytes += len(line) + len(reply)
            if keep:
                tally.responses.append(reply)
            # The generator shares two cores with the server: it decodes a
            # reply only when the reply is not the usual acknowledgement.
            if reply.startswith(_OK):
                kind = "query" if verb == "query" else "write"
                tally.latency_ms[kind].append((done - sent) * 1e3)
                tally.acked += 1
                backoff = 0.005
                if recorder is not None:
                    recorder.add("serving." + kind, sent, done)
            elif json.loads(reply).get("error") == "overloaded":
                tally.retries += 1
                queue.append((verb, line))
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, 0.25)
            # Any other refusal stays unacknowledged and counts as failed.
    finally:
        writer.close()
        await writer.wait_closed()


class ServeWorkload:
    name = "serve_mixed"
    server_side = True

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.reference_digest: str | None = None

    # -- one-off set-up -------------------------------------------------------

    def prepare(self, env) -> None:
        seed = env.seed
        self.quick = env.quick
        self.out_dir, self.src_dir = env.out_dir, env.src_dir
        profiles = _PROFILES_PER_TENANT // (20 if env.quick else 1)
        self.tenants = [f"t{i}" for i in range(TENANTS)]
        self.requests: dict[str, list[tuple[str, bytes]]] = {}
        self.samples: dict[str, list[tuple[str, int]]] = {}
        expected: dict = {}
        counts = []
        # Keyed like the totals of the server's ``stats`` verb.
        self.counts = {"upserts": 0, "deletes": 0, "queries": 0}
        for i, tenant in enumerate(self.tenants):
            dataset = ar1(profiles, seed + i)
            ops = opgen.serve_ops(dataset, seed + i)
            self.requests[tenant] = [
                (op[0], request_line(tenant, op)) for op in ops
            ]
            for op in ops:
                self.counts[_STATS_KEY[op[0]]] += 1
            # The served state must equal the same writes applied to an
            # in-process session: served == streamed, for any seed.
            session = fast_session()
            for op in ops:
                if op[0] != "query":
                    apply_write(session, op)
            scored = opgen.sample_ids(ops, seed + i, _SCORED_IDS)
            answers = {key: candidate_keys(session, key) for key in scored}
            session.close()
            self.samples[tenant] = scored[:SAMPLE_IDS]
            expected.update(
                ((tenant, key), answers[key]) for key in self.samples[tenant]
            )
            counts.append(opgen.match_counts(
                answers, opgen.truth_by_id(dataset), set(opgen.live_ids(ops))
            ))
        self.reference_digest = digest(expected.items())
        self.quality = opgen.quality(*(sum(column) for column in zip(*counts)))
        self.total_ops = sum(len(r) for r in self.requests.values())

    def _connection_plans(self, lo: int, hi: int | None) -> list[list]:
        """Per connection, the interleaved ``[lo:hi]`` slices of its tenants."""
        per_connection = TENANTS // CONNECTIONS
        return [
            interleave(*(
                self.requests[tenant][lo:hi]
                for tenant in self.tenants[c * per_connection:][:per_connection]
            ))
            for c in range(CONNECTIONS)
        ]

    # -- rounds ---------------------------------------------------------------

    def start(self):
        server = Server(self.src_dir, self.out_dir)
        try:
            opened = asyncio.run(self._open_tenants(server))
        except BaseException:
            server.kill()
            raise
        return server, opened

    async def _open_tenants(self, server) -> list[float]:
        """Send each tenant's first upsert alone: the server opens the
        tenant (recover, attach journal) on first touch."""
        opened = []
        for tenant in self.tenants:
            tally = Tally()
            await drive(server.port, self.requests[tenant][:1], 1, tally)
            if tally.acked != 1:
                raise RuntimeError(f"tenant {tenant} did not open")
            opened.append(tally.latency_ms["write"][0])
        return opened

    def stop(self, system) -> None:
        server, _ = system
        try:
            asyncio.run(self._shutdown(server))
        except (OSError, RuntimeError):
            server.kill()
        else:
            server.wait()

    async def _shutdown(self, server) -> None:
        client = await ServingClient.connect("127.0.0.1", server.port)
        try:
            await client.shutdown()
        finally:
            await client.close()

    def measure(self, system, recorder) -> Round:
        server, opened = system
        tally = Tally()
        user0, sys0 = server.cpu_seconds()
        began = time.perf_counter()
        asyncio.run(
            self._gather(server, self._connection_plans(1, None), tally, recorder)
        )
        wall = time.perf_counter() - began
        user1, sys1 = server.cpu_seconds()
        stats, answers = asyncio.run(self._drained(server))

        attempted = self.total_ops - TENANTS
        failed = attempted - tally.acked
        totals = stats["totals"]
        if any(totals[key] != sent for key, sent in self.counts.items()):
            failed += 1
            self.failures.append(
                f"server counted {totals} but {self.counts} were sent"
            )
        layers = {}
        if recorder is not None:
            batches = [t["mean_batch_size"] for t in stats["tenants"].values()]
            layers = {
                "serving.mean_batch_size": statistics.mean(batches),
                "serving.overloads": totals["overloads"],
                "serving.retries": tally.retries,
                "serving.tenant_open_ms": statistics.median(opened),
                "serving.bytes_per_op": tally.bytes / max(tally.acked, 1),
            }
            self.traced_responses = tally.responses
        return Round(
            wall_s=wall,
            user_s=user1 - user0,
            sys_s=sys1 - sys0,
            items=tally.acked,
            query_ms=tally.latency_ms["query"],
            write_ms=tally.latency_ms["write"],
            digest=digest(answers.items()),
            pair_completeness=self.quality[0],
            pair_quality=self.quality[1],
            attempted=attempted,
            failed=failed,
            layers=layers,
        )

    async def _gather(self, server, plans, tally, recorder) -> None:
        await asyncio.gather(*(
            drive(server.port, plan, WINDOW, tally, recorder,
                  keep=recorder is not None)
            for plan in plans
        ))

    async def _drained(self, server):
        """Every ack is in, so the queues are empty: read the counters and
        query the fixed sample, one request at a time."""
        client = await ServingClient.connect("127.0.0.1", server.port)
        try:
            stats = await client.stats()
            answers = {}
            for tenant in self.tenants:
                for pid, source in self.samples[tenant]:
                    found = await client.query(
                        tenant, pid, k=QUERY_K, source=source
                    )
                    answers[(tenant, (pid, source))] = [
                        (c["id"], c["source"]) for c in found
                    ]
        finally:
            await client.close()
        return stats, answers

    # -- layer probes (traced pass only) --------------------------------------

    def probes(self, rounds, traced: list[Round]) -> dict[str, float | None]:
        values = latency_tails("serving", rounds)
        values.update(isolated(_protocol_probe, _PROTOCOL_METRICS, self))
        values.update(isolated(_unloaded_probe, _UNLOADED_METRICS, self, traced))
        return values


_PROTOCOL_METRICS = ("serving.parse_us", "serving.encode_us")


def _protocol_probe(workload: ServeWorkload) -> dict:
    """Parse the workload's own request lines and encode its own replies."""
    from repro.serving import protocol

    def median_us(function, inputs) -> float:
        samples = []
        for item in inputs:
            began = time.perf_counter()
            function(item)
            samples.append(time.perf_counter() - began)
        return statistics.median(samples) * 1e6

    lines = [line for _, line in workload.requests[workload.tenants[0]]]
    replies = [json.loads(reply) for reply in workload.traced_responses]
    return {
        "serving.parse_us": median_us(protocol.parse_request, lines),
        "serving.encode_us": median_us(protocol.encode, replies),
    }


_UNLOADED_METRICS = (
    "serving.unloaded_query_ms", "serving.unloaded_write_ms",
    "serving.queue_wait_query_ms", "serving.queue_wait_write_ms",
)


def _unloaded_probe(workload: ServeWorkload, traced: list[Round]) -> dict:
    """Service time: fill the tenants under load, then send each tenant's
    last ops with one request in flight."""
    tail = _UNLOADED_TAIL // (5 if workload.quick else 1)
    system = workload.start()
    server, _ = system
    alone = Tally()
    try:
        asyncio.run(
            workload._gather(
                server, workload._connection_plans(1, -tail), Tally(), None
            )
        )
        single = interleave(*workload._connection_plans(-tail, None))
        asyncio.run(drive(server.port, single, 1, alone))
    finally:
        workload.stop(system)
    unloaded = {
        kind: statistics.median(samples)
        for kind, samples in alone.latency_ms.items()
    }
    loaded = {
        "query": statistics.median(
            statistics.median(r.query_ms) for r in traced
        ),
        "write": statistics.median(
            statistics.median(r.write_ms) for r in traced
        ),
    }
    return {
        "serving.unloaded_query_ms": unloaded["query"],
        "serving.unloaded_write_ms": unloaded["write"],
        # Derived: what a request waits behind the others in flight.
        "serving.queue_wait_query_ms": loaded["query"] - unloaded["query"],
        "serving.queue_wait_write_ms": loaded["write"] - unloaded["write"],
    }


WORKLOADS = {"serve_mixed": ServeWorkload}
