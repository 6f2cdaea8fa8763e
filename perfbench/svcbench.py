"""The service workload: ``repro-sim serve -j 1`` under an open-loop mix.

One single-threaded asyncio driver runs two client lanes, one connection
each (the machine this was tuned on has two cores):

* the read lane sends ``GET /v1/results/<hash>``, repeat
  ``POST /v1/cells`` and ``GET /v1/status`` for cells stored during the
  untimed set-up;
* the compute lane sends cold ``POST /v1/cells`` for specs the store
  has never seen (each with its own trace ``seed``).

Both timetables come from ``repro.loadgen.build_plan`` seeded from the
workload seed.  A lane sends each request when it is due, or as soon as
its previous request finishes; latency runs from the *due* time, so a
server that falls behind is charged for the backlog it causes.  Every
connection carries one request, the way ``repro.loadgen`` and curl
connect.

An untraced run also measures the host while it measures the service:
the read lane sends ``REF_RATE`` requests per second to the fixed
reference server (``reference.py``), launched next to the real one, and
the driver times ``probe.py`` right after each cold cell, once the read
lane has no request open.  The cached path's latency and the launch
time are reported as ratios to the reference's, and each cold cell's
time in the worker against its probe (README.md, "Host speed").

``session`` runs any such mix; ``run`` is svc-mixed, and
``cell_layers`` sends a simulator workload's cells through the traced
service for that workload's per-layer numbers.
"""

import asyncio
import http.client
import inspect
import json
import shutil
import signal
import socket
import subprocess
import sys
import time

from common import ROOT, WORK, child_env, mean, median, tail, vm_hwm_mb
from probe import PROBE_REF_S, probe_s
from reference import REF_LAUNCH_S, REF_OP_MS

#: The read lane replays the traffic ROADMAP's service baseline measured
#: (``repro-sim loadgen --rate 40 --seed 1``): ``repro.loadgen``'s
#: default spec pool and request mix at 40 requests/s.  Copied rather
#: than imported, so that a change to the generator's defaults does not
#: change this workload.  With every spec stored during set-up, the mix's
#: ``cells`` posts are all repeats answered from the store.
STORED_SPECS = [
    {"trace": "cscope2", "policy": "forestall", "disks": 4, "scale": 0.05},
    {"trace": "cscope2", "policy": "fixed-horizon", "disks": 4,
     "scale": 0.05},
    {"trace": "glimpse", "policy": "forestall", "disks": 4, "scale": 0.05},
    {"trace": "postgres-select", "policy": "aggressive", "disks": 4,
     "scale": 0.05},
]
READ_MIX = {"cells": 0.5, "results": 0.4, "status": 0.1}
READ_RATE = 40.0
#: The cold cell, sent by the compute lane on top of the read lane's
#: traffic: sim-engine's synth/aggressive/d2/sstf cell at half its
#: scale.  At COLD_RATE it keeps the one worker about a fifth busy.  It
#: is this large so that its simulation, which the probe tracks,
#: outweighs the wait for the pool's 50 ms supervision poll, which the
#: probe does not.
COLD_SPEC = {"trace": "synth", "policy": "aggressive", "disks": 2,
             "discipline": "sstf", "scale": 0.05}
COLD_RATE = 1.5
SETUP_SAMPLES = 3
#: Cold posts per second when a simulator workload's cells go through
#: the service: its cells take 0.1-0.2 s, so the worker stays about a
#: fifth busy.
CELL_LAYERS_COLD_RATE = 1.0
#: Requests per second the read lane sends the reference server.
REF_RATE = 20.0
#: Traced runs re-post each cold spec this long after it is due, so that
#: singleflight.join has followers to time (one connection per lane
#: leaves none otherwise).
JOIN_DELAY_S = 0.005
REQUEST_TIMEOUT_S = 30.0
#: A server outliving its run (driver killed) drains and exits after this.
SERVER_MAX_MINUTES = 5


class Server:
    """One ``repro-sim serve -j 1`` child process on a free local port."""

    def __init__(self, store, trace):
        self.store = store
        self.trace = trace
        self.proc = None
        self.port = None

    def start(self):
        """Launch and wait for the first 200 on /v1/healthz; returns the
        seconds that took."""
        for _attempt in range(3):
            if self.store is not None:
                shutil.rmtree(self.store, ignore_errors=True)
            with socket.socket() as sock:
                sock.bind(("127.0.0.1", 0))
                self.port = sock.getsockname()[1]
            argv = self.argv()
            log = open(WORK / "serve.log", "ab")
            start = time.perf_counter()
            try:
                self.proc = subprocess.Popen(
                    argv, cwd=ROOT, env=child_env(),
                    stdout=log, stderr=subprocess.STDOUT,
                )
            finally:
                log.close()
            if self._wait_healthy(deadline=start + 60.0):
                return time.perf_counter() - start
            self.stop()
        raise RuntimeError(f"{self.argv()[1:3]} did not become healthy; "
                           f"see {WORK / 'serve.log'}")

    def argv(self):
        argv = [sys.executable, "-m", "repro.cli", "serve",
                "--port", str(self.port), "--store", str(self.store),
                "--jobs", "1", "--max-minutes", str(SERVER_MAX_MINUTES)]
        if self.trace:
            argv.append("--trace")
        return argv

    def _wait_healthy(self, deadline):
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                return False  # lost the port race or crashed
            try:
                status, _, _ = self.request("GET", "/v1/healthz", timeout=1.0)
                if status == 200:
                    return True
            except OSError:
                pass
            time.sleep(0.005)
        return False

    def request(self, method, path, body=None, timeout=REQUEST_TIMEOUT_S):
        """Blocking request for set-up and scrapes: (status, headers, json)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)
        try:
            payload = None if body is None else json.dumps(body).encode()
            headers = {} if payload is None else {
                "Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = response.read()
            return (response.status,
                    {k.lower(): v for k, v in response.getheaders()},
                    json.loads(data) if data else None)
        finally:
            conn.close()

    def peak_rss_mb(self):
        return vm_hwm_mb(str(self.proc.pid))

    def stop(self):
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)  # graceful drain
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None


class ReferenceServer(Server):
    """``reference.py``: the fixed server the service is measured
    against."""

    def __init__(self):
        super().__init__(None, False)

    def argv(self):
        return [sys.executable, str(ROOT / "perfbench" / "reference.py"),
                "--port", str(self.port),
                "--max-seconds", str(60 * SERVER_MAX_MINUTES)]


class Lane:
    """One client lane's requests, sent in timetable order."""

    def __init__(self, port, requests, started, ref_port=None):
        self.port = port
        self.ref_port = ref_port  # where the "ref" requests go
        #: [(due offset s, kind, method, path, body, expected hash)]
        self.requests = requests
        self.started = started
        self.samples = []  # dicts, one per request
        self.busy = False  # a request of this lane is open
        #: When set (to the other lane), each cold cell is followed by a
        #: probe, taken once that lane has no request open.
        self.probe_beside = None

    async def run(self):
        loop_time = time.perf_counter
        for due_s, kind, method, path, body, expect in self.requests:
            due = self.started + due_s
            wait = due - loop_time()
            late = None
            if wait > 0:
                await asyncio.sleep(wait)
                late = loop_time() - due  # the generator's own lateness
            sample = {"kind": kind, "due_s": due_s, "late_s": late,
                      "path": path, "body": body, "expect": expect}
            self.busy = True
            try:
                await asyncio.wait_for(
                    self._send(self.ref_port if kind == "ref" else self.port,
                               method, path, body, sample),
                    REQUEST_TIMEOUT_S)
            except (asyncio.TimeoutError, OSError, ValueError, KeyError,
                    IndexError, asyncio.IncompleteReadError) as exc:
                sample["error"] = repr(exc)
            self.busy = False
            sample["latency_s"] = loop_time() - due
            self.samples.append(sample)
            if self.probe_beside is not None and kind == "cell":
                while self.probe_beside.busy:
                    await asyncio.sleep(0.001)
                sample["probe_s"] = probe_s()

    async def _send(self, port, method, path, body, sample):
        start = time.perf_counter()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        sample["connect_s"] = time.perf_counter() - start
        connected = time.perf_counter()
        try:
            payload = b"" if body is None else json.dumps(body).encode()
            head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    "Connection: close\r\n")
            if payload:
                head += ("Content-Type: application/json\r\n"
                         f"Content-Length: {len(payload)}\r\n")
            writer.write(head.encode() + b"\r\n" + payload)
            await writer.drain()
            status_line = await reader.readline()
            sample["status"] = int(status_line.split(b" ", 2)[1])
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            data = await reader.readexactly(int(headers["content-length"]))
            sample["served_s"] = time.perf_counter() - connected
            sample["corr_id"] = headers.get("x-correlation-id")
            record = (json.loads(data) or {}).get("record") or {}
            sample["hash"] = record.get("hash")
            sample["digest"] = record.get("digest")
            sample["wall_s"] = record.get("wall_s")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


def build_lanes(seed, seconds, stored, cold_specs, cold_rate, joins=False,
                reference=False):
    """Both lanes' timetables from ``repro.loadgen.build_plan``.  Every
    request that returns a record carries the hash it must come back
    with, taken from the request, never from the response.  With
    ``joins``, the read lane also posts each cold spec again
    ``JOIN_DELAY_S`` after it is due, while the worker is computing it,
    so that the second post coalesces onto the first.  With
    ``reference``, the read lane also sends ``REF_RATE`` requests per
    second to the reference server."""
    from repro.loadgen import LoadgenConfig, build_plan
    from repro.svc.service import cell_from_spec

    read_plan, _ = build_plan(LoadgenConfig(
        seed=2 * seed, rate_per_s=READ_RATE, duration_s=seconds,
        mix=dict(READ_MIX), specs=stored))
    read = []
    for arrival in read_plan:
        spec = stored[arrival.spec_index]
        expect = cell_from_spec(spec).config_hash
        if arrival.kind == "results":
            read.append((arrival.at_s, "read", "GET",
                         f"/v1/results/{expect}", None, expect))
        elif arrival.kind == "cells":
            read.append((arrival.at_s, "repeat", "POST", "/v1/cells", spec,
                         expect))
        else:
            read.append((arrival.at_s, "status", "GET", "/v1/status", None,
                         None))
    cold_plan, _ = build_plan(LoadgenConfig(
        seed=2 * seed + 1, rate_per_s=cold_rate, duration_s=seconds,
        mix={"cells": 1.0}, specs=cold_specs))
    cold = []
    for arrival in cold_plan:
        spec = dict(cold_specs[arrival.spec_index],
                    seed=seed * 100_000 + arrival.index)
        cold.append((arrival.at_s, "cell", "POST", "/v1/cells", spec,
                     cell_from_spec(spec).config_hash))
    if joins:
        read += [(due_s + JOIN_DELAY_S, "join", *request)
                 for due_s, _, *request in cold]
    if reference:
        ref_plan, _ = build_plan(LoadgenConfig(
            seed=1_000_003 * (seed + 1), rate_per_s=REF_RATE,
            duration_s=seconds, mix={"status": 1.0}, specs=stored))
        read += [(arrival.at_s, "ref", "GET", "/ref", None, None)
                 for arrival in ref_plan]
    read.sort(key=lambda request: request[0])
    return read, cold


async def drive(port, read, cold, ref_port=None, probe=False):
    started = time.perf_counter() + 0.05
    lanes = [Lane(port, read, started, ref_port), Lane(port, cold, started)]
    if probe:
        lanes[1].probe_beside = lanes[0]
    await asyncio.gather(*(lane.run() for lane in lanes))
    return [sample for lane in lanes for sample in lane.samples]


def store_stats(server):
    return server.request("GET", "/v1/store")[2]


def shed_total(server):
    counters = server.request("GET", "/v1/metrics")[2]["counters"]
    return sum(value for name, value in counters.items()
               if name.startswith("svc.overload.shed"))


def check(samples, stored_digests):
    """Count failures: transport errors, non-2xx, a record for another
    cell than the one asked for, read or repeat digests that differ
    from the set-up digests, and join digests that differ from the cold
    post's.  Returns (failed, notes)."""
    failed = 0
    notes = []
    cold_digests = {s["expect"]: s.get("digest") for s in samples
                    if s["kind"] == "cell"}
    for sample in samples:
        problem = None
        expect = sample["expect"]
        if "error" in sample:
            problem = sample["error"]
        elif not 200 <= sample.get("status", 0) < 300:
            problem = f"HTTP {sample.get('status')}"
        elif expect is not None and sample.get("hash") != expect:
            problem = f"record for {sample.get('hash')}, not {expect}"
        elif sample["kind"] in ("read", "repeat"):
            want = stored_digests.get(expect)
            if want is None or sample.get("digest") != want:
                problem = "digest differs from the stored one"
        elif sample["kind"] == "join":
            want = cold_digests.get(expect)
            if want is None or sample.get("digest") != want:
                problem = "digest differs from the cold post's"
        sample["ok"] = problem is None
        if problem is not None:
            failed += 1
            notes.append(f"{sample['kind']} {sample['path']}: {problem}")
    return failed, notes


def recompute(samples, stored, stored_digests):
    """Re-run every cold cell and every stored cell in this process and
    compare digests with what the service returned.  Each cold sample
    gains the ``references`` its cell simulated."""
    from repro.runner import execute_cell
    from repro.svc.service import cell_from_spec

    failed = 0
    notes = []
    expected = [(spec, stored_digests.get(cell_from_spec(spec).config_hash),
                 None) for spec in stored]
    expected += [(s["body"], s["digest"], s) for s in samples
                 if s["kind"] == "cell" and s.get("ok")]
    for spec, digest, sample in expected:
        outcome = execute_cell(cell_from_spec(spec))
        if sample is not None:
            sample["references"] = outcome.result.references
        if outcome.digest != digest:
            failed += 1
            notes.append(f"recomputed digest differs for {spec}")
    return failed, notes


def spans_by_request(document):
    """{corr_id: {span name: summed ms}} from a GET /v1/trace document."""
    spans = {}
    for row in document.get("traceEvents", []):
        if row.get("cat") != "svc":
            continue
        args = row["args"]
        per = spans.setdefault(args["corr_id"], {})
        per[row["name"]] = per.get(row["name"], 0.0) + float(args["dur_ms"])
    return spans


def layer_metrics(samples, document, store_before, store_after, shed):
    """Per-layer numbers from the traced run: means per span kind over
    the timed requests, and the read path split into connect, parse and
    an unattributed server residual."""
    from repro.obs.svc import ServiceTracer

    max_spans = inspect.signature(ServiceTracer).parameters[
        "max_spans"].default
    recorded = document["otherData"]["spans"]
    if recorded >= max_spans:
        raise RuntimeError(
            f"the service's span ring filled ({recorded} of {max_spans}); "
            "the oldest spans were dropped, so the breakdown would "
            "undercount — shorten the traced window")
    spans = spans_by_request(document)
    timed = [spans.get(s.get("corr_id"), {}) for s in samples if s.get("ok")]
    layers = {}
    for name in ("http.parse", "store.get", "store.put", "worker.execute",
                 "admission.wait", "singleflight.join", "pool.queue"):
        values = [per[name] for per in timed if name in per]
        layers[f"{name}_ms"] = mean(values)
    reads = [s for s in samples
             if s.get("ok") and s["kind"] in ("read", "repeat")]
    layers["client.connect_ms"] = 1000.0 * mean(
        [s["connect_s"] for s in samples if "connect_s" in s])
    layers["server.residual_ms"] = mean([
        1000.0 * s["served_s"] - sum(spans.get(s["corr_id"], {}).values())
        for s in reads])
    lookups = (store_after["hits"] + store_after["misses"]
               - store_before["hits"] - store_before["misses"])
    layers["store.hit_ratio"] = (
        (store_after["hits"] - store_before["hits"]) / lookups
        if lookups else 0.0)
    layers["overload.shed"] = shed
    late = [1000.0 * s["late_s"] for s in samples if s["late_s"] is not None]
    late_tail = tail(late)
    layers["driver.late_ms"] = (late_tail["value"] if late_tail
                                else max(late, default=0.0))
    return layers


def session(seed, seconds, traced, stored, cold_specs, cold_rate,
            launches=SETUP_SAMPLES, referenced=False):
    """Launch the server ``launches`` times, timing each launch (the last
    stays up), store ``stored`` untimed, drive both lanes for
    ``seconds``, then check every answer and recompute every cell.
    With ``referenced``, the reference server is launched after each
    launch of the real one and takes its share of the read lane.
    Returns a dict of what the run saw."""
    from repro.svc.service import cell_from_spec

    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / "serve.log").unlink(missing_ok=True)
    store = WORK / "store"
    setup = []
    ref_setup = []
    server = Server(store, traced)
    reference = ReferenceServer() if referenced else None
    try:
        for launch in range(launches):
            setup.append(server.start())
            if reference is not None:
                ref_setup.append(reference.start())
            if launch < launches - 1:
                server.stop()
                if reference is not None:
                    reference.stop()
        stored_digests = {}
        for spec in stored:  # untimed: fill the store the reads target
            status, _, payload = server.request("POST", "/v1/cells", spec)
            expect = cell_from_spec(spec).config_hash
            record = (payload or {}).get("record") or {}
            if status != 200 or record.get("hash") != expect:
                raise RuntimeError(f"set-up POST of {spec} failed: HTTP "
                                   f"{status}, record {record.get('hash')}")
            stored_digests[expect] = record["digest"]
        read, cold = build_lanes(seed, seconds, stored, cold_specs, cold_rate,
                                 joins=traced, reference=referenced)
        store_before = store_stats(server)
        shed_before = shed_total(server)
        if referenced:
            probe_s()  # builds the probe's working set before the window
        samples = asyncio.run(drive(
            server.port, read, cold,
            reference.port if reference is not None else None,
            probe=referenced))
        rss = server.peak_rss_mb()
        store_after = store_stats(server)
        shed = shed_total(server) - shed_before
        document = (server.request("GET", "/v1/trace")[2]
                    if traced else None)
    finally:
        server.stop()
        if reference is not None:
            reference.stop()
        shutil.rmtree(store, ignore_errors=True)
    ref_samples = [s for s in samples if s["kind"] == "ref"]
    samples = [s for s in samples if s["kind"] != "ref"]
    if any("error" in s or s.get("status") != 200 for s in ref_samples):
        raise RuntimeError("the reference server failed a request")
    failed, notes = check(samples, stored_digests)
    wrong, wrong_notes = recompute(samples, stored, stored_digests)
    return {"setup": setup, "ref_setup": ref_setup,
            "ref_ms": [1000.0 * s["latency_s"] for s in ref_samples],
            "samples": samples, "rss": rss,
            "store_before": store_before, "store_after": store_after,
            "shed": shed, "document": document, "failed": failed + wrong,
            "notes": notes + wrong_notes}


def traced_layers(seen):
    """The per-layer numbers of a traced session, as {name: (value,
    unit)}."""
    layers = layer_metrics(seen["samples"], seen["document"],
                           seen["store_before"], seen["store_after"],
                           seen["shed"])
    units = {"store.hit_ratio": "ratio", "overload.shed": "count"}
    seen["notes"].append(
        f"spans recorded: {seen['document']['otherData']['spans']}")
    return {name: (value, units.get(name, "ms"))
            for name, value in layers.items()}


def cold_cells(samples):
    """The cold cells the service answered, as ``(spec, digest)``."""
    return [(s["body"], s["digest"]) for s in samples
            if s["kind"] == "cell" and s.get("ok")]


def run(seed, seconds, traced, scale=1.0):
    """One svc-mixed run; returns (metrics, attempted, failed, correct,
    notes, cold cells) with metrics as {name: (value, unit)} and the
    cold cells as ``cold_cells`` gives them."""
    stored = [dict(spec, seed=seed, scale=spec["scale"] * scale)
              for spec in STORED_SPECS]
    cold_spec = dict(COLD_SPEC, scale=COLD_SPEC["scale"] * scale)
    seen = session(seed, seconds, traced, stored, [cold_spec], COLD_RATE,
                   referenced=not traced)
    samples = seen["samples"]
    notes = seen["notes"]
    attempted = len(samples)
    failed = seen["failed"]
    correct = failed == 0
    if traced:
        return (traced_layers(seen), attempted, failed, correct, notes,
                cold_cells(samples))
    latency = {}
    for kind in ("read", "repeat", "status", "cell"):
        of_kind = [s for s in samples if s["kind"] == kind]
        latency[kind] = [1000.0 * s["latency_s"] for s in of_kind
                         if s["ok"]]
        if not latency[kind]:
            # Nothing of this kind succeeded (or none was due): report
            # the attempts' latency so the run still yields a result,
            # which is incorrect.
            correct = False
            notes.append(f"{kind}: no successful request")
            latency[kind] = [1000.0 * s["latency_s"] for s in of_kind] or [
                1000.0 * REQUEST_TIMEOUT_S]
    # The read lane is the cached path; the cold lane is measured in
    # simulated references per second of its latency.
    cached = latency["read"] + latency["repeat"] + latency["status"]
    # A cold cell's time in the worker (the record's wall_s) is the
    # simulator's kind of work: it is scaled by the probe taken just after
    # the cell.  The rest of its latency (HTTP, admission, the pool's
    # poll, the pipe, store.put) is not (README.md, "Host speed").
    cold_ok = [s for s in samples if "references" in s]
    rates = [s["references"] / s["latency_s"] for s in cold_ok]
    refs_per_s = median(rates) if rates else 0.0
    scaled = []
    for s in cold_ok:
        wall = min(s.get("wall_s") or 0.0, s["latency_s"])
        scaled.append(s["references"] / (
            wall * PROBE_REF_S / s["probe_s"] + s["latency_s"] - wall))
    scaled_refs_per_s = median(scaled) if scaled else 0.0
    ref_ms = median(seen["ref_ms"])
    launch_ratio = median([real / ref for real, ref in
                           zip(seen["setup"], seen["ref_setup"])])
    notes.append(
        f"unscaled: op_p50_ms {median(cached):.4f}, refs_per_s "
        f"{refs_per_s:.1f}, setup_s {median(seen['setup']):.4f}; reference "
        f"p50 {ref_ms:.4f} ms over {len(seen['ref_ms'])}, launch "
        f"{median(seen['ref_setup']):.4f} s, probe "
        f"{1000 * median([s['probe_s'] for s in cold_ok] or [0.0]):.4f} ms "
        f"over {len(cold_ok)}")
    metrics = {
        "refs_per_s": (scaled_refs_per_s, "1/s"),
        "op_p50_ms": (median(cached) / ref_ms * REF_OP_MS, "ms"),
        "setup_s": (launch_ratio * REF_LAUNCH_S, "s"),
        "peak_rss_mb": (seen["rss"], "MB"),
    }
    for kind in latency:
        notes.append(f"{kind} p50: {median(latency[kind]):.3f} ms over "
                     f"{len(latency[kind])} requests")
    # Tails are printed, not gated: on a shared 2-core host they did not
    # repeat across runs of the same code (README.md, "Tails dropped").
    for kind in ("read", "cell"):
        kind_tail = tail(latency[kind])
        if kind_tail is None:
            notes.append(f"{kind} tail: only {len(latency[kind])} samples")
        else:
            notes.append(f"{kind} tail: {kind_tail['value']:.3f} ms at "
                         f"p{kind_tail['percentile']:.1f} of "
                         f"{kind_tail['samples']} samples")
    return metrics, attempted, failed, correct, notes, cold_cells(samples)


def cell_layers(seed, seconds, cells):
    """The service's per-layer numbers for a simulator workload: its
    cells the runner can serve, each stored during set-up (the read
    lane's targets) and posted cold with fresh seeds at
    ``CELL_LAYERS_COLD_RATE``.  Returns (metrics, attempted, failed,
    notes)."""
    stored = [{"trace": trace, "policy": policy, "disks": disks,
               "discipline": discipline, "scale": scale, "seed": trace_seed}
              for trace, policy, disks, discipline, scale, trace_seed in cells]
    seen = session(seed, seconds, True, stored, stored,
                   CELL_LAYERS_COLD_RATE, launches=1)
    return (traced_layers(seen), len(seen["samples"]), seen["failed"],
            seen["notes"])
