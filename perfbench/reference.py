"""Fixed reference work that reads how fast the host is right now.

    python3 perfbench/reference.py --port 8123     # the reference server
    python3 perfbench/reference.py --setup         # the reference set-up

It answers every request, on any path, with one fixed JSON document of
the size of a stored cell's record, one request per connection: the
kind of work ``repro-sim serve`` does for a cached read (accept, read
the request head, ``json.dumps``, write, close), in another process of
the same interpreter, but with none of the code under test.  svc-mixed
starts it next to the server and sends it requests between the real
ones, so the service's latencies and launch time can be expressed
against it, the way ``probe.py`` does for the simulator: the reference
never changes, so a faster service moves the ratio and a noisy
neighbour does not.

``--setup`` is the reference for a simulator workload's set-up, which is
mostly ``import repro`` and, under it, numpy: it times this module's
imports and ``import numpy`` from the process's first line, prints the
seconds and exits.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402

#: The reference's medians on the tuning host (2-vCPU KVM guest, Xeon at
#: 2.1 GHz, CPython 3.11, numpy 2.4) in its quietest stretch of tuning:
#: one request's latency, the server's launch to its first answer, and
#: ``--setup``.  They convert ratios to the reference back to
#: milliseconds and seconds on that host.
REF_OP_MS = 1.7
REF_LAUNCH_S = 0.072
REF_SETUP_S = 0.13

#: A body the size of a stored cell's record (about 1.5 KB of JSON).
BODY = {
    "record": {
        "hash": "0" * 64,
        "digest": "f" * 64,
        "status": "ok",
        "cell": {"trace": "cscope2", "policy": "forestall", "disks": 4,
                 "discipline": "fcfs", "scale": 0.05, "seed": 1},
        "result": {name: index * 1.25 for index, name in enumerate(
            ["elapsed_ms", "stall_ms", "compute_ms", "driver_ms",
             "fetches", "references", "hits", "misses", "prefetches",
             "evictions", "disk_busy_ms", "queue_ms"] * 4)},
        "wall_s": 0.0123,
    }
}


async def handle(reader, writer):
    try:
        await reader.readuntil(b"\r\n\r\n")
        payload = json.dumps(BODY).encode()
        writer.write(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                     b"Connection: close\r\nContent-Length: "
                     + str(len(payload)).encode() + b"\r\n\r\n" + payload)
        await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def serve(port, max_seconds):
    server = await asyncio.start_server(handle, "127.0.0.1", port)
    async with server:
        # Outlives no driver: exits on its own after max_seconds.
        await asyncio.sleep(max_seconds)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int)
    parser.add_argument("--max-seconds", type=float, default=300.0)
    parser.add_argument("--setup", action="store_true")
    args = parser.parse_args()
    if args.setup:
        import numpy  # noqa: F401

        print(json.dumps({"setup_s": time.perf_counter() - T0}))
    else:
        asyncio.run(serve(args.port, args.max_seconds))


if __name__ == "__main__":
    main()
