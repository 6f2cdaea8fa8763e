#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload sim-engine --seed 1 --seconds 20 --trace 0

Workloads (README.md says why each exists):

``sim-engine``  simulator cells where dispatch, disk and cache dominate
``sim-policy``  simulator cells where forestall's trigger walks dominate
``svc-mixed``   ``repro-sim serve -j 1`` under an open-loop read/compute mix

Every workload prints every metric.  ``--trace 0`` prints the
end-to-end metrics of an untraced run; ``--trace 1`` makes a separate
traced run and prints the per-layer metrics, following the workload's
cells through both the profiled engine and the traced service.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The run fails (exit 2, no result line) when
the checkout's ``src/repro`` is missing.
"""

import argparse
import json
import signal
import subprocess
import sys

from common import (
    ROOT,
    WORK,
    child_env,
    emit,
    median,
    metric,
    note,
    require_checkout,
)
from reference import REF_SETUP_S

WORKLOADS = ("sim-engine", "sim-policy", "svc-mixed")
#: Fresh processes whose set-up is timed per sim run, besides the
#: measuring process; setup_s is the median of them all, each over a
#: reference set-up started just before it.  Half run
#: before the measured window and half after it, so that a burst of
#: host slowness at one end of the run does not hit every sample.
SIM_SETUP_SAMPLES = 10
#: A traced run follows its workload's cells through the other half of
#: the system too, for this share of ``--seconds``: a simulator
#: workload's cells through the service, svc-mixed's cold cells through
#: the profiled engine.
CROSS_SHARE = 1 / 3
#: svc-mixed's traced run profiles this many of its cold cells.
PROFILED_COLD_CELLS = 3


def sim_child(argv, seconds):
    """Run ``simbench.py`` in a fresh process; its last line is JSON."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "simbench.py"), *argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=60 + 2 * seconds,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench: simbench.py {argv[0]} failed")
    return json.loads(done.stdout.strip().splitlines()[-1])


def reference_setup():
    """Seconds of ``reference.py --setup`` in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "reference.py"),
         "--setup"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=60, check=True,
    )
    return json.loads(done.stdout)["setup_s"]


def sim_layers(out):
    """Per-layer metrics from a ``simbench.py traced`` result."""
    sim = out["sim"]
    layers = {
        "trace.build_s": metric(out["timers"]["trace.build_s"], "s"),
        "nextref.build_s": metric(out["timers"]["nextref.build_s"], "s"),
        "engine.init_s": metric(out["timers"]["engine.init_s"], "s"),
        "engine.dispatch_self_s": metric(out["layers"]["dispatch"], "s"),
        "engine.events": metric(out["events"], "count"),
        "engine.us_per_event": metric(out["us_per_event"], "us"),
        "profile.residual_s": metric(out["residual_s"], "s"),
        "profile.overhead": metric(out["overhead"], "ratio"),
        "sim.fetches": metric(sim["sim.fetches"], "count"),
        "sim.fetches_per_ref": metric(
            sim["sim.fetches"] / sim["sim.references"], "ratio"),
        "sim.stall_ms": metric(sim["sim.stall_ms"], "sim-ms"),
        "sim.elapsed_ms": metric(sim["sim.elapsed_ms"], "sim-ms"),
    }
    for phase in ("disk", "cache", "policy"):
        layers[f"{phase}.self_s"] = metric(out["layers"][phase], "s")
        layers[f"{phase}.calls"] = metric(out["calls"][phase], "count")
    note(f"traced rounds: {out['rounds']}; layers + residual = "
         f"{out['traced_s']:.6f} s traced per round "
         f"(audit {'ok' if out['audit_ok'] else 'FAILED'})")
    return layers


def run_sim(args):
    from simbench import PIN_SEEDS, workload_cells

    base = ["--workload", args.workload, "--trace-seed",
            str(args.seed % PIN_SEEDS), "--scale", repr(args.scale),
            "--pins", args.pins, "--seconds", repr(args.seconds)]
    if args.trace:
        import svcbench
        from repro.trace import WORKLOADS as RUNNER_TRACES

        out = sim_child(["traced", *base], args.seconds)
        layers = sim_layers(out)
        # The service layers: the same cells through repro-sim serve
        # (synth-xl is not a trace the runner serves).
        servable = [cell for cell in workload_cells(
            args.workload, args.scale, args.seed % PIN_SEEDS)
            if cell[0] in RUNNER_TRACES]
        svc, attempted, failed, notes = svcbench.cell_layers(
            args.seed, args.seconds * CROSS_SHARE, servable)
        layers.update({name: metric(value, unit)
                       for name, (value, unit) in svc.items()})
        failed += out["failed"]
        return (layers, out["attempted"] + attempted, failed,
                failed == 0 and out["audit_ok"], out["mismatches"] + notes)
    # Each set-up sample is a ratio to the reference set-up of a fresh
    # process started just before it (reference.py).
    setup = []
    for _ in range(SIM_SETUP_SAMPLES // 2):
        setup.append((reference_setup(), sim_child(["setup", *base], 0)))
    setup.append((reference_setup(), sim_child(["measure", *base],
                                               args.seconds)))
    out = setup[-1][1]
    for _ in range(SIM_SETUP_SAMPLES - SIM_SETUP_SAMPLES // 2):
        setup.append((reference_setup(), sim_child(["setup", *base], 0)))
    note(f"timed cell runs: {out['timed_runs']}; unscaled median-run "
         f"refs_per_s {out['raw_refs_per_s']:.1f}; unscaled setup_s "
         f"{median([real['setup_s'] for _, real in setup]):.4f}, reference "
         f"{median([ref for ref, _ in setup]):.4f}, over {len(setup)} "
         f"processes")
    metrics = {
        "refs_per_s": metric(out["refs_per_s"], "1/s"),
        "op_p50_ms": metric(out["op_p50_ms"], "ms"),
        "setup_s": metric(median([real["setup_s"] / ref
                                  for ref, real in setup]) * REF_SETUP_S,
                          "s"),
        "peak_rss_mb": metric(out["peak_rss_mb"], "MB"),
    }
    return (metrics, out["attempted"], out["failed"], out["failed"] == 0,
            out["mismatches"])


def run_svc(args):
    import svcbench
    from simbench import pin_key

    metrics, attempted, failed, correct, notes, cold = svcbench.run(
        args.seed, args.seconds, bool(args.trace), args.scale)
    metrics = {name: metric(value, unit)
               for name, (value, unit) in metrics.items()}
    if args.trace:
        # The engine layers: the first cold cells the worker computed,
        # profiled in a fresh process against the digests it returned.
        cells = [(spec["trace"], spec["policy"], spec["disks"],
                  spec["discipline"], spec["scale"], spec["seed"])
                 for spec, _ in cold[:PROFILED_COLD_CELLS]]
        if not cells:
            raise SystemExit("perfbench: no cold cell succeeded to profile")
        (WORK / "cold_cells.json").write_text(json.dumps(cells))
        (WORK / "cold_pins.json").write_text(json.dumps(
            {pin_key(*cell): digest
             for cell, (_, digest) in zip(cells, cold)}))
        out = sim_child(["traced", "--cells", str(WORK / "cold_cells.json"),
                         "--pins", str(WORK / "cold_pins.json"),
                         "--seconds", repr(args.seconds * CROSS_SHARE)],
                        args.seconds)
        metrics.update(sim_layers(out))
        attempted += out["attempted"]
        failed += out["failed"]
        correct = correct and out["failed"] == 0 and out["audit_ok"]
        notes += out["mismatches"]
    return metrics, attempted, failed, correct, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplier on every trace scale (smoke tests)")
    parser.add_argument("--pins", default=str(ROOT / "perfbench" /
                                              "pins.json"),
                        help="pinned sim digests (smoke tests corrupt a copy)")
    args = parser.parse_args(argv)
    require_checkout()
    # Unwind on SIGTERM so every child process is stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runner = run_svc if args.workload == "svc-mixed" else run_sim
    metrics, attempted, failed, correct, notes = runner(args)
    for line in notes:
        note(line)
    note(f"{args.workload}: error_rate {failed}/{attempted} = "
         f"{failed / max(1, attempted):.4f}")
    emit({"correct": bool(correct), "attempted": int(attempted),
          "failed": int(failed), "metrics": metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())
