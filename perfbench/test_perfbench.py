"""Tiny-scale smoke tests of every benchmark workload.

    PYTHONPATH=src python -m pytest perfbench -q

Each test runs ``perfbench/run.py`` as the benchmark is run, at a reduced
trace scale and a short window, and checks the contract of its last
output line: every metric ``BENCHMARK.json`` names is there with its
unit, and a wrong pinned digest is counted as a failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import svcbench  # noqa: E402
SCALE = "0.1"

def declared(section):
    """{name: unit} of one metric section of ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[section]}


def bench(*args, timeout=300):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=ROOT,
        capture_output=True, text=True, timeout=timeout,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def assert_metrics(result, section):
    """Every workload prints every metric of the section: a traced run
    follows its cells through both the engine and the service."""
    units = declared(section)
    assert set(result["metrics"]) == set(units)
    for name, value in result["metrics"].items():
        assert value["unit"] == units[name], name
        assert isinstance(value["value"], (int, float)), name


@pytest.fixture(scope="module")
def pins(tmp_path_factory):
    """Digests pinned for the reduced scale, written by simbench's pin
    mode the way pins.json was written for the full scale."""
    path = tmp_path_factory.mktemp("pins") / "pins.json"
    subprocess.run(
        [sys.executable, "perfbench/simbench.py", "pin", "--scale", SCALE,
         "--pins", str(path)],
        cwd=ROOT, check=True, timeout=300,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    return path


@pytest.mark.parametrize("workload", ["sim-engine", "sim-policy"])
def test_sim_workload_emits_every_metric(workload, pins):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        result = bench("--workload", workload, "--seed", "11",
                       "--seconds", "0.5", "--trace", trace,
                       "--scale", SCALE, "--pins", str(pins))
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] > 0
        assert_metrics(result, section)


def test_corrupted_pin_counts_as_failure(pins, tmp_path):
    table = json.loads(pins.read_text())
    corrupted = tmp_path / "pins.json"
    corrupted.write_text(json.dumps(
        {key: "0" * 64 if key.endswith("#3") else digest
         for key, digest in table.items()}))
    result = bench("--workload", "sim-policy", "--seed", "3",
                   "--seconds", "0.5", "--scale", SCALE,
                   "--pins", str(corrupted))
    assert result["correct"] is False
    assert result["failed"] > 0


def read_sample(expect, record_hash, digest, kind="read"):
    return {"kind": kind, "path": f"/v1/results/{expect}", "status": 200,
            "expect": expect, "hash": record_hash, "digest": digest,
            "latency_s": 0.002}


def test_svc_check_judges_records_by_the_hash_requested():
    stored = {"a" * 64: "digest-a", "b" * 64: "digest-b"}
    good = read_sample("a" * 64, "a" * 64, "digest-a")
    empty = read_sample("a" * 64, None, None)
    other_cell = read_sample("a" * 64, "b" * 64, "digest-b", kind="repeat")
    unknown = read_sample("c" * 64, None, None)
    cold_wrong_cell = read_sample("d" * 64, "b" * 64, "digest-b",
                                  kind="cell")
    cold = read_sample("e" * 64, "e" * 64, "digest-e", kind="cell")
    join = read_sample("e" * 64, "e" * 64, "digest-e", kind="join")
    join_differs = read_sample("e" * 64, "e" * 64, "other", kind="join")
    samples = [good, empty, other_cell, unknown, cold_wrong_cell, cold,
               join, join_differs]
    failed, notes = svcbench.check(samples, stored)
    assert failed == 5, notes
    assert [s["ok"] for s in samples] == (
        [True] + [False] * 4 + [True, True, False])


def test_svc_workload_emits_every_metric():
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        result = bench("--workload", "svc-mixed", "--seed", "5",
                       "--seconds", "4", "--trace", trace, "--scale", SCALE)
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] > 0
        assert_metrics(result, section)


def test_refuses_to_run_without_sources(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-engine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
