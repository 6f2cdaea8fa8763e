"""Helpers shared by the benchmark's workload modules.

Nothing here imports ``repro``: ``run.py`` must be able to refuse to run
(exit non-zero, print no result) in a directory that holds only the
benchmark, and the workload modules import ``repro`` only after
``run.py`` has put the checkout's ``src`` first on the path.
"""

import json
import os
import statistics
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

#: The checkout root: this file lives in ``<root>/perfbench/``.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Everything a run writes (result stores, temp files) lives under here.
WORK = ROOT / ".perfbench"


def require_checkout() -> None:
    """Exit non-zero, printing no result, unless the checkout's sources
    are present.  An installed ``repro`` elsewhere must never stand in
    for the code under test."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no repro sources under {SRC}; run from the root "
            "of a full checkout\n"
        )
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts: the checkout's
    sources first on the path and temp files kept inside the checkout."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    env["PYTHONHASHSEED"] = "0"
    return env


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def tail(values: Sequence[float], beyond: int = 10) -> Optional[Dict[str, float]]:
    """The highest percentile with at least ``beyond`` samples above it:
    the ``beyond + 1``-th largest value.  None with too few samples."""
    count = len(values)
    if count <= beyond:
        return None
    ordered = sorted(values)
    return {
        "value": ordered[count - beyond - 1],
        "percentile": 100.0 * (count - beyond) / count,
        "samples": count,
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set size of a process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def emit(result: Dict[str, object]) -> None:
    """Print the result object as the last line of standard output."""
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    sys.stdout.flush()


def note(line: str) -> None:
    """A human-readable line ahead of the result (stdout, not last)."""
    sys.stdout.write(line + "\n")
    sys.stdout.flush()
