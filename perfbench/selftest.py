"""Self-test: the benchmark notices a slower layer, where it should and only there.

Usage (from the root of a checkout; five runs per repeat)::

    python3 perfbench/selftest.py [--seed 7] [--seconds 20] [--repeats 5]

Delays are injected through ``launcher.py`` only (``run.py --inject``);
the program is not modified.  The test passes when

* a fixed delay in the read-path ``peel_csr`` moves ``detect_p50_ms`` (the
  read probes) beyond its bound on every workload, while ``setup_s`` and
  the metrics of the write traffic, which never reads, stay within theirs;
* a fixed delay in ``WriteAheadLog.append_op`` moves ``ack_p50_ms`` on
  ingest-single beyond its bound;
* ``BENCHMARK.json`` lists workloads the code defines and exactly the
  per-layer metrics it produces.

Each comparison is the median of ``--repeats`` injected runs against the
median of as many base runs of the same seed, judged with the bounds in
``BENCHMARK.json``.  The base runs start through the launcher too, with a
zero delay, so the delay is the only difference.  The runs are
interleaved (base, peel, wal, base, ...), so a slow spell of the machine
falls on both sides.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
LOWER_IS_BETTER = {m["name"]: m["better"] == "lower" for m in SPEC["end_to_end"]}
#: Metrics that must not move with a slower read peel: those of the write
#: traffic (only the read probes after it, detect_*, call the peel) and
#: ``setup_s``, to which the delay adds 60 ms of one detect in a ~3.5 s set-up.
STAYS = ["setup_s", "ack_p50_ms", "ack_p95_ms", "ingest_eps", "rss_mb", "disk_bytes_per_edge", "cpu_us_per_edge"]
PEEL_DELAY_MS = 60
WAL_DELAY_MS = 5
BASE = "peel=0"


def run(workload: str, seed: int, seconds: int, inject: List[str]) -> Dict[str, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    cmd += [f"--inject={spec}" for spec in inject]
    out = subprocess.run(cmd, cwd=str(HERE.parent), capture_output=True, text=True, timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} {inject}: run failed\n{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    return {name: cell["value"] for name, cell in result["metrics"].items()}


def change(name: str, base: Dict[str, float], slow: Dict[str, float]) -> float:
    """Relative worsening of ``name`` (positive = worse)."""
    ratio = slow[name] / base[name]
    return ratio - 1.0 if LOWER_IS_BETTER[name] else 1.0 / ratio - 1.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    failures: List[str] = []

    listed = [w["name"] for w in SPEC["workloads"]]
    if not set(listed) <= set(WORKLOADS):
        failures.append("BENCHMARK.json lists a workload workloads.WORKLOADS does not define")
    if [m["name"] for m in SPEC["per_layer"]] != PER_LAYER:
        failures.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")

    def judge(label: str, name: str, base: Dict[str, float], slow: Dict[str, float], moves: bool) -> None:
        delta = change(name, base, slow)
        ok = delta > BOUNDS[name] if moves else abs(delta) <= BOUNDS[name]
        verdict = "moves" if moves else "stays"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {name} {base[name]:.4g} -> {slow[name]:.4g} "
              f"({delta:+.1%}, bound {BOUNDS[name]:.0%}, expected: {verdict})")
        if not ok:
            failures.append(f"{label}: {name}")

    peel, wal = f"peel={PEEL_DELAY_MS}", f"wal={WAL_DELAY_MS}"
    configs = [(w, BASE) for w in listed] + [(w, peel) for w in listed] + [("ingest-single", wal)]
    results: Dict[tuple, List[Dict[str, float]]] = {}
    for _ in range(args.repeats):
        for workload, inject in configs:
            runs = results.setdefault((workload, inject), [])
            runs.append(run(workload, args.seed, args.seconds, [inject]))

    def median(workload: str, inject: str) -> Dict[str, float]:
        runs = results[(workload, inject)]
        return {name: statistics.median(r[name] for r in runs) for name in runs[0]}

    for workload in listed:
        base, slow = median(workload, BASE), median(workload, peel)
        judge(f"peel +{PEEL_DELAY_MS}ms on {workload}", "detect_p50_ms", base, slow, True)
        for name in STAYS:
            judge(f"peel +{PEEL_DELAY_MS}ms on {workload}", name, base, slow, False)
    base, slow = median("ingest-single", BASE), median("ingest-single", wal)
    judge(f"wal +{WAL_DELAY_MS}ms on ingest-single", "ack_p50_ms", base, slow, True)

    print("selftest " + ("passed" if not failures else "FAILED: " + "; ".join(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
