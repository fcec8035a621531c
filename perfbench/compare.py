"""Compare two sets of benchmark runs, refusing mismatched environments.

Usage::

    python3 perfbench/run.py --workload ingest-single --seed 1 --seconds 10 >> parent.txt
    ...                                                                     >> change.txt
    python3 perfbench/compare.py parent.txt change.txt

Each file holds the captured stdout of any number of runs.  Results whose
environment differs in active kernel or CPU count are refused (exit 2):
a silent ``auto`` -> python kernel fallback would read as a 5x
regression.  For every workload and end-to-end metric the script prints
both medians and quartile spreads and flags a change whose median is
worse than the parent's by more than the metric's bound in
``BENCHMARK.json`` (exit 1).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
COMPARED_ENV = ("kernel_active", "nproc")

Runs = Dict[str, List[Dict[str, float]]]


def load(path: str) -> Tuple[Runs, List[dict]]:
    runs: Runs = {}
    envs: List[dict] = []
    workload = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("env "):
            envs.append(json.loads(line[4:]))
        elif line.startswith("workload "):
            workload = line.split()[1].rstrip(":")
        elif line.startswith('{"correct"') and workload is not None:
            result = json.loads(line)
            # Keep timed runs only: a --trace 1 result carries per-layer metrics.
            if result["correct"] and not result["failed"] and "setup_s" in result["metrics"]:
                runs.setdefault(workload, []).append(
                    {name: cell["value"] for name, cell in result["metrics"].items()}
                )
    return runs, envs


def spread(values: List[float]) -> Tuple[float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    (parent, parent_env), (change, change_env) = load(argv[0]), load(argv[1])
    seen = {tuple(env.get(key) for key in COMPARED_ENV) for env in parent_env + change_env}
    if len(seen) != 1:
        print(f"refusing to compare: {COMPARED_ENV} differ across runs: {sorted(map(str, seen))}")
        return 2
    worse = []
    for workload in sorted(set(parent) & set(change)):
        print(f"{workload}: {len(parent[workload])} parent runs, {len(change[workload])} change runs")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            p_med, p_iqr = spread([r[name] for r in parent[workload]])
            c_med, c_iqr = spread([r[name] for r in change[workload]])
            delta = c_med / p_med - 1.0
            if metric["better"] == "higher":
                delta = -delta
            flag = ""
            if delta > metric["bound"]:
                flag = "  WORSE beyond bound"
                worse.append(f"{workload} {name}")
            elif p_iqr > metric["bound"]:
                flag = "  unresolved: parent spread exceeds the bound"
            print(f"  {name:<22} {p_med:12.4f} (iqr {p_iqr:.1%}) -> {c_med:12.4f} (iqr {c_iqr:.1%})"
                  f"  {delta:+.1%} worse, bound {metric['bound']:.0%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
