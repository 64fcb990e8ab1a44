"""Regression gate: compare two sets of benchmark runs.

Usage::

    python3 perfbench/compare.py parent.json change.json

Each file maps a workload name to the list of result objects its runs
printed (the last line of ``run.py``'s output).  The change fails when
any run's checks failed, when its share of failed operations differs
from the parent's, or when the median of an end-to-end metric is worse
than the parent's median by more than the metric's bound in
BENCHMARK.json.  Exit code 0 means no regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List

from common import ROOT


def compare(parent: Dict[str, List[dict]], change: Dict[str, List[dict]],
            end_to_end: List[dict]) -> List[str]:
    failures = []
    for workload, runs in sorted(change.items()):
        base = parent[workload]
        if not all(run["correct"] for run in runs):
            failures.append(f"{workload}: a run failed its output checks")
        shares = {run["failed"] / run["attempted"] for run in base + runs}
        if len(shares) > 1:
            failures.append(f"{workload}: failed-operation shares differ {sorted(shares)}")
        for metric in end_to_end:
            name = metric["name"]
            old = statistics.median(run["metrics"][name]["value"] for run in base)
            new = statistics.median(run["metrics"][name]["value"] for run in runs)
            worse = (new - old) / old if metric["better"] == "lower" else (old - new) / old
            if worse > metric["bound"]:
                failures.append(
                    f"{workload}: {name} median {new:.6g} is {100 * worse:.1f}% "
                    f"worse than {old:.6g} (bound {100 * metric['bound']:.0f}%)"
                )
    return failures


def main(argv: List[str]) -> int:
    with open(f"{ROOT}/BENCHMARK.json") as handle:
        declared = json.load(handle)
    with open(argv[0]) as handle:
        parent = json.load(handle)
    with open(argv[1]) as handle:
        change = json.load(handle)
    failures = compare(parent, change, declared["end_to_end"])
    for failure in failures:
        print(f"REGRESSION: {failure}")
    print("no regression" if not failures else f"{len(failures)} regressions")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
