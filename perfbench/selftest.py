"""Show that every output check and the regression gate can trip.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Each case runs a check on a clean input, which must pass, and on a
corrupted copy, which must fail:

* a served fixed8 logit moved by one LSB (integer oracle);
* a lost future (a request whose future never resolved);
* the fixed4 and fixed8 accuracies swapped (Table IV properties);
* ``hw.sim`` energy 5.1 % away from the analytical model;
* a Table III area 7 % away from the paper;
* fixed16 energy above fixed32 (energy ordering);
* every end-to-end metric regressed just beyond its bound, and just
  within it (regression gate).

Exit code 0 when every case behaves so, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from typing import Callable, List, Tuple

from common import ROOT, SourceMissing, use_program_source

#: the paper's Table IV SVHN accuracies; NA (fixed4) is scored as chance
PAPER_SVHN = {"float32": 0.8677, "fixed32": 0.8678, "fixed16": 0.8677,
              "fixed8": 0.8403, "fixed4": 0.10, "pow2": 0.8485, "binary": 0.1957}
TEST_IMAGES = 900


def _served_case():
    """Real responses from an in-process server, checked against the oracle."""
    import serving
    from checks import check_served
    from loadgen import run_phase
    from spans import Recorder

    run = serving.ServeRun(serving.INPROC, seed=123, rec=Recorder(False))
    try:
        run.setup()
        run.build_oracle()
        phase = run_phase(run._submit, run._plan(0, 0, 64), 1, 2000.0)
    finally:
        run.stop()
    served = phase.served
    lane = run.lanes[0]

    def perturbed():
        first = served[0]
        logits = first.outcome.logits.copy()
        logits[0] += lane.lsb
        bad = dataclasses.replace(first, outcome=dataclasses.replace(
            first.outcome, logits=logits))
        return [bad] + served[1:]

    def lost():
        return served[:-1] + [dataclasses.replace(served[-1], outcome=None)]

    check = lambda items: check_served(run.lanes, items, len(served))  # noqa: E731
    return [
        ("fixed8 logit moved by one LSB", check, served, perturbed()),
        ("lost future", check, served, lost()),
    ]


def _paper_cases():
    from checks import (
        check_accuracy,
        check_energy_order,
        check_sim,
        check_table3,
    )
    from repro.core import PAPER_PRECISIONS
    from repro.hw import Accelerator, EnergyModel, simulate
    from repro.zoo import build_network, network_info

    network = build_network("convnet", seed=0)
    shape = network_info("convnet").input_shape
    energy, simulated, table3 = {}, {}, {}
    for spec in PAPER_PRECISIONS:
        report = EnergyModel().evaluate(network, shape, spec)
        energy[spec.key] = (report.energy_uj, report.total_cycles)
        accelerator = Accelerator(spec)
        table3[spec.key] = (accelerator.area_mm2, accelerator.power_mw)
        sim = simulate(network, shape, accelerator)
        simulated[spec.key] = (sim.energy_uj, sim.total_cycles)

    swapped = dict(PAPER_SVHN, fixed4=PAPER_SVHN["fixed8"], fixed8=PAPER_SVHN["fixed4"])
    far_sim = dict(simulated, fixed8=(energy["fixed8"][0] * 1.051, energy["fixed8"][1]))
    far_area = dict(table3, fixed8=(3.36 * 1.07, table3["fixed8"][1]))
    per_image = {k: e for k, (e, _) in energy.items()}
    reordered = dict(per_image, fixed16=per_image["fixed32"] * 1.01)
    return [
        ("accuracy ordering swapped",
         lambda acc: check_accuracy(acc, TEST_IMAGES), PAPER_SVHN, swapped),
        ("simulator 5.1 % from the model",
         lambda sim: check_sim(energy, sim), simulated, far_sim),
        ("Table III area 7 % from the paper", check_table3, table3, far_area),
        ("energy ordering broken", check_energy_order, per_image, reordered),
    ]


def _gate_cases():
    from compare import compare

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        end_to_end = json.load(handle)["end_to_end"]

    def runs(worse: str = "", share: float = 0.0) -> dict:
        """Ten runs; metric ``worse`` is ``share`` of its bound worse."""
        def value(metric: dict, i: int) -> float:
            step = metric["bound"] * share if metric["name"] == worse else 0.0
            sign = 1.0 if metric["better"] == "lower" else -1.0
            return (1.0 + 0.001 * i) * (1.0 + sign * step)
        return {"w": [{"correct": True, "attempted": 100, "failed": 0,
                       "metrics": {m["name"]: {"value": value(m, i), "unit": m["unit"]}
                                   for m in end_to_end}}
                      for i in range(10)]}

    parent = runs()
    return [
        (f"{m['name']} regressed just beyond its bound",
         lambda change: compare(parent, change, end_to_end),
         runs(m["name"], 0.98), runs(m["name"], 1.02))
        for m in end_to_end
    ]


def main() -> int:
    try:
        use_program_source()
    except SourceMissing as error:
        print(f"selftest: {error}", file=sys.stderr)
        return 2
    cases: List[Tuple[str, Callable, object, object]] = []
    cases += _served_case()
    cases += _paper_cases()
    cases += _gate_cases()
    broken = 0
    for name, check, clean, corrupted in cases:
        clean_failures = check(clean)
        trips = check(corrupted)
        ok = not clean_failures and bool(trips)
        broken += not ok
        detail = trips[0] if trips else "did NOT trip"
        if clean_failures:
            detail = f"clean input failed: {clean_failures[0]}"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"{len(cases) - broken} of {len(cases)} checks trip on their corrupted input")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
