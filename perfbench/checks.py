"""Output checks, each against a computation made apart from the program.

Every check returns a list of failure messages; an empty list passes.
They take plain values, so the self-test (``selftest.py``) can feed each
one a corrupted input and show that it trips.

References:

* Table III: the paper's synthesized area and power, within the model's
  documented calibration tolerances (``tests/hw/test_table3_calibration.py``:
  6 % area, 13 % power).
* ``hw.sim``: the event-driven simulator must agree with the analytical
  energy model within 5 % in energy and 1 % in cycles
  (``docs/hw_sim.md``).
* Energy ordering: the paper's Table IV energy column falls with the
  datapath width, float32 > fixed32 > fixed16 > fixed8 > fixed4, and
  binary is the cheapest point.
* Accuracy: the paper's Table IV on SVHN shows no loss at 16 bits or
  more (86.77 / 86.78 / 86.77 %) and a collapse at fixed4 (NA) and
  binary (19.57 % against 84.03 % at fixed8).  The reduced budget here
  cannot reproduce the absolute values, so the checks test the sign of
  each effect with a margin of two standard errors of the difference
  between two test-set accuracies (a one-sided test at about 98 %), so
  that sampling noise alone neither passes nor fails them.
* Logits: the integer datapath oracle ``core.IntegerInference``.  The
  served fixed8 lanes must match it bit for bit.  Where the emulation is
  known not to be exact, logits may differ by up to 2 LSB of the output
  format and the argmax must match wherever the oracle's top-two margin
  is wider than twice that bound: the fixed16 lane (f32 accumulation of
  products wider than the mantissa) and the fixed8 network ``reproduce``
  trains (1 LSB off the oracle on a few test images of some seeds, on
  both backends).  The oracle is never used above 16 bits: at fixed32 it
  overflows int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Table III of the paper: (area mm^2, power mW) per precision
PAPER_TABLE3 = {
    "float32": (16.74, 1379.60),
    "fixed32": (14.13, 1213.40),
    "fixed16": (6.88, 574.75),
    "fixed8": (3.36, 219.87),
    "fixed4": (1.66, 111.17),
    "pow2": (3.05, 209.91),
    "binary": (1.21, 95.36),
}
AREA_TOLERANCE = 0.06
POWER_TOLERANCE = 0.13
SIM_ENERGY_TOLERANCE = 0.05
SIM_CYCLE_TOLERANCE = 0.01
ENERGY_ORDER = ("float32", "fixed32", "fixed16", "fixed8", "fixed4")
#: accuracy margins, in standard errors of a difference of two accuracies
MARGIN_SE = 2.0
#: where the emulation is known not to be exact, logits may differ from
#: the oracle by this many output LSBs
ORACLE_LSB_BOUND = 2


def check_table3(model: Dict[str, Tuple[float, float]]) -> List[str]:
    """``model``: precision -> (area mm^2, power mW) from ``hw``."""
    failures = []
    for key, (paper_area, paper_power) in PAPER_TABLE3.items():
        area, power = model[key]
        if abs(area / paper_area - 1.0) > AREA_TOLERANCE:
            failures.append(f"table3 {key}: area {area:.3f} mm2 vs paper {paper_area}")
        if abs(power / paper_power - 1.0) > POWER_TOLERANCE:
            failures.append(f"table3 {key}: power {power:.2f} mW vs paper {paper_power}")
    return failures


def check_sim(analytical: Dict[str, Tuple[float, int]],
              simulated: Dict[str, Tuple[float, int]]) -> List[str]:
    """Both map precision -> (energy uJ, cycles)."""
    failures = []
    for key, (energy, cycles) in analytical.items():
        sim_energy, sim_cycles = simulated[key]
        if abs(sim_energy / energy - 1.0) > SIM_ENERGY_TOLERANCE:
            failures.append(
                f"sim {key}: energy {sim_energy:.3f} uJ vs model {energy:.3f} uJ"
            )
        if abs(sim_cycles / cycles - 1.0) > SIM_CYCLE_TOLERANCE:
            failures.append(f"sim {key}: {sim_cycles} cycles vs model {cycles}")
    return failures


def check_energy_order(energy: Dict[str, float]) -> List[str]:
    """Per-image energy falls with width; binary is the lowest point."""
    failures = []
    for wide, narrow in zip(ENERGY_ORDER, ENERGY_ORDER[1:]):
        if not energy[wide] > energy[narrow]:
            failures.append(
                f"energy: {wide} {energy[wide]:.3f} uJ not above "
                f"{narrow} {energy[narrow]:.3f} uJ"
            )
    lowest = min(energy, key=energy.get)
    if lowest != "binary" or list(energy.values()).count(energy["binary"]) > 1:
        failures.append(f"energy: binary is not the single lowest point ({lowest})")
    return failures


def _se_diff(a: float, b: float, n: int) -> float:
    return math.sqrt(a * (1.0 - a) / n + b * (1.0 - b) / n)


def check_accuracy(accuracy: Dict[str, float], n_test: int,
                   classes: int = 10) -> List[str]:
    """The paper's Table IV properties on the SVHN task."""
    failures = []
    chance = 1.0 / classes
    base = accuracy["float32"]
    if base < 2.0 * chance:
        failures.append(f"accuracy: float32 {base:.3f} did not converge")
    for key in ("fixed32", "fixed16"):
        margin = MARGIN_SE * _se_diff(accuracy[key], base, n_test)
        if accuracy[key] < base - margin:
            failures.append(
                f"accuracy: {key} {accuracy[key]:.3f} lost more than "
                f"{margin:.3f} against float32 {base:.3f}"
            )
    fixed8 = accuracy["fixed8"]
    for key in ("fixed4", "binary"):
        margin = MARGIN_SE * _se_diff(accuracy[key], fixed8, n_test)
        if accuracy[key] > fixed8 - margin:
            failures.append(
                f"accuracy: {key} {accuracy[key]:.3f} not below fixed8 "
                f"{fixed8:.3f} by {margin:.3f}"
            )
    return failures


def check_logits(label: str, logits: np.ndarray, oracle: np.ndarray,
                 lsb: float, exact: bool) -> List[str]:
    """Rows of ``logits`` against the oracle's rows for the same images."""
    if exact:
        bad = np.flatnonzero(np.any(logits != oracle, axis=1))
        if bad.size:
            worst = float(np.abs(logits - oracle).max() / lsb)
            return [f"{label}: {bad.size} responses differ from the integer "
                    f"oracle (worst {worst:g} LSB)"]
        return []
    bound = ORACLE_LSB_BOUND * lsb
    failures = []
    worst = float(np.abs(logits - oracle).max())
    if worst > bound:
        failures.append(f"{label}: logits {worst / lsb:g} LSB from the oracle "
                        f"(bound {ORACLE_LSB_BOUND})")
    top2 = np.sort(oracle, axis=1)[:, -2:]
    clear = (top2[:, 1] - top2[:, 0]) > 2.0 * bound
    flips = np.count_nonzero(
        clear & (logits.argmax(axis=1) != oracle.argmax(axis=1))
    )
    if flips:
        failures.append(f"{label}: {flips} argmax differ from the oracle")
    return failures


@dataclass
class Lane:
    """One served model and everything its responses are checked against."""

    network: str
    precision: str
    energy_uj: float          # EnergyModel.evaluate, computed by the benchmark
    oracle: np.ndarray        # IntegerInference logits for every pool image
    lsb: float                # one LSB of the output format
    exact: bool               # bitwise (fixed8) or bounded (fixed16)

    @property
    def name(self) -> str:
        return f"{self.network}@{self.precision}"


def resolved(outcome: object) -> bool:
    """A request's outcome is a result, not an error or a lost future."""
    return outcome is not None and not isinstance(outcome, BaseException)


@dataclass
class Served:
    """One request: which lane and image, and how it ended.

    ``outcome`` is the result, the exception the future raised, or None
    when the future never resolved.
    """

    lane: int
    image: int
    outcome: object


def check_served(lanes: Sequence[Lane], served: Sequence[Served],
                 expected_count: int) -> List[str]:
    """Every future resolved, without error, with the right model,
    energy and logits."""
    failures = []
    if len(served) != expected_count:
        failures.append(f"served {len(served)} of {expected_count} requests")
    lost = sum(1 for s in served if s.outcome is None)
    errors = [s.outcome for s in served if isinstance(s.outcome, BaseException)]
    if lost:
        failures.append(f"{lost} futures never resolved")
    if errors:
        failures.append(f"{len(errors)} requests failed: {errors[0]!r}")
    by_lane: Dict[int, List[Served]] = {}
    for s in served:
        if resolved(s.outcome):
            by_lane.setdefault(s.lane, []).append(s)
    for index, items in sorted(by_lane.items()):
        lane = lanes[index]
        wrong_key = sum(
            1 for s in items
            if (s.outcome.model_key.network, s.outcome.model_key.precision)
            != (lane.network, lane.precision)
        )
        if wrong_key:
            failures.append(f"{lane.name}: {wrong_key} responses name another model")
        wrong_energy = sum(1 for s in items if s.outcome.energy_uj != lane.energy_uj)
        if wrong_energy:
            failures.append(
                f"{lane.name}: {wrong_energy} responses carry energy other "
                f"than EnergyModel.evaluate ({lane.energy_uj} uJ)"
            )
        logits = np.stack([s.outcome.logits for s in items])
        oracle = lane.oracle[[s.image for s in items]]
        failures.extend(check_logits(lane.name, logits, oracle, lane.lsb, lane.exact))
    return failures

