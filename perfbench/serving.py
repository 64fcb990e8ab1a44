"""The two serving workloads: ``serve_inproc`` and ``serve_fleet_mixed``.

One round is three phases run back to back, each drained before the
next starts: a light and a heavy phase at fixed absolute offered rates,
then a saturation phase that submits a fixed number of requests as fast
as the bounded queue admits.  The rates are constants of the benchmark,
never derived from a capacity probe, so a parent commit and a change
see the same load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core import PrecisionKind, PrecisionSpec, QuantizedNetwork
from repro.data import load_dataset
from repro.hw import EnergyModel
from repro.serve import FleetConfig, FleetServer, InferenceServer, ModelStore
from repro.zoo import build_network, network_info

from checks import Lane, check_served, resolved
from common import integer_oracle, median, now, percentile, tail_supported
from loadgen import Phase, run_phase
from spans import Recorder

#: images per dataset in the request pool
POOL = 256
#: networks are built with this seed; the request images come from --seed
MODEL_SEED = 0
#: set-up is repeated this many times and its median reported
SETUPS = 3
#: warm-up: seconds at the heavy rate, then a burst of this many per lane
WARMUP_S = 0.5
WARMUP_BURST = 256


@dataclass(frozen=True)
class ServeSpec:
    lanes: Tuple[Tuple[str, str], ...]
    light: Tuple[float, int]          # (requests/s, requests)
    heavy: Tuple[float, int]
    saturation: int                   # requests
    fleet: bool


INPROC = ServeSpec(
    lanes=(("lenet_small", "fixed8"),),
    light=(1000.0, 1500),
    heavy=(10000.0, 15000),
    saturation=15000,
    fleet=False,
)
FLEET = ServeSpec(
    lanes=(
        ("lenet_small", "fixed8"),
        ("lenet_small", "fixed16"),
        ("convnet_small", "fixed8"),
    ),
    light=(600.0, 1200),
    heavy=(6000.0, 9000),
    saturation=12000,
    fleet=True,
)
WORKERS = 2
MAX_BATCH = 32
MAX_DELAY_MS = 2.0
REPLICAS = 2


def _pool(dataset: str, seed: int) -> np.ndarray:
    split = load_dataset(dataset, n_train=POOL, n_test=32, seed=seed)
    return split.train.images[:POOL]


class ServeRun:
    """Owns the server, request pools and oracle lanes of one run."""

    def __init__(self, spec: ServeSpec, seed: int, rec: Recorder):
        self.spec = spec
        self.seed = seed
        self.rec = rec
        self.server = None
        self.pools: Dict[str, np.ndarray] = {}
        self.lanes: List[Lane] = []
        self.layer = "fleet" if spec.fleet else "serve"
        self.setup_times: List[float] = []
        self.parts: Dict[str, List[float]] = {"data": [], "build": []}
        self._targets: List[Tuple[np.ndarray, str, str]] = []

    # -- set-up ------------------------------------------------------
    def _datasets(self) -> List[str]:
        return sorted({network_info(net).dataset for net, _ in self.spec.lanes})

    def _start_server(self):
        if self.spec.fleet:
            with self.rec.span("fleet.spawn"):
                server = FleetServer(FleetConfig(
                    replicas=REPLICAS, max_batch_size=MAX_BATCH,
                    max_delay_ms=MAX_DELAY_MS, routing="shared", seed=MODEL_SEED,
                    backend="fused", warm=list(self.spec.lanes),
                ))
                server.start()
            return server
        with self.rec.span("serve.store_build"):
            store = ModelStore(backend="fused", seed=MODEL_SEED)
            server = InferenceServer(store, workers=WORKERS,
                                     max_batch_size=MAX_BATCH,
                                     max_delay_ms=MAX_DELAY_MS)
            for net, precision in self.spec.lanes:
                server.warmup(net, precision)
        server.start()
        return server

    def setup(self) -> float:
        """Set up SETUPS times and keep the last server; returns the
        median set-up time.  Each set-up generates the request images,
        builds (or spawns) the servables and warms them up."""
        for _ in range(SETUPS):
            if self.server is not None:
                self.server.stop()
                self.server = None
            t0 = now()
            with self.rec.span("data.load"):
                self.pools = {ds: _pool(ds, self.seed) for ds in self._datasets()}
            t1 = now()
            self._targets = [(self.pools[network_info(net).dataset], net, precision)
                             for net, precision in self.spec.lanes]
            self.server = self._start_server()
            t2 = now()
            self._warmup()
            t3 = now()
            self.parts["data"].append(t1 - t0)
            self.parts["build"].append(t2 - t1)
            self.setup_times.append(t3 - t0)
        return median(self.setup_times)

    def _warmup(self) -> None:
        """Half a second at the heavy rate, then a saturating burst, so
        that every worker or replica has met the batch sizes the timed
        phases form."""
        lanes = len(self.spec.lanes)
        rate = self.spec.heavy[0]
        plan = [(i % lanes, i % POOL) for i in range(int(rate * WARMUP_S))]
        run_phase(self._submit, plan, lanes, rate)
        plan = [(i % lanes, i % POOL) for i in range(WARMUP_BURST * lanes)]
        run_phase(self._submit, plan, lanes, None)

    def build_oracle(self) -> None:
        """Integer-oracle logits and modelled energy for every lane,
        computed by the benchmark from the same weights and calibration
        images the servers use."""
        calibration = ModelStore(seed=MODEL_SEED)
        energy = EnergyModel()
        self.lanes = []
        for net, precision in self.spec.lanes:
            info = network_info(net)
            spec = PrecisionSpec.parse(precision)
            if spec.kind is not PrecisionKind.FIXED or spec.input_bits > 16:
                raise ValueError(f"no integer oracle for {precision}")
            qnet = QuantizedNetwork(build_network(net, seed=MODEL_SEED), spec)
            qnet.calibrate(calibration.calibration_for(info.dataset))
            oracle, lsb = integer_oracle(qnet, self.pools[info.dataset])
            self.lanes.append(Lane(
                network=net,
                precision=precision,
                energy_uj=energy.evaluate(
                    build_network(net, seed=MODEL_SEED), info.input_shape, spec
                ).energy_uj,
                oracle=oracle,
                lsb=lsb,
                exact=spec.input_bits <= 8,
            ))

    def _submit(self, lane: int, image: int):
        pool, net, precision = self._targets[lane]
        return self.server.submit(pool[image], net, precision)

    # -- rounds --------------------------------------------------------
    def _plan(self, round_index: int, phase: int, n: int) -> List[Tuple[int, int]]:
        rng = np.random.default_rng([self.seed, round_index, phase])
        images = rng.integers(0, POOL, size=n)
        lanes = len(self.spec.lanes)
        return [(i % lanes, int(images[i])) for i in range(n)]

    def ops_per_round(self) -> int:
        return self.spec.light[1] + self.spec.heavy[1] + self.spec.saturation

    def samples_note(self) -> str:
        light, heavy = self.spec.light[1], self.spec.heavy[1]
        return (f"per round: light {light} requests (p99 has {light // 100} beyond), "
                f"heavy {heavy} ({heavy // 100} beyond), saturation "
                f"{self.spec.saturation}")

    def round(self, index: int):
        """One light/heavy/saturation round: (end-to-end metrics, layer
        metrics, check failures, failed requests)."""
        spec = self.spec
        lanes = len(spec.lanes)
        phases: Dict[str, Phase] = {}
        for phase_index, (name, rate, n) in enumerate((
            ("light", spec.light[0], spec.light[1]),
            ("heavy", spec.heavy[0], spec.heavy[1]),
            ("saturated", None, spec.saturation),
        )):
            phases[name] = run_phase(self._submit, self._plan(index, phase_index, n),
                                     lanes, rate)
        failures: List[str] = []
        failed = 0
        for name, phase in phases.items():
            failed += sum(1 for s in phase.served if not resolved(s.outcome))
            failures += [f"{name}: {f}" for f in
                         check_served(self.lanes, phase.served, len(phase.served))]
        e2e: Dict[str, float] = {}
        for name in ("light", "heavy"):
            latency = phases[name].latency_ms
            if not tail_supported(latency.size, 99.0):
                raise ValueError(f"{name}: too few requests for a p99")
            e2e[f"{name}.p50_ms"] = percentile(latency, 50)
            e2e[f"{name}.p99_ms"] = percentile(latency, 99)
        saturated = phases["saturated"]
        e2e["job_s"] = saturated.wall_s
        e2e["img_s"] = len(saturated.served) / saturated.wall_s
        layer = self._layer_metrics(phases)
        if self.rec.enabled:
            self._record_requests(phases)
        return e2e, layer, failures, failed

    def _layer_metrics(self, phases: Dict[str, Phase]) -> Dict[str, float]:
        heavy = phases["heavy"]
        ok = [r for phase in phases.values() for r in phase.results if resolved(r)]
        sizes = np.array([r.batch_size for r in phases["saturated"].results
                          if resolved(r)])
        late = np.concatenate([phases["light"].late_ms, heavy.late_ms])
        return {
            f"{self.layer}.submit_us": float(np.mean(heavy.submitted - heavy.sent) * 1e6),
            f"{self.layer}.queue_ms.p50": percentile([r.queue_ms for r in ok], 50),
            f"{self.layer}.compute_ms.p50": percentile(
                [r.latency_ms - r.queue_ms for r in ok], 50),
            # a batch of b requests contributes b rows of size b
            f"{self.layer}.mean_batch": float(sizes.size / np.sum(1.0 / sizes)),
            "loadgen.late_ms.p99": percentile(late, 99),
            "loadgen.late_ms.max": float(late.max()),
            # submissions the bounded queue refused, all retried
            "loadgen.retries": float(sum(p.retries for p in phases.values())),
        }

    def _record_requests(self, phases: Dict[str, Phase]) -> None:
        """Request timelines as spans sharing the request's id; the
        saturation phase, which has no per-request completion times, as
        one span."""
        rec = self.rec
        layer = self.layer
        offset = 0
        saturated = phases["saturated"]
        rec.add("client.saturated", saturated.sent.min(), saturated.done.max())
        for phase in (phases["light"], phases["heavy"]):
            for i, result in enumerate(phase.results):
                request = offset + i
                due, sent, submitted, done = (phase.due[i], phase.sent[i],
                                              phase.submitted[i], phase.done[i])
                root = rec.add("client.request", due, done, request=request)
                if sent > due:
                    rec.add("loadgen.late", due, sent, parent=root, request=request)
                rec.add(f"{layer}.submit", sent, submitted, parent=root, request=request)
                if not resolved(result):
                    continue
                # the server times queue and compute from its own enqueue
                # stamp, taken inside submit
                queued = sent + result.queue_ms / 1e3
                finished = sent + result.latency_ms / 1e3
                if queued > submitted:
                    rec.add(f"{layer}.queue", submitted, queued, parent=root,
                            request=request)
                rec.add(f"{layer}.compute", max(queued, submitted), finished,
                        parent=root, request=request)
            offset += len(phase.results)

    def stop(self) -> Dict[str, float]:
        """Stop the server; returns the fleet's replica-side compute p50
        (over the server's life, which the replicas report at stop)."""
        if self.server is None:
            return {}
        server, self.server = self.server, None
        server.stop()
        if not self.spec.fleet:
            return {}
        return {"fleet.replica_compute_ms.p50":
                server.fleet_report().replica_compute.latency_ms_p50}

    def setup_layer_metrics(self) -> Dict[str, float]:
        key = "fleet.spawn_s" if self.spec.fleet else "serve.store_build_s"
        return {"data.load_s": median(self.parts["data"]),
                key: median(self.parts["build"])}
