"""Shared helpers: locating the program's source tree, statistics, memory.

The benchmark drives the program only through the public functions of
its modules, imported from ``src/`` of the checkout the benchmark sits
in.  It never falls back to an installed copy: a directory without the
program's source is an error, not a silent benchmark of something else.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
import time
from typing import Dict, Iterable, List, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: traces and other run outputs, inside the checkout (ignored by git)
OUT_DIR = os.path.join(ROOT, ".bench_out")


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def use_program_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``.

    Raises :class:`SourceMissing` when the checkout has no program
    source, so the benchmark can never measure an installed package by
    accident.  Spawned replica processes inherit ``sys.path``.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SourceMissing(f"no program source under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def now() -> float:
    return time.perf_counter()


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_supported(count: int, q: float) -> bool:
    """At least ten samples lie beyond the ``q``-th percentile."""
    return count * (100.0 - q) / 100.0 >= 10.0


def end_child_processes(timeout: float = 10.0) -> None:
    """Stop every process this one started and wait for each to end.

    The fleet's replicas are stopped by ``FleetServer.stop``; any child
    still alive (a server whose start failed half way, say) is
    terminated, then killed.  Shared memory also starts the
    ``multiprocessing`` resource tracker, which would otherwise outlive
    this process for a moment after it exits; it is stopped and reaped
    here, after every segment has been unlinked.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: throughput figures take the best round, the one least disturbed by
#: other work on a shared machine; every other figure takes the median
BEST_ROUND = {"img_s": max, "job_s": min}


def over_rounds(rounds: List[Dict[str, float]]) -> Dict[str, float]:
    """Combine per-round figures that all rounds report."""
    return {key: BEST_ROUND.get(key, median)(r[key] for r in rounds)
            for key in rounds[0]}


def integer_oracle(qnet, images, chunk: int = 32):
    """``core.IntegerInference`` logits for ``images`` and one LSB of the
    output format.  Chunked: the oracle lowers its whole input at once in
    64-bit integers, which would otherwise set the process's peak memory."""
    import numpy as np
    from repro.core import IntegerInference

    oracle = IntegerInference(qnet)
    logits = np.concatenate([oracle.predict(images[i : i + chunk])
                             for i in range(0, images.shape[0], chunk)])
    last = qnet.pipeline.layers[-1]
    return logits, 2.0 ** -last.quantizer.frac_bits_for(last.tracker.max_abs)
