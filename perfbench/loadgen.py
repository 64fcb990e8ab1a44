"""Open-loop load from one thread in one process.

Requests are due on a fixed absolute schedule (request ``i`` is due
``i / rate`` seconds after the phase starts), whatever the server does,
so a slow server meets a growing queue instead of less load.  Each
request is timed from when it was due, which charges a generator or
server stall to every request it delays; how late the generator sent
each request is kept apart so a generator stall can be told from server
latency.

A saturation phase has no schedule: it submits as fast as the bounded
queue admits.  A request the queue refuses (``ServerOverloadedError``)
is retried after a short sleep and counted as a retry, not a failure.

In a phase with a schedule, completion is observed by one collector
thread per lane that waits on that lane's futures in submission order
and stamps each as it resolves, so a slow lane never delays the stamps
of another.  A saturation phase only needs the time its last request
resolved, which the generator takes itself after submitting.
"""

from __future__ import annotations

import gc
import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from repro.errors import ResultTimeoutError, ServerOverloadedError

from checks import Served

#: a future that has not resolved this long after submission is lost
RESULT_TIMEOUT_S = 60.0
#: back-off after the bounded queue refuses a request
RETRY_SLEEP_S = 0.001


class _Collector(threading.Thread):
    def __init__(self, count: int):
        super().__init__(name="bench-collector", daemon=True)
        self.inbox: "queue.SimpleQueue[Optional[Tuple[int, object]]]" = queue.SimpleQueue()
        self.done = np.zeros(count)
        self.outcomes: List[Tuple[int, object]] = []

    def run(self) -> None:
        while True:
            item = self.inbox.get()
            if item is None:
                return
            index, future = item
            outcome = _outcome(future)
            self.done[index] = time.perf_counter()
            self.outcomes.append((index, outcome))


@dataclass
class Phase:
    """Timings (perf_counter seconds) and outcomes of one phase."""

    due: np.ndarray
    sent: np.ndarray
    submitted: np.ndarray
    done: np.ndarray
    served: List[Served]
    retries: int

    @property
    def results(self) -> List[object]:
        return [s.outcome for s in self.served]

    @property
    def latency_ms(self) -> np.ndarray:
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self) -> np.ndarray:
        return (self.sent - self.due) * 1e3

    @property
    def wall_s(self) -> float:
        return float(self.done.max() - self.sent.min())


def run_phase(submit: Callable[[int, int], object], plan: Sequence[Tuple[int, int]],
              lanes: int, rate: Optional[float]) -> Phase:
    """Send ``plan`` (lane, image) requests through ``submit``.

    ``rate`` is the offered load in requests per second, or None for a
    saturation phase.  Returns once every future has resolved or timed
    out.  Everything alive before the phase is collected and frozen
    first, so the garbage collector's passes during the phase traverse
    only the phase's own objects; it is unfrozen afterwards, so nothing
    that dies later escapes collection.
    """
    gc.collect()
    gc.freeze()
    try:
        return _run_phase(submit, plan, lanes, rate)
    finally:
        gc.unfreeze()


def _run_phase(submit, plan, lanes, rate) -> Phase:
    n = len(plan)
    # a saturation phase needs only its end time, so no collector
    # threads compete with the server for the interpreter lock
    collectors = [_Collector(n) for _ in range(lanes if rate is not None else 0)]
    for collector in collectors:
        collector.start()
    due = np.zeros(n)
    sent = np.zeros(n)
    submitted = np.zeros(n)
    futures = []
    retries = 0
    start = time.perf_counter() + 0.001
    for i, (lane, image) in enumerate(plan):
        now = time.perf_counter()
        if rate is None:
            due[i] = now
        else:
            due[i] = start + i / rate
            if now < due[i]:
                time.sleep(due[i] - now)
                now = time.perf_counter()
        sent[i] = now
        while True:
            try:
                future = submit(lane, image)
                break
            except ServerOverloadedError:
                retries += 1
                time.sleep(RETRY_SLEEP_S)
        submitted[i] = time.perf_counter()
        if collectors:
            collectors[lane].inbox.put((i, future))
        else:
            futures.append(future)
    if collectors:
        for collector in collectors:
            collector.inbox.put(None)
        for collector in collectors:
            collector.join(RESULT_TIMEOUT_S + 30.0)
        done = np.zeros(n)
        results: List[object] = [None] * n
        for collector in collectors:
            done += collector.done
            for index, outcome in collector.outcomes:
                results[index] = outcome
    else:
        results, end = _wait_all(futures)
        done = np.full(n, end)
    served = [Served(lane, image, results[i]) for i, (lane, image) in enumerate(plan)]
    return Phase(due, sent, submitted, done, served, retries)


def _outcome(future) -> object:
    try:
        return future.result(timeout=RESULT_TIMEOUT_S)
    except ResultTimeoutError:
        return None
    except Exception as error:  # the server's typed failure
        return error


def _wait_all(futures: List[object]) -> Tuple[List[object], float]:
    """Outcomes of every future and the time the last one resolved.

    The queue is bounded, so only the newest requests can still be
    pending once submission ends: wait for those first, stamp the time,
    then take every outcome (waiting again, and re-stamping, only if an
    older future is unexpectedly still pending).
    """
    for future in reversed(futures[-4096:]):
        _outcome(future)
    end = time.perf_counter()
    if not all(future.done() for future in futures):
        for future in futures:
            _outcome(future)
        end = time.perf_counter()
    return [_outcome(future) for future in futures], end
