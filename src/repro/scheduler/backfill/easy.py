"""EASY backfilling (Lifka 1995) and an aggressive greedy variant.

EASY keeps a single reservation for the highest-priority blocked job and
allows any waiting job to jump ahead provided it cannot delay that
reservation: the candidate either finishes (according to the active runtime
estimator) before the reservation time, or it is narrow enough to fit in the
processors that will still be free once the reserved job starts.

The runtime estimator is what distinguishes the paper's baselines:

* ``EASY``      -- EASY + :class:`~repro.prediction.UserEstimate`
* ``EASY-AR``   -- EASY + :class:`~repro.prediction.ActualRuntime`
* Figure 1      -- EASY + :class:`~repro.prediction.NoisyPrediction`

The candidate ordering is configurable; the paper's reward baseline backfills
in shortest-first order (``order="sjf"``), classic EASY scans in arrival
order (``order="fcfs"``).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.prediction.predictors import RuntimeEstimator
from repro.scheduler.backfill.base import BackfillStrategy
from repro.scheduler.events import DecisionPoint, arrival_key
from repro.workloads.job import Job

__all__ = ["EasyBackfill", "GreedyBackfill"]

_ORDERS = ("fcfs", "sjf")


def _order_candidates(
    decision: DecisionPoint, order: str, estimator: RuntimeEstimator
) -> Iterable[Job]:
    if order == "fcfs" and decision.queue_sorted:
        # A subsequence of a queue in arrival order, derived as far as the
        # scan walks it.
        return decision.iter_candidates()
    candidates = decision.candidates
    if order == "fcfs":
        return sorted(candidates, key=arrival_key)
    if order == "sjf":
        return sorted(candidates, key=lambda j: (estimator(j), j.submit_time, j.job_id))
    raise ValueError(f"unknown candidate order {order!r}; expected one of {_ORDERS}")


class EasyBackfill(BackfillStrategy):
    """EASY backfilling with a configurable candidate scan order."""

    def __init__(self, order: str = "fcfs"):
        if order not in _ORDERS:
            raise ValueError(f"unknown candidate order {order!r}; expected one of {_ORDERS}")
        self.order = order
        self.name = "EASY" if order == "fcfs" else f"EASY-{order}"

    def select_backfill(
        self, decision: DecisionPoint, estimator: RuntimeEstimator
    ) -> Optional[Job]:
        for job in _order_candidates(decision, self.order, estimator):
            if not decision.would_delay(job, estimator(job)):
                return job
        return None

    def __repr__(self) -> str:
        return f"EasyBackfill(order={self.order!r})"


class GreedyBackfill(BackfillStrategy):
    """Backfill the first fitting job regardless of whether it delays the reservation.

    This is the "maximum backfilling area" extreme of the trade-off discussed
    in the paper's introduction: it keeps utilization high but can starve the
    reserved job.  It is used by the ablation benchmarks as the opposite pole
    to :class:`~repro.scheduler.backfill.none.NoBackfill`.
    """

    def __init__(self, order: str = "sjf"):
        if order not in _ORDERS:
            raise ValueError(f"unknown candidate order {order!r}; expected one of {_ORDERS}")
        self.order = order
        self.name = f"greedy-{order}"

    def select_backfill(
        self, decision: DecisionPoint, estimator: RuntimeEstimator
    ) -> Optional[Job]:
        return next(iter(_order_candidates(decision, self.order, estimator)), None)

    def __repr__(self) -> str:
        return f"GreedyBackfill(order={self.order!r})"
