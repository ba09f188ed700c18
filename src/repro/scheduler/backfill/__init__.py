"""Backfilling strategies: none, EASY, conservative, greedy, and RL-driven.

Every strategy answers one question at a
:class:`~repro.scheduler.events.DecisionPoint`: *which waiting job (if any)
may start right now without unacceptably delaying the blocked
highest-priority job?*  The per-job formulation (the simulator asks again
after every started job) is what lets heuristics and the paper's RL agent
share a single simulation loop -- and what the vectorized rollout engine
steps in lockstep across environments.

* :mod:`~repro.scheduler.backfill.none` -- never backfill (base-policy lower bound).
* :mod:`~repro.scheduler.backfill.easy` -- EASY (single reservation) and a
  greedy variant; candidate order configurable (fcfs/sjf).
* :mod:`~repro.scheduler.backfill.conservative` -- every waiting job holds a
  reservation; backfills may delay no one.
* :mod:`~repro.scheduler.backfill.profile` -- the reservation profile behind
  conservative reservations: per node group, one free-capacity step function
  per resource (the scalar machine is one group's cpus).

The RL-driven strategy lives in :mod:`repro.core.rlbackfill` (it depends on
the agent); everything here is heuristic and usable without training.
"""

from repro.scheduler.backfill.base import BackfillStrategy
from repro.scheduler.backfill.none import NoBackfill
from repro.scheduler.backfill.easy import EasyBackfill, GreedyBackfill
from repro.scheduler.backfill.profile import NoFeasibleStart, ReservationProfile, ResourceProfile
from repro.scheduler.backfill.conservative import ConservativeBackfill

__all__ = [
    "BackfillStrategy",
    "NoBackfill",
    "EasyBackfill",
    "GreedyBackfill",
    "ResourceProfile",
    "ReservationProfile",
    "NoFeasibleStart",
    "ConservativeBackfill",
]
