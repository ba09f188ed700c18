"""The golden corpus: short seeded traces, the cells run on them, and the
rendering whose SHA-256 pins each cell's decision stream and schedule.

A cell is one trace through one ``Simulator`` (priority x runtime estimator x
backfilling strategy), driven by ``capture_decisions``.  Its digest covers
every served decision, every job's final record and the order in which the
estimator first asked about each job.  ``decisions.json`` beside this module
holds every digest, and ``training.json`` the weight statistics of a tiny
training run; ``tests/test_golden.py`` recomputes both and
``scripts/update_golden.py`` rewrites them.
"""

from __future__ import annotations

import hashlib
import json
import signal
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro.cluster.machine import DowntimeWindow
from repro.cluster.resources import ClusterTopology, NodeGroup
from repro.core.agent import RLBackfillAgent
from repro.core.environment import BackfillEnvironment
from repro.core.observation import ObservationConfig
from repro.core.rlbackfill import RLBackfillPolicy
from repro.core.trainer import Trainer, TrainerConfig
from repro.faults.plan import NodeFailure
from repro.prediction.predictors import NoisyPrediction, RuntimeEstimator, UserEstimate
from repro.rl.ppo import PPOConfig
from repro.scheduler.backfill import ConservativeBackfill, EasyBackfill, NoBackfill
from repro.scheduler.simulator import Simulator, capture_decisions
from repro.workloads.job import Job
from repro.workloads.synthetic import SyntheticTraceSpec, synthetic_trace

GOLDEN_FILE = Path(__file__).with_name("decisions.json")

#: Every trace runs on a 32-cpu machine, laid out four ways.
CPUS = 32
TOPOLOGIES: Dict[str, ClusterTopology | None] = {
    "scalar": None,
    "one-group": ClusterTopology((NodeGroup("all", cpus=32),)),
    "partitions": ClusterTopology(
        (NodeGroup("p0", cpus=20, partition=0), NodeGroup("p1", cpus=12, partition=1))
    ),
    "resources": ClusterTopology(
        (NodeGroup("cpu", cpus=20, memory=80), NodeGroup("gpu", cpus=12, memory=96, gpus=4))
    ),
}

#: The group a drain takes nodes from, per topology (``None``: the machine's).
DRAINED_GROUP = {"scalar": None, "one-group": None, "partitions": "p1", "resources": "cpu"}

PRIORITIES = ("FCFS", "SJF", "WFP3", "F1")


class FirstAsks(RuntimeEstimator):
    """The user's estimate, recording the order in which jobs are first asked about;
    stateful, so the machine and the strategies keep their ask order as for a noisy one."""

    def __init__(self):
        self.order: List[int] = []

    def estimate(self, job: Job) -> float:
        if job.job_id not in self.order:
            self.order.append(job.job_id)
        return job.requested_time


ESTIMATORS: Dict[str, Callable[[], RuntimeEstimator]] = {
    "user": UserEstimate,
    "noisy": lambda: NoisyPrediction(0.4, seed=7),
    "first-asks": FirstAsks,
}


def _asks(estimator: RuntimeEstimator) -> List[str]:
    """The estimator's first asks, in order (with the drawn value for a noisy one)."""
    if isinstance(estimator, NoisyPrediction):
        return [f"{job_id} {value.hex()}" for job_id, value in estimator._cache.items()]
    if isinstance(estimator, FirstAsks):
        return [str(job_id) for job_id in estimator.order]
    return []


# -- traces ---------------------------------------------------------------------


def trace(topology_name: str, fractional: bool, seed: int, count: int = 24) -> List[Job]:
    """A contended job sequence for the 32-cpu machine of ``topology_name``: whole
    seconds, or fractions with instants 1e-7 and 1e-9 apart (unspaced profiles,
    where conservative backfilling's plan rules must stand back for a trial)."""
    rng = np.random.default_rng(seed)
    gaps = [0.0, 0.0, 1.0, 5.0, 40.0] + [0.25, 1e-7, 1e-9, 2.5 + 1e-7] * fractional
    runtimes = [1.0, 7.0, 30.0, 90.0, 400.0] + [7.0 + 1e-7, 30.0 + 1e-9, 12.625, 0.4] * fractional
    jobs, clock = [], 0.0
    for job_id in range(1, count + 1):
        clock += gaps[rng.integers(len(gaps))]
        runtime = runtimes[rng.integers(len(runtimes))]
        extra, widest = {}, CPUS
        if topology_name == "partitions":
            extra["partition"] = int(rng.integers(2))
            widest = (20, 12)[extra["partition"]]
        elif topology_name == "resources":
            gpus = int(rng.choice([0, 0, 0, 1, 2]))
            extra["requested_gpus"] = gpus
            widest = 12 if gpus else 20
        processors = int(rng.integers(1, widest + 1))
        if topology_name == "resources":
            memory = int(rng.choice([-1, 1, 4])) if processors <= 20 else 1
            extra["requested_memory"] = 1 if memory * processors > (96 if gpus else 80) else memory
        requested = runtime * float(rng.choice([1.0, 1.5, 4.0]))
        jobs.append(Job(job_id, clock, runtime, processors, requested, **extra))
    return jobs


def variants(topology_name: str) -> Dict[str, dict]:
    """Simulator keyword arguments of each variant a trace runs under: a drain of
    14 processors leaves less room than the running jobs hold, so it clips a
    candidate's claim; node failures preempt, on the scalar machine only."""
    drain = DowntimeWindow(start=10.0, end=210.0, processors=14, group=DRAINED_GROUP[topology_name])
    out = {"plain": {}, "drain": {"capacity_schedule": [drain]}}
    if topology_name == "scalar":
        failures = [
            NodeFailure(time=15.0, processors=16, repair_duration=40.0),
            NodeFailure(time=90.0 + 1e-7, processors=10, repair_duration=25.0),
        ]
        for mode in ("requeue", "checkpoint"):
            out[f"fail-{mode}"] = {"node_failures": failures, "restart_policy": mode}
    return out


# -- strategies -------------------------------------------------------------------

def _agent(num_resources: int = 1) -> RLBackfillAgent:
    """An untrained agent whose window is shorter than a contended queue."""
    config = ObservationConfig(max_queue_size=8, num_resources=num_resources)
    return RLBackfillAgent(config, seed=11)


def strategies(topology_name: str) -> Dict[str, Callable[[], object]]:
    out: Dict[str, Callable[[], object]] = {
        "none": NoBackfill,
        "easy-fcfs": lambda: EasyBackfill(order="fcfs"),
        "easy-sjf": lambda: EasyBackfill(order="sjf"),
    }
    for order in ("fcfs", "sjf"):
        for depth in (None, 3):
            for limit in (None, 2):
                out[f"cons-{order}-d{depth or 'all'}-c{limit or 'all'}"] = partial(
                    ConservativeBackfill, order=order, reservation_depth=depth, max_candidates=limit
                )
    out["rl-greedy"] = lambda: RLBackfillPolicy(_agent())
    out["rl-sampled"] = lambda: RLBackfillPolicy(_agent(), deterministic=False, seed=5, row_block=1)
    if topology_name == "resources":
        out["rl-resources"] = lambda: RLBackfillPolicy(_agent(num_resources=3), row_block=1)
    return out


# -- cells --------------------------------------------------------------------------


def run_cell(jobs, simulator_kwargs, priority, estimator_name, make_strategy) -> str:
    estimator = ESTIMATORS[estimator_name]()
    simulator = Simulator(CPUS, policy=priority, backfill=make_strategy(), estimator=estimator,
                          **simulator_kwargs)
    decisions, result = capture_decisions(simulator, jobs)
    return _short(render(decisions, result, _asks(estimator)).encode())


def cells() -> Iterator[Tuple[str, Callable[[], str]]]:
    """``(cell key, thunk computing its digest)`` for every cell of the corpus.

    Every strategy runs under every priority with the user's estimate.  The two
    stateful estimators run under FCFS and SJF with the heuristic strategies:
    the RL policy reads estimates only through the reservation time, which the
    same simulator code computes for the heuristics.
    """
    for topology_name, topology in TOPOLOGIES.items():
        made = strategies(topology_name)
        heuristics = [name for name in made if not name.startswith("rl-")]
        grid = [(priority, "user", name) for priority in PRIORITIES for name in made] + [
            (priority, estimator, name)
            for priority in ("FCFS", "SJF")
            for estimator in ("noisy", "first-asks")
            for name in heuristics
        ]
        for timing, seed in (("whole", 101), ("frac", 202)):
            jobs = trace(topology_name, timing == "frac", seed)
            for variant, kwargs in variants(topology_name).items():
                kwargs = {"topology": topology, **kwargs}
                for priority, estimator, name in grid:
                    key = f"{topology_name}/{timing}{seed}/{variant}/{priority}/{estimator}/{name}"
                    yield key, partial(run_cell, jobs, kwargs, priority, estimator, made[name])


def render(decisions, result, asks) -> str:
    """The text a cell's digest hashes: decisions, then records by job id, then asks."""
    lines = [f"d {d.index} {d.time.hex()} {d.reserved_job_id} {d.chosen_job_id}" for d in decisions]
    for r in sorted(result.records, key=lambda record: record.job.job_id):
        override = "-" if r.runtime_override is None else float(r.runtime_override).hex()
        lines.append(
            f"r {r.job.job_id} {float(r.start_time).hex()} {float(r.end_time).hex()} "
            f"{int(r.backfilled)} {r.restarts} {override}"
        )
    lines.extend(f"a {ask}" for ask in asks)
    return "\n".join(lines) + "\n"


def _short(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


# -- the PPO update ---------------------------------------------------------------------

TRAINING_FILE = Path(__file__).with_name("training.json")

#: How far a weight statistic may drift between machines.  BLAS kernels and
#: numpy's SIMD ``exp`` / ``log`` differ in the last bits from one CPU to the
#: next; a change to the update moves these statistics by many orders more.
TRAINING_RTOL, TRAINING_ATOL = 1e-9, 1e-12


def training_summary() -> Dict[str, List[float]]:
    """Sum and sum of squares of every weight array after one epoch of
    local-engine PPO on a tiny synthetic trace."""
    spec = SyntheticTraceSpec(
        name="golden", num_processors=CPUS, mean_interarrival=100.0, mean_runtime=3000.0,
        mean_processors=6.0,
    )
    source = synthetic_trace(spec, num_jobs=400, seed=3)
    config = ObservationConfig(max_queue_size=16)
    environment = BackfillEnvironment(
        source, policy="FCFS", sequence_length=64, observation_config=config, seed=4,
        training_pool_size=2,
    )
    trainer_config = TrainerConfig(
        epochs=1, trajectories_per_epoch=4, num_envs=2, backend="local",
        ppo=PPOConfig(policy_iterations=3, value_iterations=3),
    )
    trainer = Trainer(environment, RLBackfillAgent(config, seed=4), trainer_config, seed=4)
    trainer.train()
    state = trainer.agent.state_dict()
    return {
        f"{net}/{name}": [float(np.sum(array)), float(np.sum(np.square(array)))]
        for net in sorted(state)
        for name, array in sorted(state[net].items())
    }


def training_moved(old: Dict[str, List[float]], new: Dict[str, List[float]]) -> List[str]:
    """The weight arrays whose statistics moved beyond the machine tolerance."""
    return sorted(
        key for key in old.keys() | new.keys()
        if key not in old or key not in new
        or not np.allclose(new[key], old[key], rtol=TRAINING_RTOL, atol=TRAINING_ATOL)
    )


# -- the file -----------------------------------------------------------------------------


#: A cell takes milliseconds; one still running after this many seconds is
#: recorded as ``"hung"`` and the cells after it as ``"not run"``, so a change
#: that loops forever fails the comparison instead of stalling it.
CELL_SECONDS = 10.0


def _hung(signum, frame):
    raise TimeoutError


def compute() -> Dict[str, str]:
    """Every digest of the corpus, by key."""
    digests: Dict[str, str] = {}
    hung = False
    previous = signal.signal(signal.SIGALRM, _hung)
    try:
        for key, thunk in cells():
            if hung:
                digests[key] = "not run"
                continue
            signal.setitimer(signal.ITIMER_REAL, CELL_SECONDS)
            try:
                digests[key] = thunk()
            except TimeoutError:
                digests[key], hung = "hung", True
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return digests


def diff(old: Dict[str, str], new: Dict[str, str]) -> List[str]:
    """One line per cell added, removed, moved or hung from ``old`` to ``new``."""
    return [
        *(f"added   {key}" for key in sorted(new.keys() - old.keys())),
        *(f"removed {key}" for key in sorted(old.keys() - new.keys())),
        *(f"{'hung' if new[key] == 'hung' else 'moved':8}{key}"
          for key in sorted(old.keys() & new.keys()) if new[key] not in (old[key], "not run")),
    ]


def dumps(entries: dict) -> str:
    """Keys sorted, one per line, so a moved cell is a one-line diff."""
    return json.dumps(entries, indent=0, sort_keys=True) + "\n"


def load(path: Path = GOLDEN_FILE) -> dict:
    return json.loads(path.read_text())
