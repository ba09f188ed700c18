"""Calibrated synthetic equivalents of the archive traces used in the paper.

The evaluation uses two real traces from the Parallel Workloads Archive
(SDSC-SP2 1998 and HPC2N 2002).  Those files cannot be redistributed in this
offline environment, so this module generates synthetic traces whose headline
characteristics match the paper's Table 2:

=========  =====  ==========  ==========  ====
Trace      size   mean it(s)  mean rt(s)  mean nt
SDSC-SP2   128    1055        6687        11
HPC2N      240    538         17024       6
=========  =====  ==========  ==========  ====

The generators model the properties that matter to backfilling research:

* heavy-tailed (log-normal) actual runtimes,
* bursty arrivals (hyper-exponential inter-arrival gaps),
* small-skewed, power-of-two-leaning processor requests, and
* **user wall-time overestimation**: the requested time is the actual runtime
  inflated by a random factor and snapped to "round" wall-clock values, the
  behaviour documented for real users by Mu'alem & Feitelson (2001).

The substitution is described in docs/scenarios.md ("Base traces").  Real
SWF files, when available, can be loaded with
:func:`repro.workloads.swf.read_swf` and used everywhere a synthetic trace is
used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import SeedLike, as_rng
from repro.workloads.job import Job, Trace

__all__ = ["SyntheticTraceSpec", "synthetic_trace", "SDSC_SP2_SPEC", "HPC2N_SPEC"]

#: Common wall-time values (seconds) users request: 5/10/15/30 min, 1/2/4/8/12/18/24/36/48 h.
_ROUND_WALLTIMES = np.array(
    [300, 600, 900, 1800, 3600, 7200, 14400, 28800, 43200, 64800, 86400, 129600, 172800],
    dtype=np.float64,
)


@dataclass(frozen=True, slots=True)
class SyntheticTraceSpec:
    """Target characteristics for a calibrated synthetic trace."""

    name: str
    num_processors: int
    mean_interarrival: float        # seconds between consecutive submissions
    mean_runtime: float             # mean *requested* runtime, as reported in Table 2
    mean_processors: float          # mean requested processors
    runtime_sigma: float = 1.6      # log-normal sigma of actual runtimes (heavier tail = larger)
    burstiness: float = 0.7         # fraction of arrivals drawn from the "burst" component
    burst_scale: float = 0.15       # burst gaps are this fraction of the mean gap
    overestimate_low: float = 1.0   # lower bound of the multiplicative over-request factor
    overestimate_high: float = 6.0  # upper bound of the multiplicative over-request factor
    round_walltimes: bool = True    # snap requested time up to common wall-clock values
    max_fraction_of_machine: float = 1.0  # cap on job width relative to the machine
    #: Exponent coupling runtime to job width: wider jobs run longer, the
    #: correlation observed in archive traces (and what makes the offered
    #: load realistic despite modest per-dimension means).
    width_runtime_correlation: float = 0.8
    #: Target fraction of machine capacity demanded by the trace
    #: (sum of runtime x processors over the trace span).  Archive traces run
    #: their machines at 70-90% utilization; without this the backfilling
    #: problem degenerates (empty queues, bsld ~ 1).
    target_offered_load: float | None = 0.85
    #: Probability that a job repeats the previous job's shape (width and
    #: similar runtime): models user campaigns / parameter sweeps, which are
    #: what creates the deep bursty queues seen in archive traces.
    session_repeat_prob: float = 0.35

    def __post_init__(self) -> None:
        if self.num_processors <= 0:
            raise ValueError("num_processors must be positive")
        if min(self.mean_interarrival, self.mean_runtime, self.mean_processors) <= 0:
            raise ValueError("trace means must be positive")
        if not 0.0 <= self.burstiness < 1.0:
            raise ValueError("burstiness must be in [0, 1)")
        if self.overestimate_low < 1.0 or self.overestimate_high < self.overestimate_low:
            raise ValueError("over-request factors must satisfy 1 <= low <= high")


#: SDSC-SP2 (San Diego Supercomputer Center IBM SP2, 1998): 128 processors,
#: relatively slow arrivals, medium-length jobs, narrow requests.
SDSC_SP2_SPEC = SyntheticTraceSpec(
    name="SDSC-SP2",
    num_processors=128,
    mean_interarrival=1055.0,
    mean_runtime=6687.0,
    mean_processors=11.0,
    runtime_sigma=1.8,
    burstiness=0.65,
    target_offered_load=0.88,
)

#: HPC2N (Swedish HPC2N Linux cluster, 2002): 240 processors, faster arrivals,
#: long requested runtimes, mostly very narrow (serial-ish) jobs.
HPC2N_SPEC = SyntheticTraceSpec(
    name="HPC2N",
    num_processors=240,
    mean_interarrival=538.0,
    mean_runtime=17024.0,
    mean_processors=6.0,
    runtime_sigma=2.1,
    burstiness=0.75,
    overestimate_high=10.0,
    target_offered_load=0.82,
)


def _sample_processor_counts(
    spec: SyntheticTraceSpec, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample processor requests: geometric-ish with a bias towards powers of two."""
    max_procs = max(1, int(spec.num_processors * spec.max_fraction_of_machine))
    # Log-normal over log2(size) truncated to the machine, calibrated below.
    mu = np.log(max(spec.mean_processors, 1.0)) - 0.5
    raw = rng.lognormal(mean=mu, sigma=1.0, size=n)
    sizes = np.clip(np.rint(raw), 1, max_procs)
    # Snap roughly half of the parallel jobs to the nearest power of two,
    # reproducing the strong power-of-two bias of archive traces.
    snap = rng.random(n) < 0.5
    pow2 = np.exp2(np.rint(np.log2(np.maximum(sizes, 1))))
    sizes = np.where(snap, np.clip(pow2, 1, max_procs), sizes)
    # Calibrate the mean by probabilistically demoting/promoting widths.
    scale = spec.mean_processors / max(float(sizes.mean()), 1e-9)
    sizes = np.clip(np.rint(sizes * scale), 1, max_procs)
    return sizes.astype(np.int64)


def _sample_runtimes(spec: SyntheticTraceSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample heavy-tailed actual runtimes (seconds)."""
    sigma = spec.runtime_sigma
    # Choose mu so that the log-normal mean is roughly half the *requested*
    # mean runtime (users over-request); exact calibration happens on the
    # requested times below.
    target_actual_mean = spec.mean_runtime / 2.5
    mu = np.log(target_actual_mean) - 0.5 * sigma**2
    runtimes = rng.lognormal(mean=mu, sigma=sigma, size=n)
    return np.clip(runtimes, 30.0, 7.0 * 86400.0)


def _sample_interarrivals(spec: SyntheticTraceSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample bursty inter-arrival gaps (hyper-exponential mixture)."""
    mean_gap = spec.mean_interarrival
    burst = rng.random(n) < spec.burstiness
    burst_mean = mean_gap * spec.burst_scale
    # Choose the quiet-component mean so the mixture hits the target mean.
    quiet_weight = max(1.0 - spec.burstiness, 1e-9)
    quiet_mean = (mean_gap - spec.burstiness * burst_mean) / quiet_weight
    gaps = np.where(
        burst,
        rng.exponential(scale=burst_mean, size=n),
        rng.exponential(scale=quiet_mean, size=n),
    )
    return gaps


def _requested_times(
    spec: SyntheticTraceSpec, runtimes: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Inflate actual runtimes into user wall-time requests and calibrate the mean."""
    factors = rng.uniform(spec.overestimate_low, spec.overestimate_high, size=runtimes.shape[0])
    requested = runtimes * factors
    if spec.round_walltimes:
        # Snap up to the next "round" wall-time bucket (users request 1h, 4h, ...).
        idx = np.searchsorted(_ROUND_WALLTIMES, requested, side="left")
        idx = np.clip(idx, 0, len(_ROUND_WALLTIMES) - 1)
        snapped = _ROUND_WALLTIMES[idx]
        requested = np.maximum(snapped, requested * 0.0 + snapped)
        requested = np.maximum(requested, runtimes)  # never below the actual runtime
    # Calibrate the mean requested runtime to the Table 2 target while keeping
    # the request >= actual runtime invariant.
    scale = spec.mean_runtime / max(float(requested.mean()), 1e-9)
    requested = np.maximum(requested * scale, runtimes)
    return requested


def synthetic_trace(
    spec: SyntheticTraceSpec,
    num_jobs: int,
    seed: SeedLike = None,
    name: str | None = None,
) -> Trace:
    """Generate a calibrated synthetic trace for ``spec`` with ``num_jobs`` jobs."""
    if num_jobs <= 0:
        raise ValueError(f"num_jobs must be positive, got {num_jobs}")
    rng = as_rng(seed)
    sizes = _sample_processor_counts(spec, num_jobs, rng)
    runtimes = _sample_runtimes(spec, num_jobs, rng)
    gaps = _sample_interarrivals(spec, num_jobs, rng)
    # Calibrate the arrival rate exactly.
    gaps *= spec.mean_interarrival / max(float(gaps.mean()), 1e-9)

    # User campaigns: consecutive jobs from the same submission burst often
    # share shape (same executable swept over parameters).
    if spec.session_repeat_prob > 0.0:
        repeat = rng.random(num_jobs) < spec.session_repeat_prob
        jitter = rng.lognormal(mean=0.0, sigma=0.2, size=num_jobs)
        for i in range(1, num_jobs):
            if repeat[i]:
                sizes[i] = sizes[i - 1]
                runtimes[i] = max(runtimes[i - 1] * jitter[i], 30.0)

    # Couple runtime to width (wider jobs run longer), then calibrate the
    # offered load so the machine is realistically contended.
    if spec.width_runtime_correlation > 0.0:
        runtimes = runtimes * (sizes / max(float(sizes.mean()), 1.0)) ** spec.width_runtime_correlation
    if spec.target_offered_load is not None:
        demand = float((runtimes * sizes).mean())
        capacity_per_job = spec.mean_interarrival * spec.num_processors
        runtimes = runtimes * (spec.target_offered_load * capacity_per_job / max(demand, 1e-9))
    runtimes = np.clip(runtimes, 30.0, 14.0 * 86400.0)

    requested = _requested_times(spec, runtimes, rng)
    submit = np.cumsum(gaps)
    submit -= submit[0]

    jobs = [
        Job(
            job_id=i + 1,
            submit_time=float(submit[i]),
            runtime=float(runtimes[i]),
            requested_processors=int(sizes[i]),
            requested_time=float(requested[i]),
            user_id=int(rng.integers(1, 200)),
        )
        for i in range(num_jobs)
    ]
    return Trace.from_jobs(
        name=name or spec.name, num_processors=spec.num_processors, jobs=jobs
    )
