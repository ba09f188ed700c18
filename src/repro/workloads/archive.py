"""Trace registry: load the four evaluation traces by name.

``load_trace("SDSC-SP2")`` returns the trace used throughout the experiments.
When the environment variable ``REPRO_SWF_DIR`` points at a directory with
the original archive files (``SDSC-SP2-1998-4.2-cln.swf`` etc.), those are
parsed and used.  Otherwise the calibrated synthetic substitutes described in
docs/scenarios.md ("Base traces") are generated deterministically from the
trace name.

The registry is extensible: :func:`register_trace` adds a new named loader,
which the experiment drivers then accept anywhere a built-in name is used.
"""

from __future__ import annotations

import os
import zlib
from functools import lru_cache
from typing import Callable, Dict, Iterable

import numpy as np

from repro.utils.rng import SeedLike, derive_seed
from repro.workloads.job import Trace
from repro.workloads.lublin import LUBLIN_1, LUBLIN_2, lublin_trace
from repro.workloads.swf import read_swf
from repro.workloads.synthetic import HPC2N_SPEC, SDSC_SP2_SPEC, synthetic_trace

__all__ = [
    "load_trace",
    "available_traces",
    "register_trace",
    "clear_trace_cache",
    "real_swf_path",
]

#: Environment variable naming a directory that holds the original SWF files.
SWF_DIR_ENV = "REPRO_SWF_DIR"

#: Candidate archive file names per trace, checked inside ``REPRO_SWF_DIR``.
_SWF_FILENAMES: Dict[str, tuple[str, ...]] = {
    "SDSC-SP2": ("SDSC-SP2-1998-4.2-cln.swf", "SDSC-SP2-1998-4.2.swf", "SDSC-SP2.swf"),
    "HPC2N": ("HPC2N-2002-2.2-cln.swf", "HPC2N-2002-2.1-cln.swf", "HPC2N.swf"),
}

TraceFactory = Callable[[int, int], Trace]


def _sdsc_sp2_factory(num_jobs: int, seed: int) -> Trace:
    return synthetic_trace(SDSC_SP2_SPEC, num_jobs=num_jobs, seed=seed)


def _hpc2n_factory(num_jobs: int, seed: int) -> Trace:
    return synthetic_trace(HPC2N_SPEC, num_jobs=num_jobs, seed=seed)


def _lublin1_factory(num_jobs: int, seed: int) -> Trace:
    return lublin_trace(num_jobs=num_jobs, params=LUBLIN_1, seed=seed, name="Lublin-1")


def _lublin2_factory(num_jobs: int, seed: int) -> Trace:
    return lublin_trace(num_jobs=num_jobs, params=LUBLIN_2, seed=seed, name="Lublin-2")


_REGISTRY: Dict[str, TraceFactory] = {
    "SDSC-SP2": _sdsc_sp2_factory,
    "HPC2N": _hpc2n_factory,
    "Lublin-1": _lublin1_factory,
    "Lublin-2": _lublin2_factory,
}


def available_traces() -> list[str]:
    """Names accepted by :func:`load_trace`, in registration order."""
    return list(_REGISTRY)


def register_trace(name: str, factory: TraceFactory, overwrite: bool = False) -> None:
    """Register a custom named trace factory ``factory(num_jobs, seed) -> Trace``."""
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"trace {name!r} is already registered (pass overwrite=True to replace)")
    _REGISTRY[name] = factory
    clear_trace_cache()


def _find_swf_file(name: str) -> str | None:
    swf_dir = os.environ.get(SWF_DIR_ENV)
    if not swf_dir or not os.path.isdir(swf_dir):
        return None
    for candidate in _SWF_FILENAMES.get(name, ()) + (f"{name}.swf",):
        path = os.path.join(swf_dir, candidate)
        if os.path.isfile(path):
            return path
    return None


def real_swf_path(name: str) -> str | None:
    """Path of the *real* archive SWF file ``load_trace(name)`` would parse.

    ``None`` when ``$REPRO_SWF_DIR`` is unset or holds no file for ``name``
    -- in that case ``load_trace`` falls back to the calibrated synthetic
    equivalent.  CI scripts use this to distinguish "training on genuine
    archive data" from the synthetic fallback.
    """
    return _find_swf_file(name)


@lru_cache(maxsize=32)
def _load_cached(name: str, num_jobs: int, seed: int) -> Trace:
    swf_path = _find_swf_file(name)
    if swf_path is not None:
        trace = read_swf(swf_path, name=name)
        return trace.head(num_jobs)
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown trace {name!r}; available: {', '.join(available_traces())}"
        ) from None
    return factory(num_jobs, seed)


def load_trace(name: str, num_jobs: int = 10_000, seed: SeedLike = None) -> Trace:
    """Load one of the evaluation traces by name.

    Parameters
    ----------
    name:
        One of :func:`available_traces` (``SDSC-SP2``, ``HPC2N``, ``Lublin-1``,
        ``Lublin-2``) or a custom registered name.
    num_jobs:
        Number of jobs to keep; the paper uses the first 10K jobs of each trace.
    seed:
        Seed for the synthetic generators, following the uniform workload
        seeding rule (see :mod:`repro.utils.rng`): an ``int`` or
        ``SeedSequence`` selects a reproducible trace, an existing
        ``Generator`` draws the trace seed from its stream (advancing it),
        and ``None`` derives a stable seed from the trace name so repeated
        calls return identical traces.
    """
    if seed is None:
        # zlib.crc32 is stable across interpreter runs (unlike hash() on str),
        # so the default trace content is identical for every process.
        seed = derive_seed(zlib.crc32(name.encode("utf-8")), 0)
    elif isinstance(seed, np.random.Generator):
        seed = int(seed.integers(0, 2**63 - 1))
    elif isinstance(seed, np.random.SeedSequence):
        # Derive from the sequence's own state (entropy AND spawn_key), so
        # spawned siblings select distinct traces and tuple entropy works.
        seed = int(seed.generate_state(1, dtype=np.uint64)[0] % (2**63 - 1))
    return _load_cached(name, int(num_jobs), int(seed))


def clear_trace_cache() -> None:
    """Drop memoized traces (mainly for tests that register temporary traces)."""
    _load_cached.cache_clear()


def load_all(num_jobs: int = 10_000, names: Iterable[str] | None = None) -> Dict[str, Trace]:
    """Load every registered trace (or the subset ``names``) keyed by name."""
    return {name: load_trace(name, num_jobs=num_jobs) for name in (names or available_traces())}
