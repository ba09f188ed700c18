"""Scenario subsystem: composable workload/cluster scenarios + evaluation.

Three layers (see ``docs/scenarios.md``):

* :mod:`repro.scenarios.transforms` -- seed-deterministic ``Trace -> Trace``
  perturbations (load scaling, burst injection, thinning, estimate
  corruption, size shaping) that compose in order;
* :mod:`repro.scenarios.registry` -- named scenario specs (base trace x
  transforms x cluster downtime) with the built-in ``core`` robustness suite;
* :mod:`repro.scenarios.evaluate` -- the multi-policy evaluation harness
  fanning (scenario x policy) cells across a standard-library process pool
  into one deterministic JSON report.
"""

from repro.scenarios.transforms import (
    ArrivalThin,
    BurstInject,
    Compose,
    EstimateInflate,
    EstimateNoise,
    LoadScale,
    SizeFilter,
    SizeRescale,
    TraceTransform,
    apply_transforms,
)
from repro.scenarios.registry import (
    CORE_SUITE,
    BuiltScenario,
    ClusterSpec,
    DowntimeSpec,
    ScenarioSpec,
    get_scenario,
    register_scenario,
    scenario_names,
    suite_scenarios,
)
from repro.scenarios.evaluate import (
    DEFAULT_POLICIES,
    HEURISTIC_POLICIES,
    METRIC_FIELDS,
    AgentBundle,
    evaluate_cell,
    evaluate_suite,
    report_to_json,
    train_evaluation_agent,
)

__all__ = [
    "TraceTransform",
    "LoadScale",
    "BurstInject",
    "ArrivalThin",
    "EstimateNoise",
    "EstimateInflate",
    "SizeFilter",
    "SizeRescale",
    "Compose",
    "apply_transforms",
    "ScenarioSpec",
    "ClusterSpec",
    "DowntimeSpec",
    "BuiltScenario",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "suite_scenarios",
    "CORE_SUITE",
    "METRIC_FIELDS",
    "AgentBundle",
    "DEFAULT_POLICIES",
    "HEURISTIC_POLICIES",
    "evaluate_cell",
    "evaluate_suite",
    "report_to_json",
    "train_evaluation_agent",
]
