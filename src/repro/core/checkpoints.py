"""Persisting trained RLBackfilling agents.

Checkpoints are a single ``.npz`` file containing every network parameter
plus the observation configuration, so a model trained on one trace can be
reloaded and evaluated on a different trace (the paper's Table 5 generality
experiment) without retraining.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from repro.core.agent import RLBackfillAgent
from repro.core.observation import JOB_FEATURES, ObservationConfig

__all__ = ["save_agent", "load_agent", "agent_from_state"]

#: Version 2 keys every parameter by its qualified attribute path (e.g.
#: ``kernel/network.0.weight``), so a checkpoint can never load into the
#: wrong layer of an architecture that merely matches in count and shapes.
_FORMAT_VERSION = 2


def save_agent(agent: RLBackfillAgent, path: Union[str, os.PathLike]) -> str:
    """Serialize ``agent`` to ``path`` (``.npz`` appended if missing)."""
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path = path + ".npz"
    arrays: dict[str, np.ndarray] = {
        "__format_version__": np.array(_FORMAT_VERSION),
        "__max_queue_size__": np.array(agent.observation_config.max_queue_size),
        "__job_features__": np.array(agent.observation_config.job_features),
    }
    for key, value in agent.state_dict()["kernel"].items():
        arrays[f"kernel/{key}"] = value
    for key, value in agent.state_dict()["value"].items():
        arrays[f"value/{key}"] = value
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    np.savez(path, **arrays)
    return path


def load_agent(path: Union[str, os.PathLike]) -> RLBackfillAgent:
    """Load an agent previously stored with :func:`save_agent`."""
    path = os.fspath(path)
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path = path + ".npz"
    with np.load(path) as data:
        version = int(data["__format_version__"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version {version}")
        max_queue_size = int(data["__max_queue_size__"])
        kernel_state = {
            key.split("/", 1)[1]: data[key] for key in data.files if key.startswith("kernel/")
        }
        value_state = {
            key.split("/", 1)[1]: data[key] for key in data.files if key.startswith("value/")
        }
    return agent_from_state(max_queue_size, kernel_state, value_state)


def agent_from_state(
    max_queue_size: int,
    kernel_state: dict[str, np.ndarray],
    value_state: dict[str, np.ndarray],
) -> RLBackfillAgent:
    """Rebuild an agent from its parameter arrays and queue size.

    Everything else is read off the arrays rather than assumed: the per-slot
    feature width (the kernel's input width, equal to the checkpoint's
    ``__job_features__``) fixes ``num_resources``, and the weight matrices
    fix the hidden sizes.
    """
    kernel_weights = _weights(kernel_state)
    extra_features = int(kernel_weights[0].shape[0]) - JOB_FEATURES
    config = ObservationConfig(
        max_queue_size=max_queue_size, num_resources=1 + extra_features // 2
    )
    agent = RLBackfillAgent(
        observation_config=config,
        kernel_hidden=_hidden_sizes(kernel_weights),
        value_hidden=_hidden_sizes(_weights(value_state)),
    )
    agent.load_state_dict({"kernel": kernel_state, "value": value_state})
    return agent


def _weights(state: dict[str, np.ndarray]) -> list[np.ndarray]:
    """The weight matrices of a network, input layer first.

    Parameters are stored in ``named_parameters()`` order: weight, bias per
    Linear layer; weights are the 2-D arrays, shaped ``(inputs, outputs)``.
    """
    weights = [array for array in state.values() if array.ndim == 2]
    if not weights:
        raise ValueError("checkpoint contains no weight matrices")
    return weights


def _hidden_sizes(weights: list[np.ndarray]) -> tuple[int, ...]:
    """The output widths of every layer except the last."""
    return tuple(int(w.shape[1]) for w in weights[:-1])
