"""Synthetic regression scenarios used by the experiment harness.

``fd-rotation`` draws Gaussian features with per-coordinate variance 4 and
responses ``exp(-|x_1|) + noise``; a quarter-turn cyclic group acts in the
first coordinate plane either by the rotation itself (which the target is not
invariant to) or through its half-turn square (which it is).  Scenarios
``1``..``4`` are the three-dimensional interpolation/extrapolation setups
with radial or single-coordinate sine targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import RegressionDataset
from .errors import ConfigError
from .groups import (
    FINITE,
    TWO_PI,
    GroupAction,
    GroupDescriptor,
    SamplerSpec,
    cyclic_table,
    non_identity_sampler,
    planar_rotation_matrix,
)


@dataclass(frozen=True, eq=False)
class ScenarioGenerator:
    """Seeded generator for one synthetic regression setting."""

    scenario_id: str
    dim: int
    noise_sigma: float
    target: Callable[[np.ndarray], np.ndarray]
    train_var: np.ndarray
    test_var: np.ndarray

    def _draw(self, rng: np.random.Generator, n: int, var: np.ndarray) -> RegressionDataset:
        X = rng.normal(size=(n, self.dim)) * np.sqrt(var)
        noise = rng.normal(size=n) * self.noise_sigma
        return RegressionDataset(X, self.target(X) + noise)

    def sample_train(self, rng: np.random.Generator, n: int) -> RegressionDataset:
        return self._draw(rng, n, self.train_var)

    def sample_test(self, rng: np.random.Generator, n: int) -> RegressionDataset:
        return self._draw(rng, n, self.test_var)


def _exp_abs_first(X: np.ndarray) -> np.ndarray:
    return np.exp(-np.abs(X[:, 0]))


def _sin_neg_norm(X: np.ndarray) -> np.ndarray:
    return np.sin(-np.linalg.norm(X, axis=1))


def _sin_neg_abs(coord: int) -> Callable[[np.ndarray], np.ndarray]:
    def f(X: np.ndarray) -> np.ndarray:
        return np.sin(-np.abs(X[:, coord]))
    return f


def make_scenario(scenario_id: str, dim: int | None = None,
                  noise_sigma: float | None = None) -> ScenarioGenerator:
    scenario_id = str(scenario_id)
    if scenario_id == "fd-rotation":
        d = 2 if dim is None else int(dim)
        if d < 2:
            raise ConfigError("fd-rotation needs dimension >= 2")
        sigma = 0.05 if noise_sigma is None else float(noise_sigma)
        var = np.full(d, 4.0)
        return ScenarioGenerator(scenario_id, d, sigma, _exp_abs_first, var, var)
    if scenario_id in ("1", "2", "3", "4"):
        if dim not in (None, 3):
            raise ConfigError(f"scenario {scenario_id} is three-dimensional")
        sigma = 0.01 if noise_sigma is None else float(noise_sigma)
        ball = np.full(3, 2.0)
        cigar = np.array([0.1, 0.1, 2.0])
        targets = {"1": _sin_neg_norm, "2": _sin_neg_norm,
                   "3": _sin_neg_abs(2), "4": _sin_neg_abs(0)}
        train = ball if scenario_id == "1" else cigar
        return ScenarioGenerator(scenario_id, 3, sigma, targets[scenario_id], train, ball)
    raise ConfigError(f"unknown scenario id {scenario_id!r}")


def quarter_turn_actions(dim: int) -> tuple[GroupAction, GroupAction, SamplerSpec]:
    """The order-4 rotation group in the first coordinate plane of R^dim.

    Returns the rotation action, the action through each element's square
    (the generator acts as the half turn, so ``exp(-|x_1|)`` is invariant),
    and the uniform sampler over the three non-identity elements.
    """
    if dim < 2:
        raise ConfigError("quarter-turn actions need dimension >= 2")
    table = cyclic_table(4)
    group = GroupDescriptor(FINITE, "C4", table=table)
    base = TWO_PI * np.arange(4) / 4.0
    rotation, half_turn = (
        GroupAction(group, dim,
                    matrices=[planar_rotation_matrix(a, (0, 1), dim) for a in angles])
        for angles in (base, (2.0 * base) % TWO_PI))
    return rotation, half_turn, non_identity_sampler(group)
