"""Shared fixtures: the canonical desk-scale mechanism used across the suite."""
import math
import pathlib

import numpy as np
import pytest

from fourbar_synth import DesignParams, MechanismConfig, MotionTask, OptimizerConfig, Stroke

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
CANON_CONFIG = REPO_ROOT / "configs" / "canon.json"


def make_canon_cfg() -> MechanismConfig:
    return MechanismConfig(
        pivot_c=(0.30, 0.0),
        baseline=DesignParams(0.10, 0.25, 0.15),
        branch="plus",
        link_density=(2.0, 2.0, 2.0),
        payload_mass=0.5,
        effector_tip_length=0.25,
    )


def make_canon_task(n_samples: int = 201) -> MotionTask:
    return MotionTask(
        delta_i=math.radians(150.0),
        delta_e=math.radians(90.0),
        t_move=0.5,
        n_samples=n_samples,
    )


@pytest.fixture(scope="session")
def canon_cfg() -> MechanismConfig:
    return make_canon_cfg()


@pytest.fixture(scope="session")
def canon_task() -> MotionTask:
    return make_canon_task()


@pytest.fixture(scope="session")
def canon_opt() -> OptimizerConfig:
    return OptimizerConfig(
        bounds=((0.03, 0.14), (0.15, 0.34), (0.08, 0.25)),
        n_init=12,
        n_max=60,
        n_acq_starts=32,
        n_acq_samples=4096,
        seed=0,
    )


def counting(calls: dict, name: str, fn):
    """Wrap fn so that each call adds one to calls[name]."""

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def fake_stroke(thetas, rates) -> Stroke:
    """A stroke with only crank angles and rates set, one sample per second."""
    n = len(thetas)
    zeros = np.zeros(n)
    return Stroke(
        t=np.arange(n, dtype=float), delta=zeros, delta_dot=zeros, delta_ddot=zeros,
        theta=np.array(thetas, dtype=float), theta_dot=np.array(rates, dtype=float),
        theta_ddot=zeros, point_a=np.zeros((n, 2)), point_b=np.zeros((n, 2)),
    )
