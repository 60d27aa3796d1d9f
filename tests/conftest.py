"""Shared fixtures: the canonical desk-scale mechanism used across the suite."""
import dataclasses
import math
import pathlib

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from fourbar_synth import (
    BaselineDefective,
    BaselineInfeasible,
    DesignParams,
    MechanismConfig,
    MotionTask,
    OptimizerConfig,
    Stroke,
    load_config_dict,
    motion_profile,
    validate_baseline,
)

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


def turned(cfg: MechanismConfig, offset: float, **changes) -> MechanismConfig:
    """cfg with the effector at ``offset`` and pivot C turned by -offset about O.

    The rocker angle is delta - offset, so the linkage is the original one
    turned as a whole and its baseline still assembles on the same task;
    only the beam's place on the rocker and the loads' directions change.
    """
    (cx, cy), c, s = cfg.pivot_c, math.cos(offset), math.sin(offset)
    return dataclasses.replace(cfg, effector_offset=offset, pivot_c=(c * cx + s * cy, c * cy - s * cx), **changes)


def mass_variants(cfg: MechanismConfig) -> list[MechanismConfig]:
    """cfg with each kind of rocker composite: no beam, a beam across the
    rocker, a massless rocker, and no mass at all."""
    return [
        turned(cfg, 2.5, effector_tip_length=0.0),
        turned(cfg, math.pi / 2),
        dataclasses.replace(cfg, link_density=(*cfg.link_density[:2], 0.0), payload_mass=0.0),
        dataclasses.replace(cfg, link_density=(0.0, 0.0, 0.0), payload_mass=0.0),
    ]


def draw_mechanism(uniform, choice) -> dict:
    """A random mechanism as a config dict, from ``uniform(lo, hi)`` floats and ``choice(seq)`` picks in this order.

    Pivot O within 0.1 m of the origin per axis, C 0.15-0.4 m from O in any
    direction, either branch, the effector offset within 1 rad, a tip force
    of up to 3 N per axis, a dwell of 0 or 0.1 s, and a stroke of 0.3-1.2
    rad either way from any angle; the masses are canon's.  The baseline's
    crank and coupler are drawn to reach every point B of the stroke's arc,
    sampled at 61 angles, from O; about a quarter of the draws still have a
    crank that turns back along the stroke, and ``read_accepted`` refuses
    them, as it does the draws whose rocker tip passes through O with
    l_ab == l_oa (see ``crank_pivot_pass``).  The search box is the baseline
    lengths times e^-0.5 and e^0.5, with the default budget.
    """
    ox, oy = uniform(-0.1, 0.1), uniform(-0.1, 0.1)
    ground, heading = uniform(0.15, 0.4), uniform(-math.pi, math.pi)
    cx, cy = ox + ground * math.cos(heading), oy + ground * math.sin(heading)
    offset = uniform(-1.0, 1.0)
    delta_e, stroke = uniform(-math.pi, math.pi), uniform(0.3, 1.2) * choice([1.0, -1.0])
    l_bc = uniform(0.05, 0.3)
    rocker = np.linspace(delta_e, delta_e + stroke, 61) - offset
    reach = np.hypot(cx + l_bc * np.cos(rocker) - ox, cy + l_bc * np.sin(rocker) - oy)
    near, far = float(reach.min()), float(reach.max())
    # |l_ab - l_oa| < near and l_ab + l_oa > far, with room to spare on both sides
    l_oa = 0.5 * (far - near) + uniform(0.005, 0.1)
    shortest = max(far - l_oa, l_oa - near)
    l_ab = shortest + uniform(0.1, 0.9) * (near + l_oa - shortest)
    baseline = {"l_oa": l_oa, "l_ab": l_ab, "l_bc": l_bc}
    return {
        "mechanism": {
            "pivot_o": [ox, oy],
            "pivot_c": [cx, cy],
            "baseline": baseline,
            "branch": choice(["plus", "minus"]),
            "effector_offset": offset,
            "link_density": [2.0, 2.0, 2.0],
            "payload_mass": 0.5,
            "effector_tip_length": 0.25,
            "tip_force": [uniform(-3.0, 3.0), uniform(-3.0, 3.0)],
        },
        "task": {"delta_i": delta_e + stroke, "delta_e": delta_e, "t_move": 0.5, "t_dwell": choice([0.0, 0.1])},
        "optimizer": {"bounds": {key: [v * math.exp(-0.5), v * math.exp(0.5)] for key, v in baseline.items()}},
    }


def read_accepted(config: dict) -> tuple[MechanismConfig, MotionTask] | None:
    """The config's (cfg, task), or None where ``validate_baseline`` refuses its baseline."""
    cfg, task, _ = load_config_dict(config)
    try:
        validate_baseline(cfg, task)
    except (BaselineInfeasible, BaselineDefective):
        return None
    return cfg, task


@st.composite
def mechanisms(draw) -> tuple[MechanismConfig, MotionTask]:
    """A random (cfg, task) pair by ``draw_mechanism`` that ``read_accepted`` accepts."""
    config = draw_mechanism(lambda lo, hi: draw(st.floats(lo, hi)), lambda seq: draw(st.sampled_from(seq)))
    pair = read_accepted(config)
    assume(pair is not None)
    return pair


def crank_pivot_pass() -> tuple[MechanismConfig, MotionTask]:
    """A (cfg, task) pair whose baseline's rocker tip B starts on pivot O with l_ab == l_oa.

    ``mechanisms`` once drew it: O at (0, -0.006475), C 0.15 m from O at
    heading -pi, l_bc 0.15 and the stroke from delta 0, so that B starts
    1.8e-17 m from O (sin(-pi) rounds to -1.2e-16), and l_ab is one ulp
    shorter than l_oa.  The crank and coupler circles coincide there, so
    the crank pin A is not determined.
    """
    ox, oy = 0.0, -0.006475
    cfg = MechanismConfig(
        pivot_c=(ox + 0.15 * math.cos(-math.pi), oy + 0.15 * math.sin(-math.pi)),
        pivot_o=(ox, oy),
        baseline=DesignParams(0.081315, math.nextafter(0.081315, 0.0), 0.15),
        branch="plus",
    )
    return cfg, MotionTask(delta_i=0.5, delta_e=0.0, t_move=0.5)


def rocker_tip_meets_crank_pivot(cfg: MechanismConfig, task: MotionTask) -> bool:
    """Whether B comes within 1e-9 l_oa of O at a sample while |l_ab - l_oa| is within 1e-9 l_oa."""
    design = cfg.baseline
    _, s, _, _ = motion_profile(task)
    rocker = task.delta_e + s * (task.delta_i - task.delta_e) - cfg.effector_offset
    bx = cfg.pivot_c[0] + design.l_bc * np.cos(rocker) - cfg.pivot_o[0]
    by = cfg.pivot_c[1] + design.l_bc * np.sin(rocker) - cfg.pivot_o[1]
    tol = 1e-9 * design.l_oa
    return abs(design.l_ab - design.l_oa) <= tol and float(np.hypot(bx, by).min()) <= tol


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
