"""Domain types, validation rules, and config file round-trips."""
import dataclasses
import json
import math
import re

import pytest

from fourbar_synth import (
    ConstraintBundle,
    DesignParams,
    EvaluationRecord,
    MechanismConfig,
    MotionTask,
    OptimizerConfig,
    ParseError,
    ValidationError,
    load_config,
    load_config_dict,
)
from fourbar_synth.model import FEASIBLE_DYN_TOL
from conftest import CANON_CONFIG, REPO_ROOT, make_canon_cfg, make_canon_task


def test_design_params_reject_nonpositive_lengths():
    with pytest.raises(ValidationError):
        DesignParams(-0.1, 0.25, 0.15)
    with pytest.raises(ValidationError):
        DesignParams(0.1, 0.0, 0.15)
    with pytest.raises(ValidationError):
        DesignParams(0.1, 0.25, math.nan)


def test_design_params_as_tuple():
    assert DesignParams(0.1, 0.2, 0.3).as_tuple() == (0.1, 0.2, 0.3)


def test_mechanism_config_rejects_zero_ground_link():
    with pytest.raises(ValidationError):
        MechanismConfig(pivot_c=(0.0, 0.0), baseline=DesignParams(0.1, 0.25, 0.15), branch="plus")


def test_mechanism_config_rejects_unknown_branch():
    with pytest.raises(ValidationError):
        MechanismConfig(pivot_c=(0.3, 0.0), baseline=DesignParams(0.1, 0.25, 0.15), branch="upper")


def test_mechanism_config_rejects_negative_density():
    with pytest.raises(ValidationError):
        MechanismConfig(
            pivot_c=(0.3, 0.0),
            baseline=DesignParams(0.1, 0.25, 0.15),
            branch="plus",
            link_density=(2.0, -1.0, 2.0),
        )


def test_motion_task_rejects_degenerate_stroke():
    with pytest.raises(ValidationError):
        MotionTask(delta_i=1.0, delta_e=1.0, t_move=0.5)


def test_motion_task_rejects_even_or_short_sample_counts():
    with pytest.raises(ValidationError) as err:
        MotionTask(delta_i=1.0, delta_e=2.0, t_move=0.5, n_samples=50)
    assert "n_samples" in str(err.value)
    with pytest.raises(ValidationError):
        MotionTask(delta_i=1.0, delta_e=2.0, t_move=0.5, n_samples=49)


def test_motion_task_derived_quantities():
    task = MotionTask(delta_i=2.0, delta_e=1.0, t_move=0.5, t_dwell=0.25)
    assert task.delta_mid == 1.5
    assert task.t_cycle == 1.5


def test_optimizer_config_rejects_inverted_bounds():
    with pytest.raises(ValidationError):
        OptimizerConfig(bounds=((0.1, 0.1),))
    with pytest.raises(ValidationError):
        OptimizerConfig(bounds=((0.2, 0.1), (0.0, 1.0)))


def test_optimizer_config_accepts_generic_boxes():
    # the loop also serves analytic test problems on signed boxes
    opt = OptimizerConfig(bounds=((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)))
    assert opt.n_init == 12 and opt.n_max == 60


def test_optimizer_config_budget_ordering():
    with pytest.raises(ValidationError):
        OptimizerConfig(bounds=((0.0, 1.0),), n_init=12, n_max=12)
    with pytest.raises(ValidationError):
        OptimizerConfig(bounds=((0.0, 1.0),), n_init=3, n_max=10)


@pytest.mark.parametrize(
    "name, value",
    [("n_init", 12.5), ("n_max", 60.0), ("n_acq_starts", 2.5), ("n_acq_samples", 100.0), ("seed", 1.5), ("seed", True)],
)
def test_optimizer_config_takes_integer_counts_and_seed(name, value):
    # the kind is checked where the config is built, not first inside run_optimization
    with pytest.raises(ValidationError, match=f"^{name}: must be an integer, got {value!r}$"):
        OptimizerConfig(bounds=((0.0, 1.0),), **{name: value})


def test_load_config_dict_rejects_negative_seed():
    # numpy's generators take no negative seed; the config check names the key
    data = json.loads(CANON_CONFIG.read_text(encoding="utf-8"))
    data["optimizer"]["seed"] = -1
    with pytest.raises(ValidationError) as err:
        load_config_dict(data)
    assert err.value.field_name == "seed"


def test_constraint_bundle_feasible_flag_must_match_values():
    # the flag is derived from the values in each gate case, and no caller can set it
    cases = [
        ((-0.01, -0.01, 0.0), True),
        ((0.0, 0.0, FEASIBLE_DYN_TOL), True),  # every bound is inclusive
        ((1e-12, -0.01, 0.0), False),  # pose i does not assemble
        ((-0.01, 1e-12, 0.0), False),  # pose e does not assemble
        ((-0.01, -0.01, None), False),  # no stroke
        ((-0.01, -0.01, math.nextafter(FEASIBLE_DYN_TOL, 1.0)), False),  # motion defect
    ]
    for values, feasible in cases:
        bundle = ConstraintBundle(*values)
        assert bundle.feasible is feasible
        assert repr(bundle) == "ConstraintBundle(c_static_i={!r}, c_static_e={!r}, c_dyn={!r}, feasible={!r})".format(
            *values, feasible
        )
        with pytest.raises(TypeError):
            ConstraintBundle(*values, not feasible)
        with pytest.raises(TypeError):
            ConstraintBundle(*values, feasible=not feasible)


def test_constraint_bundle_from_values():
    assert ConstraintBundle(-0.01, -0.02, 0.0).feasible
    assert not ConstraintBundle(-0.01, -0.02, None).feasible
    assert not ConstraintBundle(-0.01, -0.02, 0.2).feasible
    assert not ConstraintBundle(0.03, -0.02, 0.0).feasible


def test_constraint_bundle_rejects_negative_reversal_range():
    with pytest.raises(ValidationError):
        ConstraintBundle(-0.01, -0.01, -0.5)


def test_evaluation_record_objective_requires_feasibility():
    bundle = ConstraintBundle(0.05, -0.01, None)
    with pytest.raises(ValidationError):
        EvaluationRecord(design=DesignParams(0.1, 0.25, 0.15), constraints=bundle, objective=1.0)


def test_load_canon_config_values():
    cfg, task, opt = load_config(str(CANON_CONFIG))
    assert cfg == make_canon_cfg()
    assert task == make_canon_task()
    # degree-annotated angles land exactly on the radian constants
    assert task.delta_e == math.pi / 2
    assert task.delta_i == math.radians(150.0)
    assert opt.bounds == ((0.03, 0.14), (0.15, 0.34), (0.08, 0.25))
    assert opt.seed == 0 and opt.n_init == 12 and opt.n_max == 60


def test_configs_hash_by_value():
    # the memoised tables key on the configs, which hash their fields once
    cfg, task = make_canon_cfg(), make_canon_task()
    assert hash(cfg) == hash(make_canon_cfg()) and hash(task) == hash(make_canon_task())
    pushed = dataclasses.replace(cfg, tip_force=(3.0, -2.0))
    fresh = MechanismConfig(
        pivot_c=(0.30, 0.0),
        baseline=DesignParams(0.10, 0.25, 0.15),
        branch="plus",
        link_density=(2.0, 2.0, 2.0),
        payload_mass=0.5,
        effector_tip_length=0.25,
        tip_force=(3.0, -2.0),
    )
    assert pushed == fresh and hash(pushed) == hash(fresh) and pushed != cfg
    dwell = dataclasses.replace(task, t_dwell=0.1)
    assert hash(dwell) == hash(MotionTask(task.delta_i, task.delta_e, task.t_move, t_dwell=0.1))
    assert {cfg: "canon", pushed: "pushed"}[fresh] == "pushed"
    assert "_hash" not in repr(cfg) + repr(task)


def test_readme_config_schema_matches_canon():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert load_config_dict(json.loads(block)) == load_config(str(CANON_CONFIG))


def test_load_config_dict_defaults():
    data = {
        "mechanism": {
            "pivot_c": [0.3, 0.0],
            "baseline": {"l_oa": 0.10, "l_ab": 0.25, "l_bc": 0.15},
            "branch": "plus",
        },
        "task": {"delta_i": 2.6, "delta_e": 1.57, "t_move": 0.5},
        "optimizer": {"bounds": {"l_oa": [0.03, 0.14], "l_ab": [0.15, 0.34], "l_bc": [0.08, 0.25]}},
    }
    cfg, task, opt = load_config_dict(data)
    assert cfg.tip_force == (0.0, 0.0)
    assert cfg.overshoot_cap == 0.020
    assert task.t_dwell == 0.0
    assert task.n_samples == 201
    assert cfg == MechanismConfig(pivot_c=(0.3, 0.0), baseline=DesignParams(0.10, 0.25, 0.15), branch="plus")
    assert task == MotionTask(delta_i=2.6, delta_e=1.57, t_move=0.5)
    assert opt == OptimizerConfig(bounds=((0.03, 0.14), (0.15, 0.34), (0.08, 0.25)))


def test_load_config_dict_rejects_nonpositive_length_bounds():
    data = {
        "mechanism": {
            "pivot_c": [0.3, 0.0],
            "baseline": {"l_oa": 0.10, "l_ab": 0.25, "l_bc": 0.15},
            "branch": "plus",
        },
        "task": {"delta_i": 2.6, "delta_e": 1.57, "t_move": 0.5},
        "optimizer": {"bounds": {"l_oa": [-0.03, 0.14], "l_ab": [0.15, 0.34], "l_bc": [0.08, 0.25]}},
    }
    with pytest.raises(ValidationError) as err:
        load_config_dict(data)
    assert "bounds" in str(err.value)


def test_load_config_dict_rejects_negative_baseline_length():
    data = {
        "mechanism": {
            "pivot_c": [0.3, 0.0],
            "baseline": {"l_oa": -0.10, "l_ab": 0.25, "l_bc": 0.15},
            "branch": "plus",
        },
        "task": {"delta_i": 2.6, "delta_e": 1.57, "t_move": 0.5},
        "optimizer": {"bounds": {"l_oa": [0.03, 0.14], "l_ab": [0.15, 0.34], "l_bc": [0.08, 0.25]}},
    }
    with pytest.raises(ValidationError) as err:
        load_config_dict(data)
    assert "l_oa" in str(err.value)


def test_load_config_dict_rejects_even_sample_count():
    data = {
        "mechanism": {
            "pivot_c": [0.3, 0.0],
            "baseline": {"l_oa": 0.10, "l_ab": 0.25, "l_bc": 0.15},
            "branch": "plus",
        },
        "task": {"delta_i": 2.6, "delta_e": 1.57, "t_move": 0.5, "n_samples": 50},
        "optimizer": {"bounds": {"l_oa": [0.03, 0.14], "l_ab": [0.15, 0.34], "l_bc": [0.08, 0.25]}},
    }
    with pytest.raises(ValidationError) as err:
        load_config_dict(data)
    assert "n_samples" in str(err.value)


@pytest.mark.parametrize(
    "path",
    [
        ("mechanism", "tip_length"),
        ("mechanism", "baseline", "l_cd"),
        ("task", "t_hold"),
        ("optimizer", "budget"),
        ("optimizer", "bounds", "l_ad"),
        ("optimiser",),
    ],
)
def test_load_config_dict_rejects_unknown_keys(path):
    data = json.loads(CANON_CONFIG.read_text(encoding="utf-8"))
    section = data
    for name in path[:-1]:
        section = section[name]
    section[path[-1]] = 0.25
    with pytest.raises(ParseError) as err:
        load_config_dict(data)
    assert ".".join(path) in str(err.value)


_DROP = object()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("task", "delta_i", {"value": 150, "unit": "deg"}),
        ("task", "delta_i", {"value": 150, "units": "deg", "x": 1}),
        ("optimizer", "n_init", 12.9),
        ("optimizer", "seed", "7"),
        ("optimizer", "n_acq_samples", "abc"),
        ("mechanism", "pivot_c", ["x", 0]),
        ("mechanism", "link_density", ["a", 2, 2]),
        ("task", "t_move", True),
        ("mechanism", "branch", _DROP),
    ],
)
def test_load_config_dict_rejects_malformed_values(section, key, value):
    data = json.loads(CANON_CONFIG.read_text(encoding="utf-8"))
    if value is _DROP:
        del data[section][key]
    else:
        data[section][key] = value
    with pytest.raises(ParseError) as err:
        load_config_dict(data)
    assert f"{section}.{key}" in str(err.value)


def test_load_config_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_config(str(tmp_path / "missing.json"))


def test_load_config_malformed_json_is_parse_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_config(str(p))


def canon_with_payload(tmp_path, digits: str) -> str:
    """The canon config file with ``payload_mass`` written as ``digits``."""
    text = CANON_CONFIG.read_text(encoding="utf-8")
    head, tail = re.match(r'(?s)(.*?"payload_mass":)\s*[0-9.eE+-]+(.*)', text).groups()
    p = tmp_path / "payload.json"
    p.write_text(f"{head} {digits}{tail}", encoding="utf-8")
    return str(p)


def test_load_config_rejects_an_integer_too_large_for_a_float(tmp_path):
    with pytest.raises(ParseError, match=r"mechanism\.payload_mass: integer too large"):
        load_config(canon_with_payload(tmp_path, "9" * 400))
    data = json.loads(CANON_CONFIG.read_text(encoding="utf-8"))
    data["mechanism"]["pivot_c"] = [10**400, 0.0]
    with pytest.raises(ParseError, match=r"mechanism\.pivot_c: integer too large"):
        load_config_dict(data)


def test_load_config_rejects_an_integer_past_the_digit_limit(tmp_path):
    # json.load raises a bare ValueError for an integer of over 4,300 digits
    path = canon_with_payload(tmp_path, "9" * 5000)
    with pytest.raises(ParseError, match="invalid JSON in") as err:
        load_config(path)
    assert path in str(err.value)


def test_load_config_rejects_a_file_that_is_not_utf8(tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes(CANON_CONFIG.read_text(encoding="utf-8").replace('"plus"', '"plusé"').encode("latin-1"))
    with pytest.raises(ParseError, match="is not UTF-8") as err:
        load_config(str(p))
    assert str(p) in str(err.value)


@pytest.mark.parametrize("key, value", [("t_move", "5.0"), ("l_oa", "0.2"), ("units", '"rad"')])
def test_load_config_rejects_a_key_given_twice(tmp_path, key, value):
    # json keeps the last of two equal keys; the loader names the key instead.
    # The canon with the key's first place (in task, baseline, delta_i) given twice
    text = CANON_CONFIG.read_text(encoding="utf-8")
    head, tail = re.match(rf'(?s)(.*?"{key}":)(.*)', text).groups()
    p = tmp_path / "twice.json"
    p.write_text(f"{head} {value}, \"{key}\":{tail}", encoding="utf-8")
    with pytest.raises(ParseError, match=rf"{key}: key given twice"):
        load_config(str(p))


def test_bare_angles_are_radians_and_unit_objects_convert():
    data = {
        "mechanism": {
            "pivot_c": [0.3, 0.0],
            "baseline": {"l_oa": 0.10, "l_ab": 0.25, "l_bc": 0.15},
            "branch": "plus",
            "effector_offset": 0.5,
        },
        "task": {"delta_i": {"value": 150.0, "units": "deg"}, "delta_e": 1.5, "t_move": 0.5},
        "optimizer": {"bounds": {"l_oa": [0.03, 0.14], "l_ab": [0.15, 0.34], "l_bc": [0.08, 0.25]}},
    }
    cfg, task, _ = load_config_dict(data)
    assert cfg.effector_offset == 0.5 and task.delta_e == 1.5
    assert task.delta_i == math.radians(150.0)
    data["task"]["delta_e"] = {"value": 1.5, "units": "rad"}
    data["task"]["delta_i"] = {"value": 90}
    _, task, _ = load_config_dict(data)
    assert task.delta_e == 1.5 and task.delta_i == 90.0
