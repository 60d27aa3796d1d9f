"""Command-line entry point.

Subcommands map one-to-one onto the library surface: ``validate`` checks a
config, ``evaluate`` scores one design, ``trace`` dumps the stroke
trajectory with torque, ``grid`` runs the exhaustive sweep, and
``optimize`` runs the constrained-BO search.  All numeric output uses 12
significant digits; missing values are empty CSV fields / JSON nulls.

Exit codes: 0 success, 1 validation problem, 2 runtime failure, 64 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .constraints import evaluate_design, static_gap
from .dynamics import torque_profile
from .kinematics import kinematic_transform, validate_baseline
from .model import (
    BaselineDefective,
    BaselineInfeasible,
    DesignParams,
    EvaluationRecord,
    MechanismError,
    ParseError,
    ValidationError,
    load_config,
)

# one evaluated design: its three lengths, its three constraint values and its RMS torque
_RECORD_COLUMNS = ("l_oa", "l_ab", "l_bc", "c_static_i", "c_static_e", "c_dyn", "t_rms")
_EVAL_HEADER = ",".join((*_RECORD_COLUMNS, "feasible"))
_OPT_HEADER = ",".join(("iter", *_RECORD_COLUMNS, "acq", "best_so_far"))
_TRACE_HEADER = "t,delta,delta_dot,delta_ddot,theta,theta_dot,theta_ddot,torque"

USAGE_ERROR = 64


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return "%.12g" % value


def _resolution(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad resolution {text!r}") from exc
    if not 2 <= value <= 31:
        raise argparse.ArgumentTypeError("resolution must be between 2 and 31")
    return value


def _design_triplet(text: str) -> DesignParams:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated lengths: l_oa,l_ab,l_bc")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad length in {text!r}") from exc
    try:
        return DesignParams(*values)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _cells(record: EvaluationRecord) -> list[str]:
    """A record's formatted values, in ``_RECORD_COLUMNS`` order."""
    c = record.constraints
    values = (*record.design.as_tuple(), c.c_static_i, c.c_static_e, c.c_dyn, record.objective)
    return [_fmt(v) for v in values]


def _record_row(record: EvaluationRecord) -> str:
    return ",".join([*_cells(record), "true" if record.constraints.feasible else "false"])


def _design_json(design: DesignParams) -> dict:
    return dict(zip(_RECORD_COLUMNS[:3], design.as_tuple()))


def _record_json(record: EvaluationRecord) -> dict:
    return {
        "design": _design_json(record.design),
        "constraints": {name: getattr(record.constraints, name) for name in _RECORD_COLUMNS[3:6]},
        "feasible": record.constraints.feasible,
        "t_rms": record.objective,
    }


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _cmd_validate(args) -> int:
    cfg, task, _opt = load_config(args.config, degrees=args.degrees)
    stroke = validate_baseline(cfg, task)
    print(json.dumps({"status": "ok", "baseline_samples": len(stroke)}))
    return 0


def _cmd_evaluate(args) -> int:
    cfg, task, _opt = load_config(args.config, degrees=args.degrees)
    design = args.design if args.design is not None else cfg.baseline

    if args.pose is not None:
        gap = static_gap(design, cfg, task, args.pose)
        print(
            json.dumps(
                {
                    "pose": gap.pose,
                    "value": gap.value,
                    "degenerate_start": gap.degenerate_start,
                    "o_prime_init": list(gap.o_prime_init),
                    "o_prime_final": list(gap.o_prime_final),
                }
            )
        )
        return 0

    record = evaluate_design(design, cfg, task)
    print(json.dumps(_record_json(record)))
    if args.csv:
        fresh = not os.path.exists(args.csv) or os.path.getsize(args.csv) == 0
        with open(args.csv, "a", encoding="utf-8", newline="\n") as fh:
            if fresh:
                fh.write(_EVAL_HEADER + "\n")
            fh.write(_record_row(record) + "\n")
    return 0


def _cmd_trace(args) -> int:
    cfg, task, _opt = load_config(args.config, degrees=args.degrees)
    design = args.design if args.design is not None else cfg.baseline
    stroke = kinematic_transform(design, cfg, task)
    profile = torque_profile(design, cfg, task, stroke)

    # the torque column is indexed like the stroke, so rows share one t
    columns = (
        stroke.t,
        stroke.delta,
        stroke.delta_dot,
        stroke.delta_ddot,
        stroke.theta,
        stroke.theta_dot,
        stroke.theta_ddot,
        profile.torque,
    )
    lines = [_TRACE_HEADER]
    lines.extend(",".join(_fmt(v) for v in row) for row in zip(*(c.tolist() for c in columns)))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_grid(args) -> int:
    # only this command sweeps a grid, so only it loads the oracle module
    from .oracle import grid_sweep

    cfg, task, opt_cfg = load_config(args.config, degrees=args.degrees)
    records = grid_sweep(cfg, task, opt_cfg.bounds, args.resolution)
    lines = [_EVAL_HEADER]
    lines.extend(_record_row(r) for r in records)
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _trace_csv(trace) -> str:
    lines = [_OPT_HEADER]
    best = math.inf
    for i, (record, acq) in enumerate(zip(trace.records, trace.acquisition, strict=True)):
        # a record carries an objective only when it is feasible
        if record.objective is not None:
            best = min(best, record.objective)
        best_so_far = _fmt(best if best < math.inf else None)
        lines.append(",".join([str(i), *_cells(record), _fmt(acq), best_so_far]))
    return "\n".join(lines) + "\n"


def _gp_dump(trace, opt_cfg) -> dict:
    from .optimizer import fit_surrogates, step_from_record

    models = fit_surrogates([step_from_record(r) for r in trace.records], opt_cfg)

    def model_dict(model):
        return {
            "signal_variance": model.kernel.signal_variance,
            "lengthscales": list(model.kernel.lengthscales),
            "noise_variance": model.kernel.noise_variance,
            "y_mean": model.y_mean,
            "y_sd": model.y_sd,
            "degenerate": model.degenerate,
            "n_train": int(len(model.train_y)),
        }

    payload = {
        "objective": model_dict(models.objective) if models.objective else None,
        "constraints": {
            name: model_dict(m) for name, m in zip(models.constraint_names, models.constraints)
        },
        "f_best_log": models.f_best,
    }
    return payload


def _cmd_optimize(args) -> int:
    # only this command fits GPs, so only it loads the optimizer and scipy
    from .optimizer import run_optimization

    cfg, task, opt_cfg = load_config(args.config, degrees=args.degrees)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.budget is not None:
        overrides["n_max"] = args.budget
    if overrides:
        opt_cfg = dataclasses.replace(opt_cfg, **overrides)

    trace = run_optimization(cfg, task, opt_cfg)
    if trace.best_feasible is None:
        payload = {"no_feasible_found": True}
    else:
        design, t_rms = trace.best_feasible
        payload = {"design": _design_json(design), "t_rms": t_rms}
    if args.out:
        _write_text(args.out, _trace_csv(trace))
    if args.best:
        _write_text(args.best, json.dumps(payload, indent=2) + "\n")
    if args.dump_gp:
        _write_text(args.dump_gp, json.dumps(_gp_dump(trace, opt_cfg), indent=2) + "\n")
    # stdout names the design "best"
    print(json.dumps({"best" if key == "design" else key: value for key, value in payload.items()}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fourbar-synth", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument(
            "--degrees",
            action="store_true",
            help="interpret bare angle numbers in the config as degrees",
        )

    p = sub.add_parser("validate", help="load a config and validate the baseline")
    add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("evaluate", help="constraints and RMS torque for one design")
    add_common(p)
    p.add_argument("--design", type=_design_triplet, help="l_oa,l_ab,l_bc in metres")
    report = p.add_mutually_exclusive_group()
    report.add_argument(
        "--pose", choices=("i", "e"), help="report only the static gap at this pose"
    )
    report.add_argument("--csv", help="append the record to this CSV file")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("trace", help="write the stroke trajectory + torque CSV")
    add_common(p)
    p.add_argument("--design", type=_design_triplet, help="l_oa,l_ab,l_bc in metres")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("grid", help="exhaustive sweep over the optimizer bounds")
    add_common(p)
    p.add_argument("--resolution", type=_resolution, default=21, help="grid points per axis (2..31)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("optimize", help="constrained Bayesian optimization run")
    add_common(p)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--budget", type=int, help="override the evaluation budget")
    p.add_argument("--out", help="trace CSV path")
    p.add_argument("--best", help="best-design JSON path")
    p.add_argument("--dump-gp", help="write final GP hyperparameters to this JSON path")
    p.set_defaults(func=_cmd_optimize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, ValidationError, BaselineInfeasible, BaselineDefective) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MechanismError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
