"""Command-line front end: `stsdiff run` for one experiment,
`stsdiff study <name>` for a preset sweep. Flags mirror the
experiment config; a YAML file supplies defaults that flags override."""

from __future__ import annotations

import argparse
import sys

import yaml

from .bench import STUDY_NAMES, ExperimentConfig, run_experiment, study

_FIELD_FOR_FLAG = {
    "problem": "problem",
    "method": "method",
    "nu": "nu",
    "nv": "n_v",
    "nx": "n_x",
    "rtol": "rtol",
    "atol": "atol",
    "norm": "norm",
    "eig_mode": "eig_mode",
    "q_lambda": "q_lambda",
    "tau": "tau",
    "tf": "t_f",
    "fixed_h": "fixed_h",
    "seed": "seed",
    "out": "out",
}


def _float_list(text) -> tuple:
    if isinstance(text, (list, tuple)):
        return tuple(float(x) for x in text)
    if isinstance(text, (int, float)):
        return (float(text),)
    parts = [p for p in str(text).split(",") if p.strip()]
    return tuple(float(p) for p in parts)


def _add_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="YAML file with flag defaults")
    sub.add_argument("--problem", choices=("fd", "dg"))
    sub.add_argument("--method")
    sub.add_argument("--nu", type=float)
    sub.add_argument("--nv", type=int)
    sub.add_argument("--nx", type=int)
    sub.add_argument("--rtol", help="comma-separated list, e.g. 1e-2,1e-4")
    sub.add_argument("--atol", type=float)
    sub.add_argument("--norm", choices=("component", "cell"))
    sub.add_argument("--eig-mode", dest="eig_mode",
                     choices=("user", "power"))
    sub.add_argument("--q-lambda", dest="q_lambda", type=float)
    sub.add_argument("--tau", type=float)
    sub.add_argument("--tf", type=float)
    sub.add_argument("--fixed-h", dest="fixed_h",
                     help="comma-separated list of step sizes")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out")


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ValueError("config file must be a flat key-value mapping")
    out = {}
    for key, val in raw.items():
        norm_key = str(key).replace("-", "_")
        if norm_key not in _FIELD_FOR_FLAG:
            raise ValueError(f"unknown config key {key!r}")
        out[norm_key] = val
    return out


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    values = {}
    if args.config:
        values.update(_load_config_file(args.config))
    for flag in _FIELD_FOR_FLAG:
        flag_val = getattr(args, flag, None)
        if flag_val is not None:
            values[flag] = flag_val
    kwargs = {}
    for flag, val in values.items():
        name = _FIELD_FOR_FLAG[flag]
        if name in ("rtol", "fixed_h"):
            kwargs[name] = _float_list(val)
        else:
            kwargs[name] = val
    if kwargs.get("fixed_h") and "rtol" not in kwargs:
        # a fixed-step scan without --rtol should not inherit the
        # adaptive default and emit a surprise adaptive row
        kwargs["rtol"] = ()
    return ExperimentConfig(**kwargs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stsdiff",
        description="Benchmark stabilized, SSP, and DIRK integrators on "
                    "stiff variable-coefficient diffusion.")
    subs = parser.add_subparsers(dest="command", required=True)
    run_p = subs.add_parser("run", help="single experiment (one CSV)")
    _add_flags(run_p)
    study_p = subs.add_parser("study", help="named sweep (one CSV)")
    study_p.add_argument("name", choices=STUDY_NAMES)
    _add_flags(study_p)

    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "run":
            rows = run_experiment(cfg)
        else:
            rows = study(args.name, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(rows)} rows to {cfg.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
