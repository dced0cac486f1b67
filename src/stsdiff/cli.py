"""Command-line front end: `stsdiff run` for one experiment,
`stsdiff study <name>` for a preset sweep. Flags mirror the
experiment config; a YAML file supplies defaults that flags override."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import yaml

from .bench import (
    PROBLEM_NAMES,
    STUDY_NAMES,
    ExperimentConfig,
    run_experiment,
    study,
)
from .state import NORM_NAMES
from .timeloop import EIG_MODES

# one flag per ExperimentConfig field, spelled as the field but for
# these historical short spellings; a flag's dest is also its YAML key
_SPELLING = {"n_v": "nv", "n_x": "nx", "t_f": "tf"}
_CHOICES = {"problem": PROBLEM_NAMES, "norm": NORM_NAMES,
            "eig_mode": EIG_MODES}
_HELP = {"rtol": "comma-separated list, e.g. 1e-2,1e-4",
         "fixed_h": "comma-separated list of step sizes"}


def _flag_fields() -> dict:
    """Flag dest -> (field name, field default), in field order."""
    return {_SPELLING.get(f.name, f.name): (f.name, f.default)
            for f in fields(ExperimentConfig)}


def _float_list(val) -> tuple:
    # each entry is parsed from its text, as a flag's would be, so that a
    # YAML bool, which Python counts as an int, is refused
    parts = (val if isinstance(val, (list, tuple))
             else [p for p in str(val).split(",") if p.strip()])
    return tuple(float(str(x)) for x in parts)


def _add_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="YAML file with flag defaults")
    for dest, (name, _) in _flag_fields().items():
        # values stay text; build_config parses them as it does YAML values
        sub.add_argument("--" + dest.replace("_", "-"), dest=dest,
                         choices=_CHOICES.get(name), help=_HELP.get(name))


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ValueError("config file must be a flat key-value mapping")
    known = _flag_fields()
    out = {}
    for key, val in raw.items():
        norm_key = str(key).replace("-", "_")
        if norm_key not in known:
            raise ValueError(f"unknown config key {key!r}")
        out[norm_key] = val
    return out


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    flag_fields = _flag_fields()
    values = _load_config_file(args.config) if args.config else {}
    for flag in flag_fields:
        flag_val = getattr(args, flag, None)
        if flag_val is not None:
            values[flag] = flag_val
    kwargs = {}
    for flag, val in values.items():
        name, default = flag_fields[flag]
        try:
            kwargs[name] = (_float_list(val) if isinstance(default, tuple)
                            else type(default)(str(val)))
        except ValueError as exc:
            raise ValueError(f"bad value {val!r} for {flag}: {exc}") from None
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
