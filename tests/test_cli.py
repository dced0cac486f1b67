import argparse
from dataclasses import fields

import pytest

from stsdiff.bench import ExperimentConfig
from stsdiff.cli import (
    _add_flags,
    _flag_fields,
    _load_config_file,
    build_config,
    main,
)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def namespace(**overrides):
    ns = argparse.Namespace(config=None,
                            **{k: None for k in _flag_fields()})
    for key, val in overrides.items():
        setattr(ns, key, val)
    return ns


def test_run_subcommand_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = main(["run", "--problem", "fd", "--method", "rkc", "--nv", "32",
               "--nx", "1", "--rtol", "1e-3,1e-4", "--q-lambda", "1.2",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 3
    assert "wrote 2 rows" in capsys.readouterr().out


def test_study_subcommand(tmp_path):
    out = tmp_path / "study.csv"
    rc = main(["study", "eigmode", "--problem", "fd", "--method", "rkl",
               "--nv", "32", "--nx", "1", "--rtol", "1e-3",
               "--q-lambda", "1.2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("eigmode,")


def test_config_file_supplies_defaults(tmp_path):
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text("problem: fd\nmethod: rkl\nnv: 48\nrtol: [1e-3]\n"
                       "q-lambda: 1.3\n", encoding="utf-8")
    cfg = build_config(namespace(config=str(cfgfile)))
    assert cfg.method == "rkl"
    assert cfg.n_v == 48
    assert cfg.rtol == (1e-3,)
    assert cfg.q_lambda == 1.3


def test_flags_override_config_file(tmp_path):
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text("method: rkl\nrtol: [1e-3]\n", encoding="utf-8")
    cfg = build_config(namespace(config=str(cfgfile), method="ssp3",
                                 rtol="1e-5,1e-6"))
    assert cfg.method == "ssp3"
    assert cfg.rtol == (1e-5, 1e-6)


def test_fixed_h_flag_parses_comma_list():
    cfg = build_config(namespace(fixed_h="0.01,0.005", rtol=""))
    assert cfg.fixed_h == (0.01, 0.005)
    assert cfg.rtol == ()


def test_fixed_h_alone_suppresses_adaptive_default():
    cfg = build_config(namespace(fixed_h="0.01"))
    assert cfg.rtol == ()


def test_fixed_h_with_rtol_keeps_both():
    cfg = build_config(namespace(fixed_h="0.01", rtol="1e-3"))
    assert cfg.rtol == (0.001,)
    assert cfg.fixed_h == (0.01,)


def test_unknown_config_key_rejected(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("granularity: 3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        _load_config_file(str(bad))


def test_invalid_flag_combination_exits_nonzero(tmp_path, capsys):
    # an empty rtol list and no fixed_h leave nothing to run
    rc = main(["run", "--rtol", "", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "need at least one rtol or fixed_h point" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_every_flag_is_backed_by_a_config_field():
    flag_fields = _flag_fields()
    names = {f.name for f in fields(ExperimentConfig)}
    assert {name for name, _ in flag_fields.values()} == names
    parser = argparse.ArgumentParser()
    _add_flags(parser)
    dests = {a.dest for a in parser._actions} - {"help", "config"}
    assert dests == set(flag_fields)
    # the historical spellings, which are also the YAML keys
    assert dests == {"problem", "method", "nu", "nv", "nx", "rtol", "atol",
                     "norm", "eig_mode", "q_lambda", "tau", "tf", "fixed_h",
                     "seed", "out"}
    flags = {s for a in parser._actions for s in a.option_strings}
    assert {"--eig-mode", "--q-lambda", "--fixed-h", "--nv", "--tf"} <= flags


def test_unconverged_estimate_aborts_its_point_only(tmp_path):
    # at tau = 1e-9 the power iteration does not converge within
    # max_iters: the power row records an abort, the user row stands
    out = tmp_path / "tau.csv"
    rc = main(["study", "eigmode", "--problem", "dg", "--nv", "16", "--nx",
               "2", "--tau", "1e-9", "--rtol", "1e-3", "--q-lambda", "1.2",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    assert [(r["eig_mode"], r["status"]) for r in rows] == [
        ("user", "ok"), ("power", "abort")]


def test_negative_seed_is_rejected_before_any_integration(tmp_path, capsys,
                                                          monkeypatch):
    def boom(*a, **kw):
        raise AssertionError("integrated with a bad seed")

    monkeypatch.setattr("stsdiff.bench.advance_adaptive", boom)
    rc = main(["study", "eigmode", "--problem", "fd", "--nv", "32", "--nx",
               "1", "--seed", "-1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_removed_cache_dir_flag_is_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--problem", "fd", "--nv", "32", "--nx", "1",
              "--out", str(tmp_path / "x.csv"),
              "--cache-dir", str(tmp_path / "cache")])
    assert exc.value.code == 2
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flag,value", [
    ("--atol", "nan"), ("--tf", "inf"), ("--tf", "nan"),
    ("--q-lambda", "nan"), ("--nu", "nan"), ("--fixed-h", "inf")])
def test_nonfinite_value_is_rejected_before_the_reference(
        tmp_path, capsys, monkeypatch, flag, value):
    def boom(*a, **kw):
        raise AssertionError("built a reference for a bad value")

    monkeypatch.setattr("stsdiff.bench._reference", boom)
    rc = main(["run", "--problem", "fd", "--nv", "16", "--nx", "1",
               "--rtol", "1e-3", flag, value,
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_yaml_values_are_parsed_like_flag_text(tmp_path, capsys):
    # YAML 1.1 reads 1e-1 as a string, not a float
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text("problem: fd\nnv: 16\nnx: 1\nnu: 1e-1\ntf: 1e-1\n"
                       "rtol: [1e-3]\nq-lambda: 1.2\n", encoding="utf-8")
    cfg = build_config(namespace(config=str(cfgfile)))
    assert (cfg.nu, cfg.t_f, cfg.n_v) == (0.1, 0.1, 16)
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 2


# a YAML bool is an int to Python, but its text is no number, as
# `--rtol true` is none
@pytest.mark.parametrize("yaml_text,flags", [
    ("nv: 16.5\n", []), ("", ["--nv", "abc"]), ("tf: abc\n", []),
    ("rtol: true\n", []), ("rtol: [true]\n", [])],
    ids=["yaml-nv", "flag-nv", "yaml-tf", "yaml-rtol-bool",
         "yaml-rtol-bool-list"])
def test_bad_value_exits_2_from_yaml_or_flag(tmp_path, capsys, yaml_text,
                                             flags):
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text(yaml_text, encoding="utf-8")
    rc = main(["run", "--config", str(cfgfile), *flags,
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_last_sample_time_above_t_f_no_longer_fails_a_run(tmp_path):
    # (20 * 0.00021) / 20 exceeds 0.00021 by an ulp
    out = tmp_path / "x.csv"
    assert main(["run", "--problem", "fd", "--nv", "16", "--nx", "1",
                 "--tf", "0.00021", "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 2


def test_fixed_h_past_the_sample_spacing_exits_2(tmp_path, capsys,
                                                 monkeypatch):
    def boom(*a, **kw):
        raise AssertionError("built a reference for a bad value")

    monkeypatch.setattr("stsdiff.bench._reference", boom)
    rc = main(["run", "--problem", "dg", "--nv", "16", "--nx", "2",
               "--method", "ssp4", "--tf", "0.1", "--eig-mode", "user",
               "--fixed-h", "0.02,0.01,0.005",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "spacing" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
