"""Tests for the command-line front end: configs, exit codes, artifacts."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dwlab import cli
from dwlab.cli import config_hash, main, parse_config, resolve_config
from dwlab.modulus import classify_dini, parse_modulus_spec

README = Path(__file__).resolve().parent.parent / "README.md"


def _write_config(tmp_path, name, **kv):
    path = tmp_path / name
    path.write_text("\n".join(f"{k} = {v}" for k, v in kv.items()) + "\n")
    return str(path)


def _run_config(tmp_path, command, **kv):
    cfg = _write_config(tmp_path, f"{command}.cfg", **kv)
    out = tmp_path / "out"
    return main([command, "--config", cfg, "--out", str(out)]), out


def _files(out):
    """The sorted file names of the one run directory in out."""
    (run_dir,) = list(out.iterdir())
    return sorted(p.name for p in run_dir.iterdir())


def _manifest(out):
    """The manifest entries, in file order, of the one run directory in out."""
    (run_dir,) = list(out.iterdir())
    return dict(line.split(" = ", 1) for line in (run_dir / "manifest.txt").read_text().splitlines())


# -- config plumbing --------------------------------------------------


def test_parse_config_comments_and_blanks(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("# leading comment\n\nL = 64.0  # inline\nN=512\n")
    assert parse_config(path) == {"L": "64.0", "N": "512"}


def test_parse_config_rejects_bare_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("L 64\n")
    with pytest.raises(ValueError):
        parse_config(path)


def test_parse_config_rejects_a_repeated_key(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("t_max = 2\nN = 512\nt_max = 3\n")
    with pytest.raises(ValueError, match="'t_max'"):
        parse_config(path)


def test_config_hash_deterministic_and_order_free():
    a = {"L": "64", "N": "512"}
    b = {"N": "512", "L": "64"}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 16
    assert config_hash(a) != config_hash({"L": "64", "N": "1024"})


def _assert_one_line_usage_error(capsys, argv, prefix=None):
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix or f"dwlab {argv[0]}: ")
    assert "Traceback" not in captured.err + captured.out
    return lines[0]


def test_missing_config_file_is_usage_error(capsys):
    _assert_one_line_usage_error(capsys, ["classify", "--config", "/nonexistent/file.cfg"])


# A small valid config per subcommand, holding only keys that subcommand reads.
_DATA = dict(dimension=1, L=64.0, N=512, width=2.0)
_VALID = {"classify": dict(dimension=1),
          "linear": dict(_DATA, t_max=5.0),
          "run": dict(_DATA, t_max=5.0, dt=0.05, modulus="invlog:p=2"),
          "sweep": dict(_DATA, t_max=5.0, dt=0.05, moduli="invlog:p=2", epsilons="0.2"),
          "certificate": dict(_DATA, R=16.0, dt=0.05, modulus="invlog:p=2")}


# (command, config overrides, a word the error line must contain)
_USER_ERRORS = [
    pytest.param(command, {"modulus": spec}, "", id=f"{spec}-{command}")
    for command in ("classify", "run", "certificate")
    for spec in ("custom:{tmp}/missing.txt", "custom:{tmp}/convex.txt",
                 "custom:{tmp}/nan.txt", "oracle:p=2")
] + [
    # a table too short to interpolate says so in one line, without numpy's
    # empty-file warning (raised as an error here) or a wrong "two columns"
    pytest.param(command, {"modulus": f"custom:{{tmp}}/{name}"}, "two rows",
                 id=f"{name}-{command}", marks=pytest.mark.filterwarnings("error"))
    for command in ("classify", "run", "certificate") for name in ("empty.txt", "onerow.txt")
] + [
    # NaN compares false with every bound, so each check must be written lo < x < inf
    pytest.param(command, {key: "nan"}, "", id=f"{key}=nan-{command}")
    for command, key in (("run", "L"), ("run", "dt"), ("linear", "L"), ("certificate", "L"))
] + [
    # a bad data parameter is reported by its config key
    pytest.param(command, {key: "nan"}, key, id=f"{key}=nan-{command}")
    for command, key in (("run", "amplitude"), ("linear", "amplitude"),
                         ("certificate", "amplitude"), ("run", "width"))
] + [
    # a bad horizon is reported by its key, not blamed on the torus or the
    # sample times; linear samples from max(t_max / 100, 1), so t_max > 1
    pytest.param(command, {key: value}, key, id=f"{key}={value}-{command}")
    for command, key, value in (("run", "t_max", "nan"), ("linear", "t_max", "nan"),
                                ("certificate", "R", "nan"), ("linear", "t_max", "-5"),
                                ("linear", "t_max", "0.5"))
] + [
    # r0 is checked with the horizon, before the run and its output directory
    pytest.param("certificate", {"r0": value}, "r0", id=f"r0={value}-certificate")
    for value in ("nan", "0", "-1")
] + [
    # a log-family p whose mu(s*) is not a normal double is named by its value
    pytest.param("run", {"modulus": "invlog:p=800"}, "800", id="invlog:p=800-run"),
] + [
    # the oracle's exponent must be finite: q = inf is named by its value
    pytest.param(command, {"modulus": "oracle:q=inf"}, "inf", id=f"oracle:q=inf-{command}")
    for command in ("run", "certificate")
] + [
    # a value the key's type cannot parse is reported by its config key
    pytest.param(command, {key: value}, key, id=f"{key}={value}-{command}")
    for command, key, value in (("run", "sample_stride", "1.5"), ("linear", "N", "1e3"),
                                ("certificate", "R", "abc"))
] + [
    # a spec key given twice is named, not decided by its last value
    pytest.param(command, {"modulus": spec}, f"'{key}' is given twice", id=f"{spec}-{command}")
    for command, spec, key in (("classify", "invlog:p=0.5,p=2", "p"),
                               ("run", "invlog:p=0.5,p=2", "p"),
                               ("run", "oracle:q=1.5,q=2", "q"),
                               ("certificate", "oracle:q=1.5,q=2", "q"))
] + [
    # an iterlog depth outside 1..3 is named, not an overflow or a numpy warning
    pytest.param("classify", {"modulus": spec}, "depth", id=spec)
    for spec in ("iterlog:p=1,depth=inf", "iterlog:p=1,depth=nan", "iterlog:p=1,depth=5",
                 "iterlog:p=1,depth=1e30", "iterlog:p=0.5,depth=4", "iterlog:p=1,depth=4",
                 "iterlog:p=2,depth=4", "iterlog:p=4,depth=4")
]


@pytest.mark.parametrize("command, overrides, named", _USER_ERRORS)
def test_user_errors_are_one_line(tmp_path, capsys, command, overrides, named):
    (tmp_path / "convex.txt").write_text("0 0\n0.5 0.1\n1 1\n")
    (tmp_path / "nan.txt").write_text("0 0\n0.1 nan\n1 1\n")
    (tmp_path / "empty.txt").write_text("")
    (tmp_path / "onerow.txt").write_text("0 0\n")
    cfg = dict(_VALID[command])
    cfg.update({key: value.format(tmp=tmp_path) for key, value in overrides.items()})
    if command == "classify":  # the spec is classify's positional argument
        argv = ["classify", cfg.pop("modulus")]
    else:
        argv = [command, "--config", _write_config(tmp_path, f"{command}.cfg", **cfg),
                "--out", str(tmp_path / "out")]
    line = _assert_one_line_usage_error(capsys, argv)
    assert named in line and "unknown config key" not in line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key", [
    ("run", "R"), ("certificate", "t_max"), ("linear", "modulus"), ("run", "epsilons"),
    ("classify", "L"), ("run", "t_mx"),
    # one key per value: classify's spec is its positional argument, and a
    # sweep's moduli and amplitudes are its two lists
    ("classify", "modulus"), ("sweep", "modulus"), ("sweep", "amplitude"),
])
def test_unknown_config_key_is_usage_error(tmp_path, capsys, command, key):
    # a typo or a key meant for another subcommand must not be dropped without a word
    cfg = _write_config(tmp_path, f"{command}.cfg", **_VALID[command], **{key: "5"})
    line = _assert_one_line_usage_error(capsys, [command, "--config", cfg,
                                                 "--out", str(tmp_path / "out")])
    assert f"unknown config key '{key}'" in line
    assert not (tmp_path / "out").exists()


def test_repeated_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in _VALID["run"].items()) + "t_max = 3\n")
    line = _assert_one_line_usage_error(capsys, ["run", "--config", str(cfg),
                                                 "--out", str(tmp_path / "out")])
    assert "'t_max'" in line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, rest", [
    pytest.param(command, rest, id=command)
    for command, rest in (("classify", ["invlog:p=2", "power:p=1"]), ("linear", ["foo", "bar"]),
                          ("run", ["foo"]), ("sweep", ["foo"]), ("certificate", ["foo"]))
])
def test_stray_positional_argument_is_usage_error(tmp_path, capsys, command, rest):
    cfg = _write_config(tmp_path, f"{command}.cfg", **_VALID[command])
    line = _assert_one_line_usage_error(capsys, [command, *rest, "--config", cfg,
                                                 "--out", str(tmp_path / "out")])
    assert repr(rest[-1] if command == "classify" else rest[0]) in line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, prefix, named", [
    pytest.param(["sweep", "--config", "{sweep}", "--workers", "two"], "dwlab sweep: ", "'two'",
                 id="workers=two"),
    pytest.param(["sweep", "--config", "{sweep}", "--workers", "0"], "dwlab sweep: ",
                 "--workers", id="workers=0"),
    pytest.param(["sweep", "--workers", "-2", "--config", "{sweep}"], "dwlab sweep: ",
                 "--workers", id="workers=-2"),
    pytest.param(["classify", "--config", "{classify}", "invlog:p=2"], "dwlab classify: ",
                 "unrecognized arguments: invlog:p=2", id="positional-after-config"),
    pytest.param(["nosuch", "--config", "{sweep}"], "dwlab: ", "'nosuch'", id="unknown-command"),
    pytest.param(["--config", "{sweep}"], "dwlab: ", "command", id="no-command"),
])
def test_argument_errors_are_one_line(tmp_path, capsys, argv, prefix, named):
    # argparse's own errors exit 1 with one line too, not 2 with a usage block
    configs = {command: _write_config(tmp_path, f"{command}.cfg", **_VALID[command])
               for command in ("sweep", "classify")}
    argv = [arg.format(**configs) for arg in argv] + ["--out", str(tmp_path / "out")]
    line = _assert_one_line_usage_error(capsys, argv, prefix)
    assert named in line
    assert not (tmp_path / "out").exists()


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert "usage: dwlab" in capsys.readouterr().out


def test_python_m_dwlab_runs_from_a_checkout(tmp_path):
    # a fresh interpreter with only the source tree on its path, as in a checkout
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "dwlab", *argv], capture_output=True,
                              text=True, env=env, cwd=tmp_path, timeout=120)

    done = module("classify", "power:p=1")
    assert done.returncode == 0, done.stderr
    assert "integral verdict : Convergent" in done.stdout.splitlines()
    bad = module("classify", "nosuch:p=1")
    assert bad.returncode == 1 and bad.stdout == ""
    assert len(bad.stderr.splitlines()) == 1 and bad.stderr.startswith("dwlab classify: ")


def test_sweep_rejects_an_unparsable_value_before_any_job(tmp_path, capsys):
    cfg = _write_config(tmp_path, "sweep.cfg", **{**_VALID["sweep"], "L": "abc"})
    line = _assert_one_line_usage_error(capsys, ["sweep", "--config", cfg,
                                                 "--out", str(tmp_path / "out")])
    assert "L must be a number" in line
    assert not (tmp_path / "out").exists()


def test_run_directory_is_named_by_the_resolved_config(tmp_path, capsys):
    # 1, 1.0 and the default amplitude are one run, so they share one directory
    out = tmp_path / "out"
    base = dict(_DATA, t_max=1.0, modulus="power:p=1")
    for i, amplitude in enumerate([{"amplitude": "1"}, {"amplitude": "1.0"}, {}]):
        cfg = _write_config(tmp_path, f"run{i}.cfg", **base, **amplitude)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(list(out.iterdir())) == 1


def test_sweep_job_is_named_as_the_same_run(tmp_path, capsys):
    base = dict(_DATA, t_max=1.0)
    out = tmp_path / "out"
    sweep_cfg = _write_config(tmp_path, "sweep.cfg", **base, moduli="power:p=1", epsilons="0.5")
    run_cfg = _write_config(tmp_path, "run.cfg", **base, modulus="power:p=1", amplitude=0.5)
    assert main(["sweep", "--config", sweep_cfg, "--out", str(out)]) == 0
    assert main(["run", "--config", run_cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    (run_dir,) = out.glob("run-*")
    (job_dir,) = [p for p in next(out.glob("sweep-*")).iterdir() if p.is_dir()]
    assert run_dir.name == f"run-{job_dir.name}"


_README_CONFIG = re.compile(r"^cat > (\S+) <<EOF\n(.*?)^EOF\ndwlab (\w+) --config (\S+)",
                            re.M | re.S)


def test_readme_configs_resolve(tmp_path):
    # every config block in the README holds only keys its subcommand reads
    text = README.read_text()
    blocks = _README_CONFIG.findall(text)
    assert blocks and len(blocks) == text.count("<<EOF")
    for name, body, command, config in blocks:
        assert config == name
        path = tmp_path / name
        path.write_text(body)
        resolve_config(command, parse_config(path))


# -- classify ---------------------------------------------------------


def test_classify_convergent_modulus(capsys):
    assert main(["classify", "invlog:p=2"]) == 0
    out = capsys.readouterr().out
    assert "Convergent" in out
    assert "slow variation" in out


@pytest.mark.filterwarnings("error")  # a slowly decaying tail must not overflow
@pytest.mark.parametrize("spec", ["invlog:p=1.3", "invlog:p=2", "power:p=1", "power:p=0.1",
                                  "logplus:p=0.05", "iterlog:p=1.15,depth=1"])
def test_classify_prints_the_tail_share_of_the_total(capsys, spec):
    assert main(["classify", spec]) == 0
    dini = classify_dini(parse_modulus_spec(spec))
    share = 1.0 - np.sum(dini.dini_partial_sums) / dini.total_estimate
    out = capsys.readouterr().out
    assert f"tail share       : {share:.3g}\n" in out
    assert 0.0 <= share < 1.0
    if spec == "iterlog:p=1.15,depth=1":
        assert "tail share       : 0.834\n" in out


def test_classify_flags_a_table_whose_steep_piece_lies_past_the_shells(tmp_path, capsys):
    # the only steep piece lies below 1e-100, past the deepest shell, so the
    # shells are flat; a table's tail is exact, so it is Convergent all the same
    path = tmp_path / "deep.txt"
    path.write_text("0 0\n1e-100 1e-30\n1e-2 1.5e-30\n1 2e-30\n")
    assert main(["classify", f"custom:{path}"]) == 0
    captured = capsys.readouterr()
    assert "integral verdict : Convergent" in captured.out
    assert "analytic label   : Convergent" in captured.out
    assert "total estimate   : 2.27153e-28\n" in captured.out
    assert "tail share       : 0.265\n" in captured.out
    assert captured.err == ""


def test_classify_divergent_modulus(capsys):
    assert main(["classify", "invlog:p=1"]) == 0
    out = capsys.readouterr().out
    assert "Divergent" in out
    assert "total estimate" not in out and "tail share" not in out


@pytest.mark.parametrize("p", ["1", "2"])
def test_classify_inconclusive_past_the_deepest_shell(capsys, p):
    # iterlog depth 3 continues linearly down to w* ~ 190, past the
    # deepest Dini shell (w ~ 171): no shell sees the defining formula
    assert main(["classify", f"iterlog:p={p},depth=3"]) == 3
    assert "integral verdict : Inconclusive" in capsys.readouterr().out


def test_classify_rejects_bad_spec(capsys):
    assert main(["classify", "nosuch:p=1"]) == 1
    assert main(["classify"]) == 1
    capsys.readouterr()


# -- linear -----------------------------------------------------------


def test_linear_decay_experiment(tmp_path, capsys):
    code, out = _run_config(tmp_path, "linear",
                            dimension=1, L=300.0, N=4096,
                            t_max=250.0, width=2.0, amplitude=1.0)
    assert code == 0
    assert "ok" in capsys.readouterr().out
    (run_dir,) = list(out.iterdir())
    assert (run_dir / "norms.csv").exists()
    assert (run_dir / "manifest.txt").exists()
    manifest = (run_dir / "manifest.txt").read_text()
    assert "slope_Linf" in manifest


def test_linear_zero_data_skips_fits(tmp_path, capsys):
    code, out = _run_config(tmp_path, "linear",
                            dimension=1, L=300.0, N=4096,
                            t_max=250.0, width=2.0, amplitude=0.0)
    assert code == 0
    assert "zero data" in capsys.readouterr().out
    (run_dir,) = list(out.iterdir())
    assert "decay fits skipped" in (run_dir / "manifest.txt").read_text()


def test_linear_torus_too_small_is_usage_error(tmp_path, capsys):
    code, _ = _run_config(tmp_path, "linear",
                          dimension=1, L=64.0, N=512, t_max=250.0)
    assert code == 1
    capsys.readouterr()


# -- run --------------------------------------------------------------


def test_run_emits_artifacts(tmp_path, capsys):
    code, out = _run_config(tmp_path, "run",
                            dimension=1, L=64.0, N=512, t_max=5.0,
                            dt=0.05, amplitude=0.5, width=2.0,
                            modulus="invlog:p=2")
    assert code == 0
    assert "outcome" in capsys.readouterr().out
    (run_dir,) = list(out.iterdir())
    assert (run_dir / "norms.csv").exists()
    assert "t_est" in (run_dir / "manifest.txt").read_text()


def test_run_rejects_bad_modulus(tmp_path, capsys):
    code, _ = _run_config(tmp_path, "run",
                          dimension=1, L=64.0, N=512, t_max=5.0,
                          modulus="bogus:p=1")
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize("stride", [0, -3])
def test_run_rejects_nonpositive_sample_stride(tmp_path, capsys, stride):
    cfg = _write_config(tmp_path, "run.cfg",
                        dimension=1, L=64.0, N=512, t_max=5.0, dt=0.05,
                        width=2.0, modulus="invlog:p=2", sample_stride=stride)
    _assert_one_line_usage_error(capsys, ["run", "--config", cfg,
                                          "--out", str(tmp_path / "out")])


def test_run_honours_dwlab_out_env(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path, "run.cfg",
                        dimension=1, L=64.0, N=512, t_max=2.0,
                        dt=0.05, amplitude=0.5, width=2.0,
                        modulus="power:p=1")
    target = tmp_path / "env_out"
    monkeypatch.setenv("DWLAB_OUT", str(target))
    assert main(["run", "--config", cfg]) == 0
    assert target.exists() and any(target.iterdir())
    capsys.readouterr()


def test_run_reports_step_collapse(tmp_path, capsys):
    code, out = _run_config(tmp_path, "run",
                            dimension=1, L=32.0, N=256, t_max=20.0,
                            amplitude=40.0, width=2.0, modulus="oracle:q=11")
    assert code == 0
    capsys.readouterr()
    entries = _manifest(out)
    assert entries["outcome"] == "StepCollapse"
    assert 0.0 < float(entries["t_est"]) < 20.0


# -- sweep ------------------------------------------------------------


def _sweep_config(tmp_path, name):
    return _write_config(
        tmp_path, name,
        dimension=1, L=64.0, N=512, t_max=5.0, dt=0.05, width=2.0,
        moduli="invlog:p=2; oracle:q=1.5", epsilons="0.2 0.5")


def test_sweep_runs_grid_of_jobs(tmp_path, capsys):
    cfg = _sweep_config(tmp_path, "sweep.cfg")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.count("invlog:p=2") == 2
    assert text.count("oracle:q=1.5") == 2
    (sweep_dir,) = list(out.iterdir())
    subdirs = [p for p in sweep_dir.iterdir() if p.is_dir()]
    assert len(subdirs) == 4
    assert (sweep_dir / "lifespans.csv").exists()


def test_sweep_worker_count_does_not_change_results(tmp_path, capsys):
    cfg = _sweep_config(tmp_path, "sweep.cfg")
    manifests = []
    for workers, sub in ((1, "one"), (2, "two")):
        out = tmp_path / sub
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--workers", str(workers)]) == 0
        (sweep_dir,) = list(out.iterdir())
        manifests.append({
            p.name: (p / "manifest.txt").read_text()
            for p in sweep_dir.iterdir() if p.is_dir()})
    capsys.readouterr()
    assert set(manifests[0]) == set(manifests[1])
    for key in manifests[0]:
        # drop the wall-clock line, everything else must agree exactly
        strip = lambda text: [ln for ln in text.splitlines()
                              if not ln.startswith("wall_time")]
        assert strip(manifests[0][key]) == strip(manifests[1][key])


@pytest.fixture
def pool_sizes(monkeypatch):
    """The pool sizes the sweep asks for; a pool forks all its workers at
    once, so each pool maps in this process instead of starting one."""
    sizes = []

    class InlineExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlineExecutor)
    return sizes


def _two_job_sweep(tmp_path, capsys, workers):
    cfg = _write_config(tmp_path, "sweep.cfg", dimension=1, L=64.0, N=512, t_max=1.0,
                        width=2.0, moduli="oracle:q=1.5", epsilons="0.2 0.5")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--workers", workers]) == 0
    assert "oracle:q=1.5" in capsys.readouterr().out


def test_sweep_pool_is_capped_at_the_job_count(tmp_path, capsys, pool_sizes):
    _two_job_sweep(tmp_path, capsys, "64")
    assert pool_sizes == [2]


def test_sweep_with_one_worker_runs_in_the_pool(tmp_path, capsys, pool_sizes):
    # one worker is a pool of one, not a second in-process path
    _two_job_sweep(tmp_path, capsys, "1")
    assert pool_sizes == [1]


def test_sweep_isolates_failing_jobs(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "sweep.cfg",
        dimension=1, L=64.0, N=512, t_max=5.0, dt=0.05, width=2.0,
        moduli="invlog:p=2; bogus:p=1", epsilons="0.2")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "Failed" in captured.out
    assert "1 run(s) failed" in captured.err


def test_sweep_empty_list_is_usage_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, "sweep.cfg",
                        dimension=1, L=64.0, N=512, t_max=5.0, moduli="", epsilons="1")
    line = _assert_one_line_usage_error(capsys, ["sweep", "--config", cfg,
                                                 "--out", str(tmp_path / "o")])
    assert "'moduli'" in line


@pytest.mark.parametrize("key", ["moduli", "epsilons"])
def test_sweep_needs_both_lists(tmp_path, capsys, key):
    # a sweep's jobs take their moduli and amplitudes from these lists alone
    cfg = dict(_VALID["sweep"])
    del cfg[key]
    line = _assert_one_line_usage_error(capsys, ["sweep", "--config",
                                                 _write_config(tmp_path, "sweep.cfg", **cfg),
                                                 "--out", str(tmp_path / "o")])
    assert f"missing required config key '{key}'" in line
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("epsilons", ["", "2 1", "-1 1", "0 1"],
                         ids=["empty", "decreasing", "negative", "zero"])
def test_sweep_rejects_bad_epsilons(tmp_path, capsys, epsilons):
    cfg = _write_config(tmp_path, "sweep.cfg",
                        dimension=1, L=64.0, N=512, t_max=5.0,
                        moduli="oracle:q=1.5", epsilons=epsilons)
    _assert_one_line_usage_error(capsys, ["sweep", "--config", cfg,
                                          "--out", str(tmp_path / "o")])


def test_sweep_lifespan_monotone_in_amplitude(tmp_path, capsys):
    dt, stride = 0.01, 50
    cfg = _write_config(tmp_path, "sweep.cfg",
                        dimension=1, L=64.0, N=512, width=2.0, dt=dt,
                        t_max=50.0, sample_stride=stride,
                        moduli="oracle:q=1.5", epsilons="5 10 20")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    (sweep_dir,) = list(out.iterdir())
    rows = []
    for manifest in sweep_dir.glob("*/manifest.txt"):
        entries = dict(line.split(" = ", 1) for line in manifest.read_text().splitlines())
        rows.append((float(entries["amplitude"]), float(entries["t_est"]), entries["outcome"]))
    rows.sort()
    assert [eps for eps, _, _ in rows] == [5.0, 10.0, 20.0]
    assert all(outcome == "BlewUpAt" for _, _, outcome in rows)
    t_ests = [t for _, t, _ in rows]
    for bigger_eps_t, smaller_eps_t in zip(t_ests[1:], t_ests):
        assert bigger_eps_t <= smaller_eps_t + dt * stride


# -- certificate ------------------------------------------------------


def test_certificate_emits_functional_chain(tmp_path, capsys):
    code, out = _run_config(tmp_path, "certificate",
                            dimension=1, L=64.0, N=512, R=16.0, r0=16.0,
                            dt=0.05, amplitude=0.5, width=2.0,
                            modulus="invlog:p=1")
    assert code == 0
    text = capsys.readouterr().out
    assert "certificate:" in text
    (run_dir,) = list(out.iterdir())
    manifest = (run_dir / "manifest.txt").read_text()
    for key in ("outcome", "t_est", "constant_C", "I_R", "Y", "Y_exchanged", "verdict"):
        assert key in manifest


def test_certificate_early_blowup_skips_functionals(tmp_path, capsys):
    # blow-up within the first sample interval leaves only the t = 0 sample
    code, out = _run_config(tmp_path, "certificate",
                            dimension=1, L=80.0, N=512, width=2.0, dt=0.05, R=64.0,
                            modulus="oracle:q=1.5", amplitude=1e8)
    assert code == 0
    captured = capsys.readouterr()
    assert "functionals skipped" in captured.out and not captured.err
    (run_dir,) = list(out.iterdir())
    entries = dict(line.split(" = ", 1)
                   for line in (run_dir / "manifest.txt").read_text().splitlines())
    assert entries["outcome"] == "BlewUpAt"
    assert 0.0 < float(entries["t_est"]) <= 0.25
    assert "I_R" not in entries


def test_certificate_tiny_functional_reports_a_verdict(tmp_path, capsys):
    # Y(R0) is so small that its square underflows and the budget is inf
    code, _ = _run_config(tmp_path, "certificate",
                          dimension=1, L=40.0, N=256, R=16.0, r0=4.0, width=2.0,
                          modulus="invlog:p=1", amplitude=1e-70)
    assert code == 0
    captured = capsys.readouterr()
    assert "certificate:" in captured.out and not captured.err


def test_certificate_rejects_zero_mean_data(tmp_path, capsys):
    code, _ = _run_config(tmp_path, "certificate",
                          dimension=1, L=64.0, N=512, R=16.0,
                          shape="dgaussian", modulus="invlog:p=1")
    assert code == 1
    assert "zero-mean" in capsys.readouterr().err


# -- record layout ----------------------------------------------------


_SERIES_FILES = ["manifest.txt", "norms.csv"]


@pytest.mark.parametrize("amplitude, keys", [
    (1.0, ["config_hash", "dimension"]
     + [f"{key}_{norm}" for norm in ("Linf", "L2", "H1dot")
        for key in ("slope", "residual", "n_points", "expected")]
     + ["wall_time_s"]),
    (0.0, ["config_hash", "dimension", "note", "wall_time_s"]),
], ids=["decaying", "zero"])
def test_linear_record_layout(tmp_path, capsys, amplitude, keys):
    code, out = _run_config(tmp_path, "linear",
                            dimension=1, L=300.0, N=4096,
                            t_max=250.0, width=2.0, amplitude=amplitude)
    assert code == 0
    capsys.readouterr()
    assert _files(out) == _SERIES_FILES
    assert list(_manifest(out)) == keys


def test_run_record_layout_and_linf_slope(tmp_path, capsys):
    # the run spans (1 + t) from 1 to 41, so the Linf slope is fitted
    code, out = _run_config(tmp_path, "run",
                            dimension=1, L=64.0, N=512, t_max=40.0,
                            amplitude=0.5, width=2.0, modulus="invlog:p=2")
    assert code == 0
    capsys.readouterr()
    assert _files(out) == _SERIES_FILES
    entries = _manifest(out)
    assert list(entries) == ["amplitude", "config_hash", "dt_min", "linf_n_points",
                             "linf_residual", "linf_slope", "modulus", "outcome",
                             "steps_accepted", "steps_rejected", "t_est", "wall_time_s",
                             "xnorm"]
    assert entries["outcome"] == "CompletedHorizon"
    assert abs(float(entries["linf_slope"]) + 0.5) < 0.05
    assert int(entries["linf_n_points"]) >= 20 and 0.0 <= float(entries["linf_residual"]) < 0.1
    # 40 / 0.05 steps, none halved
    assert (entries["steps_accepted"], entries["steps_rejected"], entries["dt_min"]) == ("800", "0", "0.05")


@pytest.mark.parametrize("overrides, keys", [
    (dict(L=64.0, R=16.0, r0=16.0, amplitude=0.5, modulus="invlog:p=1"),
     ["config_hash", "outcome", "t_est", "R", "r0", "constant_C", "I_R", "Y",
      "Y_exchanged", "budget", "lhs_final", "crossing_R", "verdict"]),
    (dict(L=80.0, R=64.0, amplitude=1e8, modulus="oracle:q=1.5"),
     ["config_hash", "outcome", "t_est"]),
], ids=["functionals", "early-blowup"])
def test_certificate_record_layout(tmp_path, capsys, overrides, keys):
    code, out = _run_config(tmp_path, "certificate",
                            **{"dimension": 1, "N": 512, "dt": 0.05, "width": 2.0,
                               **overrides})
    assert code == 0
    capsys.readouterr()
    assert _files(out) == ["manifest.txt"]
    assert list(_manifest(out)) == keys


def test_sweep_record_layout(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "sweep.cfg",
        dimension=1, L=64.0, N=512, t_max=5.0, dt=0.05, width=2.0,
        moduli="invlog:p=2; bogus:p=1", epsilons="0.2 0.5")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    (sweep_dir,) = list(out.iterdir())
    jobs = [p for p in sweep_dir.iterdir() if p.is_dir()]
    assert sorted(p.name for p in sweep_dir.iterdir() if p.is_file()) == ["lifespans.csv"]
    assert len(jobs) == 4
    assert all([p.name for p in job.iterdir()] == ["manifest.txt"] for job in jobs)
    # the two failed jobs leave no lifespans row
    rows = (sweep_dir / "lifespans.csv").read_text().splitlines()
    assert rows == ["amplitude,t_est", "0.2,-1.0", "0.5,-1.0"]
    # a job that ran records its step statistics, as its own `dwlab run` would
    entries = [dict(line.split(" = ", 1) for line in (job / "manifest.txt").read_text().splitlines())
               for job in jobs]
    ran = [e for e in entries if e["outcome"] != "Failed"]
    assert len(ran) == 2
    assert all((e["steps_accepted"], e["steps_rejected"], e["dt_min"]) == ("100", "0", "0.05")
               for e in ran)


# -- artifacts --------------------------------------------------------


def test_csv_columns_align(tmp_path):
    code, out = _run_config(tmp_path, "run",
                            dimension=1, L=64.0, N=512, t_max=2.0,
                            dt=0.05, amplitude=0.5, width=2.0,
                            modulus="power:p=1")
    assert code == 0
    (run_dir,) = list(out.iterdir())
    lines = (run_dir / "norms.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert "t" in header and "Linf" in header
    widths = {len(line.split(",")) for line in lines}
    assert widths == {len(header)}
    data = np.loadtxt((run_dir / "norms.csv"), delimiter=",", skiprows=1)
    assert np.all(np.isfinite(data))
