"""Tests for the command-line front end: configs, exit codes, artifacts."""

import numpy as np
import pytest

from dwlab.cli import config_hash, main, parse_config


def _write_config(tmp_path, name, **kv):
    path = tmp_path / name
    path.write_text("\n".join(f"{k} = {v}" for k, v in kv.items()) + "\n")
    return str(path)


def _run_config(tmp_path, command, **kv):
    cfg = _write_config(tmp_path, f"{command}.cfg", **kv)
    out = tmp_path / "out"
    return main([command, "--config", cfg, "--out", str(out)]), out


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


def test_config_hash_deterministic_and_order_free():
    a = {"L": "64", "N": "512"}
    b = {"N": "512", "L": "64"}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 16
    assert config_hash(a) != config_hash({"L": "64", "N": "1024"})


def _assert_one_line_usage_error(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"dwlab {argv[0]}: ")
    assert "Traceback" not in captured.err + captured.out
    return lines[0]


def test_missing_config_file_is_usage_error(capsys):
    _assert_one_line_usage_error(capsys, ["classify", "--config", "/nonexistent/file.cfg"])


# (command, config overrides, a word the error line must contain)
_USER_ERRORS = [
    pytest.param(command, {"modulus": spec}, "", id=f"{spec}-{command}")
    for command in ("classify", "run", "certificate")
    for spec in ("custom:{tmp}/missing.txt", "custom:{tmp}/convex.txt",
                 "custom:{tmp}/nan.txt", "oracle:p=2")
] + [
    # NaN compares false with every bound, so each check must be written lo < x < inf
    pytest.param(command, {key: "nan"}, "", id=f"{key}=nan-{command}")
    for command, key in (("run", "t_max"), ("run", "L"), ("run", "dt"),
                         ("linear", "t_max"), ("linear", "L"), ("certificate", "L"),
                         ("certificate", "r0"))
] + [
    # a bad data parameter is reported by its config key
    pytest.param(command, {key: "nan"}, key, id=f"{key}=nan-{command}")
    for command, key in (("run", "amplitude"), ("linear", "amplitude"),
                         ("certificate", "amplitude"), ("run", "width"))
] + [
    # a value the key's type cannot parse is reported by its config key
    pytest.param(command, {key: value}, key, id=f"{key}={value}-{command}")
    for command, key, value in (("run", "sample_stride", "1.5"), ("linear", "N", "1e3"),
                                ("certificate", "R", "abc"))
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
    cfg = dict(dimension=1, L=64.0, N=512, t_max=5.0, R=16.0, dt=0.05, width=2.0,
               modulus="invlog:p=2")
    cfg.update({key: value.format(tmp=tmp_path) for key, value in overrides.items()})
    if command == "classify":
        argv = ["classify", cfg["modulus"]]
    else:
        argv = [command, "--config", _write_config(tmp_path, f"{command}.cfg", **cfg),
                "--out", str(tmp_path / "out")]
    assert named in _assert_one_line_usage_error(capsys, argv)


# -- classify ---------------------------------------------------------


def test_classify_convergent_modulus(capsys):
    assert main(["classify", "invlog:p=2"]) == 0
    out = capsys.readouterr().out
    assert "Convergent" in out
    assert "slow variation" in out


def test_classify_divergent_modulus(capsys):
    assert main(["classify", "invlog:p=1"]) == 0
    assert "Divergent" in capsys.readouterr().out


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
    assert (run_dir / "norms_plot.py").exists()
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
    for workers, sub in ((1, "serial"), (2, "pool")):
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
                        dimension=1, L=64.0, N=512, t_max=5.0)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("epsilons", ["", "2 1", "-1 1", "0 1"],
                         ids=["empty", "decreasing", "negative", "zero"])
def test_sweep_rejects_bad_epsilons(tmp_path, capsys, epsilons):
    cfg = _write_config(tmp_path, "sweep.cfg",
                        dimension=1, L=64.0, N=512, t_max=5.0,
                        modulus="oracle:q=1.5", epsilons=epsilons)
    _assert_one_line_usage_error(capsys, ["sweep", "--config", cfg,
                                          "--out", str(tmp_path / "o")])


def test_sweep_lifespan_monotone_in_amplitude(tmp_path, capsys):
    dt, stride = 0.01, 50
    cfg = _write_config(tmp_path, "sweep.cfg",
                        dimension=1, L=64.0, N=512, width=2.0, dt=dt,
                        t_max=50.0, sample_stride=stride,
                        modulus="oracle:q=1.5", epsilons="5 10 20")
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


def test_certificate_rejects_zero_mean_data(tmp_path, capsys):
    code, _ = _run_config(tmp_path, "certificate",
                          dimension=1, L=64.0, N=512, R=16.0,
                          shape="dgaussian", modulus="invlog:p=1")
    assert code == 1
    assert "zero-mean" in capsys.readouterr().err


# -- artifacts --------------------------------------------------------


def test_plot_script_is_runnable_python(tmp_path):
    code, out = _run_config(tmp_path, "run",
                            dimension=1, L=64.0, N=512, t_max=2.0,
                            dt=0.05, amplitude=0.5, width=2.0,
                            modulus="power:p=1")
    assert code == 0
    (run_dir,) = list(out.iterdir())
    script = (run_dir / "norms_plot.py").read_text()
    compile(script, "norms_plot.py", "exec")


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
