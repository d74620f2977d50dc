import pytest

from pnpfem.cli import (
    ConfigError,
    RunConfig,
    config_hash,
    load_config_file,
    main,
    run_contraction_study,
    run_convergence_study,
    run_mmatrix_audit,
)


def read(path):
    with open(path) as fh:
        return fh.read()


def test_tau_rules():
    cfg = RunConfig(n=4)
    assert cfg.resolve_tau(4) == pytest.approx(1.0 / 16.0)
    cfg = RunConfig(tau_rule="2h2")
    assert cfg.resolve_tau(4) == pytest.approx(2.0 / 16.0)
    cfg = RunConfig(tau_rule="4h2")
    assert cfg.resolve_tau(4) == pytest.approx(4.0 / 16.0)
    cfg = RunConfig(tau_rule="0.125")
    assert cfg.resolve_tau(4) == 0.125
    with pytest.raises(ConfigError):
        RunConfig(tau_rule="h3").resolve_tau(4)
    with pytest.raises(ConfigError):
        RunConfig(tau_rule="-0.1").resolve_tau(4)


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# benchmark settings\n"
        "scheme = eafe\n"
        "n=4  # coarse\n"
        "T = 0.05\n"
        "sizes = 4, 8\n"
        "deterministic = true\n"
    )
    values = load_config_file(str(p))
    assert values == {
        "scheme": "eafe",
        "n": 4,
        "T": 0.05,
        "sizes": (4, 8),
        "deterministic": "true",
    }


def test_config_file_bool_value_is_a_config_error(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text("n = true\n")
    code = main(["mesh", "--config", str(p), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err
    assert "Traceback" not in err
    assert not (tmp_path / "mesh.txt").exists()


@pytest.mark.parametrize(
    "line, key",
    [
        ("n = 4.5", "n"),
        ("T = abc", "T"),
        ("T = inf", "T"),
        ("epsilon = x", "epsilon"),
        ("max_iter = 2.0", "max_iter"),
        ("supg_scale = yes", "supg_scale"),
        ("sizes = 4, 8.5", "sizes"),
        ("multipliers = 1, x", "multipliers"),
    ],
)
def test_config_file_wrong_type_is_a_config_error(tmp_path, capsys, line, key):
    p = tmp_path / "run.cfg"
    p.write_text(line + "\n")
    code = main(["mesh", "--config", str(p), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"configuration error: {key}:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "mesh.txt").exists()


def test_config_file_numeric_tau_rule(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("tau_rule = 0.01\nn = 2\nT = 0.02\n")
    assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 0
    assert len(read(tmp_path / "history.csv").strip().split("\n")) == 1 + 2 + 1


def test_config_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("this is not a key value line\n")
    with pytest.raises(ConfigError):
        load_config_file(str(p))


def test_config_hash_stable_and_sensitive():
    a = config_hash(RunConfig())
    b = config_hash(RunConfig())
    c = config_hash(RunConfig(n=5))
    assert a == b
    assert a != c


def test_mesh_subcommand(tmp_path):
    code = main(["mesh", "--n", "2", "--out", str(tmp_path)])
    assert code == 0
    lines = read(tmp_path / "mesh.txt").strip().split("\n")
    assert lines[0] == "nodes 27 tets 48"


def test_run_subcommand_writes_history(tmp_path):
    code = main(
        ["run", "--scheme", "eafe", "--n", "2", "--T", "0.02", "--tau", "0.01",
         "--out", str(tmp_path)]
    )
    assert code == 0
    lines = read(tmp_path / "history.csv").strip().split("\n")
    assert lines[0].startswith("step,t,gummel_iterations")
    assert lines[-1].startswith("# config-hash ")
    assert len(lines) == 1 + 2 + 1


def test_run_byte_identical_reruns(tmp_path):
    args = ["run", "--scheme", "fem", "--n", "2", "--T", "0.02", "--tau", "0.01"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert read(out1 / "history.csv") == read(out2 / "history.csv")


def test_converge_requires_two_sizes(tmp_path):
    code = main(
        ["converge", "--n", "2", "--sizes", "2", "--out", str(tmp_path),
         "--T", "0.02"]
    )
    assert code == 2


def test_converge_study_writes_rates(tmp_path):
    cfg = RunConfig(scheme="fem", T=0.25, tau_rule="h2", out=str(tmp_path))
    rows = run_convergence_study(cfg, sizes=(2, 4))
    assert len(rows) == 2
    text = read(tmp_path / "errors.csv")
    lines = text.strip().split("\n")
    assert lines[0].startswith("scheme,h,tau,L2_u,H1_u")
    assert lines[-1].startswith("# config-hash ")
    # second row carries rate entries
    assert rows[1][9] != ""


def test_contract_study_rows(tmp_path):
    cfg = RunConfig(scheme="fem", n=4, T=0.125, out=str(tmp_path))
    rows = run_contraction_study(cfg, multipliers=(2.0, 1.0))
    assert len(rows) == 6  # three schemes, two step sizes
    schemes = [r[0] for r in rows]
    assert schemes == ["fem", "fem", "supg", "supg", "eafe", "eafe"]
    # rate column filled from the second row of each scheme
    assert rows[0][3] == ""
    assert rows[1][3] != ""
    assert (tmp_path / "contraction.csv").exists()


def test_audit_rows(tmp_path):
    cfg = RunConfig(scheme="eafe", n=2, T=0.02, tau_rule="0.01", out=str(tmp_path))
    rows = run_mmatrix_audit(cfg)
    assert len(rows) == 2 * 2  # two steps, two species
    text = read(tmp_path / "audit.csv")
    assert "omega_positive_fraction" in text.split("\n")[0]
    for row in rows:
        assert row[6] in (True, False)


@pytest.mark.parametrize("command", ["run", "audit", "converge", "contract"])
def test_exit_code_config_error(command, tmp_path, capsys):
    assert main([command, "--n", "0"]) == 2
    assert main([command, "--tau", "bogus"]) == 2
    assert main([command, "--tau", "0"]) == 2
    # tau > T passes validation and is refused when the cell is built
    # (contract: 4 h^2 = 1 > T at n = 2)
    argv = [command, "--n", "2", "--tau", "0.5", "--T", "0.25", "--out", str(tmp_path)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("pnpfem: configuration error: need 0 < tau <= T")
    assert "Traceback" not in err


def test_exit_code_solver_failure(tmp_path):
    # one sweep allowed with an impossible tolerance: non-convergence
    code = main(
        ["run", "--n", "2", "--T", "0.02", "--tau", "0.01",
         "--eps", "1e-30", "--max-iter", "1", "--out", str(tmp_path)]
    )
    assert code == 3
    # partial history still written
    assert (tmp_path / "history.csv").exists()


def test_linear_failure_writes_partial_history(tmp_path, capsys, second_step_species_failure):
    code = main(
        ["run", "--n", "2", "--T", "0.03", "--tau", "0.01", "--out", str(tmp_path)]
    )
    assert code == 3
    assert "step 1" in capsys.readouterr().err
    lines = read(tmp_path / "history.csv").strip().split("\n")
    assert lines[0].startswith("step,t,gummel_iterations")
    assert lines[1].startswith("0,0.01,")
    assert lines[-1].startswith("# config-hash ")
    assert len(lines) == 1 + 1 + 1


def test_exit_code_io_error(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("file, not a directory")
    code = main(["mesh", "--n", "1", "--out", str(target)])
    assert code == 4


def test_cli_module_entry(tmp_path):
    """``python -m pnpfem`` runs a subcommand in a fresh interpreter.

    The child imports the package from the same directory as this process,
    so a relative ``PYTHONPATH`` (``src`` from the repository root) or an
    editable install both work whatever the child's working directory is.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    import pnpfem

    package_root = str(Path(pnpfem.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pnpfem", "mesh", "--n", "1", "--out", "."],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert read(tmp_path / "mesh.txt").startswith("nodes 8 tets 6")
