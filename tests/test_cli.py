"""CLI contracts: config validation, file outputs, manifests, determinism."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqglab
from sqglab import cli, resonance, waves
from sqglab.evolve import SimConfig

#: Small ``evolve`` and ``normalform`` jobs with the bytes they must write.
#: Each case directory holds its ``config.json`` and the data files (and, for
#: a failing job, ``stderr.txt``) that the recording loop wrote when it ran
#: in one process only.  The ``_long`` sweeps have enough steps to step in a
#: forked worker (``evolve.FORK_MIN_STEPS``); the others run in one process.
CLI_OUTPUTS = Path(__file__).resolve().parent / "cli_outputs"

#: JSON values, NaN and the infinities included (json writes them), nested
#: one level deep.
JSON_LEAF = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
JSON = JSON_LEAF | st.lists(JSON_LEAF, max_size=3) | st.dictionaries(
    st.text(max_size=3), JSON_LEAF, max_size=2
)


def write_config(path, **overrides):
    cfg = {"m": 3, "n_max": 12, "s": 2.0, "dt": 0.02, "t_end": 1.0,
           "epsilon": 0.1, "seed": 3, "diagnostics_stride": 10}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


class TestValidateConfig:
    def test_defaults_filled(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"m": 3, "n_max": 12}))
        cfg, extras = cli.validate_config(path)
        assert cfg.dt == 0.01
        assert cfg.initial_profile == "random_band"
        assert cfg.seed == 0
        assert extras == {"initial_state": None}

    def test_symmetry_order_too_small(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", m=2, n_max=12)
        with pytest.raises(cli.ConfigError, match="m: must be an integer >= 3"):
            cli.validate_config(path)

    def test_truncation_not_multiple(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", n_max=25)
        with pytest.raises(cli.ConfigError, match="n_max: must be a positive multiple"):
            cli.validate_config(path)

    def test_multiple_violations_all_named(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", dt=-1.0, epsilon=0.0)
        with pytest.raises(cli.ConfigError) as info:
            cli.validate_config(path)
        assert "dt:" in str(info.value) and "epsilon:" in str(info.value)

    def test_unknown_field_rejected(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", typo_field=1)
        with pytest.raises(cli.ConfigError, match="typo_field"):
            cli.validate_config(path)

    @pytest.mark.parametrize(
        "field,overrides",
        [
            ("t_end", {"t_end": float("inf")}),
            ("s", {"s": float("inf")}),
            ("epsilon", {"epsilon": True}),
            ("seed", {"seed": True}),
            ("seed", {"seed": -1}),
            ("diagnostics_stride", {"diagnostics_stride": True}),
            ("t_end", {"dt": 0.3, "t_end": 1.0}),
        ],
    )
    def test_bad_value_exits_2_naming_field(self, tmp_path, capsys, field, overrides):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "traj.csv"
        assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        assert f" {field}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t_end,dt", [(20.0, 0.01), (0.3, 0.1), (0.7, 0.1)])
    def test_decimal_step_ratio_accepted(self, tmp_path, t_end, dt):
        path = write_config(tmp_path / "cfg.json", t_end=t_end, dt=dt)
        assert cli.validate_config(path)[0].t_end == t_end

    def test_eps_list_checked(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", eps_list=[0.05, 0.1])
        with pytest.raises(cli.ConfigError, match="eps_list"):
            cli.validate_config(path, extra_defaults={"eps_list": [0.1, 0.05]})

    @pytest.mark.parametrize("value", [1, True, ["a.json"], {"path": "a.json"}])
    def test_initial_state_must_be_a_path(self, tmp_path, value):
        path = write_config(tmp_path / "cfg.json", initial_state=value)
        with pytest.raises(cli.ConfigError, match="initial_state: must be a file path"):
            cli.validate_config(path)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_any_json_object_loads_or_raises_config_error(self, tmp_path_factory, data):
        extra = data.draw(st.sampled_from([None, {"eps_list": [0.1, 0.05, 0.025]}]))
        values = {f.name: st.just(f.default) | JSON for f in dataclasses.fields(SimConfig)}
        for key in ["initial_state", "typo_field", *(extra or {})]:
            values[key] = JSON
        raw = data.draw(st.fixed_dictionaries({}, optional=values))
        path = tmp_path_factory.getbasetemp() / "any_config.json"
        path.write_text(json.dumps(raw))
        try:
            cfg, extras = cli.validate_config(path, extra_defaults=extra)
        except cli.ConfigError:
            return
        assert isinstance(cfg, SimConfig)
        assert set(extras) == {"initial_state"} | set(extra or {})


class TestDispersionCommand:
    def test_table_contents(self, tmp_path):
        out = tmp_path / "disp.csv"
        assert cli.main(["dispersion", "--n-max", "6", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,lambda_exact,sigma_exact,lambda_float,sigma_float"
        assert lines[1].startswith("3,8/5,8/15,1.6000000000000001,")
        assert len(lines) == 5
        manifest = json.loads((tmp_path / "disp.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "dispersion"
        assert manifest["version"]

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["dispersion", "--n-max", "40", "--out", str(a)])
        cli.main(["dispersion", "--n-max", "40", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestEvolveCommand:
    def test_outputs_and_manifest_hash(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "traj.csv"
        state = tmp_path / "state.json"
        code = cli.main(
            ["evolve", "--config", str(cfg), "--out", str(out),
             "--state-out", str(state)]
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "t,Es,Es_c3,Es_c34,Es_c345,hs_norm,mean_res,sym_res"
        manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
        assert manifest["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
        assert manifest["seed"] == 3
        assert manifest["outputs"] == ["traj.csv", "state.json"]
        dumped = json.loads(state.read_text())
        assert dumped["m"] == 3 and dumped["n_max"] == 12

    def test_tampered_config_detectable(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "traj.csv"
        cli.main(["evolve", "--config", str(cfg), "--out", str(out)])
        manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
        cfg.write_text(cfg.read_text() + " ")
        assert manifest["config_sha256"] != hashlib.sha256(cfg.read_bytes()).hexdigest()

    def test_same_seed_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["evolve", "--config", str(cfg), "--out", str(a)])
        cli.main(["evolve", "--config", str(cfg), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_different_data(self, tmp_path):
        a_cfg = write_config(tmp_path / "a.json", seed=1)
        b_cfg = write_config(tmp_path / "b.json", seed=2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["evolve", "--config", str(a_cfg), "--out", str(a)])
        cli.main(["evolve", "--config", str(b_cfg), "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", m=2)
        out = tmp_path / "traj.csv"
        assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "m:" in capsys.readouterr().err

    def test_restart_from_dumped_state(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", t_end=0.5)
        out1, state = tmp_path / "a.csv", tmp_path / "state.json"
        cli.main(["evolve", "--config", str(cfg), "--out", str(out1),
                  "--state-out", str(state)])
        restart_cfg = write_config(tmp_path / "restart.json", t_end=0.5,
                                   initial_state=str(state))
        out2 = tmp_path / "b.csv"
        assert cli.main(["evolve", "--config", str(restart_cfg),
                         "--out", str(out2)]) == 0
        # the restarted run continues from the dumped state, not the profile
        first_row = out2.read_text().splitlines()[1].split(",")
        last_row = out1.read_text().splitlines()[-1].split(",")
        assert first_row[1] == last_row[1]  # same Es at the splice point

    def test_restart_lattice_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", t_end=0.5)
        out, state = tmp_path / "a.csv", tmp_path / "state.json"
        cli.main(["evolve", "--config", str(cfg), "--out", str(out),
                  "--state-out", str(state)])
        bad_cfg = write_config(tmp_path / "bad.json", n_max=24,
                               initial_state=str(state))
        assert cli.main(["evolve", "--config", str(bad_cfg),
                         "--out", str(tmp_path / "b.csv")]) == 1
        assert "lattice" in capsys.readouterr().err

    def test_blow_up_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", epsilon=20.0, dt=1.0, t_end=50.0,
                           corrected_energies=False)
        out = tmp_path / "traj.csv"
        assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error: integration unstable at step " in capsys.readouterr().err
        assert not out.exists()


class TestResonanceCommand:
    @pytest.mark.parametrize("p,bound", [("4", "5"), ("6", "8")])
    def test_bad_bound_exits_2_naming_field(self, tmp_path, capsys, p, bound):
        out = tmp_path / "cert.json"
        assert cli.main(["resonance", "--p", p, "--bound", bound, "--out", str(out)]) == 2
        assert " bound: " in capsys.readouterr().err
        assert not out.exists()

    def test_certificate_written(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["resonance", "--p", "3", "--bound", "12", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["p"] == 3 and report["bound"] == 12
        assert (tmp_path / "report.json.manifest.json").exists()

    def test_loads_no_other_library_module(self, tmp_path):
        """A resonance job imports neither forms, evolve nor waves."""
        out = tmp_path / "report.json"
        script = (
            "import sys\n"
            "import sqglab.cli\n"
            f"code = sqglab.cli.main(['resonance', '--p', '3', '--bound', '9', '--out', {str(out)!r}])\n"
            "print(code, [m for m in ('sqglab.forms', 'sqglab.evolve', 'sqglab.waves')"
            " if m in sys.modules])\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(sqglab.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.split() == ["0", "[]"]
        assert out.exists()

    @pytest.mark.parametrize(
        "module,name,argv,config",
        [
            ("resonance", "min_denominator", ["resonance", "--p", "3", "--bound", "9"],
             {"p": 3, "bound": 9}),
            ("waves", "continue_branch", ["waves", "--m", "3", "--xi-max", "0.05",
                                          "--steps", "2"],
             {"m": 3, "xi_max": 0.05, "steps": 2, "harmonics": None}),
        ],
    )
    def test_work_runs_without_openssl(self, tmp_path, module, name, argv, config):
        """OpenSSL's ``_hashlib`` loads only when the manifest takes its digest."""
        out = tmp_path / "out"
        script = (
            "import sys\n"
            "import sqglab.cli\n"
            f"from sqglab import {module}\n"
            f"work = {module}.{name}\n"
            "seen = []\n"
            "def entered(*args, **kwargs):\n"
            "    seen.append('_hashlib' in sys.modules)\n"
            "    return work(*args, **kwargs)\n"
            f"{module}.{name} = entered\n"
            f"code = sqglab.cli.main({argv + ['--out', str(out)]!r})\n"
            "print(code, seen)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(sqglab.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.split() == ["0", "[False]"]
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        config_bytes = json.dumps(config, sort_keys=True).encode()
        assert manifest["config_sha256"] == hashlib.sha256(config_bytes).hexdigest()


class TestWavesCommand:
    def test_branch_outputs(self, tmp_path):
        out = tmp_path / "branch.csv"
        dump = tmp_path / "branch.json"
        code = cli.main(
            ["waves", "--m", "4", "--xi-max", "0.06", "--steps", "3",
             "--out", str(out), "--json-out", str(dump)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("xi,v,residual,decay_c,a_1,")
        assert len(lines) == 4
        branch = json.loads(dump.read_text())
        assert branch["m"] == 4 and len(branch["points"]) == 3

    @pytest.mark.parametrize(
        "field,argv",
        [
            ("xi_max", ["--m", "3", "--xi-max", "nan", "--steps", "2"]),
            ("xi_max", ["--m", "3", "--xi-max", "inf", "--steps", "2"]),
            ("num_harmonics", ["--m", "3", "--xi-max", "0.05", "--steps", "2",
                               "--harmonics", "0"]),
            ("num_harmonics", ["--m", "3", "--xi-max", "0.05", "--steps", "2",
                               "--harmonics", "-3"]),
            ("m", ["--m", "2", "--xi-max", "0.05", "--steps", "2"]),
            ("steps", ["--m", "3", "--xi-max", "0.05", "--steps", "0"]),
        ],
    )
    def test_bad_argument_exits_2_naming_field(self, tmp_path, capsys, field, argv):
        out = tmp_path / "branch.csv"
        assert cli.main(["waves", *argv, "--out", str(out)]) == 2
        assert f" {field}: " in capsys.readouterr().err
        assert not out.exists()

    def test_newton_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise waves.NewtonError("no convergence at xi=0.05: residual 1.000e-03")

        monkeypatch.setattr(waves, "continue_branch", failing)
        out = tmp_path / "branch.csv"
        argv = ["waves", "--m", "3", "--xi-max", "0.05", "--steps", "2", "--out", str(out)]
        assert cli.main(argv) == 1
        assert "error: no convergence at xi=0.05" in capsys.readouterr().err
        assert not out.exists()


class TestWorkEntries:
    """Handlers call the library through its module attribute, so a wrapper
    installed on that name (as the benchmark's work marker and tracer do)
    sees the call."""

    @pytest.mark.parametrize(
        "module,name,argv",
        [
            (resonance, "min_denominator", ["resonance", "--p", "3", "--bound", "9"]),
            (waves, "continue_branch", ["waves", "--m", "3", "--xi-max", "0.05",
                                        "--steps", "2"]),
        ],
    )
    def test_cli_reaches_wrapped_entry(self, tmp_path, monkeypatch, module, name, argv):
        calls = []
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert calls == [name]


class TestCommittedOutputs:
    @pytest.mark.parametrize(
        "case",
        ["evolve", "normalform_smoke", "normalform_stops", "normalform_blowup",
         "normalform_stops_long", "normalform_blowup_long"],
    )
    def test_same_bytes(self, tmp_path, capsys, case):
        # the normalform_stops sweeps shrink twice; the normalform_blowup ones fail
        directory = CLI_OUTPUTS / case
        config = str(directory / "config.json")
        if case == "evolve":
            argv = ["evolve", "--config", config, "--out", str(tmp_path / "traj.csv"),
                    "--state-out", str(tmp_path / "state.json")]
        else:
            argv = ["normalform", "--config", config, "--out-prefix", str(tmp_path / "nf")]
        expected = {p.name: p.read_bytes() for p in directory.iterdir()}
        del expected["config.json"]
        err = expected.pop("stderr.txt", b"")
        assert cli.main(argv) == (1 if err else 0)
        assert capsys.readouterr().err.encode() == err
        written = {
            p.name: p.read_bytes()
            for p in tmp_path.iterdir()
            if not p.name.endswith(".manifest.json")
        }
        assert written == expected


class TestNormalformCommand:
    def test_series_and_slopes(self, tmp_path):
        cfg = tmp_path / "nf.json"
        cfg.write_text(json.dumps({
            "m": 3, "n_max": 12, "s": 2.0, "dt": 0.02, "t_end": 2.0,
            "diagnostics_stride": 20, "eps_list": [0.1, 0.05],
        }))
        prefix = tmp_path / "nf"
        code = cli.main(["normalform", "--config", str(cfg),
                         "--out-prefix", str(prefix)])
        assert code == 0
        series = (tmp_path / "nf.series.csv").read_text().splitlines()
        assert series[0] == "eps,t,Es,Es_c3,Es_c34,Es_c345,hs_norm,mean_res,sym_res"
        slopes = json.loads((tmp_path / "nf.slopes.json").read_text())
        assert set(slopes["slopes"]) == {"base", "minus_c3", "full_chain"}
        assert (tmp_path / "nf.slopes.json.manifest.json").exists()

    def test_sweep_without_corrected_energies_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "nf.json"
        cfg.write_text(json.dumps({
            "m": 3, "n_max": 12, "s": 2.0, "dt": 0.02, "t_end": 2.0,
            "diagnostics_stride": 20, "eps_list": [0.1, 0.05],
            "corrected_energies": False,
        }))
        prefix = tmp_path / "nf"
        code = cli.main(["normalform", "--config", str(cfg),
                         "--out-prefix", str(prefix)])
        assert code == 2
        assert " corrected_energies: must be true" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["nf.json"]
