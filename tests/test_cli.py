"""CLI contracts: config validation, file outputs, manifests, determinism."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sqglab
from sqglab import _atomic, cli, evolve, resonance, waves
from sqglab.dispersion import MAX_TABLE_MODE
from sqglab.evolve import SimConfig

#: Small ``evolve`` and ``normalform`` jobs with the bytes they must write.
#: Each case directory holds its ``config.json`` and the data files (and, for
#: a failing job, ``stderr.txt``) that the recording loop wrote when it ran
#: in one process only.  Every job here marches in a forked worker, so these
#: bytes pin that both ways record the same.  The ``_long`` sweeps are
#: 1,000-step versions of ``normalform_blowup`` and ``normalform_stops``.
CLI_OUTPUTS = Path(__file__).resolve().parent / "cli_outputs"

#: JSON values, NaN and the infinities included (json writes them), nested
#: one level deep.
JSON_LEAF = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
JSON = JSON_LEAF | st.lists(JSON_LEAF, max_size=3) | st.dictionaries(
    st.text(max_size=3), JSON_LEAF, max_size=2
)


#: A run config small enough for a fresh process to run in well under a second.
SMALL_RUN = {"m": 3, "n_max": 12, "s": 2.0, "dt": 0.02, "t_end": 0.4,
             "diagnostics_stride": 5}

#: An ``--out-prefix`` whose series file name is 255 bytes long, the name
#: limit of common file systems: it passes the output checks, but the name of
#: its temp file, four bytes longer, cannot be opened once the run is done.
TOO_LONG_PREFIX = "n" * (255 - len(".series.csv"))


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
        cfg, extras, _ = cli.validate_config(path, "evolve")
        assert cfg.dt == 0.01
        assert cfg.initial_profile == "random_band"
        assert cfg.seed == 0
        assert extras == {"initial_state": None}

    def test_symmetry_order_too_small(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", m=2, n_max=12)
        with pytest.raises(cli.ConfigError, match="m: must be an integer >= 3"):
            cli.validate_config(path, "evolve")

    def test_truncation_not_multiple(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", n_max=25)
        with pytest.raises(cli.ConfigError, match="n_max: must be a positive multiple"):
            cli.validate_config(path, "evolve")

    def test_multiple_violations_all_named(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", dt=-1.0, epsilon=0.0)
        with pytest.raises(cli.ConfigError) as info:
            cli.validate_config(path, "evolve")
        assert "dt:" in str(info.value) and "epsilon:" in str(info.value)

    def test_unknown_field_rejected(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", typo_field=1)
        with pytest.raises(cli.ConfigError, match="typo_field"):
            cli.validate_config(path, "evolve")

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
            # the corrected energies' quintic table would be too large
            ("n_max", {"n_max": 600}),
            # the quadratic term's buffers would not fit in memory
            ("n_max", {"n_max": 99_999_999, "corrected_energies": False}),
            # the H^s weights would overflow
            ("s", {"s": 150, "n_max": 12}),
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
        assert cli.validate_config(path, "evolve")[0].t_end == t_end

    def test_normalform_rejects_epsilon(self, tmp_path, capsys):
        # a sweep's amplitudes are its eps_list: an epsilon would go unread
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_RUN, "epsilon": 123.0, "eps_list": [0.1, 0.05]}))
        argv = ["normalform", "--config", str(cfg), "--out-prefix", str(tmp_path / "nf")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: invalid config {cfg}: epsilon: unknown field\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_eps_list_checked(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", eps_list=[0.05, 0.1])
        with pytest.raises(cli.ConfigError, match="eps_list"):
            cli.validate_config(path, "normalform")

    @pytest.mark.parametrize("value", [1, True, ["a.json"], {"path": "a.json"}])
    def test_initial_state_must_be_a_path(self, tmp_path, value):
        path = write_config(tmp_path / "cfg.json", initial_state=value)
        with pytest.raises(cli.ConfigError, match="initial_state: must be a file path"):
            cli.validate_config(path, "evolve")

    @pytest.mark.parametrize("subcommand", ["evolve", "normalform"])
    def test_top_level_not_an_object_exits_2(self, tmp_path, capsys, subcommand):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[]")
        out = {"evolve": "--out", "normalform": "--out-prefix"}[subcommand]
        argv = [subcommand, "--config", str(cfg), out, str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert "top level must be a JSON object" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_any_json_object_loads_or_raises_config_error(self, tmp_path_factory, data):
        subcommand = data.draw(st.sampled_from(["evolve", "normalform"]))
        values = {f.name: st.just(f.default) | JSON for f in dataclasses.fields(SimConfig)}
        for key in ["initial_state", "typo_field", "eps_list"]:
            values[key] = JSON
        raw = data.draw(st.fixed_dictionaries({}, optional=values))
        path = tmp_path_factory.getbasetemp() / "any_config.json"
        path.write_text(json.dumps(raw))
        try:
            cfg, extras, config_bytes = cli.validate_config(path, subcommand)
        except cli.ConfigError:
            return
        assert isinstance(cfg, SimConfig)
        assert set(extras) == {"evolve": {"initial_state"},
                               "normalform": {"eps_list"}}[subcommand]
        assert config_bytes == path.read_bytes()


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

    @pytest.mark.parametrize("n_max", ["2", "-7", str(MAX_TABLE_MODE + 1), "10" * 10])
    def test_bad_n_max_exits_2_naming_field(self, tmp_path, capsys, n_max):
        out = tmp_path / "disp.csv"
        assert cli.main(["dispersion", "--n-max", n_max, "--out", str(out)]) == 2
        assert " n_max: " in capsys.readouterr().err
        assert not out.exists()

    def test_smallest_n_max_gives_one_row(self, tmp_path):
        out = tmp_path / "disp.csv"
        assert cli.main(["dispersion", "--n-max", "3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2


class TestManifestDigest:
    @given(st.binary(max_size=200))
    @example(b"\x00" * 55)
    @example(b"\x00" * 56)
    @example(b"\x00" * 64)
    def test_matches_hashlib(self, data):
        """The built-in constructor agrees with ``hashlib`` across the 55, 56
        and 64-byte padding boundaries."""
        sha256 = cli._manifest_sha256()
        assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()

    def test_falls_back_to_hashlib(self, tmp_path, monkeypatch):
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        assert cli._manifest_sha256() is hashlib.sha256
        out = tmp_path / "disp.csv"
        assert cli.main(["dispersion", "--n-max", "9", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "disp.csv.manifest.json").read_text())
        config_bytes = json.dumps({"n_max": 9}, sort_keys=True).encode()
        assert manifest["config_sha256"] == hashlib.sha256(config_bytes).hexdigest()


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

    def test_evolve_and_normalform_leave_numpy_random_unloaded(self, tmp_path):
        """The ``random_band`` phases are drawn without ``numpy.random``."""
        run, sweep = tmp_path / "run.json", tmp_path / "sweep.json"
        run.write_text(json.dumps(SMALL_RUN))
        sweep.write_text(json.dumps({**SMALL_RUN, "eps_list": [0.1, 0.05]}))
        argvs = [
            ["evolve", "--config", str(run), "--out", str(tmp_path / "traj.csv")],
            ["normalform", "--config", str(sweep), "--out-prefix", str(tmp_path / "nf")],
        ]
        script = (
            "import sys\n"
            "import sqglab.cli\n"
            f"for argv in {argvs!r}:\n"
            "    print(sqglab.cli.main(argv), 'numpy.random' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(sqglab.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.split() == ["0", "False", "0", "False"]

    def test_forked_sweep_leaves_multiprocessing_unloaded(self, tmp_path):
        """A sweep forks its stepping worker with ``os.fork`` alone."""
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({**SMALL_RUN, "eps_list": [0.1, 0.05]}))
        argv = ["normalform", "--config", str(sweep), "--out-prefix", str(tmp_path / "nf")]
        script = (
            "import os, sys\n"
            "import sqglab.cli\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(None) or fork()\n"
            f"code = sqglab.cli.main({argv!r})\n"
            "print(code, len(forks), 'multiprocessing' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(sqglab.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.split() == ["0", "1", "False"]

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
                         "--out", str(tmp_path / "b.csv")]) == 2
        assert "initial_state: lattice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "state",
        [
            {"m": 3, "n_max": 12, "modes": 5},
            {"m": 3, "n_max": 12, "modes": [[3, None, 0]]},
            {"m": 3, "n_max": 12, "modes": [[3.0, 1.0, 0.0]]},
            {"m": 3, "n_max": 12},
            [3, 12, []],
            {"m": 1e400, "n_max": 12, "modes": []},
            {"m": 3.7, "n_max": 12, "modes": []},
            {"m": 3.0, "n_max": 12, "modes": []},
            {"m": 3, "n_max": 12, "modes": [[3, float("nan"), 0]]},
            {"m": 3, "n_max": 12, "modes": [[3, float("inf"), 0]]},
            {"m": 3, "n_max": 12, "modes": [[3, 10**400, 0]]},
            {"m": 3, "n_max": 12, "modes": [[3, 0.01, 0], [3, 5.0, 0]]},
            {"m": 3, "n_max": 12, "modes": [[3, True, 0]]},
        ],
        ids=["modes_int", "null_part", "float_mode", "no_modes", "top_level_list",
             "m_overflow", "m_fraction", "m_float", "nan_part", "infinite_part",
             "part_overflow", "repeated_mode", "bool_part"],
    )
    def test_bad_restart_state_exits_2_before_running(self, tmp_path, capsys,
                                                      monkeypatch, state):
        def unreachable(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(evolve, "run", unreachable)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        cfg = write_config(tmp_path / "cfg.json", initial_state=str(path))
        out = tmp_path / "traj.csv"
        assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error: initial_state: " in capsys.readouterr().err
        assert not out.exists()

    def test_blow_up_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", epsilon=20.0, dt=1.0, t_end=50.0,
                           corrected_energies=False)
        out = tmp_path / "traj.csv"
        assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error: integration unstable at step " in capsys.readouterr().err
        assert not out.exists()


class TestResonanceCommand:
    @pytest.mark.parametrize(
        "p,bound",
        [("4", "5"), ("6", "8"), ("3", "100000"),
         *((str(p), str(resonance.max_bound(p) + 1)) for p in (4, 5, 6))],
    )
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
        """A resonance job imports neither forms, evolve, field nor waves, and
        a waves job after it adds only waves."""
        out = tmp_path / "report.json"
        argvs = [
            ["resonance", "--p", "3", "--bound", "9", "--out", str(out)],
            ["waves", "--m", "3", "--xi-max", "0.05", "--steps", "2",
             "--out", str(tmp_path / "w.csv")],
        ]
        modules = ("sqglab.forms", "sqglab.evolve", "sqglab.field", "sqglab.waves")
        script = (
            "import sys\n"
            "import sqglab.cli\n"
            f"for argv in {argvs!r}:\n"
            "    code = sqglab.cli.main(argv)\n"
            f"    print(code, [m for m in {modules!r} if m in sys.modules])\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(sqglab.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.splitlines() == ["0 []", "0 ['sqglab.waves']"]
        assert out.exists()

    def test_resonance_and_dispersion_jobs_leave_numpy_unloaded(self, tmp_path):
        """The benchmark's four resonance jobs, a search at the largest
        quadratic bound and a dispersion table never import NumPy."""
        top = resonance.max_bound(3)
        argvs = [
            *(["resonance", "--p", str(p), "--bound", str(bound),
               "--out", str(tmp_path / f"p{p}_b{bound}.json")]
              for p, bound in ((3, 200), (4, 60), (5, 30), (6, 20), (3, top))),
            ["dispersion", "--n-max", "50", "--out", str(tmp_path / "d.csv")],
        ]
        script = (
            "import sys\n"
            "import sqglab.cli\n"
            f"for argv in {argvs!r}:\n"
            "    print(sqglab.cli.main(argv), 'numpy' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(sqglab.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.split() == ["0", "False"] * 6

    def test_resonance_and_waves_leave_fft_unloaded(self, tmp_path):
        """Only the quadratic term imports ``numpy.fft``: neither the CLI nor a
        resonance or a waves job loads it."""
        argvs = [
            ["resonance", "--p", "3", "--bound", "9", "--out", str(tmp_path / "r.json")],
            ["waves", "--m", "3", "--xi-max", "0.05", "--steps", "2",
             "--out", str(tmp_path / "w.csv")],
        ]
        script = (
            "import sys\n"
            "import sqglab.cli\n"
            "print('numpy.fft' in sys.modules)\n"
            f"for argv in {argvs!r}:\n"
            "    print(sqglab.cli.main(argv), 'numpy.fft' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(sqglab.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.split() == ["False", "0", "False", "0", "False"]

    @pytest.mark.parametrize(
        "module,name,argv,config",
        [
            ("resonance", "min_denominator", ["resonance", "--p", "3", "--bound", "9"],
             {"p": 3, "bound": 9}),
            ("waves", "continue_branch", ["waves", "--m", "3", "--xi-max", "0.05",
                                          "--steps", "2"],
             {"m": 3, "xi_max": 0.05, "steps": 2, "harmonics": None}),
            ("evolve", "run", ["evolve"], SMALL_RUN),
            ("evolve", "lifespan_experiment", ["normalform"],
             {**SMALL_RUN, "eps_list": [0.1, 0.05]}),
            ("cli", "_write_csv", ["dispersion", "--n-max", "9"], {"n_max": 9}),
        ],
    )
    def test_work_runs_without_openssl(self, tmp_path, module, name, argv, config):
        """No job maps OpenSSL: ``_hashlib`` is absent when the work returns
        and after the manifest is written, whose digest is still SHA-256."""
        out = tmp_path / "out"
        manifest = tmp_path / "out.manifest.json"
        if argv[0] in ("evolve", "normalform"):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config, sort_keys=True))
            argv = [*argv, "--config", str(path)]
        if argv[0] == "normalform":
            argv = [*argv, "--out-prefix", str(out)]
            manifest = tmp_path / "out.slopes.json.manifest.json"
        else:
            argv = [*argv, "--out", str(out)]
        script = (
            "import sys\n"
            "import sqglab.cli\n"
            f"from sqglab import {module}\n"
            f"work = {module}.{name}\n"
            "seen = []\n"
            "def watched(*args, **kwargs):\n"
            "    result = work(*args, **kwargs)\n"
            "    seen.append('_hashlib' in sys.modules)\n"
            "    return result\n"
            f"{module}.{name} = watched\n"
            f"code = sqglab.cli.main({argv!r})\n"
            "print(code, seen, '_hashlib' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(sqglab.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.split() == ["0", "[False]", "False"]
        manifest = json.loads(manifest.read_text())
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

    def test_unresolved_decay_written_as_nan(self, tmp_path):
        """At so small an amplitude fewer than four coefficients clear
        ``waves.NOISE_FLOOR``: the point is kept and its decay_c is nan."""
        out = tmp_path / "branch.csv"
        assert cli.main(["waves", "--m", "3", "--xi-max", "1e-6", "--steps", "1",
                         "--harmonics", "8", "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["decay_c"] == "nan"

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
            ("num_harmonics", ["--m", "3", "--xi-max", "0.05", "--steps", "2",
                               "--harmonics", "3"]),
            ("num_harmonics", ["--m", "3", "--xi-max", "0.05", "--steps", "2",
                               "--harmonics", "100000000"]),
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

    def test_linear_only_sweep_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "nf.json"
        cfg.write_text(json.dumps({
            "m": 3, "n_max": 12, "s": 3.0, "dt": 0.02, "t_end": 2.0,
            "diagnostics_stride": 20, "eps_list": [0.1, 0.05],
            "linear_only": True,
        }))
        prefix = tmp_path / "nf"
        code = cli.main(["normalform", "--config", str(cfg),
                         "--out-prefix", str(prefix)])
        assert code == 2
        assert " linear_only: must be false" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["nf.json"]

    def test_initial_state_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "nf.json", eps_list=[0.1, 0.05],
                           initial_state=str(tmp_path / "missing.json"))
        code = cli.main(["normalform", "--config", str(cfg),
                         "--out-prefix", str(tmp_path / "nf")])
        assert code == 2
        assert " initial_state: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["nf.json"]


#: Each subcommand's work entry, as the benchmark's job host marks them, and
#: the arguments of a small run that reaches it (its output options last).
WORK_RUNS = [
    pytest.param(evolve, "run", ["evolve", "--out"], id="evolve.run"),
    pytest.param(evolve, "lifespan_experiment", ["normalform", "--out-prefix"],
                 id="evolve.lifespan_experiment"),
    pytest.param(resonance, "min_denominator",
                 ["resonance", "--p", "3", "--bound", "9", "--out"],
                 id="resonance.min_denominator"),
    pytest.param(resonance, "search_resonances_p6",
                 ["resonance", "--p", "6", "--bound", "9", "--out"],
                 id="resonance.search_resonances_p6"),
    pytest.param(waves, "continue_branch",
                 ["waves", "--m", "3", "--xi-max", "0.05", "--steps", "2", "--out"],
                 id="waves.continue_branch"),
]


class TestRunBoundary:
    """The config is read once, output paths are checked before any work,
    and a failure is reported without a traceback."""

    @pytest.mark.parametrize("change", ["edited", "deleted"])
    @pytest.mark.parametrize("subcommand,entry", [("evolve", "run"),
                                                  ("normalform", "lifespan_experiment")])
    def test_manifest_digests_the_config_that_ran(self, tmp_path, monkeypatch,
                                                   subcommand, entry, change):
        config = {**SMALL_RUN, "seed": 3}
        if subcommand == "normalform":
            config["eps_list"] = [0.1, 0.05]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        parsed = cfg.read_bytes()
        work = getattr(evolve, entry)

        def change_config(*args, **kwargs):
            cfg.write_text(json.dumps({**config, "seed": 4}))
            if change == "deleted":
                cfg.unlink()
            return work(*args, **kwargs)

        monkeypatch.setattr(evolve, entry, change_config)
        out = tmp_path / "out"
        if subcommand == "evolve":
            argv = ["evolve", "--config", str(cfg), "--out", str(out)]
            manifest = tmp_path / "out.manifest.json"
        else:
            argv = ["normalform", "--config", str(cfg), "--out-prefix", str(out)]
            manifest = tmp_path / "out.slopes.json.manifest.json"
        assert cli.main(argv) == 0
        digest = json.loads(manifest.read_text())["config_sha256"]
        assert digest == hashlib.sha256(parsed).hexdigest()

    def test_byte_order_mark_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps(SMALL_RUN).encode())
        out = tmp_path / "traj.csv"
        assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "BOM" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option,path",
        [("--out", "missing/x"), ("--out", "taken"),
         ("--json-out", "missing/x"), ("--json-out", "taken"),
         ("--state-out", "missing/x"), ("--state-out", "taken"),
         # a prefix names no file itself, so only its directory must exist
         ("--out-prefix", "missing/x"),
         # no file name: each would fail to write or write a hidden file
         ("--out", ""), ("--json-out", ""), ("--state-out", ""), ("--out-prefix", ""),
         ("--out-prefix", "taken/"), ("--out-prefix", "."), ("--out-prefix", "taken/..")],
    )
    def test_bad_output_path_exits_2_before_any_work(self, tmp_path, capsys,
                                                     monkeypatch, option, path):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_RUN, "eps_list": [0.1, 0.05]}
                                  if option == "--out-prefix" else SMALL_RUN))
        (tmp_path / "taken").mkdir()
        argv = {
            "--out": ["dispersion", "--n-max", "9", "--out", path],
            "--json-out": ["waves", "--m", "3", "--xi-max", "0.05", "--steps", "2",
                           "--out", "good.csv", "--json-out", path],
            "--state-out": ["evolve", "--config", "cfg.json", "--out", "good.csv",
                            "--state-out", path],
            "--out-prefix": ["normalform", "--config", "cfg.json", "--out-prefix", path],
        }[option]
        assert cli.main(argv) == 2
        assert f"error: {option}: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "taken"]
        assert not any((tmp_path / "taken").iterdir())

    @pytest.mark.parametrize(
        "argv,directory,error",
        [
            pytest.param(["waves", "--m", "3", "--xi-max", "0.02", "--steps", "2",
                          "--out", "same.csv", "--json-out", "same.csv"], None,
                         "--out and --json-out: name one file, same.csv", id="one_file_twice"),
            pytest.param(["waves", "--m", "3", "--xi-max", "0.02", "--steps", "2",
                          "--out", "w.csv", "--json-out", "./w.csv.manifest.json"], None,
                         "--json-out and --out: name one file, w.csv.manifest.json",
                         id="data_file_is_the_manifest"),
            pytest.param(["normalform", "--config", "cfg.json", "--out-prefix", "nf"],
                         "nf.series.csv", "--out-prefix: nf.series.csv is a directory",
                         id="prefix_file_is_a_directory"),
            pytest.param(["normalform", "--config", "cfg.json", "--out-prefix", "nf"],
                         "nf.series.csv.tmp",
                         "--out-prefix: nf.series.csv.tmp is a directory",
                         id="temp_file_is_a_directory"),
            pytest.param(["evolve", "--config", "cfg.json", "--out", "traj.csv.tmp",
                          "--state-out", "traj.csv"], None,
                         "--out and --state-out: name one file, traj.csv.tmp",
                         id="data_file_is_a_temp_file"),
            pytest.param(["resonance", "--p", "3", "--bound", "9", "--out", "out.json"],
                         "out.json.manifest.json",
                         "--out: out.json.manifest.json is a directory",
                         id="manifest_is_a_directory"),
        ],
    )
    def test_every_file_a_run_writes_checked_before_any_work(
            self, tmp_path, capsys, monkeypatch, argv, directory, error):
        """The data files an option derives, the manifest and the temp file
        each is written through are checked with the options themselves,
        and no two of them may be one file."""
        def refused(*args, **kwargs):
            raise AssertionError("the run started")

        for param in WORK_RUNS:
            module, name, _ = param.values
            monkeypatch.setattr(module, name, refused)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({**SMALL_RUN, "eps_list": [0.1, 0.05]}))
        made = ["cfg.json"]
        if directory is not None:
            (tmp_path / directory).mkdir()
            made.append(directory)
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(made)

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        taken = tmp_path / "taken"
        taken.mkdir()
        with pytest.raises(IsADirectoryError):
            _atomic.write_text(str(taken), "x")
        with pytest.raises(UnicodeEncodeError):
            _atomic.write_text(str(tmp_path / "a.csv"), "\ud800")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        # the data file's path passes the checks; its temp file cannot be opened
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_RUN, "eps_list": [0.1, 0.05]}))
        argv = ["normalform", "--config", str(cfg),
                "--out-prefix", str(tmp_path / TOO_LONG_PREFIX)]
        assert cli.main(argv) == 1
        assert "error: [Errno 36] File name too long" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("module,name,argv", WORK_RUNS)
    def test_run_failure_exits_1_without_manifest(self, tmp_path, capsys,
                                                  monkeypatch, module, name, argv):
        def failing(*args, **kwargs):
            raise RuntimeError(f"{name} failed")

        monkeypatch.setattr(module, name, failing)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_RUN, "eps_list": [0.1, 0.05]}
                                  if argv[0] == "normalform" else SMALL_RUN))
        argv = [*argv, str(tmp_path / "out")]
        if argv[0] in ("evolve", "normalform"):
            argv += ["--config", str(cfg)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {name} failed\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_interrupt_passes_through(self, tmp_path, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(resonance, "min_denominator", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["resonance", "--p", "3", "--bound", "9",
                      "--out", str(tmp_path / "out")])
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("module,name,argv", WORK_RUNS[2:])
    def test_library_value_error_exits_2(self, tmp_path, capsys, monkeypatch,
                                         module, name, argv):
        def rejecting(*args, **kwargs):
            raise ValueError("bound: must be an integer >= 9")

        monkeypatch.setattr(module, name, rejecting)
        assert cli.main([*argv, str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: bound: must be an integer >= 9\n"
        assert not any(tmp_path.iterdir())

    def test_dead_stepping_worker_exits_1(self, tmp_path, capsys, monkeypatch):
        """A stepping worker that dies, as in an out-of-memory kill, ends the
        sweep with one error line, no data file, no manifest and no child."""
        caller = os.getpid()

        def killed(*args):
            if os.getpid() == caller:
                raise AssertionError("the sweep did not fork")
            os._exit(3)

        monkeypatch.setattr(evolve, "_march", killed)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_RUN, "eps_list": [0.1, 0.05]}))
        argv = ["normalform", "--config", str(cfg), "--out-prefix", str(tmp_path / "nf")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "error: the stepping worker ended with exit status 3 before its last record\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "config,argv,code",
        [
            pytest.param({"m": 2}, ["evolve", "--out", "traj.csv"], 2, id="bad_config"),
            pytest.param({"initial_state": "missing.json"},
                         ["evolve", "--out", "traj.csv"], 2, id="missing_restart_file"),
            pytest.param({}, ["evolve", "--out", "missing/traj.csv"], 2,
                         id="missing_output_directory"),
            pytest.param({}, ["evolve", "--out", "taken"], 2, id="output_is_a_directory"),
            pytest.param({"eps_list": [0.1, 0.05]},
                         ["normalform", "--out-prefix", TOO_LONG_PREFIX], 1,
                         id="unwritable_output"),
        ],
    )
    def test_failure_exits_without_traceback(self, tmp_path, config, argv, code):
        """``python -m sqglab.cli`` reports each failure as one error line."""
        (tmp_path / "taken").mkdir()
        (tmp_path / "cfg.json").write_text(json.dumps({**SMALL_RUN, **config}))
        env = {**os.environ, "PYTHONPATH": str(Path(sqglab.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-m", "sqglab.cli", *argv, "--config", "cfg.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert result.returncode == code
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr
