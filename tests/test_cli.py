import numpy as np
import pytest

import cryoground.fem as fem
from cryoground.cli import main
from cryoground.fem import TemperatureField
from cryoground.io import snapshot_write
from cryoground.parallel import ForkPool, WorkerFailure, pool_available

TINY_RUN = """
[mesh]
type = box
extents = 1 1 1
divisions = 3 3 3

[materials.1]
kind = single_phase
crho = 2e6
lambda = 2.0

[phase]
latent_volumetric = 0

[time]
tau = 3600
t_max = 36000

[dirichlet]
6 = -20.0

[output]
directory = {out}
cadence = 5
probes = 0 0 0

[solver]
tol = 1e-8
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def write_restart(tmp_path, values, time):
    """TINY_RUN (tau 3600 s, t_max 36000 s) resuming from a snapshot of
    ``values`` at ``time``; returns the config and snapshot paths."""
    snap = tmp_path / "snap.bin"
    snapshot_write(snap, TemperatureField(values, time))
    text = TINY_RUN.format(out=tmp_path / "out").replace(
        "t_max = 36000", f"t_max = 36000\nrestart = {snap}"
    )
    return write(tmp_path, text), snap


def corrupt(snap, how):
    raw = bytearray(snap.read_bytes())
    if how == "bad-magic":
        raw[:8] = b"NOTCRYOG"
    elif how == "bad-version":
        raw[8] = 9
    else:
        del raw[-16:]
    snap.write_bytes(bytes(raw))


class TestValidate:
    def test_good_config(self, tmp_path, capsys):
        path = write(tmp_path, TINY_RUN.format(out=tmp_path / "out"))
        assert main(["validate", "--config", str(path)]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_bad_config(self, tmp_path, capsys):
        path = write(tmp_path, TINY_RUN.format(out=tmp_path / "out") + "\n[bogus]\nx=1\n")
        assert main(["validate", "--config", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "none.cfg")]) == 2

    def test_step_count_matches_run(self, tmp_path, capsys):
        """validate and run count the steps by the same rule: t_max = 1.3 tau
        is 2 steps (the last one ends past t_max)."""
        text = TINY_RUN.format(out=tmp_path / "out").replace(
            "tau = 3600\nt_max = 36000", "tau = 1d\nt_max = 1.3d"
        )
        path = write(tmp_path, text)
        assert main(["validate", "--config", str(path)]) == 0
        assert "config OK: 2 steps" in capsys.readouterr().out
        assert main(["run", "--config", str(path)]) == 0
        assert "completed 2 steps" in capsys.readouterr().out


    def test_restart_steps_counted_from_snapshot_time(self, tmp_path, capsys):
        """A restart at t = 7200 s runs 8 of the 10 steps to t_max; validate
        counts the same 8."""
        path, _ = write_restart(tmp_path, np.full(64, -5.0), 7200.0)
        assert main(["validate", "--config", str(path)]) == 0
        assert "config OK: 8 steps" in capsys.readouterr().out
        assert main(["run", "--config", str(path)]) == 0
        assert "completed 8 steps" in capsys.readouterr().out

    @pytest.mark.parametrize("how", ["bad-magic", "bad-version", "truncated"])
    def test_unreadable_snapshot_is_config_error(self, tmp_path, capsys, how):
        path, snap = write_restart(tmp_path, np.full(64, -5.0), 7200.0)
        corrupt(snap, how)
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")


class TestRun:
    def test_tiny_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write(tmp_path, TINY_RUN.format(out=out))
        assert main(["run", "--config", str(path)]) == 0
        assert (out / "probes.csv").exists()
        assert (out / "step_000000.vtk").exists()
        assert (out / "step_000010.vtk").exists()
        assert "completed 10 steps" in capsys.readouterr().out

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = TINY_RUN.format(out=out).replace("tol = 1e-8", "tol = 1e-15\nmax_iter = 1")
        path = write(tmp_path, text)
        assert main(["run", "--config", str(path)]) == 3
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.skipif(not pool_available(), reason="needs the worker pool")
    def test_worker_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        """A pool share that dies mid-run is a solver failure, not a crash."""
        monkeypatch.setattr(fem, "usable_cpus", lambda: 2)

        def dead_share(pool):
            raise WorkerFailure("assembly worker 0 died")

        monkeypatch.setattr(ForkPool, "dispatch", dead_share)
        path = write(tmp_path, TINY_RUN.format(out=tmp_path / "out"))
        assert main(["run", "--config", str(path), "--workers", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure:") and "worker 0 died" in err

    def test_workers_override_validated(self, tmp_path, capsys):
        path = write(tmp_path, TINY_RUN.format(out=tmp_path / "out"))
        assert main(["run", "--config", str(path), "--workers", "0"]) == 2

    def test_missing_restart_file_is_config_error(self, tmp_path, capsys):
        path, snap = write_restart(tmp_path, np.full(64, -5.0), 0.0)
        snap.unlink()
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error:") and "snap.bin" in err

    def test_snapshot_of_another_mesh_is_config_error(self, tmp_path, capsys):
        """The 3x3x3 box has 64 nodes; a 10-value snapshot cannot seed it."""
        path, _ = write_restart(tmp_path, np.zeros(10), 0.0)
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "snapshot has 10 nodes, mesh has 64" in err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("6 = -20.0", "77 = air", "boundary tag 77"),
            ("divisions = 3 3 3", "divisions = 3 3 3\nregion = 5", "region tag 5"),
            ("divisions = 3 3 3", "divisions = 3 3 3\ncarve = 9 : 0 1 0 1 0 1", "every remaining cell"),
        ],
        ids=["unknown-dirichlet-tag", "unknown-region", "carve-everything"],
    )
    def test_bad_input_found_during_run_is_config_error(self, tmp_path, capsys, old, new, message):
        text = TINY_RUN.format(out=tmp_path / "out")
        assert old in text
        path = write(tmp_path, text.replace(old, new))
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert message in err


class TestOracle:
    def test_neumann_csv(self, capsys):
        code = main(
            ["oracle", "neumann", "--cells", "12", "--tau", "20000", "--samples", "4",
             "--delta", "0.2"]
        )
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "t_seconds,front_exact_m,front_sim_m,rel_error"
        assert len(lines) == 5
        assert "lambda_s" in captured.err

    def test_stefan_alias(self, capsys):
        code = main(
            ["oracle", "neumann", "--cells", "10", "--tau", "30000", "--samples", "2",
             "--stefan", "2.0", "--delta", "0.2"]
        )
        assert code == 0

    def test_bad_beta(self, capsys):
        assert main(["oracle", "neumann", "--beta", "-1"]) == 2
