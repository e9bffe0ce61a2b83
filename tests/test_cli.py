import hashlib
from pathlib import Path

import numpy as np
import pytest

import cryoground.fem as fem
import cryoground.verify as verify
from cryoground.cli import main
from cryoground.fem import TemperatureField
from cryoground.io import snapshot_write
from cryoground.mesh import BoxMeshSpec, Mesh, generate_box, write_msh
from cryoground.parallel import ForkPool, WorkerFailure, pool_available
from cryoground.simulate import SolverFailure

DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"

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

    @pytest.mark.parametrize(
        "setting",
        ["tol = 0", "tol = -1e-8", "tol = nan", "tol = inf", "max_iter = 0", "max_iter = -5"],
    )
    def test_bad_solver_setting_is_config_error(self, tmp_path, capsys, setting):
        text = TINY_RUN.format(out=tmp_path / "out").replace("tol = 1e-8", setting)
        path = write(tmp_path, text)
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error:") and setting.split()[0] in err

    def test_spd_violation_is_solver_failure(self, tmp_path, capsys, monkeypatch):
        import cryoground.simulate as simulate
        from cryoground.linalg import SpdViolationError

        def not_spd(*args, **kwargs):
            raise SpdViolationError("p^T A p = -1.000e+00 <= 0 at iteration 3")

        monkeypatch.setattr(simulate, "cg_solve", not_spd)
        path = write(tmp_path, TINY_RUN.format(out=tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure:") and "p^T A p" in err

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
        """The 3x3x3 box has 64 nodes; a 10-value snapshot cannot seed it,
        which validate finds too, as it builds the mesh and reads the
        snapshot."""
        path, _ = write_restart(tmp_path, np.zeros(10), 0.0)
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error:")
            assert "snapshot has 10 nodes, mesh has 64" in err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("6 = -20.0", "77 = air", "boundary tag 77"),
            ("divisions = 3 3 3", "divisions = 3 3 3\nregion = 5", "region tag 5"),
            ("divisions = 3 3 3", "divisions = 3 3 3\ncarve = 9 : 0 1 0 1 0 1", "every remaining cell"),
            ("[materials.1]", "[materials.2]", "no material assigned to region tag 1"),
            (
                "[solver]",
                "[controller]\nmode = always_on\ncolumn_tags = 77\n\n[solver]",
                "boundary tag 77",
            ),
        ],
        ids=[
            "unknown-dirichlet-tag", "unknown-region", "carve-everything", "no-material",
            "unknown-column-tag",
        ],
    )
    def test_bad_input_found_during_run_is_config_error(self, tmp_path, capsys, old, new, message):
        """What run finds while it sets up, validate finds too."""
        text = TINY_RUN.format(out=tmp_path / "out")
        assert old in text
        path = write(tmp_path, text.replace(old, new))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error:")
            assert message in err

    def test_column_tags_unchecked_while_always_off(self, tmp_path, capsys):
        """Columns that never switch on constrain nothing, so their tags
        need not occur in the mesh: validate and run both accept them."""
        ctrl = "[controller]\nmode = always_off\ncolumn_tags = 77\n\n[solver]"
        path = write(tmp_path, TINY_RUN.format(out=tmp_path / "out").replace("[solver]", ctrl))
        assert main(["validate", "--config", str(path)]) == 0
        assert main(["run", "--config", str(path)]) == 0

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("6 = -20.0", "6 = -20.0\nsurface = air", "'surface'"),
            ("6 = -20.0", "6 = -20.0\nsurface_tag = 6", "'surface_tag'"),
            ("[solver]", "[forcing]\nseconds_per_day = 86400\n\n[solver]", "'seconds_per_day'"),
            ("[solver]", "[forcing]\ndays_per_year = 360\n\n[solver]", "'days_per_year'"),
        ],
        ids=["surface", "surface_tag", "seconds_per_day", "days_per_year"],
    )
    def test_removed_key_is_config_error(self, tmp_path, capsys, old, new, key):
        """The top face follows the air as ``6 = air``, and the calendar is
        fixed; a leftover key of the old spellings stops validate and run
        with exit 2 and a message naming it."""
        text = TINY_RUN.format(out=tmp_path / "out")
        assert old in text
        path = write(tmp_path, text.replace(old, new))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error:") and key in err

    def test_quick_box_top_face_air_pinned(self, tmp_path, capsys):
        """demos/configs/quick_box.cfg couples the top face to the air with
        ``6 = air``; its probes.csv and VTK files hash to the digest
        recorded from the same run spelled ``surface = air`` (numpy 2.4,
        x86-64), the spelling this tag entry replaced."""
        out = tmp_path / "out"
        text = (DEMO_CONFIGS / "quick_box.cfg").read_text()
        assert "6 = air" in text
        path = write(tmp_path, text.replace("directory = out_quick", f"directory = {out}"))
        assert main(["run", "--config", str(path)]) == 0
        digest = hashlib.sha256()
        files = sorted(out.iterdir())
        assert [f.name for f in files] == ["probes.csv"] + [f"step_{k:06d}.vtk" for k in range(11)]
        for f in files:
            digest.update(f.read_bytes())
        assert digest.hexdigest() == (
            "4cdf7467bc61017a884b69e8e1708a9066117cf3560b1715c7b29164c22185f8"
        )

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("[solver]", "[forcing]\nmean = nan\n\n[solver]", "[forcing] mean"),
            ("[solver]", "[forcing]\namplitude = inf\n\n[solver]", "[forcing] amplitude"),
            ("latent_volumetric = 0", "latent_volumetric = 0\nt_star = nan", "[phase] t_star"),
            ("latent_volumetric = 0", "latent_volumetric = 0\nt_star = abc", "[phase] t_star"),
            ("latent_volumetric = 0", "latent_volumetric = nan", "[phase] latent_volumetric"),
            ("6 = -20.0", "6 = nan", "[dirichlet] 6"),
            (
                "[solver]",
                "[controller]\nmode = always_on\ncolumn_tags = 5\ncolumn_temperature = nan"
                "\n\n[solver]",
                "[controller] column_temperature",
            ),
            ("t_max = 36000", "t_max = inf", "[time] t_max"),
            ("probes = 0 0 0", "probes = 0 nan 0", "[output] probes"),
        ],
        ids=[
            "forcing-mean-nan", "forcing-amplitude-inf", "t_star-nan", "t_star-abc",
            "latent-nan", "dirichlet-nan", "column-temperature-nan", "t_max-inf", "probe-nan",
        ],
    )
    def test_nonfinite_number_is_config_error(self, tmp_path, capsys, old, new, key):
        """A number that is not finite, or not a number, stops validate and
        run with exit 2 and a message naming the file and the key."""
        text = TINY_RUN.format(out=tmp_path / "out")
        assert old in text
        path = write(tmp_path, text.replace(old, new))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error:")
            assert str(path) in err and key in err

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("divisions = 3 3 3", "divisions = 3 3 3.7", "[mesh] divisions"),
            ("divisions = 3 3 3", "divisions = 3 3 3\nregion = 1.5", "[mesh] region"),
            ("cadence = 5", "cadence = x", "[output] cadence"),
            ("tol = 1e-8", "tol = 1e-8\nmax_iter = 10.5", "[solver] max_iter"),
            ("tol = 1e-8", "tol = 1e-8\nworkers = two", "[solver] workers"),
            (
                "[solver]",
                "[controller]\nmode = always_on\ncolumn_tags = 5 x\n\n[solver]",
                "[controller] column_tags",
            ),
        ],
        ids=["divisions", "region", "cadence", "max_iter", "workers", "column_tags"],
    )
    def test_non_integer_is_config_error(self, tmp_path, capsys, old, new, key):
        """A key that takes an integer stops validate and run with exit 2
        and a message naming the file and the key when its value is not one
        (a fraction is not truncated)."""
        text = TINY_RUN.format(out=tmp_path / "out")
        assert old in text
        path = write(tmp_path, text.replace(old, new))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error:")
            assert str(path) in err and key in err

    @pytest.mark.parametrize(
        "section, column, value, message",
        [
            ("$Nodes", 2, "x", "{msh}: line {line}: malformed number 'x'"),
            ("$Elements", -1, "q", "{msh}: line {line}: malformed number 'q'"),
            ("$Nodes", 2, "nan", "node 0 has a non-finite coordinate"),
        ],
        ids=["coordinate", "node-reference", "nan-coordinate"],
    )
    def test_bad_msh_is_config_error(self, tmp_path, capsys, section, column, value, message):
        """A mesh file with a number that does not parse, or with a node
        coordinate that is not finite, stops validate and run with exit 2,
        not with a traceback or a solve that cannot converge."""
        msh = tmp_path / "box.msh"
        write_msh(generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (3, 3, 3))), msh)
        lines = msh.read_text().splitlines()
        row = lines.index(section) + 2  # the first node or element line
        fields = lines[row].split()
        fields[column] = value
        lines[row] = " ".join(fields)
        msh.write_text("\n".join(lines) + "\n")
        box = "type = box\nextents = 1 1 1\ndivisions = 3 3 3"
        text = TINY_RUN.format(out=tmp_path / "out")
        assert box in text
        path = write(tmp_path, text.replace(box, f"type = msh\npath = {msh}"))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error:")
            assert message.format(msh=msh, line=row + 1) in err

    def test_msh_not_utf8_is_config_error(self, tmp_path, capsys):
        """A mesh file that is not UTF-8 text stops validate and run alike
        with exit 2 and a message naming the file."""
        msh = tmp_path / "box.msh"
        write_msh(generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (3, 3, 3))), msh)
        msh.write_bytes(msh.read_bytes().replace(b"$Nodes", b"$N\xffodes", 1))
        box = "type = box\nextents = 1 1 1\ndivisions = 3 3 3"
        text = TINY_RUN.format(out=tmp_path / "out").replace(box, f"type = msh\npath = {msh}")
        path = write(tmp_path, text)
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"configuration error: {msh}: not a text file")

    def test_msh_with_unused_node_is_config_error(self, tmp_path, capsys):
        """A mesh file with a node that no cell uses stops validate as it
        stops run (which cannot assemble it): exit 2 and one message."""
        box = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (3, 3, 3)))
        nodes = np.vstack([box.nodes, [[0.5, 0.5, 2.0]]])
        msh = tmp_path / "box.msh"
        write_msh(Mesh(nodes, box.cells, box.cell_region, box.boundary_facets, box.facet_tag), msh)
        cube = "type = box\nextents = 1 1 1\ndivisions = 3 3 3"
        text = TINY_RUN.format(out=tmp_path / "out").replace(cube, f"type = msh\npath = {msh}")
        path = write(tmp_path, text)
        errors = []
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"configuration error: node {box.n_nodes} belongs to no cell")

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("divisions = 3 3 3", "divisions = 0 3 3", "[mesh] divisions"),
            ("divisions = 3 3 3", "divisions = 3 -2 3", "[mesh] divisions"),
            ("extents = 1 1 1", "extents = 1 -1 1", "[mesh] extents"),
            ("extents = 1 1 1", "extents = 0 1 1", "[mesh] extents"),
        ],
        ids=["divisions-zero", "divisions-negative", "extents-negative", "extents-zero"],
    )
    def test_bad_box_is_config_error(self, tmp_path, capsys, old, new, key):
        """Box extents that are not positive, or divisions below 1, stop
        validate and run with exit 2 and a message naming the file and the
        key."""
        text = TINY_RUN.format(out=tmp_path / "out")
        assert old in text
        path = write(tmp_path, text.replace(old, new))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error:")
            assert str(path) in err and key in err


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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--cells", "0", "cells must be >= 1"),
            ("--samples", "0", "samples must be >= 1"),
            ("--tau", "-1", "tau must be > 0"),
            ("--delta", "0", "delta must be > 0"),
            ("--tau", "0", "tau must be > 0"),
            ("--tau", "nan", "tau must be > 0"),
            ("--tau", "inf", "tau must be > 0"),
            ("--tau", "1e-300", "more than int64 counts"),
        ],
        ids=["cells", "samples", "tau", "delta", "tau-zero", "tau-nan", "tau-inf", "tau-tiny"],
    )
    def test_bad_parameter_is_config_error(self, capsys, flag, value, message):
        assert main(["oracle", "neumann", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and message in err

    @pytest.mark.parametrize(
        "failure",
        [
            SolverFailure("CG did not converge", record=None),
            WorkerFailure("assembly worker 0 died"),
        ],
        ids=["solver", "worker"],
    )
    def test_solver_failure_exit_code(self, capsys, monkeypatch, failure):
        def failing_study(**kwargs):
            raise failure

        monkeypatch.setattr(verify, "run_neumann_benchmark", failing_study)
        assert main(["oracle", "neumann"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure:") and str(failure) in err
