import re

import numpy as np
import pytest

from cryoground.config import ConfigError, parse_config
from cryoground.mesh import BoxMeshPlan, BoxMeshSpec
from cryoground.physics import FREEZING_POROUS, SINGLE_PHASE

GOOD = """
# well scenario, desk scale
[mesh]
type = box
extents = 40 40 40
divisions = 8 8 8
region = 1
paint = 2 : 0 40 0 40 35 40
carve = 101 : 15 25 15 25 0 40

[phase]
t_star = 0.0
delta = 1.0
latent_volumetric = 1.04e8

[materials.1]
kind = freezing_porous
porosity = 0.35
crho_sc = 2.17e6
crho_w = 2.42e6
crho_i = 1.9e6
lambda_sc = 2.43
lambda_w = 2.22
lambda_i = 2.2

[materials.2]
kind = single_phase
crho = 1.34e6
lambda = 0.47

[forcing]
amplitude = 41.0
day_offset = 250.0
mean = -10.2

[controller]
mode = seasonal
column_tags = 101
probe_point = 20 20 39

[time]
tau = 1d
t_max = 20d
initial_temperature = -5.0

[dirichlet]
101 = 20.0

[output]
cadence = 5
probes = 1 1 39 ; 20 20 20

[solver]
tol = 1e-9
max_iter = 2000
workers = 2
"""


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestParseGood:
    def test_full_config(self, tmp_path):
        cfg = parse_config(write(tmp_path, GOOD))
        assert isinstance(cfg.mesh, BoxMeshPlan)
        assert cfg.mesh.box == BoxMeshSpec((40.0, 40.0, 40.0), (8, 8, 8))
        assert cfg.mesh.paint == ((2, (0.0, 40.0, 0.0, 40.0, 35.0, 40.0)),)
        assert cfg.mesh.carve == ((101, (15.0, 25.0, 15.0, 25.0, 0.0, 40.0)),)
        assert cfg.table.materials[1].kind == FREEZING_POROUS
        assert cfg.table.materials[2].kind == SINGLE_PHASE
        assert cfg.table.phase.latent_volumetric == 1.04e8
        assert cfg.tau == 86400.0
        assert cfg.t_max == 20 * 86400.0
        assert cfg.controller.mode == "seasonal"
        assert cfg.controller.column_tags == frozenset({101})
        assert cfg.dirichlet == {101: 20.0}
        assert cfg.cadence == 5
        assert cfg.probe_points == ((1.0, 1.0, 39.0), (20.0, 20.0, 20.0))
        assert cfg.solver_tol == 1e-9
        assert cfg.workers == 2

    def test_plain_box_without_painting(self, tmp_path):
        text = GOOD.replace("paint = 2 : 0 40 0 40 35 40\n", "").replace(
            "carve = 101 : 15 25 15 25 0 40\n", ""
        ).replace("region = 1\n", "")
        # keep dirichlet/ctrl tags resolvable: retarget to a box face tag
        text = text.replace("column_tags = 101", "column_tags = 6")
        text = text.replace("101 = 20.0", "5 = 20.0")
        cfg = parse_config(write(tmp_path, text))
        assert isinstance(cfg.mesh, BoxMeshSpec)

    def test_durations(self, tmp_path):
        text = GOOD.replace("tau = 1d", "tau = 3600").replace("t_max = 20d", "t_max = 0.01y")
        cfg = parse_config(write(tmp_path, text))
        assert cfg.tau == 3600.0
        assert cfg.t_max == pytest.approx(0.01 * 365 * 86400.0)

    def test_air_dirichlet_value(self, tmp_path):
        text = GOOD.replace("101 = 20.0", "101 = air")
        cfg = parse_config(write(tmp_path, text))
        assert cfg.dirichlet == {101: "air"}

    def test_msh_mesh_source_initializes(self, tmp_path):
        from cryoground.mesh import BoxMeshSpec as Spec, generate_box, write_msh
        from cryoground.simulate import initialize

        msh = tmp_path / "bar.msh"
        write_msh(generate_box(Spec((1.0, 1.0, 1.0), (3, 3, 3))), msh)
        text = (
            "[mesh]\ntype = msh\npath = " + str(msh) + "\n"
            "[materials.1]\nkind = single_phase\ncrho = 1e6\nlambda = 1.0\n"
            "[time]\ntau = 1d\nt_max = 2d\ninitial_temperature = -3.0\n"
        )
        cfg = parse_config(write(tmp_path, text))
        mesh, field = initialize(cfg)
        assert mesh.n_nodes == 64
        assert mesh.n_cells == 162
        assert np.all(field.values == -3.0)


class TestParseErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(tmp_path / "nope.cfg")

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'tua'"):
            parse_config(write(tmp_path, GOOD.replace("tau = 1d", "tua = 1d")))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section \[misc\]"):
            parse_config(write(tmp_path, GOOD + "\n[misc]\nx = 1\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(write(tmp_path, GOOD.replace("tau = 1d", "tau = 1d\ntau = 2d")))

    def test_bad_duration(self, tmp_path):
        with pytest.raises(ConfigError, match="duration"):
            parse_config(write(tmp_path, GOOD.replace("tau = 1d", "tau = soon")))

    def test_material_kind_required(self, tmp_path):
        with pytest.raises(ConfigError, match="kind"):
            parse_config(write(tmp_path, GOOD.replace("kind = single_phase", "kind = metal")))

    def test_material_key_for_wrong_kind(self, tmp_path):
        text = GOOD.replace("crho = 1.34e6", "crho = 1.34e6\nporosity = 0.2")
        with pytest.raises(ConfigError, match="porosity"):
            parse_config(write(tmp_path, text))

    def test_missing_material_section(self, tmp_path):
        text = GOOD.replace("[materials.1]", "[materials.x]")
        with pytest.raises(ConfigError, match="integer"):
            parse_config(write(tmp_path, text))

    def test_missing_mesh_section(self, tmp_path):
        text = GOOD.replace("[mesh]", "[mesh_zzz]")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(write(tmp_path, text))

    def test_key_outside_section(self, tmp_path):
        with pytest.raises(ConfigError, match="outside"):
            parse_config(write(tmp_path, "a = 1\n" + GOOD))

    def test_bad_dirichlet_value(self, tmp_path):
        with pytest.raises(ConfigError, match="number or 'air'"):
            parse_config(write(tmp_path, GOOD.replace("101 = 20.0", "101 = hot")))

    @pytest.mark.parametrize("second", ["101 = 7.0", "0101 = air"], ids=["same", "leading-zero"])
    def test_duplicate_dirichlet_tag(self, tmp_path, second):
        """A tag given twice is an error naming the file, the line and the
        tag, as a repeated key is in every other section; 0101 is tag 101."""
        path = write(tmp_path, GOOD.replace("101 = 20.0", f"101 = 20.0\n{second}"))
        line = GOOD.splitlines().index("101 = 20.0") + 2
        with pytest.raises(ConfigError, match=re.escape(f"{path}:{line}: duplicate tag 101 in [")):
            parse_config(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(GOOD.encode() + b"# \xff\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: not a text file")):
            parse_config(path)

    def test_seasonal_requires_probe(self, tmp_path):
        with pytest.raises(ConfigError, match="probe_point"):
            parse_config(write(tmp_path, GOOD.replace("probe_point = 20 20 39\n", "")))

    def test_tmax_shorter_than_tau(self, tmp_path):
        with pytest.raises(ConfigError, match="t_max"):
            parse_config(write(tmp_path, GOOD.replace("t_max = 20d", "t_max = 0.5d")))

    def test_msh_type_rejects_box_keys(self, tmp_path):
        text = GOOD.replace("type = box", "type = msh\npath = some.msh")
        with pytest.raises(ConfigError, match="not valid for type"):
            parse_config(write(tmp_path, text))
