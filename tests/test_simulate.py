import math

import numpy as np
import pytest

import cryoground.fem as fem
import cryoground.linalg as linalg
from cryoground.fem import TemperatureField
from cryoground.io import snapshot_write
from cryoground.linalg import DOT_CHUNK
from cryoground.mesh import BoxMeshSpec
from cryoground.parallel import pool_available
from cryoground.physics import ColumnController
from cryoground.simulate import (
    Simulation,
    SimulationConfig,
    SimulationError,
    SolverFailure,
    initialize,
    run,
)


def box_config(table, **kwargs):
    defaults = dict(
        mesh=BoxMeshSpec((1.0, 1.0, 1.0), (4, 4, 4)),
        table=table,
        tau=100.0,
        t_max=1000.0,
        initial_temperature=-5.0,
        cadence=1,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


class TestInitialize:
    def test_uniform_initial_field(self, plain_table):
        mesh, field = initialize(box_config(plain_table, initial_temperature=-5.0))
        assert np.all(field.values == -5.0)
        assert field.time == 0.0

    def test_restart_roundtrip(self, plain_table, tmp_path):
        cfg = box_config(plain_table)
        mesh, _ = initialize(cfg)
        rng = np.random.default_rng(0)
        original = TemperatureField(rng.uniform(-9, 3, mesh.n_nodes), time=4200.0)
        snap = tmp_path / "restart.bin"
        snapshot_write(snap, original)
        cfg_restart = box_config(plain_table, restart=snap)
        _, field = initialize(cfg_restart)
        assert np.array_equal(field.values, original.values)
        assert field.time == original.time

    def test_nonfinite_initial_rejected(self, plain_table):
        with pytest.raises(SimulationError, match="finite"):
            initialize(box_config(plain_table, initial_temperature=float("nan")))

    @pytest.mark.parametrize(
        "tau, t_max, match",
        [(math.inf, math.inf, "tau"), (100.0, math.inf, "t_max"), (100.0, math.nan, "t_max"),
         (math.nan, 1000.0, "tau")],
        ids=["both-inf", "t_max-inf", "t_max-nan", "tau-nan"],
    )
    def test_nonfinite_step_length_or_end_rejected(self, plain_table, tau, t_max, match):
        """The step count of a run needs finite tau and t_max; without them
        it could not be counted."""
        with pytest.raises(SimulationError, match=f"{match} must be"):
            initialize(box_config(plain_table, tau=tau, t_max=t_max))

    def test_bad_cadence(self, plain_table):
        with pytest.raises(SimulationError, match="cadence"):
            initialize(box_config(plain_table, cadence=0))

    def test_dirichlet_value_must_be_number_air_or_callable(self, plain_table):
        with pytest.raises(SimulationError, match="tag 6"):
            initialize(box_config(plain_table, dirichlet={6: "hot"}))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=str)
    def test_nonfinite_dirichlet_value_rejected(self, plain_table, value):
        with pytest.raises(SimulationError, match="tag 6 is not finite"):
            initialize(box_config(plain_table, dirichlet={6: value}))


class TestStep:
    def test_callable_dirichlet_evaluated_on_tag_nodes(self, plain_table):
        """A callable value g(points, t) is evaluated each step at the new
        time level on the nodes of its tag."""
        calls = []

        def g(points, t):
            calls.append((len(points), t))
            return points[:, 0] + t

        sim = Simulation(box_config(plain_table, dirichlet={6: g}))
        sim.step()
        sim.step()
        top = sim._tag_nodes[6]
        assert calls == [(25, 100.0), (25, 200.0)]
        assert np.array_equal(sim.field.values[top], sim.mesh.nodes[top, 0] + 200.0)

    def test_uniform_equilibrium_without_dirichlet(self, plain_table):
        sim = Simulation(box_config(plain_table))
        rec = sim.step()
        assert np.abs(sim.field.values + 5.0).max() < 1e-10
        assert rec.step == 1
        assert rec.t_cur == 100.0
        assert rec.columns_active is False

    def test_cooling_from_top_face(self, plain_table):
        cfg = box_config(plain_table, dirichlet={6: -20.0}, tau=0.02, t_max=0.02 * 60)
        sim = Simulation(cfg)
        probe = 0  # corner node on the bottom
        history = []
        for _ in range(60):
            sim.step()
            history.append(sim.field.values[probe])
        values = sim.field.values
        assert values.min() >= -20.0 - 1e-9
        assert values.max() <= -5.0 + 1e-9
        diffs = np.diff(np.array(history))
        assert (diffs <= 1e-12).all(), "probe must cool monotonically"

    def test_records_track_extremes(self, plain_table):
        cfg = box_config(plain_table, dirichlet={6: -20.0})
        sim = Simulation(cfg)
        rec = sim.step()
        assert rec.t_min <= rec.t_mean <= rec.t_max
        assert rec.t_min == pytest.approx(-20.0)

    def test_solver_failure_carries_record(self, plain_table):
        cfg = box_config(plain_table, dirichlet={6: -20.0}, solver_max_iter=1,
                         solver_tol=1e-15)
        sim = Simulation(cfg)
        with pytest.raises(SolverFailure) as err:
            sim.step()
        assert err.value.record.step == 1
        assert err.value.record.solver.converged is False

    @pytest.mark.parametrize("bad", ["dirichlet", "source"])
    def test_non_finite_step_input_is_input_error(self, plain_table, bad):
        """A callable Dirichlet value or source that turns non-finite stops
        the first step with a FemError (an input error, exit code 2), not a
        CG run to max_iter that surfaces as a SolverFailure."""

        def nan_surface(points, t):
            return np.full(len(points), np.nan)

        def inf_source(points, t):
            return np.full(len(points), np.inf)

        kwargs = {"dirichlet": {6: -20.0}, "source": inf_source}
        if bad == "dirichlet":
            kwargs = {"dirichlet": {6: nan_surface}}
        sim = Simulation(box_config(plain_table, **kwargs))
        try:
            with pytest.raises(fem.FemError, match="non-finite"):
                sim.step()
            assert sim.step_index == 0 and sim.records == []
        finally:
            sim.close()

    def test_air_dirichlet_follows_forcing(self, plain_table):
        from cryoground.physics import air_temperature

        cfg = box_config(plain_table, dirichlet={6: "air"}, tau=3600.0, t_max=36000.0)
        sim = Simulation(cfg)
        rec = sim.step()
        top = sim.mesh.nodes[:, 2] == 1.0
        assert np.allclose(sim.field.values[top], air_temperature(3600.0))
        assert rec.t_air == pytest.approx(air_temperature(3600.0))


class TestColumns:
    def controller(self, mode):
        return ColumnController(
            column_tags=frozenset({1}),
            mode=mode,
            column_temperature=-20.0,
            probe_point=(1.0, 0.5, 0.5),
        )

    def test_always_on_minimum_nonincreasing(self, soil_table):
        cfg = box_config(
            soil_table,
            controller=self.controller("always_on"),
            tau=86400.0,
            t_max=30 * 86400.0,
        )
        sim = Simulation(cfg)
        mins = [sim.field.values.min()]
        for _ in range(30):
            rec = sim.step()
            assert rec.columns_active is True
            mins.append(rec.t_min)
        assert (np.diff(np.array(mins)) <= 1e-12).all()

    def test_always_off_never_activates(self, soil_table):
        cfg = box_config(soil_table, controller=ColumnController(mode="always_off"))
        sim = Simulation(cfg)
        for _ in range(3):
            assert sim.step().columns_active is False
        assert np.abs(sim.field.values + 5.0).max() < 1e-9

    def test_seasonal_switches_with_air(self, soil_table):
        # start of the forcing year is deep winter: air far below the soil
        cfg = box_config(
            soil_table, controller=self.controller("seasonal"),
            tau=86400.0, t_max=10 * 86400.0,
        )
        sim = Simulation(cfg)
        assert sim.step().columns_active is True
        # mid-summer: air far above any soil value
        cfg2 = box_config(
            soil_table, controller=self.controller("seasonal"),
            tau=200.0 * 86400.0, t_max=400.0 * 86400.0,
        )
        sim2 = Simulation(cfg2)
        assert sim2.step().columns_active is False


class TestRun:
    def test_step_count(self, plain_table):
        records = run(box_config(plain_table, tau=100.0, t_max=300.0))
        assert len(records) == 3

    def test_step_count_rounds_up(self, plain_table):
        records = run(box_config(plain_table, tau=100.0, t_max=250.0))
        assert len(records) == 3

    def test_snapshot_cadence(self, plain_table, tmp_path):
        out = tmp_path / "out"
        cfg = box_config(
            plain_table,
            tau=100.0,
            t_max=1000.0,
            cadence=2,
            output_dir=out,
            dirichlet={6: -20.0},
            probe_points=((0.0, 0.0, 0.0),),
        )
        run(cfg)
        vtks = sorted(out.glob("step_*.vtk"))
        assert len(vtks) == 6  # initial state + steps 2, 4, 6, 8, 10
        assert vtks[0].name == "step_000000.vtk"
        lines = (out / "probes.csv").read_text().splitlines()
        assert len(lines) == 1 + math.floor(10 / 2) + 1

    def test_flush_before_the_first_row(self, plain_table, tmp_path):
        """Probes flushed before any row was emitted (as after a solver
        failure ahead of the first cadence step) give the header alone."""
        out = tmp_path / "out"
        cfg = box_config(
            plain_table, cadence=10, output_dir=out, probe_points=((0.0, 0.0, 0.0),) * 2
        )
        sim = Simulation(cfg)
        sim.step()
        sim.flush_probes()
        lines = (out / "probes.csv").read_text().splitlines()
        assert lines == ["step,t_seconds,T_air,columns_active,probe_0,probe_1,min,max,mean"]

    def test_probe_at_dirichlet_node_is_constant(self, plain_table, tmp_path):
        out = tmp_path / "out"
        cfg = box_config(
            plain_table,
            tau=100.0,
            t_max=500.0,
            output_dir=out,
            dirichlet={6: -20.0},
            probe_points=((1.0, 1.0, 1.0),),  # corner on the top face
        )
        run(cfg)
        rows = (out / "probes.csv").read_text().splitlines()[2:]
        probe_col = [float(r.split(",")[4]) for r in rows]
        assert probe_col == pytest.approx([-20.0] * len(probe_col))

    def test_restart_continues_to_t_max(self, plain_table, tmp_path):
        out = tmp_path / "out"
        cfg = box_config(
            plain_table, tau=100.0, t_max=500.0, output_dir=out,
            write_restart=True, write_vtk=False, cadence=5,
            dirichlet={6: -20.0},
        )
        run(cfg)
        full = Simulation(box_config(plain_table, tau=100.0, t_max=1000.0,
                                     dirichlet={6: -20.0}))
        full_records = full.run()
        resumed = box_config(
            plain_table, tau=100.0, t_max=1000.0, dirichlet={6: -20.0},
            restart=out / "restart_000005.bin",
        )
        resumed_records = run(resumed)
        assert len(resumed_records) == 5  # only the remaining half
        assert resumed_records[-1].t_cur == pytest.approx(1000.0)
        # identical trajectory: the split run ends on the same field values
        assert resumed_records[-1].t_mean == pytest.approx(
            full_records[-1].t_mean, abs=1e-12
        )

    def test_split_run_ends_on_same_field_bytes(self, soil_table, tmp_path):
        """The snapshot carries T^(n-1), so the resumed run starts its solves
        as the unsplit run does and ends on the same bytes."""
        out = tmp_path / "out"
        kwargs = dict(
            tau=3600.0, initial_temperature=-0.5, dirichlet={6: 5.0}, write_vtk=False
        )
        first = box_config(
            soil_table, t_max=4 * 3600.0, output_dir=out, write_restart=True, cadence=4, **kwargs
        )
        run(first)
        full = Simulation(box_config(soil_table, t_max=8 * 3600.0, **kwargs))
        resumed = Simulation(
            box_config(
                soil_table, t_max=8 * 3600.0, restart=out / "restart_000004.bin", **kwargs
            )
        )
        try:
            full.run()
            resumed.run()
        finally:
            full.close()
            resumed.close()
        assert len(resumed.records) == 4
        assert resumed.field.values.tobytes() == full.field.values.tobytes()
        assert [r.solver.iterations for r in resumed.records] == [
            r.solver.iterations for r in full.records[4:]
        ]

    def test_restart_written_when_enabled(self, plain_table, tmp_path):
        out = tmp_path / "out"
        cfg = box_config(
            plain_table, tau=100.0, t_max=300.0, output_dir=out,
            write_restart=True, write_vtk=False, cadence=3,
        )
        run(cfg)
        assert (out / "restart_000003.bin").exists()
        assert not list(out.glob("*.vtk"))


class TestDeterminism:
    def test_identical_runs_identical_files(self, soil_table, tmp_path):
        def one(run_dir):
            cfg = box_config(
                soil_table,
                mesh=BoxMeshSpec((1.0, 1.0, 1.0), (5, 5, 5)),
                tau=3600.0,
                t_max=36000.0,
                cadence=5,
                output_dir=run_dir,
                dirichlet={6: "air", 5: 4.0},
                probe_points=((0.5, 0.5, 0.5), (0.0, 0.0, 1.0)),
            )
            run(cfg)

        one(tmp_path / "a")
        one(tmp_path / "b")
        for name in ["step_000000.vtk", "step_000005.vtk", "step_000010.vtk", "probes.csv"]:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    @pytest.mark.skipif(not pool_available(), reason="needs the worker pool")
    def test_steps_bit_identical_for_any_share_count(self, soil_table, monkeypatch):
        """Fill and CG run in the same row shares; the 12x12x16 box (2,873
        nodes) gives 1 to 4 shares with real cuts.  The field starts inside
        the phase band and one face is held above it."""
        monkeypatch.setattr(fem, "usable_cpus", lambda: 4)
        results = {}
        for workers in (1, 2, 3, 4):
            sim = Simulation(
                box_config(
                    soil_table,
                    mesh=BoxMeshSpec((1.0, 1.0, 1.0), (12, 12, 16)),
                    tau=3600.0,
                    t_max=5 * 3600.0,
                    initial_temperature=-0.5,
                    dirichlet={6: 5.0},
                    workers=workers,
                )
            )
            try:
                assert sim.assembler.effective_workers() == workers
                iterations = [sim.step().solver.iterations for _ in range(5)]
                if workers > 1:  # every share owns rows
                    bounds = sim.assembler._pooled[1].bounds
                    assert len(bounds) == workers + 1 and np.all(np.diff(bounds) > 0)
            finally:
                sim.close()
            results[workers] = (sim.field.values, iterations)
        field, iterations = results[1]
        assert field.min() < -0.5 < 0.0 < field.max()  # crossed the band somewhere
        for workers in (2, 3, 4):
            assert results[workers][0].tobytes() == field.tobytes(), workers
            assert results[workers][1] == iterations, workers

    @pytest.mark.skipif(not pool_available(), reason="needs the worker pool")
    @pytest.mark.parametrize("cells", [(6, 6, 7), (9, 9, 9)], ids=["392_nodes", "1000_nodes"])
    def test_pooled_steps_with_empty_shares(self, soil_table, monkeypatch, cells):
        """A mesh with fewer whole DOT_CHUNKs than shares leaves some shares
        without rows; those must start on chunk cuts and step like the rest."""
        monkeypatch.setattr(fem, "usable_cpus", lambda: 4)
        results = {}
        for workers in (1, 3, 4):
            sim = Simulation(
                box_config(
                    soil_table,
                    mesh=BoxMeshSpec((1.0, 1.0, 1.0), cells),
                    tau=3600.0,
                    t_max=3 * 3600.0,
                    initial_temperature=-0.5,
                    dirichlet={6: 5.0},
                    workers=workers,
                )
            )
            try:
                assert sim.assembler.effective_workers() == workers
                iterations = [sim.step().solver.iterations for _ in range(3)]
                if workers > 1:
                    bounds = sim.assembler._pooled[1].bounds
                    assert len(bounds) == workers + 1 and 0 in np.diff(bounds)
                    assert all(c % DOT_CHUNK == 0 for c in bounds[:-1])
            finally:
                sim.close()
            results[workers] = (sim.field.values.tobytes(), iterations)
        for workers in (3, 4):
            assert results[workers] == results[1], workers

    @pytest.mark.parametrize("workers", [
        1,
        pytest.param(2, marks=pytest.mark.skipif(not pool_available(), reason="needs the pool")),
    ])
    def test_fallback_product_gives_the_kernel_bits(self, soil_table, monkeypatch, workers):
        """Where scipy lacks its private CSR kernel, linalg binds an np.add.at
        fallback in its place: whole steps (fill, elimination, CG) on a box
        with phase-change cells and a Dirichlet face end on the kernel's bits.
        The 8x8x9 box (810 nodes) gives both shares rows."""
        monkeypatch.setattr(fem, "usable_cpus", lambda: 2)

        def march():
            sim = Simulation(
                box_config(
                    soil_table,
                    mesh=BoxMeshSpec((1.0, 1.0, 1.0), (8, 8, 9)),
                    tau=3600.0,
                    t_max=4 * 3600.0,
                    initial_temperature=-0.5,
                    dirichlet={6: 5.0},
                    workers=workers,
                )
            )
            try:
                assert sim.assembler.effective_workers() == workers
                iterations = [sim.step().solver.iterations for _ in range(4)]
            finally:
                sim.close()
            return sim.field.values.tobytes(), iterations

        kernel = march()
        calls = []

        def fallback(*args):
            calls.append(args[0])
            linalg._add_at_matvec(*args)

        monkeypatch.setattr(linalg, "_csr_matvec", fallback)
        assert march() == kernel
        assert calls  # the calling process's share ran the fallback


class TestConservation:
    def test_insulated_heat_content_conserved(self, plain_table):
        cfg = box_config(plain_table, tau=0.1, t_max=1.0, solver_tol=1e-13)
        sim = Simulation(cfg)
        rng = np.random.default_rng(2)
        sim.field = TemperatureField(rng.uniform(-10, 10, sim.mesh.n_nodes))
        m_diag = sim.assembler.capacity_diagonal(sim.field.values)
        h0 = float(m_diag @ sim.field.values)
        for _ in range(10):
            sim.step()
        h1 = float(m_diag @ sim.field.values)
        assert abs(h1 - h0) <= 1e-8 * abs(h0)


class TestWarmStart:
    def test_iterations_nonincreasing_on_quiescent_problem(self, plain_table):
        # tau of the order of the diffusion time: the field settles within a
        # few steps and warm-started solves decay to zero iterations
        cfg = box_config(
            plain_table, tau=1.0, t_max=100.0, dirichlet={5: -8.0, 6: 3.0}
        )
        sim = Simulation(cfg)
        iters = [sim.step().solver.iterations for _ in range(40)]
        tail = iters[5:]
        assert all(b <= a for a, b in zip(tail, tail[1:])), f"iterations {iters}"
        assert iters[-1] == 0, "a settled problem should warm-start to zero iterations"

    def test_constrained_nodes_keep_imposed_values(self, soil_table):
        """The increment is zeroed on this step's constrained nodes, so a
        start moved along it keeps the imposed values bit for bit, also
        while they change every step."""

        def g(points, t):
            return points[:, 0] + t / 3600.0

        sim = Simulation(
            box_config(
                soil_table, tau=3600.0, t_max=6 * 3600.0, initial_temperature=-0.5,
                dirichlet={6: g},
            )
        )
        top = sim._tag_nodes[6]
        for _ in range(6):
            sim.step()
            assert sim.field.previous is not None
            assert np.array_equal(sim.field.values[top], g(sim.mesh.nodes[top], sim.field.time))

    def test_reassigned_field_drops_history(self, soil_table):
        """sim.field = TemperatureField(...) starts a new history: the next
        step is the first step of a fresh run from that field."""
        cfg = box_config(
            soil_table, tau=3600.0, t_max=4 * 3600.0, initial_temperature=-0.5, dirichlet={6: 5.0}
        )
        stepped, fresh = Simulation(cfg), Simulation(cfg)
        for _ in range(3):
            stepped.step()
        assert stepped.field.previous is not None
        start = TemperatureField(stepped.field.values.copy(), stepped.field.time)
        stepped.field = start
        fresh.field = start.copy()
        assert stepped.field.previous is None
        a, b = stepped.step(), fresh.step()
        assert stepped.field.values.tobytes() == fresh.field.values.tobytes()
        assert a.solver.iterations == b.solver.iterations
