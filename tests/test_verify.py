import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryoground.verify import (
    MmsCase,
    NeumannCase,
    VerifyError,
    erf,
    neumann_lambda,
    run_mms,
    run_neumann_benchmark,
    spatial_order_study,
    temporal_order_study,
)


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_saturates(self):
        assert erf(10.0) == 1.0
        assert erf(-10.0) == -1.0

    def test_pinned_value(self):
        # high-precision series value for erf(1/2)
        assert erf(0.5) == pytest.approx(0.52049987781304653768, abs=1e-14)

    def test_against_stdlib(self):
        xs = np.linspace(-5.5, 5.5, 401)
        ours = erf(xs)
        ref = np.array([math.erf(x) for x in xs])
        assert np.abs(ours - ref).max() < 1e-14

    @given(st.floats(-6.0, 6.0))
    @settings(max_examples=100)
    def test_odd_function(self, x):
        assert erf(-x) == pytest.approx(-erf(x), abs=1e-15)


class TestNeumannLambda:
    def test_small_beta_small_lambda(self):
        assert neumann_lambda(1e-6) < 1e-2

    def test_beta_one(self):
        # pinned by an independent high-precision root find
        assert neumann_lambda(1.0) == pytest.approx(0.62006263331359549548, abs=1e-10)

    def test_monotone_in_beta(self):
        assert neumann_lambda(2.0) > neumann_lambda(1.0)

    @given(st.floats(1e-3, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_residual_bound(self, beta):
        lam = neumann_lambda(beta)
        res = math.sqrt(math.pi) * lam * math.exp(lam * lam) * erf(lam) - beta
        assert abs(res) <= 1e-12

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(VerifyError):
            neumann_lambda(0.0)

    def test_out_of_bracket_rejected(self):
        with pytest.raises(VerifyError, match="bracket"):
            neumann_lambda(1e13)


class TestNeumannCase:
    def test_front_and_profile(self):
        case = NeumannCase.create(a=1e-6, t_w=1.0, t_star=0.0, beta=1.0)
        t = 1e5
        front = float(case.front_position(t))
        assert front == pytest.approx(2 * case.lambda_s * math.sqrt(1e-6 * t), rel=1e-14)
        # at the front the profile hits the phase temperature
        assert case.temperature(front, t) == pytest.approx(0.0, abs=1e-12)
        assert case.temperature(0.0, t) == pytest.approx(1.0)
        # beyond the front the bulk sits at t_star
        assert case.temperature(3 * front, t) == pytest.approx(0.0, abs=1e-12)

    def test_requires_melting(self):
        with pytest.raises(VerifyError):
            NeumannCase.create(a=1e-6, t_w=-1.0, t_star=0.0, beta=1.0)


class TestNeumannBenchmark:
    def test_coarse_front_error_within_ten_percent(self):
        report = run_neumann_benchmark(cells=40, tau=2000.0, delta=0.1, beta=1.0)
        assert report.max_rel_error <= 0.10
        # the melting front never retreats
        assert (np.diff(report.front_sim) >= -1e-12).all()

    def test_csv_shape(self):
        report = run_neumann_benchmark(cells=10, tau=30000.0, delta=0.3, beta=1.0, samples=5)
        lines = report.as_csv().splitlines()
        assert lines[0].startswith("t_seconds,")
        assert len(lines) == 1 + len(report.times)

    def test_zero_latent_reduces_to_pure_diffusion(self):
        # latent -> 0 means beta -> inf; instead run the simulator with a
        # huge beta wall... the analytic check for the degenerate case is
        # the heat-equation profile, so drive the pipeline directly.
        from cryoground.fem import Assembler, DirichletPlan, nodes_for_tags
        from cryoground.linalg import cg_solve
        from cryoground.mesh import BoxMeshSpec, generate_box
        from cryoground.physics import Material, MaterialTable, PhaseModel

        crho, lam = 2.0e6, 2.0
        a = lam / crho
        cells, length = 160, 1.0
        mesh = generate_box(BoxMeshSpec((length, 2 / cells, 2 / cells), (cells, 2, 2)))
        table = MaterialTable(
            {1: Material.single_phase(crho, lam)}, PhaseModel(0.0, 1.0, 0.0)
        )
        asm = Assembler(mesh, table)
        wall = nodes_for_tags(mesh, [1])
        plan = DirichletPlan(asm.pattern, wall)
        t_w = 1.0
        # keep the diffusion length well inside the bar so the half-space
        # profile applies despite the insulated far wall
        tau, n_steps = 50.0, 400
        values = np.zeros(mesh.n_nodes)
        for _ in range(n_steps):
            system = asm.assemble(values, tau)
            plan.apply(system, np.full(len(wall), t_w))
            x0 = values.copy()
            x0[wall] = t_w
            values, rep = cg_solve(system.matrix, system.rhs, x0, tol=1e-12)
            assert rep.converged
        t_end = tau * n_steps
        assert 2.0 * math.sqrt(a * t_end) < 0.3 * length
        x = mesh.nodes[:, 0]
        exact = t_w * (1.0 - erf(x / (2.0 * math.sqrt(a * t_end))))
        assert np.abs(values - exact).max() <= 1e-3


class TestMms:
    def test_source_matches_finite_differences(self):
        case = MmsCase(crho=3.0, lam=0.7, lengths=(1.2, 0.8, 1.0), amplitude=2.0,
                       offset=5.0, t_decay=0.3)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.1, 0.7, (20, 3))
        t = 0.13
        h = 1e-5
        dt = (case.exact(pts, t + h) - case.exact(pts, t - h)) / (2 * h)
        lap = np.zeros(len(pts))
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            lap += (
                case.exact(pts + e, t) - 2 * case.exact(pts, t) + case.exact(pts - e, t)
            ) / h**2
        expected = case.crho * dt - case.lam * lap
        assert np.abs(case.source(pts, t) - expected).max() < 1e-4

    def test_p1_reproduces_linear_steady_state(self):
        # linear-in-x exact solution, zero source: one-step march must stay
        # on the exact field to rounding
        from cryoground.fem import Assembler, DirichletPlan, nodes_for_tags
        from cryoground.linalg import cg_solve
        from cryoground.mesh import BoxMeshSpec, generate_box
        from cryoground.physics import Material, MaterialTable, PhaseModel

        mesh = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (5, 5, 5)))
        table = MaterialTable(
            {1: Material.single_phase(1.0, 1.0)}, PhaseModel(0.0, 1.0, 0.0)
        )
        asm = Assembler(mesh, table)
        exact = 2.0 + 3.0 * mesh.nodes[:, 0]
        bnodes = nodes_for_tags(mesh, [1, 2, 3, 4, 5, 6])
        plan = DirichletPlan(asm.pattern, bnodes)
        values = exact.copy()
        for _ in range(3):
            system = asm.assemble(values, tau=0.5)
            plan.apply(system, exact[bnodes])
            values, rep = cg_solve(system.matrix, system.rhs, values, tol=1e-14)
            assert rep.converged
        assert np.abs(values - exact).max() < 1e-10

    def test_stalled_solve_is_verify_error(self, monkeypatch):
        """A failed solve inside the MMS march surfaces as VerifyError."""
        import cryoground.simulate as simulate
        from cryoground.linalg import SolveReport

        def stall(a, b, x0, tol, max_iter, direction):
            return x0, SolveReport(max_iter, 1.0, False, 0.0)

        monkeypatch.setattr(simulate, "cg_solve", stall)
        with pytest.raises(VerifyError, match="stalled at residual"):
            run_mms((2, 2, 2), tau=0.05, t_end=0.1, case=MmsCase())

    def test_error_decreases_with_h(self):
        case = MmsCase()
        coarse = run_mms((4, 4, 4), tau=0.025, t_end=0.05, case=case)
        fine = run_mms((8, 8, 8), tau=0.025 / 4, t_end=0.05, case=case)
        assert fine < coarse

    def test_order_studies_quick(self):
        errs, orders = spatial_order_study(base_divisions=4, levels=2)
        assert len(errs) == 2 and errs[1] < errs[0]
        errs_t, orders_t = temporal_order_study(divisions=6, step_counts=(4, 8))
        assert errs_t[1] < errs_t[0]
        assert orders_t[0] > 0.7
