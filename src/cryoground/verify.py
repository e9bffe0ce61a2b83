"""Independent oracles: the one-phase Neumann similarity solution and
manufactured-solution convergence drivers.

The full-scale claims of the target application (multi-million-cell runs)
cannot be checked on a desk, so the discretization is validated against
closed forms instead: the classical melting-front solution X(t) =
2 lambda_s sqrt(a t) exercises the latent-heat handling, and a smooth
manufactured solution with a closed-form source measures the spatial and
temporal convergence orders with the latent term disabled.

The oracles share no code with the discretization they check.  They take
the error function from scipy (scipy.special.erf), which is a dependency of
the package, not code under test, imported on first use: it adds about 6 MB
to the resident set of every process that imports the package.  The root
of the transcendental Stefan relation is a plain bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem import TemperatureField
from .linalg import cg_solve  # noqa: F401  unused; benchmarks/spans.py patches verify.cg_solve
from .mesh import BoxMeshSpec, Mesh, generate_box
from .physics import Material, MaterialTable, PhaseModel
from .simulate import Simulation, SimulationConfig, SolverFailure


class VerifyError(RuntimeError):
    """An oracle could not be evaluated: a parameter outside its domain, a
    Stefan number whose root lies outside the search bracket, or a stalled
    MMS solve."""


def erf(x):
    """The error function, scipy.special.erf."""
    from scipy.special import erf as scipy_erf

    return scipy_erf(x)


# ---------------------------------------------------------------------------
# Neumann (one-phase Stefan) similarity solution
# ---------------------------------------------------------------------------


def _stefan_relation(lam: float, beta: float) -> float:
    return math.sqrt(math.pi) * lam * math.exp(lam * lam) * erf(lam) - beta


def neumann_lambda(beta: float) -> float:
    """Similarity constant: solves sqrt(pi) L e^{L^2} erf(L) = beta by
    bisection on the bracket [1e-8, 5], until the bracket stops shrinking;
    returns the end of the last bracket with the smaller residual."""
    if not beta > 0:
        raise VerifyError(f"beta must be > 0, got {beta}")
    lo, hi = 1e-8, 5.0
    f_lo, f_hi = _stefan_relation(lo, beta), _stefan_relation(hi, beta)
    if f_lo > 0 or f_hi < 0:
        raise VerifyError(
            f"beta {beta} outside the root bracket [{lo}, {hi}] "
            f"(f span [{f_lo:.3e}, {f_hi:.3e}])"
        )
    while lo < (mid := 0.5 * (lo + hi)) < hi:  # the relation increases with L
        f_mid = _stefan_relation(mid, beta)
        lo, hi, f_lo, f_hi = (lo, mid, f_lo, f_mid) if f_mid > 0 else (mid, hi, f_mid, f_hi)
    return lo if abs(f_lo) <= abs(f_hi) else hi


@dataclass(frozen=True)
class NeumannCase:
    """One-phase melting benchmark: wall at t_w, bulk initially at the phase
    temperature, front at X(t) = 2 lambda_s sqrt(a t)."""

    a: float  # thermal diffusivity of the active phase, m^2/s
    t_w: float  # wall temperature, deg C
    t_star: float  # phase-change (and far-field) temperature, deg C
    beta: float  # Stefan number crho (t_w - t_star) / latent_volumetric
    lambda_s: float  # similarity constant

    @classmethod
    def create(cls, a: float, t_w: float, t_star: float, beta: float) -> "NeumannCase":
        if not a > 0:
            raise VerifyError(f"diffusivity must be > 0, got {a}")
        if not t_w > t_star:
            raise VerifyError(f"melting case needs t_w > t_star, got {t_w} <= {t_star}")
        return cls(a, t_w, t_star, beta, neumann_lambda(beta))

    def front_position(self, t) -> np.ndarray:
        return 2.0 * self.lambda_s * np.sqrt(self.a * np.asarray(t, dtype=np.float64))

    def temperature(self, x, t):
        """Exact profile; the solid region beyond the front sits at t_star."""
        x = np.asarray(x, dtype=np.float64)
        arg = x / (2.0 * math.sqrt(self.a * t))
        profile = self.t_w - (self.t_w - self.t_star) * erf(arg) / erf(self.lambda_s)
        return np.maximum(profile, self.t_star)


@dataclass
class NeumannReport:
    """Front-position comparison at sampled times."""

    case: NeumannCase
    cells: int
    tau: float
    delta: float
    times: np.ndarray
    front_exact: np.ndarray
    front_sim: np.ndarray
    rel_error: np.ndarray
    max_rel_error: float  # over samples past the first 10% of the run

    def as_csv(self) -> str:
        lines = ["t_seconds,front_exact_m,front_sim_m,rel_error"]
        for t, fe, fs, re_ in zip(self.times, self.front_exact, self.front_sim, self.rel_error):
            lines.append(f"{t:.17g},{fe:.17g},{fs:.17g},{re_:.17g}")
        return "\n".join(lines) + "\n"


def _front_from_line(x_line: np.ndarray, t_line: np.ndarray, t_star: float) -> float:
    """Locate the t_star crossing along the x-axis node line by linear
    interpolation (first crossing walking away from the hot wall)."""
    above = t_line > t_star
    if not above[0]:
        return 0.0
    if above.all():
        return float(x_line[-1])
    i = int(np.argmin(above))  # first node at or below t_star
    x0, x1 = x_line[i - 1], x_line[i]
    t0, t1 = t_line[i - 1], t_line[i]
    if t0 == t1:
        return float(x0)
    return float(x0 + (t0 - t_star) * (x1 - x0) / (t0 - t1))


def run_neumann_benchmark(
    cells: int = 40,
    tau: float = 2000.0,
    delta: float = 0.1,
    beta: float = 1.0,
    samples: int = 10,
    crho: float = 2.0e6,
    lam: float = 2.0,
    length: float = 1.0,
) -> NeumannReport:
    """Melt a quasi-1D bar from the -x wall and compare the simulated front
    (the t_star level set along the axis node line) with the similarity
    solution at evenly spaced sample times.

    The material is porous with identical frozen/thawed coefficients so only
    the latent spike distinguishes the phases; the latent heat is set from
    the requested Stefan number.  The initial temperature is t_star - delta,
    the frozen edge of the smoothing band.
    """
    if cells < 1:
        raise VerifyError(f"cells must be >= 1, got {cells}")
    if samples < 1:
        raise VerifyError(f"samples must be >= 1, got {samples}")
    if not 0 < tau < math.inf:
        raise VerifyError(f"tau must be > 0 and finite, got {tau}")
    t_star, t_w = 0.0, 1.0
    a = lam / crho
    case = NeumannCase.create(a, t_w, t_star, beta)
    latent = crho * (t_w - t_star) / beta

    h = length / cells
    spec = BoxMeshSpec((length, 2 * h, 2 * h), (int(cells), 2, 2))
    material = Material.freezing_porous(
        porosity=0.5,
        crho_sc=crho,
        crho_w=crho,
        crho_i=crho,
        lambda_sc=lam,
        lambda_w=lam,
        lambda_i=lam,
    )
    table = MaterialTable({1: material}, PhaseModel(t_star, delta, latent))

    # stop when the exact front reaches 80% of the bar
    t_end = (0.8 * length / (2.0 * case.lambda_s)) ** 2 / a
    if not t_end / tau < 2.0**63:
        raise VerifyError(f"tau = {tau:g} s needs {t_end / tau:.3g} steps, more than int64 counts")
    n_steps = math.ceil(t_end / tau)

    config = SimulationConfig(
        mesh=spec,
        table=table,
        tau=tau,
        t_max=n_steps * tau,
        initial_temperature=t_star - delta,
        dirichlet={1: t_w},
        cadence=10**9,
    )
    sim = Simulation(config)
    on_axis = np.flatnonzero((sim.mesh.nodes[:, 1] == 0.0) & (sim.mesh.nodes[:, 2] == 0.0))
    on_axis = on_axis[np.argsort(sim.mesh.nodes[on_axis, 0])]
    x_line = sim.mesh.nodes[on_axis, 0]

    sample_steps = np.unique(
        np.maximum(1, np.round(np.linspace(1, n_steps, samples)).astype(int))
    )
    times, fronts = [], []
    for _ in range(n_steps):
        rec = sim.step()
        if rec.step in sample_steps:
            times.append(rec.t_cur)
            fronts.append(_front_from_line(x_line, sim.field.values[on_axis], t_star))
    sim.close()

    times = np.array(times)
    front_sim = np.array(fronts)
    front_exact = case.front_position(times)
    rel = np.abs(front_sim - front_exact) / front_exact
    late = times >= 0.1 * n_steps * tau
    return NeumannReport(
        case=case,
        cells=int(cells),
        tau=tau,
        delta=delta,
        times=times,
        front_exact=front_exact,
        front_sim=front_sim,
        rel_error=rel,
        max_rel_error=float(rel[late].max()),
    )


def neumann_convergence(
    levels: int = 3,
    cells: int = 40,
    tau: float = 2000.0,
    delta: float = 0.1,
    beta: float = 1.0,
) -> list[NeumannReport]:
    """Run the benchmark at ``levels`` refinements, halving h, tau and the
    smoothing width together."""
    return [
        run_neumann_benchmark(
            cells=cells * 2**k, tau=tau / 2**k, delta=delta / 2**k, beta=beta
        )
        for k in range(levels)
    ]


# ---------------------------------------------------------------------------
# method of manufactured solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MmsCase:
    """Separable manufactured solution

        T(x, t) = offset + amplitude * cos(pi x / Lx) cos(pi y / Ly)
                  * cos(pi z / Lz) * exp(-t / t_decay)

    on a single-phase material; offset keeps all values above the phase
    band so every coefficient is constant.
    """

    crho: float = 1.0
    lam: float = 1.0
    lengths: tuple[float, float, float] = (1.0, 1.0, 1.0)
    amplitude: float = 1.0
    offset: float = 10.0
    t_decay: float = 1.0

    def _shape(self, points: np.ndarray) -> np.ndarray:
        lx, ly, lz = self.lengths
        return (
            np.cos(np.pi * points[:, 0] / lx)
            * np.cos(np.pi * points[:, 1] / ly)
            * np.cos(np.pi * points[:, 2] / lz)
        )

    def exact(self, points: np.ndarray, t: float) -> np.ndarray:
        return self.offset + self.amplitude * self._shape(points) * math.exp(-t / self.t_decay)

    def source(self, points: np.ndarray, t: float) -> np.ndarray:
        """f = crho dT/dt - lam Lap(T), in closed form."""
        lx, ly, lz = self.lengths
        lap_factor = np.pi**2 * (1.0 / lx**2 + 1.0 / ly**2 + 1.0 / lz**2)
        wiggle = self.amplitude * self._shape(points) * math.exp(-t / self.t_decay)
        return (-self.crho / self.t_decay + self.lam * lap_factor) * wiggle

    def table(self) -> MaterialTable:
        return MaterialTable(
            {1: Material.single_phase(self.crho, self.lam)},
            PhaseModel(t_star=0.0, delta=1.0, latent_volumetric=0.0),
        )


def _march_mms(
    case: MmsCase, mesh: Mesh, tau: float, n_steps: int, solver_tol: float
) -> Simulation:
    """Step the manufactured problem n_steps times from the exact initial
    field, with exact Dirichlet data on all six box faces; returns the
    closed simulation at its final level."""
    config = SimulationConfig(
        mesh=mesh,
        table=case.table(),
        tau=tau,
        t_max=n_steps * tau,
        dirichlet=dict.fromkeys(range(1, 7), case.exact),
        cadence=10**9,
        solver_tol=solver_tol,
        solver_max_iter=20000,
        source=case.source,
    )
    sim = Simulation(config)
    sim.field = TemperatureField(case.exact(sim.mesh.nodes, 0.0), 0.0)
    try:
        for _ in range(n_steps):
            sim.step()
    except SolverFailure as e:
        raise VerifyError(f"MMS solve stalled at residual {e.record.solver.residual:.3e}") from e
    finally:
        sim.close()
    return sim


def _l2_norm(sim: Simulation, values: np.ndarray) -> float:
    """Volume-weighted RMS of nodal values over the simulation's mesh."""
    w = sim.assembler.node_volumes
    return float(np.sqrt(np.sum(w * values * values) / np.sum(w)))


def run_mms(
    divisions: tuple[int, int, int],
    tau: float,
    t_end: float,
    case: MmsCase,
    solver_tol: float = 1e-12,
) -> float:
    """March the manufactured problem to t_end with exact Dirichlet data on
    all six faces; returns the volume-weighted L2 error at t_end."""
    mesh = generate_box(BoxMeshSpec(case.lengths, divisions))
    sim = _march_mms(case, mesh, tau, round(t_end / tau), solver_tol)
    return _l2_norm(sim, sim.field.values - case.exact(mesh.nodes, sim.field.time))


def spatial_order_study(
    case: MmsCase | None = None,
    base_divisions: int = 8,
    levels: int = 3,
    t_end: float = 0.1,
    base_steps: int = 2,
) -> tuple[list[float], list[float]]:
    """L2 errors and observed orders halving h per level; the step count
    scales with 1/h^2 so the first-order time error stays subdominant."""
    case = case or MmsCase()
    errors = []
    for k in range(levels):
        d = base_divisions * 2**k
        steps = base_steps * 4**k
        errors.append(run_mms((d, d, d), t_end / steps, t_end, case))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(levels - 1)]
    return errors, orders


def temporal_order_study(
    case: MmsCase | None = None,
    divisions: int = 12,
    t_end: float = 0.1,
    step_counts: tuple[int, ...] = (4, 8, 16),
    reference_refine: int = 8,
) -> tuple[list[float], list[float]]:
    """Temporal errors against a same-mesh fine-step reference solution.

    Comparing against the reference isolates the O(tau) error from the fixed
    spatial error, so the observed order approaches 1 cleanly.
    """
    case = case or MmsCase()
    mesh = generate_box(BoxMeshSpec(case.lengths, (divisions,) * 3))

    def march(n_steps: int) -> Simulation:
        return _march_mms(case, mesh, t_end / n_steps, n_steps, 1e-13)

    reference = march(max(step_counts) * reference_refine).field.values
    errors = []
    for n in step_counts:
        sim = march(n)
        errors.append(_l2_norm(sim, sim.field.values - reference))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    return errors, orders
