import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cryoground.linalg import matvec_into
from cryoground.physics import (
    ColumnController,
    Material,
    MaterialTable,
    PhaseModel,
    PhysicsError,
    SeasonalForcing,
    UnknownRegionError,
    air_temperature,
    apparent_coefficients,
    band_limits,
    columns_active,
    effective_capacity,
    frozen_thawed_coeffs,
    node_limits,
    phi_delta,
    phi_delta_prime,
)
from cryoground.scenario import default_materials
from cryoground.verify import MmsCase

MODEL = PhaseModel(t_star=0.0, delta=1.0, latent_volumetric=1.04e8)

temps = st.floats(min_value=-60.0, max_value=60.0, allow_nan=False)


class TestPhiDelta:
    @pytest.mark.parametrize("t,expected", [(-2.0, 0.0), (0.0, 0.5), (0.5, 0.75), (3.0, 1.0)])
    def test_values(self, t, expected):
        assert phi_delta(t, MODEL) == pytest.approx(expected, abs=1e-15)

    def test_array_input(self):
        out = phi_delta(np.array([-2.0, 0.0, 0.5]), MODEL)
        assert np.allclose(out, [0.0, 0.5, 0.75])

    @given(temps, temps)
    @settings(max_examples=100)
    def test_monotone_nondecreasing(self, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        assert phi_delta(lo, MODEL) <= phi_delta(hi, MODEL)

    @given(temps)
    def test_bounded(self, t):
        assert 0.0 <= phi_delta(t, MODEL) <= 1.0

    def test_sharp_limit(self):
        # pointwise convergence to the indicator away from t_star
        for t in (-0.5, 0.3):
            expected = 0.0 if t < 0 else 1.0
            errs = [
                abs(phi_delta(t, PhaseModel(0.0, d, 0.0)) - expected) for d in (1.0, 0.1, 0.01)
            ]
            assert errs[0] >= errs[1] >= errs[2]
            assert errs[2] == 0.0


class TestPhiDeltaPrime:
    @pytest.mark.parametrize("t,expected", [(-5.0, 0.0), (0.0, 0.5), (1.0, 0.0), (-1.0, 0.0)])
    def test_values(self, t, expected):
        assert phi_delta_prime(t, MODEL) == pytest.approx(expected, abs=1e-15)

    @given(temps)
    def test_nonnegative(self, t):
        assert phi_delta_prime(t, MODEL) >= 0.0

    def test_integrates_to_one(self):
        # trapezoid quadrature over the open band (the endpoints belong to
        # the outer branches and carry no measure)
        eps = 1e-12
        t = np.linspace(-1.0 + eps, 1.0 - eps, 20001)
        total = np.trapezoid(phi_delta_prime(t, MODEL), t)
        assert total == pytest.approx(1.0, abs=1e-10)


class TestMixtures:
    def test_porous_capacities(self):
        mat = Material.freezing_porous(0.5, 2.0e6, 4.2e6, 1.9e6, 2.0, 0.6, 2.2)
        crm, crp, lamm, lamp = frozen_thawed_coeffs(mat)
        assert crm == pytest.approx(1.95e6)
        assert crp == pytest.approx(3.10e6)
        assert lamm == pytest.approx(0.5 * 2.0 + 0.5 * 2.2)
        assert lamp == pytest.approx(0.5 * 2.0 + 0.5 * 0.6)

    def test_porosity_zero_limit(self):
        mat = Material.freezing_porous(1e-12, 2.0e6, 4.2e6, 1.9e6, 2.0, 0.6, 2.2)
        crm, crp, lamm, lamp = frozen_thawed_coeffs(mat)
        assert crm == pytest.approx(2.0e6, rel=1e-6)
        assert crp == pytest.approx(2.0e6, rel=1e-6)
        assert lamm == pytest.approx(2.0, rel=1e-6)

    def test_single_phase_cement(self):
        mat = Material.single_phase(crho=0.8e6, lam=0.21)
        assert frozen_thawed_coeffs(mat) == (0.8e6, 0.8e6, 0.21, 0.21)

    def test_material_validation(self):
        with pytest.raises(PhysicsError):
            Material.freezing_porous(1.5, 1, 1, 1, 1, 1, 1)
        with pytest.raises(PhysicsError):
            Material.single_phase(crho=-1.0, lam=1.0)

    def test_unknown_region(self):
        table = MaterialTable({1: Material.single_phase(1.0, 1.0)}, MODEL)
        with pytest.raises(UnknownRegionError, match="99"):
            table.for_region(99)


def law(t, crm, crp, lamm, lamp, latent=0.0):
    return apparent_coefficients(t, MODEL, crm, crp - crm, lamm, lamp - lamm, latent)


class TestInterpolants:
    """The frozen/thawed interpolation of apparent_coefficients (band
    [-1, 1] of MODEL, whose ends belong to the outer branches)."""

    def test_endpoints(self):
        assert law(-1.0, 1e6, 3e6, 2.2, 0.6)[0] == 1e6
        assert law(1.0, 1e6, 3e6, 2.2, 0.6)[0] == 3e6
        assert law(1.0, 1e6, 3e6, 2.2, 0.6)[1] == pytest.approx(0.6)

    def test_interior(self):
        assert law(-0.5, 1e6, 3e6, 2.2, 0.6)[0] == pytest.approx(1.5e6)

    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    @settings(max_examples=50)
    def test_affine(self, t1, t2, t3):
        # three-point collinearity: second differences vanish
        ts = sorted([t1, t2, t3])
        ys = [law(t, 1e6, 3e6, 2.2, 0.6)[0] for t in ts]
        interp = ys[0] + (ys[2] - ys[0]) * (
            0.0 if ts[2] == ts[0] else (ts[1] - ts[0]) / (ts[2] - ts[0])
        )
        assert ys[1] == pytest.approx(interp, abs=1e-6 * 3e6)

    def test_writes_into_caller_arrays(self):
        t = np.array([-5.0, -1.0, 0.0, 0.5, 1.0, 5.0])
        out = np.empty(6), np.empty(6), np.empty(6, bool), np.empty(6, bool)
        c, lam = apparent_coefficients(t, MODEL, 1e6, 2e6, 2.2, -1.6, 1.04e8, out=out)
        assert c is out[0] and lam is out[1]
        expected = law(t, 1e6, 3e6, 2.2, 0.6, 1.04e8)
        assert c.tobytes() == expected[0].tobytes() and lam.tobytes() == expected[1].tobytes()
        assert out[2].tolist() == [False, False, True, True, False, False]


class TestBandLimits:
    """band_limits(model) = (lo, hi): the law gives the frozen (lam, c) bits
    at lo and at every t below it, and the thawed ones at hi and above.  The
    assembler's fill reuse compares cell means clipped to (lo, hi), so a
    limit inside the band would reuse coefficients that changed."""

    # the last two are cases where a band end t_star -/+ delta, rounded,
    # still gives a phi strictly between 0 and 1 (see the test below)
    CASES = [(0.0, 1.0), (0.1, 0.3), (-0.7, 0.05), (3.3, 1e-9), (0.0, 7.5), (1.88, 0.267),
             (2.61, 1.253)]

    @pytest.mark.parametrize("t_star, delta", CASES)
    @pytest.mark.parametrize("dcr, dlam", [(1e6, -1.6), (-3e5, 0.35)])
    def test_law_constant_beyond_limits(self, t_star, delta, dcr, dlam):
        model = PhaseModel(t_star=t_star, delta=delta, latent_volumetric=1.04e8)
        lo, hi = band_limits(model)
        # the limits sit on the band ends or a few ulps outside them
        low, high = t_star - delta, t_star + delta
        assert low - 4 * np.spacing(abs(low)) <= lo <= low
        assert high <= hi <= high + 4 * np.spacing(abs(high))
        ulps = np.arange(4000)
        below = np.concatenate([
            lo - ulps * np.spacing(abs(lo)),  # the limit and its neighbours
            lo - np.geomspace(1e-12, 1e3, 4000) * delta,
            [-1e30, np.nextafter(lo, -np.inf)],
        ])
        above = np.concatenate([
            hi + ulps * np.spacing(abs(hi)),
            hi + np.geomspace(1e-12, 1e3, 4000) * delta,
            [1e30, np.nextafter(hi, np.inf)],
        ])
        crm, lamm = 1.9e6, 1.2
        for t, (c_want, lam_want) in ((below, (crm, lamm)), (above, (crm + dcr, lamm + dlam))):
            assert (t <= lo).all() if t is below else (t >= hi).all()
            c, lam = apparent_coefficients(t, model, crm, dcr, lamm, dlam, model.latent_volumetric)
            assert c.tobytes() == np.full(len(t), c_want).tobytes()
            assert lam.tobytes() == np.full(len(t), lam_want).tobytes()

    def test_rounded_band_end_can_lie_inside(self):
        """The limits step past a rounded band end that the law still puts
        inside the ramp, so they cannot be the band ends themselves."""
        for (t_star, delta), end, side in (((1.88, 0.267), 0, 0.0), ((2.61, 1.253), 1, 1.0)):
            model = PhaseModel(t_star=t_star, delta=delta)
            t = (t_star - delta, t_star + delta)[end]
            assert apparent_coefficients(t, model, 0.0, 1.0, 0.0, 0.0, 0.0)[0] != side
            assert band_limits(model)[end] == np.nextafter(t, (-np.inf, np.inf)[end])


class TestNodeLimits:
    """node_limits(model) = (lo_n, hi_n): a cell whose four nodes all lie at
    or below lo_n gets the key lo of band_limits (the clipped cell mean) and
    one whose nodes all lie at or above hi_n the key hi, so the fill's
    prefilter may skip their means.  Checked through the cell-mean kernel
    and the clip the fill runs, for the well's, the Neumann study's and the
    MMS phase models and the band-limit cases."""

    MODELS = {
        "well": default_materials().phase,
        "mms": MmsCase().table().phase,
        **{f"neumann{k}": PhaseModel(0.0, 0.1 / 2**k, 2.0e6) for k in range(3)},
        **{f"band{t_star},{delta}": PhaseModel(t_star, delta) for t_star, delta in TestBandLimits.CASES},
    }

    @pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
    def test_certain_cells_key_exactly(self, model):
        lo, hi = band_limits(model)
        lo_n, hi_n = node_limits(model)
        # the node limits sit on the key limits or a few ulps beyond them
        assert lo - 8 * np.spacing(abs(lo)) <= lo_n <= lo
        assert hi <= hi_n <= hi + 8 * np.spacing(abs(hi))
        rng = np.random.default_rng(17)
        for limit, key, outwards in ((lo_n, lo, -np.inf), (hi_n, hi, np.inf)):
            near = [limit]
            for _ in range(300):  # the limit and its neighbours beyond it
                near.append(np.nextafter(near[-1], outwards))
            sign = np.sign(outwards)
            far = limit + sign * np.geomspace(1e-12, 1e3, 300) * model.delta
            values = np.concatenate([near, far, [sign * 1e30]])
            # four nodes at the limit, mixes of near ones, mixes with far ones
            cells = np.concatenate([
                np.zeros((1, 4), dtype=np.int64),
                rng.integers(0, len(near), (20000, 4)),
                rng.integers(0, len(values), (20000, 4)),
            ])
            m = len(cells)
            mean = sp.csr_matrix(
                (np.full(4 * m, 0.25), cells.ravel(), np.arange(0, 4 * m + 1, 4)),
                shape=(m, len(values)),
            )
            got = np.empty(m)
            matvec_into(mean, values, got)
            np.clip(got, lo, hi, out=got)
            assert (got == key).all()


class TestEffectiveCapacity:
    SOIL = Material.freezing_porous(0.5, 2.0e6, 2.0e6, 2.0e6, 2.0, 2.0, 2.0)

    def test_deep_frozen_is_exact(self):
        crm, _, _, _ = frozen_thawed_coeffs(self.SOIL)
        assert effective_capacity(-40.0, self.SOIL, MODEL) == crm

    def test_latent_spike_at_tstar(self):
        # equal capacities 2e6 plus 1.04e8 / (2 * 1)
        assert effective_capacity(0.0, self.SOIL, MODEL) == pytest.approx(2e6 + 5.2e7)

    def test_zero_latent_reduces_to_alpha(self):
        model = PhaseModel(0.0, 1.0, 0.0)
        soil = Material.freezing_porous(0.5, 2.0e6, 4.2e6, 1.9e6, 2.0, 0.6, 2.2)
        for t in np.linspace(-3, 3, 13):
            crm, crp, _, _ = frozen_thawed_coeffs(soil)
            assert effective_capacity(t, soil, model) == pytest.approx(
                crm + phi_delta(t, model) * (crp - crm)
            )

    def test_single_phase_has_no_spike(self):
        mat = Material.single_phase(0.8e6, 0.21)
        assert effective_capacity(0.0, mat, MODEL) == pytest.approx(0.8e6)

    @given(temps)
    @settings(max_examples=100)
    def test_lower_bound(self, t):
        soil = Material.freezing_porous(0.5, 2.0e6, 4.2e6, 1.9e6, 2.0, 0.6, 2.2)
        crm, crp, _, _ = frozen_thawed_coeffs(soil)
        assert effective_capacity(t, soil, MODEL) >= min(crm, crp) - 1e-9


class TestAirTemperature:
    def test_at_zero(self):
        # 41 sin(2 pi 250 / 365) - 10.2, evaluated independently
        assert air_temperature(0.0) == pytest.approx(-47.820928668435143, abs=1e-9)

    def test_maximum(self):
        t = 206.25 * 86400.0
        assert air_temperature(t) == pytest.approx(30.8, abs=1e-12)

    def test_periodicity(self):
        f = SeasonalForcing()
        for t in (0.0, 3.7e6, 2.2e7):
            year = 365.0 * 86400.0
            assert air_temperature(t, f) == pytest.approx(air_temperature(t + year, f), abs=1e-9)

    def test_independent_reevaluation(self):
        f = SeasonalForcing()
        for day in range(0, 365, 30):
            t = day * 86400.0
            expected = 41.0 * math.sin(2.0 * math.pi * (day + 250.0) / 365.0) - 10.2
            assert air_temperature(t, f) == pytest.approx(expected, abs=1e-12)


class TestColumnController:
    FORCING = SeasonalForcing()

    def ctrl(self, mode, literal=False):
        return ColumnController(
            column_tags=frozenset({201}), mode=mode, literal_paper_rule=literal,
            probe_point=(0.0, 0.0, 0.0),
        )

    def test_always_off(self):
        ctrl = ColumnController(mode="always_off")
        assert columns_active(0.0, -100.0, ctrl, self.FORCING) is False

    def test_always_on(self):
        assert columns_active(0.0, 100.0, self.ctrl("always_on"), self.FORCING) is True

    def test_seasonal_cold_air(self):
        # t = 0 gives air around -47.8; soil at -5 -> columns extract heat
        assert columns_active(0.0, -5.0, self.ctrl("seasonal"), self.FORCING) is True

    def test_seasonal_warm_air(self):
        t_summer = 206.25 * 86400.0  # air at +30.8
        assert columns_active(t_summer, -2.0, self.ctrl("seasonal"), self.FORCING) is False

    def test_literal_rule_flips(self):
        ctrl = self.ctrl("seasonal", literal=True)
        assert columns_active(0.0, -5.0, ctrl, self.FORCING) is False
        assert columns_active(206.25 * 86400.0, -2.0, ctrl, self.FORCING) is True

    def test_validation(self):
        with pytest.raises(PhysicsError):
            ColumnController(mode="sometimes")
        with pytest.raises(PhysicsError):
            ColumnController(mode="seasonal", column_tags=frozenset())


class TestPhaseModelValidation:
    def test_delta_positive(self):
        with pytest.raises(PhysicsError):
            PhaseModel(0.0, 0.0, 1e8)

    def test_latent_nonnegative(self):
        with pytest.raises(PhysicsError):
            PhaseModel(0.0, 1.0, -1.0)


class TestNonFiniteRejected:
    """Every number of the physics dataclasses must be finite; a NaN or an
    infinity from a Python caller is a PhysicsError naming the field."""

    @pytest.mark.parametrize("name", ["t_star", "delta", "latent_volumetric"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_phase_model(self, name, value):
        with pytest.raises(PhysicsError, match=name):
            PhaseModel(**{name: value})

    @pytest.mark.parametrize("name", ["amplitude", "day_offset", "mean"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_seasonal_forcing(self, name, value):
        with pytest.raises(PhysicsError, match=name):
            SeasonalForcing(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_column_temperature(self, value):
        with pytest.raises(PhysicsError, match="column_temperature"):
            ColumnController(
                mode="always_on", column_tags=frozenset({5}), column_temperature=value
            )

    @pytest.mark.parametrize(
        "name",
        ["crho_sc", "crho_w", "crho_i", "lambda_sc", "lambda_w", "lambda_i", "crho", "lam"],
    )
    def test_material_coefficient(self, name):
        with pytest.raises(PhysicsError, match=name):
            Material(kind="single-phase", **{name: math.inf})

    def test_material_constructors(self):
        with pytest.raises(PhysicsError, match="crho"):
            Material.single_phase(crho=math.inf, lam=1.0)
        with pytest.raises(PhysicsError, match="lambda_w"):
            Material.freezing_porous(0.4, 2e6, 4e6, 2e6, 2.0, math.inf, 2.2)
