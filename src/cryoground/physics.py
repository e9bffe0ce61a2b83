"""Phase-change model, material mixture rules, seasonal forcing and the
freezing-column controller.

Temperatures are in degrees Celsius, volumetric heat capacities in
J/(m^3 K), conductivities in W/(m K) and the latent heat of the water-ice
transition is stored volumetrically in J/m^3.  The sharp phase indicator is
regularized over the band [t_star - delta, t_star + delta]: the fraction of
thawed pore content ramps linearly from 0 to 1 across the band, and its
derivative contributes the latent-heat spike to the effective capacity.

apparent_coefficients is the model's one coefficient law: the assembler
evaluates it on every step at the cell-mean temperatures (each row share
into its own buffers), and effective_capacity for one material.
Temperatures may be scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

FREEZING_POROUS = "freezing-porous"
SINGLE_PHASE = "single-phase"
# the model's one calendar: the forcing's period and the config's d / y suffixes
SECONDS_PER_DAY = 86400.0
DAYS_PER_YEAR = 365.0


class PhysicsError(ValueError):
    """Invalid physical parameters or material lookups."""


class UnknownRegionError(PhysicsError):
    """A mesh region tag with no material assigned."""


def _check_finite(obj, *names: str):
    """Raise PhysicsError naming the first of the fields that is not finite."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise PhysicsError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class PhaseModel:
    """Phase-change temperature, smoothing half-width and volumetric latent heat."""

    t_star: float = 0.0
    delta: float = 1.0
    latent_volumetric: float = 1.04e8

    def __post_init__(self):
        _check_finite(self, "t_star", "delta", "latent_volumetric")
        if not self.delta > 0:
            raise PhysicsError(f"delta must be > 0, got {self.delta}")
        if self.latent_volumetric < 0:
            raise PhysicsError(f"latent_volumetric must be >= 0, got {self.latent_volumetric}")


@dataclass(frozen=True)
class Material:
    """Thermal coefficients of one mesh region.

    A freezing-porous material mixes skeleton/water/ice coefficients by
    porosity and carries the latent-heat spike; a single-phase material has
    one capacity and one conductivity and no latent heat.
    """

    kind: str
    porosity: float = 0.0
    crho_sc: float = 0.0
    crho_w: float = 0.0
    crho_i: float = 0.0
    lambda_sc: float = 0.0
    lambda_w: float = 0.0
    lambda_i: float = 0.0
    crho: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        _check_finite(self, *(f.name for f in fields(self) if f.name != "kind"))

    @classmethod
    def freezing_porous(
        cls, porosity, crho_sc, crho_w, crho_i, lambda_sc, lambda_w, lambda_i
    ) -> "Material":
        if not 0.0 < porosity < 1.0:
            raise PhysicsError(f"porosity must be in (0, 1), got {porosity}")
        vals = dict(
            crho_sc=crho_sc,
            crho_w=crho_w,
            crho_i=crho_i,
            lambda_sc=lambda_sc,
            lambda_w=lambda_w,
            lambda_i=lambda_i,
        )
        for name, v in vals.items():
            if not v > 0:
                raise PhysicsError(f"{name} must be > 0, got {v}")
        return cls(kind=FREEZING_POROUS, porosity=float(porosity), **vals)

    @classmethod
    def single_phase(cls, crho, lam) -> "Material":
        if not crho > 0 or not lam > 0:
            raise PhysicsError(f"single-phase coefficients must be > 0, got {crho}, {lam}")
        return cls(kind=SINGLE_PHASE, crho=float(crho), lam=float(lam))


@dataclass(frozen=True)
class MaterialTable:
    """Region tag -> material map plus the shared phase model."""

    materials: dict[int, Material]
    phase: PhaseModel = field(default_factory=PhaseModel)

    def for_region(self, tag: int) -> Material:
        try:
            return self.materials[int(tag)]
        except KeyError:
            raise UnknownRegionError(
                f"no material assigned to region tag {int(tag)}"
            ) from None

    def latent_for(self, mat: Material) -> float:
        """Volumetric latent heat active in this material (zero for single-phase)."""
        return self.phase.latent_volumetric if mat.kind == FREEZING_POROUS else 0.0


def phi_delta(t, model: PhaseModel):
    """Smoothed thaw fraction: 0 below the band, 1 above, linear inside."""
    s = (np.asarray(t, dtype=np.float64) - model.t_star + model.delta) / (2.0 * model.delta)
    out = np.clip(s, 0.0, 1.0)
    return out if out.ndim else float(out)


def phi_delta_prime(t, model: PhaseModel):
    """Derivative of the thaw fraction: 1/(2*delta) strictly inside the band.

    Both band endpoints belong to the outer branches and return 0.
    """
    t = np.asarray(t, dtype=np.float64)
    inside = (t > model.t_star - model.delta) & (t < model.t_star + model.delta)
    out = np.where(inside, 1.0 / (2.0 * model.delta), 0.0)
    return out if out.ndim else float(out)


def frozen_thawed_coeffs(mat: Material) -> tuple[float, float, float, float]:
    """(crho_frozen, crho_thawed, lambda_frozen, lambda_thawed) for a material.

    Porous mixture rule: skeleton weighted by (1 - porosity), ice or water by
    porosity.  Single-phase materials collapse to their one value.
    """
    if mat.kind == SINGLE_PHASE:
        return mat.crho, mat.crho, mat.lam, mat.lam
    m = mat.porosity
    crho_minus = (1.0 - m) * mat.crho_sc + m * mat.crho_i
    crho_plus = (1.0 - m) * mat.crho_sc + m * mat.crho_w
    lam_minus = (1.0 - m) * mat.lambda_sc + m * mat.lambda_i
    lam_plus = (1.0 - m) * mat.lambda_sc + m * mat.lambda_w
    return crho_minus, crho_plus, lam_minus, lam_plus


def apparent_coefficients(t, model: PhaseModel, crm, dcr, lamm, dlam, latent, out=None):
    """Apparent volumetric capacity c and conductivity lam at temperatures t.

    phi = (t - t_star + delta) / (2 delta) clipped to [0, 1],
    lam = phi * dlam + lamm and c = phi * dcr + crm, plus latent / (2 delta)
    strictly inside the band (both band ends belong to the outer branches).
    crm, lamm are the frozen values and dcr, dlam the thawed minus the frozen
    ones, scalars or arrays like t.  ``out`` = (c, lam, inside, below) are
    float and bool arrays like t that receive c, lam and the band tests, so
    that with a scalar latent nothing is allocated.  Returns (c, lam), as
    floats for a scalar t.
    """
    if out is None:
        shape = np.shape(t)
        out = np.empty(shape), np.empty(shape), np.empty(shape, bool), np.empty(shape, bool)
    c, lam, inside, below = out
    # c holds phi until lam is formed from it
    np.subtract(t, model.t_star, out=c)
    c += model.delta
    c /= 2.0 * model.delta
    np.clip(c, 0.0, 1.0, out=c)
    np.multiply(c, dlam, out=lam)
    lam += lamm
    c *= dcr
    c += crm
    np.greater(t, model.t_star - model.delta, out=inside)
    np.less(t, model.t_star + model.delta, out=below)
    inside &= below
    np.add(c, latent / (2.0 * model.delta), out=c, where=inside)
    return (c, lam) if c.ndim else (float(c), float(lam))


def effective_capacity(t, mat: Material, model: PhaseModel):
    """Apparent volumetric heat capacity of a material, latent-heat spike
    included (zero for single-phase materials): the c of
    apparent_coefficients."""
    crm, crp, lamm, lamp = frozen_thawed_coeffs(mat)
    latent = model.latent_volumetric if mat.kind == FREEZING_POROUS else 0.0
    return apparent_coefficients(t, model, crm, crp - crm, lamm, lamp - lamm, latent)[0]


@dataclass(frozen=True)
class SeasonalForcing:
    """Sinusoidal yearly air temperature; defaults give
    41*sin(2*pi*(t/86400 + 250)/365) - 10.2 degrees C."""

    amplitude: float = 41.0
    day_offset: float = 250.0
    mean: float = -10.2

    def __post_init__(self):
        _check_finite(self, "amplitude", "day_offset", "mean")


def air_temperature(t, forcing: SeasonalForcing = SeasonalForcing()):
    """Ambient air temperature (deg C) at time t (seconds)."""
    days = np.asarray(t, dtype=np.float64) / SECONDS_PER_DAY
    out = (
        forcing.amplitude * np.sin(2.0 * np.pi * (days + forcing.day_offset) / DAYS_PER_YEAR)
        + forcing.mean
    )
    return out if out.ndim else float(out)


ALWAYS_ON = "always_on"
ALWAYS_OFF = "always_off"
SEASONAL = "seasonal"
_MODES = (ALWAYS_ON, ALWAYS_OFF, SEASONAL)


@dataclass(frozen=True)
class ColumnController:
    """Switching rule for the freezing columns.

    In seasonal mode the columns are active whenever the air is colder than
    the ground at the reference probe, so a passive device only ever
    extracts heat.  ``literal_paper_rule`` flips the comparison (active when
    the ground is colder than the air), kept for experiments with that
    inverted formulation of the switching rule.  ``column_temperature``
    overrides the imposed boundary value (None means: use current air
    temperature).  ``probe_point`` is resolved to the nearest mesh node by
    the simulation driver.
    """

    column_tags: frozenset[int] = frozenset()
    mode: str = SEASONAL
    literal_paper_rule: bool = False
    column_temperature: float | None = None
    probe_point: tuple[float, float, float] | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise PhysicsError(f"controller mode must be one of {_MODES}, got {self.mode!r}")
        if self.mode != ALWAYS_OFF and not self.column_tags:
            raise PhysicsError(f"column_tags must be nonempty for mode {self.mode!r}")
        if self.column_temperature is not None:
            _check_finite(self, "column_temperature")


def columns_active(
    t: float, soil_ref_t: float, ctrl: ColumnController, forcing: SeasonalForcing
) -> bool:
    """Decide whether the freezing columns extract heat at time t."""
    if ctrl.mode == ALWAYS_ON:
        return True
    if ctrl.mode == ALWAYS_OFF:
        return False
    t_air = air_temperature(t, forcing)
    if ctrl.literal_paper_rule:
        return soil_ref_t < t_air
    return t_air < soil_ref_t
