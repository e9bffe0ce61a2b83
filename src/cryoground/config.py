"""Text configuration files for simulation runs.

Format: INI-like sections of ``key = value`` lines; ``#`` starts a comment;
``paint`` and ``carve`` keys may repeat.  Unknown sections or keys are
errors (typos must not silently change a run).  Durations accept a plain
number of seconds or a number suffixed with s / d / y (seconds, days,
365-day years).  See the README for the full key reference.
"""

from __future__ import annotations

import math
from pathlib import Path

from .mesh import BoxMeshPlan, BoxMeshSpec, MeshError
from .physics import (
    DAYS_PER_YEAR,
    SECONDS_PER_DAY,
    ColumnController,
    Material,
    MaterialTable,
    PhaseModel,
    SeasonalForcing,
)
from .simulate import AIR_VALUE, SimulationConfig


class ConfigError(ValueError):
    """Malformed or inconsistent configuration file."""


_KNOWN_KEYS = {
    "mesh": {"type", "path", "extents", "divisions", "region", "paint", "carve"},
    "phase": {"t_star", "delta", "latent_volumetric"},
    "forcing": {"amplitude", "day_offset", "mean"},
    "controller": {
        "mode",
        "column_tags",
        "probe_point",
        "literal_paper_rule",
        "column_temperature",
    },
    "time": {"tau", "t_max", "initial_temperature", "restart"},
    "output": {"directory", "cadence", "probes", "write_vtk", "write_restart"},
    "solver": {"tol", "max_iter", "workers"},
}
_MATERIAL_KEYS = {
    "freezing_porous": {
        "kind",
        "porosity",
        "crho_sc",
        "crho_w",
        "crho_i",
        "lambda_sc",
        "lambda_w",
        "lambda_i",
    },
    "single_phase": {"kind", "crho", "lambda"},
}


def _parse_sections(text: str, origin: str) -> dict[str, list[tuple[str, str, int]]]:
    sections: dict[str, list[tuple[str, str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"{origin}:{lineno}: empty section name")
            sections.setdefault(current, [])
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        if current is None:
            raise ConfigError(f"{origin}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{origin}:{lineno}: empty key")
        sections[current].append((key, value, lineno))
    return sections


def _number(raw: str, where: str, what: str = "number") -> float:
    """The finite float that ``raw`` spells; ``where`` names the file and
    key, ``what`` the expected value in the error."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite {what}, got {raw!r}")
    return value


def _integer(raw: str, where: str) -> int:
    """The int that ``raw`` spells (a fraction is an error, not truncated);
    ``where`` names the file and key in the error."""
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {raw!r}") from None


def _duration(value: str, where: str) -> float:
    v = value.strip()
    factor = 1.0
    if v and v[-1] in "sdy":
        factor = {"s": 1.0, "d": SECONDS_PER_DAY, "y": DAYS_PER_YEAR * SECONDS_PER_DAY}[v[-1]]
        v = v[:-1]
    return _number(v, where, "duration") * factor


def _floats(value: str, count: int, where: str) -> tuple[float, ...]:
    parts = value.split()
    if len(parts) != count:
        raise ConfigError(f"{where}: expected {count} numbers, got {value!r}")
    return tuple(_number(p, where) for p in parts)


def _bool(value: str, where: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "yes", "on", "1"):
        return True
    if v in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {value!r}")


def _tagged_bounds(value: str, where: str) -> tuple[int, tuple[float, ...]]:
    if ":" not in value:
        raise ConfigError(f"{where}: expected 'tag : x0 x1 y0 y1 z0 z1', got {value!r}")
    tag_part, bounds_part = value.split(":", 1)
    try:
        tag = int(tag_part.strip())
    except ValueError:
        raise ConfigError(f"{where}: bad tag in {value!r}") from None
    return tag, _floats(bounds_part, 6, where)


class _Section:
    """One section's key/value pairs with single/repeated access and
    unknown-key reporting."""

    def __init__(self, name: str, items: list[tuple[str, str, int]], origin: str):
        self.name = name
        self.origin = origin
        self.items = items

    def where(self, key: str) -> str:
        return f"{self.origin}: [{self.name}] {key}"

    def check_keys(self, allowed: set[str]):
        for key, _, lineno in self.items:
            if key not in allowed:
                raise ConfigError(
                    f"{self.origin}:{lineno}: unknown key {key!r} in [{self.name}] "
                    f"(allowed: {', '.join(sorted(allowed))})"
                )
        seen = set()
        for key, _, lineno in self.items:
            if key in seen and key not in ("paint", "carve"):
                raise ConfigError(f"{self.origin}:{lineno}: duplicate key {key!r} in [{self.name}]")
            seen.add(key)

    def get(self, key: str, default: str | None = None) -> str | None:
        for k, v, _ in self.items:
            if k == key:
                return v
        return default

    def get_all(self, key: str) -> list[str]:
        return [v for k, v, _ in self.items if k == key]

    def number(self, key: str, default: str) -> float:
        return _number(self.get(key, default), self.where(key))


def _build_mesh_source(sec: _Section):
    sec.check_keys(_KNOWN_KEYS["mesh"])
    kind = sec.get("type")
    if kind == "msh":
        path = sec.get("path")
        if not path:
            raise ConfigError(f"{sec.where('path')}: required for type = msh")
        for key in ("extents", "divisions", "region", "paint", "carve"):
            if sec.get(key) is not None:
                raise ConfigError(f"{sec.where(key)}: not valid for type = msh")
        return path
    if kind == "box":
        extents = _floats(sec.get("extents", ""), 3, sec.where("extents"))
        div_raw = sec.get("divisions")
        if div_raw is None:
            raise ConfigError(f"{sec.where('divisions')}: required for type = box")
        if len(div_raw.split()) != 3:
            raise ConfigError(f"{sec.where('divisions')}: expected 3 integers, got {div_raw!r}")
        divisions = tuple(_integer(v, sec.where("divisions")) for v in div_raw.split())
        region = _integer(sec.get("region", "1"), sec.where("region"))
        paint = tuple(_tagged_bounds(v, sec.where("paint")) for v in sec.get_all("paint"))
        carve = tuple(_tagged_bounds(v, sec.where("carve")) for v in sec.get_all("carve"))
        try:
            spec = BoxMeshSpec(extents, divisions)
        except MeshError as exc:  # BoxMeshSpec checks the extents first
            key = "extents" if min(extents) <= 0 else "divisions"
            raise ConfigError(f"{sec.where(key)}: {exc}") from None
        if paint or carve or region != 1:
            return BoxMeshPlan(box=spec, region=region, paint=paint, carve=carve)
        return spec
    raise ConfigError(f"{sec.where('type')}: must be 'box' or 'msh', got {kind!r}")


def _build_material(sec: _Section) -> Material:
    kind = sec.get("kind")
    if kind not in _MATERIAL_KEYS:
        raise ConfigError(
            f"{sec.where('kind')}: must be one of {sorted(_MATERIAL_KEYS)}, got {kind!r}"
        )
    sec.check_keys(_MATERIAL_KEYS[kind])

    def num(key: str) -> float:
        raw = sec.get(key)
        if raw is None:
            raise ConfigError(f"{sec.where(key)}: required for kind = {kind}")
        return _number(raw, sec.where(key))

    if kind == "single_phase":
        return Material.single_phase(crho=num("crho"), lam=num("lambda"))
    return Material.freezing_porous(
        porosity=num("porosity"),
        crho_sc=num("crho_sc"),
        crho_w=num("crho_w"),
        crho_i=num("crho_i"),
        lambda_sc=num("lambda_sc"),
        lambda_w=num("lambda_w"),
        lambda_i=num("lambda_i"),
    )


def parse_config(path) -> SimulationConfig:
    """Parse and validate a simulation config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    origin = str(path)
    try:
        text = path.read_text()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{origin}: not a text file ({e.reason} at byte {e.start})") from None
    raw_sections = _parse_sections(text, origin)

    materials: dict[int, Material] = {}
    for name, items in raw_sections.items():
        base = name.split(".", 1)[0]
        if base == "materials":
            parts = name.split(".")
            if len(parts) != 2:
                raise ConfigError(f"{origin}: material section must be [materials.<tag>], got [{name}]")
            try:
                tag = int(parts[1])
            except ValueError:
                raise ConfigError(f"{origin}: material tag must be an integer, got [{name}]") from None
            materials[tag] = _build_material(_Section(name, items, origin))
        elif base not in _KNOWN_KEYS and base != "dirichlet":
            raise ConfigError(f"{origin}: unknown section [{name}]")

    def section(name: str) -> _Section:
        return _Section(name, raw_sections.get(name, []), origin)

    if "mesh" not in raw_sections:
        raise ConfigError(f"{origin}: missing required [mesh] section")
    if not materials:
        raise ConfigError(f"{origin}: at least one [materials.<tag>] section is required")
    mesh_source = _build_mesh_source(section("mesh"))

    phase_sec = section("phase")
    phase_sec.check_keys(_KNOWN_KEYS["phase"])
    phase = PhaseModel(
        t_star=phase_sec.number("t_star", "0.0"),
        delta=phase_sec.number("delta", "1.0"),
        latent_volumetric=phase_sec.number("latent_volumetric", "1.04e8"),
    )
    table = MaterialTable(materials, phase)

    forcing_sec = section("forcing")
    forcing_sec.check_keys(_KNOWN_KEYS["forcing"])
    forcing = SeasonalForcing(
        amplitude=forcing_sec.number("amplitude", "41.0"),
        day_offset=forcing_sec.number("day_offset", "250.0"),
        mean=forcing_sec.number("mean", "-10.2"),
    )

    ctrl_sec = section("controller")
    ctrl_sec.check_keys(_KNOWN_KEYS["controller"])
    mode = ctrl_sec.get("mode", "always_off")
    tags_raw = ctrl_sec.get("column_tags", "")
    column_tags = frozenset(_integer(v, ctrl_sec.where("column_tags")) for v in tags_raw.split())
    probe_raw = ctrl_sec.get("probe_point")
    probe_point = (
        _floats(probe_raw, 3, ctrl_sec.where("probe_point")) if probe_raw is not None else None
    )
    col_temp_raw = ctrl_sec.get("column_temperature", AIR_VALUE)
    if col_temp_raw == AIR_VALUE:
        column_temperature = None
    else:
        column_temperature = _number(
            col_temp_raw, ctrl_sec.where("column_temperature"), "number or 'air'"
        )
    try:
        controller = ColumnController(
            column_tags=column_tags,
            mode=mode,
            literal_paper_rule=_bool(
                ctrl_sec.get("literal_paper_rule", "false"), ctrl_sec.where("literal_paper_rule")
            ),
            column_temperature=column_temperature,
            probe_point=probe_point,
        )
    except ValueError as e:
        raise ConfigError(f"{origin}: [controller] {e}") from None

    time_sec = section("time")
    time_sec.check_keys(_KNOWN_KEYS["time"])
    tau = _duration(time_sec.get("tau", "1d"), time_sec.where("tau"))
    t_max = _duration(time_sec.get("t_max", "5y"), time_sec.where("t_max"))
    initial = time_sec.number("initial_temperature", "-5.0")
    restart = time_sec.get("restart")

    dirichlet: dict[int, object] = {}
    for key, value, lineno in raw_sections.get("dirichlet", []):
        try:
            tag = int(key)
        except ValueError:
            raise ConfigError(
                f"{origin}:{lineno}: [dirichlet] keys are boundary tags; got {key!r}"
            ) from None
        if tag in dirichlet:  # 05 and 5 are the same tag
            raise ConfigError(f"{origin}:{lineno}: duplicate tag {tag} in [dirichlet]")
        if value == AIR_VALUE:
            dirichlet[tag] = AIR_VALUE
        else:
            dirichlet[tag] = _number(
                value, f"{origin}:{lineno}: [dirichlet] {key}", "number or 'air'"
            )

    out_sec = section("output")
    out_sec.check_keys(_KNOWN_KEYS["output"])
    probes_raw = out_sec.get("probes", "")
    probe_points = tuple(
        _floats(part.strip(), 3, out_sec.where("probes"))
        for part in probes_raw.split(";")
        if part.strip()
    )

    solver_sec = section("solver")
    solver_sec.check_keys(_KNOWN_KEYS["solver"])

    config = SimulationConfig(
        mesh=mesh_source,
        table=table,
        forcing=forcing,
        controller=controller,
        tau=tau,
        t_max=t_max,
        initial_temperature=initial,
        restart=restart,
        dirichlet=dirichlet,
        cadence=_integer(out_sec.get("cadence", "1"), out_sec.where("cadence")),
        probe_points=probe_points,
        output_dir=out_sec.get("directory"),
        write_vtk=_bool(out_sec.get("write_vtk", "true"), out_sec.where("write_vtk")),
        write_restart=_bool(out_sec.get("write_restart", "false"), out_sec.where("write_restart")),
        solver_tol=solver_sec.number("tol", "1e-8"),
        solver_max_iter=_integer(solver_sec.get("max_iter", "5000"), solver_sec.where("max_iter")),
        workers=_integer(solver_sec.get("workers", "1"), solver_sec.where("workers")),
    )
    try:
        config.validate()
    except Exception as e:
        raise ConfigError(f"{origin}: {e}") from None
    return config
