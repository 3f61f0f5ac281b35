"""Plain-text experiment configuration: `key = value` lines, '#' comments.

Every field has a default, unknown keys are hard errors, and
serialize(parse(text)) reproduces all effective values, so a config file
embedded in an output header fully describes the run that produced it.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

from .elliptic import SpeiserdimError
from .families import TAGS, MapFamily
from .dynamics import GridSpec


class ConfigError(SpeiserdimError, ValueError):
    """Malformed config text, unknown key, or invalid value."""


@dataclass(frozen=True)
class ExperimentConfig:
    # family selection
    family: str = "FLambda"
    p: int = MapFamily.p
    eta: float = MapFamily.eta
    m: int = MapFamily.m
    lam: float = MapFamily.lam
    # lambda grid for sweeps; below ~0.7 the pole dust leaves the default grid
    lambda_min: float = 0.75
    lambda_max: float = 1.0
    lambda_count: int = 8
    # raster grid
    grid_center_re: float = GridSpec.center.real
    grid_center_im: float = GridSpec.center.imag
    grid_half_width: float = GridSpec.half_width
    grid_resolution: int = GridSpec.resolution
    max_iterations: int = GridSpec.max_iterations
    attraction_tol: float = GridSpec.attraction_tol
    # a low guard marks every pass near a pole as an exit, so the exit
    # counter traps orbits that shadow the pole dust; raise it toward 1e12
    # to flag only near-exact pole hits
    guard_modulus: float = 30.0
    guard_exits: int = 2
    # lower-bound pipeline
    branch_count: int = 40
    branch_base_index: int = 0  # 0 selects the base pole automatically
    branch_r0: float = 0.24
    # upper-bound pipeline
    pole_radius: float = 40.0
    series_radius: float = 1e80
    # box counting ("" = derive dyadic scales from the resolution)
    box_scales: str = ""
    # run plumbing
    seed: int = 0
    out: str = ""

    def to_family(self) -> MapFamily:
        return MapFamily(tag=self.family, p=self.p, eta=self.eta, m=self.m, lam=self.lam)

    def to_grid(self) -> GridSpec:
        return GridSpec(
            center=complex(self.grid_center_re, self.grid_center_im),
            half_width=self.grid_half_width,
            resolution=self.grid_resolution,
            max_iterations=self.max_iterations,
            attraction_tol=self.attraction_tol,
        )

    def box_scale_list(self) -> list[int] | None:
        if not self.box_scales.strip():
            return None
        return _parse_int_list(self.box_scales, "box_scales")


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_int_list(text: str, key: str) -> list[int]:
    try:
        values = [int(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"{key} must be a comma-separated integer list: {exc}") from None
    if not values:
        raise ConfigError(f"{key} must contain at least one integer")
    return values


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"value {raw!r} for key {key!r} is not a valid {kind}") from None


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    if cfg.family not in TAGS:
        raise ConfigError(f"family must be one of {TAGS}, got {cfg.family!r}")
    try:
        # sweep and verify use p, eta and m whatever the family, so they
        # are checked as FLambda checks them
        MapFamily(tag="FLambda", p=cfg.p, eta=cfg.eta, m=cfg.m, lam=cfg.lam)
        cfg.to_grid()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not 0.0 < cfg.lambda_min <= cfg.lambda_max <= 1.0:
        raise ConfigError("lambda grid must satisfy 0 < lambda_min <= lambda_max <= 1")
    if cfg.lambda_count < 2:
        raise ConfigError("lambda_count must be at least 2")
    if cfg.guard_modulus <= 1.0:
        raise ConfigError("guard_modulus must exceed 1; it must sit above the attractor scale")
    if cfg.guard_exits < 1:
        raise ConfigError("guard_exits must be at least 1")
    if cfg.branch_count < 2:
        raise ConfigError("branch_count must be at least 2")
    if not 0 <= cfg.branch_base_index < cfg.branch_count:
        raise ConfigError("branch_base_index must be 0 (auto) or a positive index below branch_count")
    if not (cfg.branch_r0 > 0 and cfg.pole_radius > 0 and cfg.series_radius > 0):
        raise ConfigError("branch_r0, pole_radius and series_radius must be positive")
    if cfg.box_scales.strip():
        scales = _parse_int_list(cfg.box_scales, "box_scales")
        if any(s < 1 for s in scales):
            raise ConfigError("box_scales entries must be positive")
    if cfg.seed < 0:
        raise ConfigError("seed must be nonnegative")
    return cfg


def parse_config(text: str) -> ExperimentConfig:
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, raw)
    return validate_config(ExperimentConfig(**values))


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(ExperimentConfig)]
    return "\n".join(lines) + "\n"


def config_comment_lines(cfg: ExperimentConfig) -> list[str]:
    return serialize_config(cfg).splitlines()
