"""Run configuration: JSON checked against frozen dataclass sections."""

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from typing import Literal, get_args, get_origin

from .estimator import ThetaDomain
from .grids import SpatialGrid, TimeGrid, _undecodable_line
from .sarh import SarhSpec, default_variance_profile

# Reference eigenvalues of the two operators of the simulation experiments.
REFERENCE_EIGENVALUES_1 = (0.300, 0.270, 0.230, 0.200, 0.170, 0.130, 0.100, 0.030, 0.010, 0.005)
REFERENCE_EIGENVALUES_2 = (0.500, 0.470, 0.430, 0.400, 0.370, 0.330, 0.300, 0.230, 0.200, 0.150)

_RANGES = {"ge": "greater than or equal to {}", "le": "less than or equal to {}", "gt": "greater than {}",
           "finite": "a finite number"}


class ConfigError(ValueError):
    """Configuration rejected before any computation."""


def _validate(tp, v, loc: str = "", bounds=None):
    """`v` checked as annotation `tp` at key path `loc`; arrays become tuples."""
    origin, args = get_origin(tp), get_args(tp)
    if is_dataclass(tp):
        if not isinstance(v, dict):
            raise ConfigError(f"{loc or 'config'}: Input should be an object")
        known = {f.name: f for f in fields(tp)}
        at = lambda key: f"{loc}.{key}" if loc else key  # noqa: E731
        for key in (k for k in v if k not in known):
            raise ConfigError(f"{at(key)}: Extra inputs are not permitted")
        for key, f in known.items():
            if key not in v and f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{at(key)}: Field required")
        return tp(**{k: _validate(known[k].type, x, at(k), known[k].metadata) for k, x in v.items()})
    if origin is tuple:
        if not isinstance(v, (list, tuple)):
            raise ConfigError(f"{loc}: Input should be a valid list")
        if args[-1] is not Ellipsis and len(v) != len(args):
            raise ConfigError(f"{loc}: Input should be a list of {len(args)} items, got {len(v)}")
        return tuple(_validate(args[0 if Ellipsis in args else i], x, f"{loc}.{i}") for i, x in enumerate(v))
    if args:  # `X | None` or `X | Literal[...]`: the values of the second pass as they are
        tp, alt = args
        accepted = (None,) if alt is type(None) else get_args(alt)
        if v in accepted:
            return v
        if isinstance(v, str) and None not in accepted:
            raise ConfigError(f'{loc}: {v!r}: expected numbers or "default", the only string accepted')
        return _validate(tp, v, loc, bounds)
    if type(v) is not tp and (tp, type(v)) != (float, int):
        raise ConfigError(f"{loc}: Input should be a valid {tp.__name__}")
    for key, bound in (bounds or {}).items():
        if not {"ge": v >= bound, "le": v <= bound, "gt": v > bound, "finite": math.isfinite(v)}[key]:
            raise ConfigError(f"{loc}: Input should be {_RANGES[key].format(bound)}")
    return tp(v)


@dataclass(frozen=True)
class GridConfig:
    s1: int = field(metadata={"ge": 2})
    s2: int = field(metadata={"ge": 2})


@dataclass(frozen=True)
class TimeConfig:
    depth: int = field(metadata={"ge": 1, "le": 14})
    j0: int = field(default=0, metadata={"ge": 0})


@dataclass(frozen=True)
class ModelConfig:
    eigenvalues1: tuple[float, ...] = REFERENCE_EIGENVALUES_1
    eigenvalues2: tuple[float, ...] = REFERENCE_EIGENVALUES_2
    innovation_variances: tuple[float, ...] | Literal["default"] = "default"
    couple_l3: bool = True
    eigenvalues3: tuple[float, ...] | None = None
    truncation: int | None = field(default=None, metadata={"ge": 1})


@dataclass(frozen=True)
class EstimationConfig:
    bounds: tuple[tuple[float, float], ...] = ((-0.95, 0.95),) * 3
    include_cross: bool = False
    couple_l3: bool = False


@dataclass(frozen=True)
class SimulationConfig:
    burn_in: int = field(default=64, metadata={"ge": 0})
    seed: int = field(default=0, metadata={"ge": 0})
    replications: int = field(default=1, metadata={"ge": 1})


@dataclass(frozen=True)
class ValidationConfig:
    neighborhood_radius: int = field(default=1, metadata={"ge": 0})
    period_length: int = field(default=12, metadata={"ge": 1})
    max_folds: int | None = field(default=None, metadata={"ge": 1})


@dataclass(frozen=True)
class CountsConfig:
    seed: int = field(default=0, metadata={"ge": 0})
    area_scale: float = field(default=1.0, metadata={"gt": 0, "finite": True})


@dataclass(frozen=True)
class RunConfig:
    grid: GridConfig
    time: TimeConfig
    model: ModelConfig = field(default_factory=ModelConfig)
    estimation: EstimationConfig = field(default_factory=EstimationConfig)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    validation: ValidationConfig = field(default_factory=ValidationConfig)
    counts: CountsConfig = field(default_factory=CountsConfig)

    model_validate = classmethod(_validate)  # pydantic's name, kept for callers

    def __post_init__(self):  # the cross-field rules, checked once here, not by a first user
        if self.time.j0 > self.time.depth:
            raise ConfigError(f"time: j0={self.time.j0} exceeds depth={self.time.depth}")
        for section, check in (("estimation", self.theta_domain), ("model", self.sarh_spec)):
            try:
                check()
            except ValueError as exc:
                raise ConfigError(f"{section}: {exc}") from None

    def spatial_grid(self) -> SpatialGrid:
        return SpatialGrid(self.grid.s1, self.grid.s2)

    def time_grid(self) -> TimeGrid:
        return TimeGrid(self.time.depth)

    def sarh_spec(self) -> SarhSpec:
        k, n = self.model.truncation, len(self.model.eigenvalues1)
        if k is not None and k > n:
            raise ValueError(f"truncation {k} exceeds the {n} supplied eigenvalues")
        lam1, lam2 = self.model.eigenvalues1[:k], self.model.eigenvalues2[:k]
        sig2, lam3 = self.model.innovation_variances, self.model.eigenvalues3
        default = sig2 == "default"  # the model is checked before the profile divides by 1 - lambda^2
        spec = SarhSpec(lam1, lam2, (1.0,) * len(lam1) if default else sig2[: len(lam1)], self.time_grid(),
                        self.model.couple_l3, None if lam3 is None else lam3[: len(lam1)])
        return replace(spec, innovation_variances=default_variance_profile(lam1, lam2)) if default else spec

    def theta_domain(self) -> ThetaDomain:
        return ThetaDomain(self.estimation.bounds, self.estimation.couple_l3)

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            return RunConfig.model_validate(json.load(fh))
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: {_undecodable_line(path)}") from None
    except ValueError as exc:  # a ConfigError, or not JSON at all
        why = exc if isinstance(exc, ConfigError) else f"not valid JSON: {exc}"
        raise ConfigError(f"{path}: {why}") from exc
