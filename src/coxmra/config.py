"""Run configuration: schema-validated JSON consumed by the CLI.

Unknown keys are rejected everywhere, so a typo fails before any
computation starts.
"""

from __future__ import annotations

import hashlib
import json
from typing import Literal

import numpy as np
from pydantic import BaseModel, ConfigDict, Field, ValidationError, field_validator, model_validator

from .estimator import ThetaDomain
from .grids import SpatialGrid, TimeGrid
from .sarh import SarhSpec, default_variance_profile

# Reference eigenvalue systems of the two autocorrelation operators used
# by the simulation experiments (ten components each).
REFERENCE_EIGENVALUES_1 = (
    0.300, 0.270, 0.230, 0.200, 0.170, 0.130, 0.100, 0.030, 0.010, 0.005,
)
REFERENCE_EIGENVALUES_2 = (
    0.500, 0.470, 0.430, 0.400, 0.370, 0.330, 0.300, 0.230, 0.200, 0.150,
)


class _Section(BaseModel):
    model_config = ConfigDict(extra="forbid")


class GridConfig(_Section):
    s1: int = Field(ge=2)
    s2: int = Field(ge=2)


class TimeConfig(_Section):
    depth: int = Field(ge=1, le=14)
    j0: int = Field(default=0, ge=0)

    @model_validator(mode="after")
    def _check_j0(self):
        if self.j0 > self.depth:
            raise ValueError(f"j0={self.j0} exceeds depth={self.depth}")
        return self


class ModelConfig(_Section):
    eigenvalues1: list[float] = list(REFERENCE_EIGENVALUES_1)
    eigenvalues2: list[float] = list(REFERENCE_EIGENVALUES_2)
    innovation_variances: list[float] | Literal["default"] = "default"
    couple_l3: bool = True
    eigenvalues3: list[float] | None = None
    truncation: int | None = Field(default=None, ge=1)

    @field_validator("innovation_variances", mode="before")
    @classmethod
    def _check_variances_string(cls, v):
        # a union error would name only its list branch
        if isinstance(v, str) and v != "default":
            raise ValueError(f'{v!r}: expected a list of floats or "default", the only string accepted')
        return v


class EstimationConfig(_Section):
    bounds: list[tuple[float, float]] = [(-0.95, 0.95)] * 3
    include_cross: bool = False
    couple_l3: bool = False

    @model_validator(mode="after")
    def _check_domain(self):
        ThetaDomain(self.bounds, self.couple_l3)
        return self


class SimulationConfig(_Section):
    burn_in: int = Field(default=64, ge=0)
    seed: int = Field(default=0, ge=0)
    replications: int = Field(default=1, ge=1)


class ValidationConfig(_Section):
    neighborhood_radius: int = Field(default=1, ge=0)
    period_length: int = Field(default=12, ge=1)
    max_folds: int | None = Field(default=None, ge=1)


class CountsConfig(_Section):
    seed: int = Field(default=0, ge=0)
    area_scale: float = Field(default=1.0, gt=0)


class RunConfig(_Section):
    grid: GridConfig
    time: TimeConfig
    model: ModelConfig = ModelConfig()
    estimation: EstimationConfig = EstimationConfig()
    simulation: SimulationConfig = SimulationConfig()
    validation: ValidationConfig = ValidationConfig()
    counts: CountsConfig = CountsConfig()

    def spatial_grid(self) -> SpatialGrid:
        return SpatialGrid(self.grid.s1, self.grid.s2)

    def time_grid(self) -> TimeGrid:
        return TimeGrid(self.time.depth)

    def sarh_spec(self) -> SarhSpec:
        lam1 = np.asarray(self.model.eigenvalues1, dtype=float)
        lam2 = np.asarray(self.model.eigenvalues2, dtype=float)
        if self.model.truncation is not None:
            k = self.model.truncation
            if k > lam1.size:
                raise ValueError(
                    f"truncation {k} exceeds the {lam1.size} supplied eigenvalues"
                )
            lam1, lam2 = lam1[:k], lam2[:k]
        if self.model.innovation_variances == "default":
            sig2 = default_variance_profile(lam1, lam2)
        else:
            sig2 = np.asarray(self.model.innovation_variances, dtype=float)[: lam1.size]
        lam3 = self.model.eigenvalues3
        if lam3 is not None:
            lam3 = np.asarray(lam3, dtype=float)[: lam1.size]
        return SarhSpec(
            eigenvalues1=lam1,
            eigenvalues2=lam2,
            innovation_variances=sig2,
            time=self.time_grid(),
            couple_l3=self.model.couple_l3,
            eigenvalues3=lam3,
        )

    def theta_domain(self) -> ThetaDomain:
        return ThetaDomain(self.estimation.bounds, self.estimation.couple_l3)

    def canonical_json(self) -> str:
        return json.dumps(self.model_dump(), sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


class ConfigError(ValueError):
    """Configuration rejected before any computation."""


def load_config(path) -> RunConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return RunConfig.model_validate(raw)
    except ValidationError as exc:
        first = exc.errors()[0]
        loc = ".".join(str(p) for p in first["loc"])
        raise ConfigError(f"{path}: {loc}: {first['msg']}") from exc
