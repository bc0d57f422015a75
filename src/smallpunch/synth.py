"""Deterministic synthetic curve generator with planted ground truth.

Curves follow a fixed dimensionless template with a knee at the planted
instability displacement v_i:

    g(u) = tanh(2u) / tanh(2)      for u <= 1
    g(u) = 1 + 0.6 * (u - 1)       for u >  1,   u = v / v_i

so F(v) = F_i * g(v / v_i) with F_i = R_m * h0^2 / beta_true by
construction: the instability-force correlation is exact on noiseless
output.  The template is not a physical model; it exists so that every
downstream stage has a closed-form oracle.

The planted v_i is snapped to v_i_step_mm (default 0.010 mm, the default
grid spacing) so the knee lies exactly on the uniform grid; without that,
linear resampling across the knee would bias F(v_i) and break the
zero-noise round-trip identity.

Determinism: material m draws from stream (seed, 1, m); curve c (global
index) draws temperature, v_i and then the noise vector, in that order,
from stream (seed, 2, c).  Noise is always drawn and then scaled by sigma,
so datasets differing only in sigma share the underlying noise sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .curves import RawCurve, SpecimenMeta
from .errors import BadConfig

_MATERIAL_STREAM = 1
_CURVE_STREAM = 2
_TANH2 = math.tanh(2.0)


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs; defaults produce the 120-curve reference set."""

    n_materials: int = 5
    curves_per_material: int = 24
    beta_true: float = 0.3
    h0_mm: float = 0.5
    rm_range_MPa: tuple[float, float] = (400.0, 1100.0)
    v_i_range_mm: tuple[float, float] = (0.3, 0.7)
    noise_sigma_N: float = 0.0
    temp_range_C: tuple[float, float] = (-150.0, 330.0)
    temp_slope_MPa_per_C: float = -0.4
    seed: int = 0
    v_i_step_mm: float = 0.010
    raw_step_mm: float = 0.001
    max_displacement_mm: float = 1.5

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise BadConfig(f"{f.name} must be finite, got {value}")
        if self.n_materials < 1 or self.curves_per_material < 1:
            raise BadConfig("material and per-material counts must be >= 1")
        if not (self.beta_true > 0.0):
            raise BadConfig(f"beta_true must be > 0, got {self.beta_true}")
        if not (self.h0_mm > 0.0):
            raise BadConfig(f"h0_mm must be > 0, got {self.h0_mm}")
        lo, hi = self.rm_range_MPa
        if not (0.0 < lo <= hi):
            raise BadConfig(f"rm_range_MPa must satisfy 0 < lo <= hi, got {self.rm_range_MPa}")
        vlo, vhi = self.v_i_range_mm
        if not (0.1 < vlo <= vhi < 1.0):
            raise BadConfig(
                f"v_i_range_mm must lie strictly inside (0.1, 1.0), got {self.v_i_range_mm}"
            )
        if self.noise_sigma_N < 0.0:
            raise BadConfig(f"noise_sigma_N must be >= 0, got {self.noise_sigma_N}")
        tlo, thi = self.temp_range_C
        if not (-273.15 <= tlo <= thi < 2000.0):
            raise BadConfig(f"temp_range_C out of order or range, got {self.temp_range_C}")
        if self.temp_slope_MPa_per_C > 0.0:
            raise BadConfig(
                f"temp_slope_MPa_per_C must be <= 0 (strength drops when hot), "
                f"got {self.temp_slope_MPa_per_C}"
            )
        if not (0.0 < self.v_i_step_mm <= vlo):
            raise BadConfig(f"v_i_step_mm must be in (0, v_i lower bound], got {self.v_i_step_mm}")
        if not (0.0 < self.raw_step_mm <= self.max_displacement_mm):
            raise BadConfig("raw_step_mm must be positive and below max_displacement_mm")
        if self.seed < 0:
            raise BadConfig(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SynthRecord:
    """Planted truth for one generated curve."""

    material_id: str
    temperature_C: float
    rm_MPa: float
    v_i_mm: float
    f_i_N: float


@dataclass(frozen=True)
class SynthTruth:
    """Per-curve planted records, aligned with the generated curve list."""

    records: tuple[SynthRecord, ...]

    def __len__(self) -> int:
        return len(self.records)


def template(u: np.ndarray) -> np.ndarray:
    """Dimensionless curve shape g(u); g(1) = 1 exactly at the knee."""
    u = np.asarray(u, dtype=float)
    return np.where(u <= 1.0, np.tanh(2.0 * u) / _TANH2, 1.0 + 0.6 * (u - 1.0))


def _snap_v_i(draw: float, cfg: SynthConfig) -> float:
    """Round a drawn v_i to the step grid, staying inside the range."""
    step = cfg.v_i_step_mm
    lo, hi = cfg.v_i_range_mm
    k_min = math.ceil(lo / step - 1e-9)
    k_max = math.floor(hi / step + 1e-9)
    if k_min > k_max:
        raise BadConfig(
            f"v_i_range_mm {cfg.v_i_range_mm} contains no multiple of step {step}"
        )
    k = min(max(round(draw / step), k_min), k_max)
    return k * step


def generate(cfg: SynthConfig = SynthConfig()) -> tuple[list[RawCurve], SynthTruth]:
    """Generate raw curves sampled at raw_step_mm with planted truth.

    Each curve's strength is its material base strength plus a linear
    temperature effect centered on the temperature range midpoint; the
    planted instability force satisfies f_i = rm * h0^2 / beta_true with
    the exact same floating-point expression the truth records store.
    """
    t_lo, t_hi = cfg.temp_range_C
    t_mid = (t_lo + t_hi) / 2.0
    worst_rm = cfg.rm_range_MPa[0] + cfg.temp_slope_MPa_per_C * (t_hi - t_mid)
    if worst_rm <= 0.0:
        raise BadConfig(
            "temp_slope_MPa_per_C drives rm non-positive at the hot end "
            f"(worst case {worst_rm:.1f} MPa); weaken the slope or raise rm_range_MPa"
        )

    n_steps = round(cfg.max_displacement_mm / cfg.raw_step_mm)
    disp = np.arange(n_steps + 1) * cfg.raw_step_mm
    h0sq = cfg.h0_mm * cfg.h0_mm

    curves: list[RawCurve] = []
    records: list[SynthRecord] = []
    for mi in range(cfg.n_materials):
        rng_m = np.random.default_rng(np.random.SeedSequence([cfg.seed, _MATERIAL_STREAM, mi]))
        material_id = f"M{mi:02d}"
        base_rm = rng_m.uniform(*cfg.rm_range_MPa)
        for ci in range(cfg.curves_per_material):
            c = mi * cfg.curves_per_material + ci
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _CURVE_STREAM, c]))
            temp = rng.uniform(t_lo, t_hi)
            v_i = _snap_v_i(rng.uniform(*cfg.v_i_range_mm), cfg)
            noise = rng.standard_normal(disp.size)

            rm = base_rm + cfg.temp_slope_MPa_per_C * (temp - t_mid)
            f_i = rm * h0sq / cfg.beta_true
            force = f_i * template(disp / v_i)
            force = np.maximum(force + noise * cfg.noise_sigma_N, 0.0)

            meta = SpecimenMeta(
                material_id=material_id,
                temperature_C=float(temp),
                thickness_mm=cfg.h0_mm,
                rm_MPa=float(rm),
            )
            curves.append(RawCurve(displacement_mm=disp, force_N=force, meta=meta))
            records.append(
                SynthRecord(
                    material_id=material_id,
                    temperature_C=float(temp),
                    rm_MPa=float(rm),
                    v_i_mm=float(v_i),
                    f_i_N=float(f_i),
                )
            )
    return curves, SynthTruth(records=tuple(records))
