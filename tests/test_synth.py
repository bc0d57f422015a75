"""Synthetic generator: planted identities, determinism, noise behavior."""

import numpy as np
import pytest

from smallpunch.curves import GridSpec, MARKER_FIXED_V, resample
from smallpunch.errors import BadConfig
from smallpunch.evaluation import cross_validate
from smallpunch.pipeline import EmpiricalKind, PipelineSpec
from smallpunch.synth import SynthConfig, generate, template


def _small_cfg(**overrides):
    base = dict(n_materials=2, curves_per_material=4, seed=30)
    base.update(overrides)
    return SynthConfig(**base)


# ---------------------------------------------------------------- template

def test_template_anchors():
    assert float(template(np.array([0.0]))[0]) == 0.0
    assert float(template(np.array([1.0]))[0]) == 1.0


def test_template_monotone_and_continuous():
    u = np.linspace(0.0, 3.0, 3001)
    g = template(u)
    assert np.all(np.diff(g) > 0.0)
    # linear tail with slope 0.6 past the knee
    tail = g[u > 1.0]
    slopes = np.diff(tail) / np.diff(u[u > 1.0])
    assert np.allclose(slopes, 0.6, rtol=1e-9)


# ---------------------------------------------------------------- identity

def test_instability_force_identity_is_exact():
    cfg = _small_cfg()
    _, truth = generate(cfg)
    h0sq = cfg.h0_mm * cfg.h0_mm
    for rec in truth.records:
        assert rec.f_i_N == rec.rm_MPa * h0sq / cfg.beta_true


def test_noiseless_force_hits_f_i_at_the_knee():
    cfg = _small_cfg(noise_sigma_N=0.0)
    curves, truth = generate(cfg)
    for curve, rec in zip(curves, truth.records):
        idx = int(round(rec.v_i_mm / cfg.raw_step_mm))
        assert curve.displacement_mm[idx] == pytest.approx(rec.v_i_mm, abs=1e-12)
        assert curve.force_N[idx] == pytest.approx(rec.f_i_N, rel=1e-12)


def test_default_set_size_and_alignment():
    curves, truth = generate(SynthConfig())
    assert len(curves) == 120 and len(truth) == 120
    for curve, rec in zip(curves, truth.records):
        assert curve.meta.material_id == rec.material_id
        assert curve.meta.temperature_C == rec.temperature_C
        assert curve.meta.rm_MPa == rec.rm_MPa
        assert curve.meta.thickness_mm == 0.5


# ------------------------------------------------------------- determinism

def test_generation_is_bitwise_deterministic():
    cfg = _small_cfg(noise_sigma_N=3.0)
    curves_a, truth_a = generate(cfg)
    curves_b, truth_b = generate(cfg)
    assert truth_a == truth_b
    for a, b in zip(curves_a, curves_b):
        assert np.array_equal(a.displacement_mm, b.displacement_mm)
        assert np.array_equal(a.force_N, b.force_N)


def test_different_seeds_differ():
    a, _ = generate(_small_cfg(seed=1, noise_sigma_N=3.0))
    b, _ = generate(_small_cfg(seed=2, noise_sigma_N=3.0))
    assert not np.array_equal(a[0].force_N, b[0].force_N)


def test_noise_sample_is_shared_across_sigmas():
    # only sigma differs: deviations from the clean curve scale linearly
    f0 = generate(_small_cfg(noise_sigma_N=0.0))[0][0].force_N
    f5 = generate(_small_cfg(noise_sigma_N=5.0))[0][0].force_N
    f10 = generate(_small_cfg(noise_sigma_N=10.0))[0][0].force_N
    safe = f0 > 100.0  # far from the clamp at zero force
    assert np.allclose(f10[safe] - f0[safe], 2.0 * (f5[safe] - f0[safe]),
                       atol=1e-6)


def test_error_grows_with_noise():
    grid = GridSpec()
    spec = PipelineSpec(EmpiricalKind(marker_strategy=MARKER_FIXED_V))
    means = []
    for sigma in (0.0, 2.0, 5.0, 10.0):
        raw, truth = generate(_small_cfg(curves_per_material=6,
                                         noise_sigma_N=sigma, seed=21))
        curves = [resample(c, grid) for c in raw]
        stars = [r.v_i_mm for r in truth.records]
        report = cross_validate(curves, spec, k=3, seed=0, v_star=stars)
        means.append(report.mean_rmse)
    assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))
    assert means[0] < 1e-6 < means[-1]


# ------------------------------------------------------------------ ranges

def test_planted_values_respect_configured_ranges():
    cfg = SynthConfig(n_materials=3, curves_per_material=10, seed=31)
    _, truth = generate(cfg)
    t_lo, t_hi = cfg.temp_range_C
    v_lo, v_hi = cfg.v_i_range_mm
    half_span = (t_hi - t_lo) / 2.0
    rm_lo = cfg.rm_range_MPa[0] - abs(cfg.temp_slope_MPa_per_C) * half_span
    rm_hi = cfg.rm_range_MPa[1] + abs(cfg.temp_slope_MPa_per_C) * half_span
    for rec in truth.records:
        assert t_lo <= rec.temperature_C <= t_hi
        assert v_lo - 1e-12 <= rec.v_i_mm <= v_hi + 1e-12
        steps = rec.v_i_mm / cfg.v_i_step_mm
        assert abs(steps - round(steps)) < 1e-9
        assert rm_lo <= rec.rm_MPa <= rm_hi
        assert rec.rm_MPa > 0.0 and rec.f_i_N > 0.0


def test_material_base_strength_is_consistent():
    cfg = SynthConfig(n_materials=3, curves_per_material=8, seed=32)
    _, truth = generate(cfg)
    t_mid = sum(cfg.temp_range_C) / 2.0
    bases = {}
    for rec in truth.records:
        base = rec.rm_MPa - cfg.temp_slope_MPa_per_C * (rec.temperature_C - t_mid)
        bases.setdefault(rec.material_id, []).append(base)
    assert len(bases) == 3
    for values in bases.values():
        assert np.allclose(values, values[0], rtol=1e-12)


def test_curves_are_valid_raw_curves():
    curves, _ = generate(_small_cfg(noise_sigma_N=8.0))
    for curve in curves:
        assert curve.displacement_mm[0] == 0.0
        assert np.all(np.diff(curve.displacement_mm) > 0.0)
        assert np.all(curve.force_N >= 0.0)
        assert curve.displacement_mm[-1] == pytest.approx(1.5, abs=1e-12)


# ------------------------------------------------------------------ config

def test_config_validation():
    with pytest.raises(BadConfig):
        SynthConfig(n_materials=0)
    with pytest.raises(BadConfig):
        SynthConfig(noise_sigma_N=-1.0)
    with pytest.raises(BadConfig):
        SynthConfig(v_i_range_mm=(0.05, 0.7))
    with pytest.raises(BadConfig):
        SynthConfig(v_i_range_mm=(0.3, 1.2))
    with pytest.raises(BadConfig):
        SynthConfig(temp_slope_MPa_per_C=0.1)
    with pytest.raises(BadConfig):
        SynthConfig(v_i_step_mm=0.5)
    with pytest.raises(BadConfig):
        SynthConfig(beta_true=0.0)
    for field, value in [
        ("rm_range_MPa", (400.0, float("inf"))),
        ("noise_sigma_N", float("nan")),
        ("noise_sigma_N", float("inf")),
        ("temp_slope_MPa_per_C", float("nan")),
        ("temp_range_C", (float("-inf"), 20.0)),
        ("h0_mm", float("inf")),
        ("max_displacement_mm", float("inf")),
    ]:
        with pytest.raises(BadConfig, match=f"{field} must be finite"):
            SynthConfig(**{field: value})


def test_slope_that_kills_strength_is_rejected():
    with pytest.raises(BadConfig):
        generate(SynthConfig(temp_slope_MPa_per_C=-2.0))
