"""Shared test helpers."""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np
import pytest

from smallpunch import evaluation
from smallpunch.curves import GridSpec, SpecimenMeta, UniformCurve


def make_meta(
    material: str = "X1",
    temperature: float = 20.0,
    thickness: float = 0.5,
    rm: float | None = None,
) -> SpecimenMeta:
    return SpecimenMeta(
        material_id=material, temperature_C=temperature, thickness_mm=thickness, rm_MPa=rm
    )


def make_uniform(
    forces,
    grid: GridSpec | None = None,
    meta: SpecimenMeta | None = None,
    n_extrapolated: int = 0,
) -> UniformCurve:
    forces = np.asarray(forces, dtype=float)
    if grid is None:
        grid = GridSpec(start_mm=0.0, spacing_mm=0.010, n_points=forces.size)
    return UniformCurve(
        grid=grid,
        force_N=forces,
        meta=meta if meta is not None else make_meta(),
        n_extrapolated=n_extrapolated,
    )


def with_v_i(curves, v_i):
    """curves, each carrying its own v_i_mm, as the command line's --truth attaches it."""
    return [replace(c, meta=replace(c.meta, v_i_mm=float(v))) for c, v in zip(curves, v_i)]


def cv_fold_models(monkeypatch, curves, kind, **cv_args):
    """The pipelines cross_validate fits, one per fold in fold order, caught by
    a spy on evaluation.fit_pipeline, the name cross_validate calls."""
    fitted = []
    fit = evaluation.fit_pipeline

    def spy(*args):
        fitted.append(fit(*args))
        return fitted[-1]

    with monkeypatch.context() as patch:
        patch.setattr(evaluation, "fit_pipeline", spy)
        evaluation.cross_validate(curves, kind, **cv_args)
    return fitted


@pytest.fixture
def default_grid() -> GridSpec:
    return GridSpec()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after capture has ended."""
    module = sys.modules.get("test_acceptance")
    verdicts = getattr(module, "VERDICTS", None) if module else None
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.line(line)
