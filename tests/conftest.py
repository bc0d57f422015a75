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


def interval_means_reference(displacement, force, grid: GridSpec) -> np.ndarray:
    """Each grid point's interval mean by a loop over its cell: the reference for resample.

    The cell [x - h/2, x + h/2] is cut at every recorded row inside it, and
    the trapezoids of the piecewise-linear curve between the cuts are
    summed.  A cut outside the recorded span reads the linear extension of
    the chord from the span's end to the cell's other edge, or to the
    span's other end where that is nearer.  A cell with no length inside
    the span takes the end force.
    """
    d, f = np.asarray(displacement, dtype=float), np.asarray(force, dtype=float)

    def at(v):
        k = min(max(int(np.searchsorted(d, v, side="right")) - 1, 0), d.size - 2)
        return f[k] + (v - d[k]) / (d[k + 1] - d[k]) * (f[k + 1] - f[k])

    def on_chord(v, end, inner):
        f_end = f[0] if end == d[0] else f[-1]
        return f_end + (v - end) / (inner - end) * (at(inner) - f_end)

    means = []
    for x in grid.displacements():
        a, b = x - grid.spacing_mm / 2, x + grid.spacing_mm / 2
        if b <= d[0] or a >= d[-1]:
            means.append(f[0] if b <= d[0] else f[-1])
            continue
        cuts = [a, *d[(d > a) & (d < b)], b]
        values = [on_chord(v, d[0], min(b, d[-1])) if v < d[0] else
                  on_chord(v, d[-1], max(a, d[0])) if v > d[-1] else at(v) for v in cuts]
        area = sum((q - p) * (u + w) / 2 for p, q, u, w in
                   zip(cuts, cuts[1:], values, values[1:]))
        means.append(area / (b - a))
    return np.array(means)


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
