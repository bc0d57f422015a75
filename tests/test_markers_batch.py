"""Batch marker extraction against the per-curve code it replaced.

Markers and empirical regressors are computed for a whole force matrix at
once.  The per-curve functions they replaced are kept below verbatim, with
their names prefixed, as the reference: every row of a batch must get the
bits the reference gives that curve alone, and a batch with a failing row
must raise the error, class and message, of the first row the reference
fails on; a row check's message names that row as ``curve r``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings, strategies as st

from smallpunch.curves import (
    MARKER_FIXED_V,
    MARKER_MAX_SLOPE,
    MARKER_STRATEGIES,
    _SLOPE_SKIP,
    GridSpec,
    UniformCurve,
    extract_markers,
)
from smallpunch.errors import (
    AllZero,
    BadConfig,
    InvalidMarkers,
    SmallPunchError,
    TooShort,
    ZeroDenominator,
)
from smallpunch.regress import (
    EMPIRICAL_MODES,
    MODE_INSTABILITY_FORCE,
    MODE_MAX_FORCE,
    EmpiricalModel,
    empirical_feature,
    predict_empirical,
)

from conftest import make_meta


# ------------------------------------------------- the per-curve reference

@dataclass(frozen=True)
class _ReferenceMarkers:
    """Physical markers feeding the empirical correlations."""

    f_max_N: float
    v_at_fmax_mm: float
    f_instability_N: float
    v_instability_mm: float

    def __post_init__(self) -> None:
        if not (self.f_instability_N > 0.0):
            raise InvalidMarkers(f"instability force must be > 0, got {self.f_instability_N}")
        if self.f_max_N < self.f_instability_N:
            raise InvalidMarkers(
                f"max force {self.f_max_N} below instability force {self.f_instability_N}"
            )
        if not (0.0 < self.v_instability_mm <= self.v_at_fmax_mm):
            raise InvalidMarkers(
                f"need 0 < v_i <= v_m, got v_i={self.v_instability_mm}, v_m={self.v_at_fmax_mm}"
            )


def _reference_moving_average5(f: np.ndarray) -> np.ndarray:
    """Centered moving average of window 5, truncated at the ends."""
    n = f.size
    idx = np.arange(n)
    lo = np.maximum(idx - 2, 0)
    hi = np.minimum(idx + 2, n - 1)
    csum = np.concatenate(([0.0], np.cumsum(f)))
    return (csum[hi + 1] - csum[lo]) / (hi - lo + 1)


def _reference_extract_markers(
    curve: UniformCurve,
    strategy: str = MARKER_MAX_SLOPE,
    v_star: float | None = None,
) -> _ReferenceMarkers:
    """Locate the force maximum and the instability-onset force.

    F_m is the grid force maximum and v_m its first displacement.  For the
    instability point two strategies exist:

    ``max-slope`` (default)
        Smooth the forces with a centered moving average of window 5, take
        first differences, and pick the grid point of maximum difference
        after the initial 3 points.  F_i is the unsmoothed force there.
        This is a documented stand-in for a bending/membrane-transition
        detector; swap strategies rather than silently changing this one.
    ``fixed-v``
        v_i is the caller-supplied displacement ``v_star``; F_i is the
        piecewise-linear interpolated force at v_star.

    Raises
    ------
    TooShort
        Fewer than 5 grid points.
    AllZero
        The curve has no positive force.
    InvalidMarkers
        The located markers violate 0 < v_i <= v_m or 0 < F_i <= F_m.
    """
    f = curve.force_N
    n = f.size
    if n < 5:
        raise TooShort(f"need at least 5 grid points, got {n}")
    f_max = float(np.max(f))
    if f_max <= 0.0:
        raise AllZero("no positive force")
    gx = curve.grid.displacements()
    v_m = float(gx[int(np.argmax(f))])

    if strategy == MARKER_MAX_SLOPE:
        diffs = np.diff(_reference_moving_average5(f))
        # diffs[j-1] belongs to grid point j; restrict to j >= _SLOPE_SKIP
        j = _SLOPE_SKIP + int(np.argmax(diffs[_SLOPE_SKIP - 1:]))
        v_i = float(gx[j])
        f_i = float(f[j])
    elif strategy == MARKER_FIXED_V:
        if v_star is None:
            raise BadConfig("fixed-v marker strategy requires v_star")
        v_i = float(v_star)
        f_i = float(np.interp(v_i, gx, f))
    else:
        raise BadConfig(f"unknown marker strategy: {strategy!r}")

    return _ReferenceMarkers(
        f_max_N=f_max,
        v_at_fmax_mm=v_m,
        f_instability_N=f_i,
        v_instability_mm=v_i,
    )



def _reference_empirical_feature(markers: _ReferenceMarkers, h0_mm: float, mode: str) -> float:
    """The correlation regressor x such that R_m = beta * x.

    max-force uses F_m / (h_0 * v_m); instability-force uses F_i / h_0^2.
    """
    if mode == MODE_MAX_FORCE:
        denom = h0_mm * markers.v_at_fmax_mm
        if denom == 0.0:
            raise ZeroDenominator(f"h0 * v_m is zero (h0={h0_mm}, v_m={markers.v_at_fmax_mm})")
        return markers.f_max_N / denom
    if mode == MODE_INSTABILITY_FORCE:
        denom = h0_mm * h0_mm
        if denom == 0.0:
            raise ZeroDenominator(f"h0^2 is zero (h0={h0_mm})")
        return markers.f_instability_N / denom
    raise BadConfig(f"unknown empirical mode: {mode!r}")


def _reference_rows(compute, rows) -> list:
    """The reference run row by row; a row check that fails names its row."""
    results = []
    for r, row in enumerate(rows):
        try:
            results.append(compute(row))
        except (AllZero, InvalidMarkers, ZeroDenominator) as exc:
            raise type(exc)(f"curve {r}: {exc}") from None
    return results


# ------------------------------------------------------ differential tests

MARKER_FIELDS = ("f_max_N", "v_at_fmax_mm", "f_instability_N", "v_instability_mm")


def _outcome(compute):
    """(result, None) or (None, (error class, message))."""
    try:
        return compute(), None
    except SmallPunchError as exc:
        return None, (type(exc), str(exc))


def _force_rows(n: int):
    k = np.arange(n, dtype=float)
    return st.one_of(
        # few distinct values: ties at the maximum, flat plateaus, all zero,
        # and -0.0, whose sign an interpolation can lose
        st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, 5.0]), min_size=n, max_size=n),
        st.lists(st.floats(-50.0, 1000.0), min_size=n, max_size=n),
        # integer ramps: equal slopes everywhere
        st.tuples(st.integers(-3, 10), st.integers(0, 7)).map(lambda ab: ab[0] + ab[1] * k),
        # a rise to a plateau
        st.tuples(st.integers(1, n - 1), st.floats(1.0, 900.0)).map(
            lambda kp: kp[1] * np.minimum(k / kp[0], 1.0) ** 2
        ),
    ).map(lambda row: np.asarray(row, dtype=float))


@st.composite
def _v_star(draw, gx: np.ndarray) -> float:
    k = draw(st.integers(0, gx.size - 2))
    where = draw(st.sampled_from(["on", "between", "first", "last", "before", "beyond"]))
    if where == "on":
        return float(gx[k])
    if where == "between":
        return float(gx[k] + draw(st.floats(0.0, 1.0)) * (gx[k + 1] - gx[k]))
    if where == "first":
        return float(gx[0])
    if where == "last":
        return float(gx[-1])
    if where == "before":
        return float(gx[0] - draw(st.floats(0.0, 1.0)))
    return float(gx[-1] + draw(st.floats(0.0, 1.0)))


@st.composite
def batches(draw):
    """A grid, its force matrix, per-row v_star (or one shared) and thicknesses."""
    grid = GridSpec(
        start_mm=draw(st.sampled_from([0.0, 0.005, 0.1])),
        spacing_mm=draw(st.sampled_from([0.01, 0.003, 0.1, 1.0 / 3.0])),
        n_points=draw(st.integers(5, 151)),
    )
    n_rows = draw(st.integers(1, 5))
    forces = np.array([draw(_force_rows(grid.n_points)) for _ in range(n_rows)])
    gx = grid.displacements()
    if draw(st.booleans()):
        stars = draw(_v_star(gx))
    else:
        stars = np.array([draw(_v_star(gx)) for _ in range(n_rows)])
    # mixed thicknesses; the smallest makes h0^2 underflow to zero
    h0 = np.array([draw(st.sampled_from([0.5, 0.25, 1.0, 0.37, 1e-170]))
                   for _ in range(n_rows)])
    return grid, forces, stars, h0


@settings(max_examples=300, deadline=None)
@given(batch=batches(), strategy=st.sampled_from(MARKER_STRATEGIES))
def test_batch_markers_and_features_match_the_per_curve_reference(batch, strategy):
    grid, forces, stars, h0 = batch
    v_star = stars if strategy == MARKER_FIXED_V else None
    per_row = np.broadcast_to(np.asarray(stars), (forces.shape[0],))

    def reference(row_h0_star):
        row, t, vs = row_h0_star
        return _reference_extract_markers(
            UniformCurve(grid, row, make_meta(thickness=float(t))),
            strategy,
            float(vs) if strategy == MARKER_FIXED_V else None,
        )

    want, want_error = _outcome(lambda: _reference_rows(reference, zip(forces, h0, per_row)))
    got, got_error = _outcome(lambda: extract_markers(forces, grid, strategy, v_star))
    assert got_error == want_error
    if want_error is not None:
        return
    for name in MARKER_FIELDS:
        assert getattr(got, name).tobytes() == np.array(
            [getattr(m, name) for m in want]).tobytes(), name

    for mode in EMPIRICAL_MODES:
        want_x, want_error = _outcome(lambda: np.array(_reference_rows(
            lambda m_t: _reference_empirical_feature(m_t[0], float(m_t[1]), mode),
            zip(want, h0))))
        got_x, got_error = _outcome(lambda: empirical_feature(got, h0, mode))
        assert got_error == want_error
        if want_error is None:
            assert got_x.tobytes() == want_x.tobytes()
            model = EmpiricalModel(beta=0.3)
            assert predict_empirical(model, got, h0, mode).tobytes() == (0.3 * want_x).tobytes()


def test_the_first_failing_row_raises_even_after_passing_rows():
    grid = GridSpec(spacing_mm=0.01, n_points=20)
    good = np.arange(20.0)
    batch = np.array([good, good, np.zeros(20), -good])
    _, want = _outcome(lambda: _reference_rows(
        lambda row: _reference_extract_markers(UniformCurve(grid, row, make_meta())), batch))
    _, got = _outcome(lambda: extract_markers(batch, grid))
    assert got == want == (AllZero, "curve 2: no positive force")
    # row 1 fails a later check than row 2 does, and still raises first
    stars = [0.05, 0.15, 0.05]
    _, got = _outcome(lambda: extract_markers(
        np.array([good, np.r_[good[:10], np.full(10, 9.0)], np.zeros(20)]),
        grid, MARKER_FIXED_V, stars))
    assert got == (InvalidMarkers, "curve 1: need 0 < v_i <= v_m, got v_i=0.15, v_m=0.09")


def test_batch_of_one_and_grid_checks():
    grid = GridSpec(n_points=4)
    _, got = _outcome(lambda: extract_markers([[0.0, 1.0, 2.0, 3.0]], grid))
    _, want = _outcome(lambda: _reference_extract_markers(
        UniformCurve(grid, np.array([0.0, 1.0, 2.0, 3.0]), make_meta())))
    assert got == want == (TooShort, "need at least 5 grid points, got 4")
    _, got = _outcome(lambda: extract_markers(np.arange(20.0), GridSpec(n_points=20)))
    assert got is not None and "N x 20 matrix" in got[1]
    _, got = _outcome(lambda: extract_markers(np.ones((2, 20)), GridSpec(n_points=20),
                                              MARKER_FIXED_V, [0.1, 0.1, 0.1]))
    assert got[1] == "3 v_star values for 2 curves"
    _, got = _outcome(lambda: extract_markers(np.ones((2, 20)), GridSpec(n_points=20),
                                              MARKER_FIXED_V))
    assert got == (BadConfig, "fixed-v marker strategy requires v_star")


def test_zero_denominator_names_the_first_failing_curve():
    markers = extract_markers(np.array([np.arange(20.0)] * 3),
                              GridSpec(spacing_mm=0.01, n_points=20))
    h0 = [0.5, 1e-170, 5e-324]
    for mode, message in ((MODE_INSTABILITY_FORCE, "curve 1: h0^2 is zero (h0=1e-170)"),
                          (MODE_MAX_FORCE, "curve 2: h0 * v_m is zero (h0=5e-324, v_m=0.19)")):
        _, got = _outcome(lambda: empirical_feature(markers, h0, mode))
        assert got == (ZeroDenominator, message)
