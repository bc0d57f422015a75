"""Release gate: one test per shipping criterion, one verdict line each.

Every criterion prints "[acceptance N] <name>: PASS|FAIL" on the real
stdout (bypassing capture) and then asserts, so a full run always shows
nine verdict lines.  Tolerances are part of the contract and are asserted
exactly as stated here.
"""

import json
import sys
import time
from dataclasses import replace

import numpy as np

from smallpunch.curves import (
    GridSpec,
    MARKER_FIXED_V,
    MARKER_MAX_SLOPE,
    UniformCurve,
    extract_markers,
    resample,
)
from smallpunch.cli import main as cli_main
from smallpunch.dataio import load_curves
from smallpunch.evaluation import cross_validate
from smallpunch.features import apply_standardizer, assemble, fit_standardizer
from smallpunch.forest import ForestConfig, Leaf, Split, fit_forest, predict_forest
from smallpunch.modelfile import load_model, save_model
from smallpunch.pca import fit_pca, transform
from smallpunch.pipeline import (
    EmpiricalKind,
    ForestKind,
    PcaLmKind,
    PipelineSpec,
    fit_pipeline,
    predict_pipeline,
)
from smallpunch.regress import (
    MODE_INSTABILITY_FORCE,
    empirical_feature,
    fit_beta,
    fit_ols,
    predict_linear,
)
from smallpunch.synth import SynthConfig, generate

import pytest

from conftest import make_meta, make_uniform

GRID = GridSpec()

# verdict lines collected here; the terminal-summary hook in conftest.py
# prints them after capture ends so they show on every run
VERDICTS: list[str] = []


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[acceptance {number}] {name}: {verdict}{suffix}"
    VERDICTS.append(line)
    print(line, flush=True)
    assert ok, f"acceptance {number} ({name}) failed{suffix}"


def _reference_set(noise_sigma):
    cfg = SynthConfig(n_materials=5, curves_per_material=24,
                      noise_sigma_N=noise_sigma, seed=7)
    raw, truth = generate(cfg)
    curves = [resample(c, GRID) for c in raw]
    stars = [rec.v_i_mm for rec in truth.records]
    return cfg, curves, truth, stars


@pytest.fixture(scope="module")
def noisy_set():
    return _reference_set(noise_sigma=5.0)


def test_acceptance_1_zero_noise_round_trip():
    """Planted strengths are recovered through the full pipeline."""
    started = time.perf_counter()
    _, curves, _, stars = _reference_set(noise_sigma=0.0)
    spec = PipelineSpec(EmpiricalKind(mode=MODE_INSTABILITY_FORCE,
                                      marker_strategy=MARKER_FIXED_V))
    report = cross_validate(curves, spec, k=10, seed=0, v_star=stars)
    elapsed = time.perf_counter() - started
    ok = report.mean_rmse < 1e-6 and elapsed < 10.0
    _report(1, "zero-noise strengths recovered through 10-fold CV", ok,
            f"mean rmse {report.mean_rmse:.3e} MPa, {elapsed:.1f}s")


def test_acceptance_2_beta_recovery(noisy_set):
    """The correlation factor is re-estimated from noisy curves."""
    cfg, curves, truth, stars = noisy_set
    feats = []
    for curve, v_i in zip(curves, stars):
        markers = extract_markers(curve, MARKER_FIXED_V, v_i)
        feats.append(empirical_feature(markers, cfg.h0_mm,
                                       MODE_INSTABILITY_FORCE))
    feats = np.asarray(feats)
    targets = np.asarray([rec.rm_MPa for rec in truth.records])
    beta = fit_beta(feats, targets).beta

    grid_beta = np.arange(0.27, 0.33 + 1e-12, 1e-4)
    sse = np.array([np.sum((targets - b * feats) ** 2) for b in grid_beta])
    best = float(grid_beta[int(np.argmin(sse))])

    rel_err = abs(beta - cfg.beta_true) / cfg.beta_true
    ok = rel_err < 0.01 and abs(beta - best) <= 1e-4
    _report(2, "beta recovered within 1% and matches grid search", ok,
            f"beta {beta:.6f}, rel err {rel_err:.2e}, grid best {best:.4f}")


def test_acceptance_3_pca_invariants(noisy_set):
    """The decomposition is orthonormal, conserving and decorrelating."""
    _, curves, _, _ = noisy_set
    matrix, _ = assemble(curves)
    standardized = apply_standardizer(fit_standardizer(matrix), matrix)
    model = fit_pca(standardized, threshold=0.99)
    assert model.n_components > 1

    gram = model.loadings.T @ model.loadings
    orthonormal = float(np.max(np.abs(gram - np.eye(model.n_components))))

    per_column = float(np.var(standardized.values, axis=0, ddof=1).sum())
    conservation = abs(model.total_variance - per_column) / per_column

    scores = transform(model, standardized)
    corr = np.corrcoef(scores, rowvar=False)
    decorrelated = float(np.max(np.abs(corr - np.diag(np.diag(corr)))))

    rng = np.random.default_rng(42)
    sample = rng.normal(size=(10, 4)) * np.array([3.0, 1.0, 0.5, 0.2])
    full = fit_pca(sample, threshold=1.0)
    oracle = np.linalg.eigvalsh(np.cov(sample, rowvar=False, ddof=1))[::-1]
    eig_err = float(np.max(np.abs(full.eigenvalues - oracle) / oracle))

    ok = (orthonormal <= 1e-10 and conservation <= 1e-10
          and decorrelated < 1e-8 and eig_err <= 1e-8)
    _report(3, "PCA orthonormal, variance-conserving, eigenvalue-exact", ok,
            f"ortho {orthonormal:.1e}, conserve {conservation:.1e}, "
            f"corr {decorrelated:.1e}, eig {eig_err:.1e}")


def test_acceptance_4_least_squares_exactness():
    """QR least squares nails planted coefficients and residual geometry."""
    rng = np.random.default_rng(77)
    design = rng.normal(size=(40, 5))
    planted = np.array([2.0, -1.5, 0.5, 3.25, -0.125])
    clean = 4.5 + design @ planted
    fitted = fit_ols(design, clean)
    recovery = max(abs(fitted.intercept - 4.5),
                   float(np.max(np.abs(fitted.coefficients - planted))))

    noisy = clean + rng.normal(0.0, 0.3, 40)
    model = fit_ols(design, noisy)
    residual = noisy - predict_linear(model, design)
    augmented = np.hstack([np.ones((40, 1)), design])
    orthogonality = float(np.max(np.abs(augmented.T @ residual)))
    scale = float(np.abs(noisy).max())

    constant = 612.3456789
    intercept_only = fit_ols(np.zeros((8, 0)), np.full(8, constant))
    constant_exact = intercept_only.intercept == constant

    ok = (recovery <= 1e-8 and orthogonality <= 1e-8 * scale
          and constant_exact)
    _report(4, "least squares exact on planted data", ok,
            f"recovery {recovery:.1e}, residual {orthogonality:.1e}, "
            f"constant exact {constant_exact}")


def test_acceptance_5_forest_determinism(noisy_set, tmp_path):
    """Forest splits are exact, a refit saves to identical bytes, predictions stay in range."""
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    stump = fit_forest(x, y, ForestConfig(n_trees=1, bootstrap=False,
                                          min_leaf=1, mtry=1, seed=0))
    root = stump.trees[0]

    # brute force over every candidate midpoint threshold
    best_sse, best_threshold = np.inf, None
    for threshold in (0.5, 1.5, 2.5):
        left, right = y[x[:, 0] <= threshold], y[x[:, 0] > threshold]
        sse = float(np.sum((left - left.mean()) ** 2)
                    + np.sum((right - right.mean()) ** 2))
        if sse < best_sse:
            best_sse, best_threshold = sse, threshold
    split_exact = (isinstance(root, Split)
                   and best_threshold == 1.5
                   and root.threshold == best_threshold
                   and isinstance(root.left, Leaf) and root.left.value == 0.0
                   and isinstance(root.right, Leaf)
                   and root.right.value == 10.0)

    _, curves, _, _ = noisy_set
    matrix, targets = assemble(curves)
    cfg = ForestConfig(n_trees=30, seed=4)
    spec = PipelineSpec(ForestKind(config=cfg))
    first = fit_pipeline(curves, spec)
    second = fit_pipeline(curves, spec)
    a, b = tmp_path / "first.json", tmp_path / "second.json"
    save_model(a, first, {})
    save_model(b, second, {})
    refit_identical = a.read_bytes() == b.read_bytes()

    preds = predict_pipeline(first, curves)
    bounded = bool(np.all(preds >= targets.values.min())
                   and np.all(preds <= targets.values.max()))

    ok = split_exact and refit_identical and bounded
    _report(5, "forest split exact, refit byte-identical, bounded", ok,
            f"split {split_exact}, refit {refit_identical}, "
            f"bounded {bounded}")


def test_acceptance_6_pipeline_comparison(noisy_set):
    """All three pipelines cross-validate; the forest beats the correlation."""
    _, curves, _, _ = noisy_set
    started = time.perf_counter()
    means = {}
    specs = {
        "empirical": PipelineSpec(EmpiricalKind()),
        "pca-lm": PipelineSpec(PcaLmKind()),
        "rf": PipelineSpec(ForestKind(config=ForestConfig(n_trees=200, seed=0))),
    }
    for name, spec in specs.items():
        report = cross_validate(curves, spec, k=10, seed=0)
        means[name] = report.mean_rmse
    elapsed = time.perf_counter() - started

    finite = all(np.isfinite(v) for v in means.values())
    ordering = means["rf"] <= 1.1 * means["empirical"]
    ok = finite and ordering and elapsed < 60.0
    detail = ", ".join(f"{k} {v:.2f} MPa" for k, v in means.items())
    _report(6, "three-pipeline 10-fold comparison under budget", ok,
            f"{detail}, {elapsed:.1f}s")


def test_acceptance_7_no_leakage(tmp_path):
    """Held-out targets leave every fold's fitted model bit-identical."""
    raw, _ = generate(SynthConfig(n_materials=3, curves_per_material=8,
                                  noise_sigma_N=5.0, seed=7))
    curves = [resample(c, GRID) for c in raw]
    from smallpunch.evaluation import kfold_split

    k = 3
    folds = kfold_split(len(curves), k, seed=1)

    def model_bytes(trained, path):
        save_model(path, trained, {})
        return path.read_bytes()

    ok = True
    details = []
    for name, spec in (
        ("empirical", PipelineSpec(EmpiricalKind())),
        ("pca-lm", PipelineSpec(PcaLmKind())),
        ("rf", PipelineSpec(ForestKind(config=ForestConfig(n_trees=10, seed=2)))),
    ):
        base = cross_validate(curves, spec, k=k, seed=1, collect_models=True)
        unchanged = 0
        for fi, held_out in enumerate(folds):
            mutated = list(curves)
            for i in held_out:
                c = curves[i]
                mutated[i] = UniformCurve(
                    grid=c.grid,
                    force_N=c.force_N,
                    meta=replace(c.meta, rm_MPa=777.0),
                    n_extrapolated=c.n_extrapolated,
                )
            poked = cross_validate(mutated, spec, k=k, seed=1,
                                   collect_models=True)
            same = model_bytes(
                base.fold_models[fi], tmp_path / f"{name}_{fi}_a.json"
            ) == model_bytes(
                poked.fold_models[fi], tmp_path / f"{name}_{fi}_b.json"
            )
            unchanged += int(same)
        ok = ok and unchanged == k
        details.append(f"{name} {unchanged}/{k} folds unchanged")
    _report(7, "held-out targets cannot reach any fold's fit", ok,
            ", ".join(details))


def test_acceptance_8_cli_round_trip(tmp_path, monkeypatch, capsys):
    """Seeded commands are byte-stable and predict matches the library."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")

    def run(*argv):
        code = cli_main(list(argv))
        capsys.readouterr()
        return code

    data_a, data_b = tmp_path / "a", tmp_path / "b"
    synth_flags = ("--materials", "3", "--per-material", "6",
                   "--noise-sigma", "5", "--seed", "7")
    assert run("synth", *synth_flags, "--out", str(data_a)) == 0
    assert run("synth", *synth_flags, "--out", str(data_b)) == 0
    synth_stable = all(
        (data_a / p.name).read_bytes() == p.read_bytes()
        for p in sorted(data_b.iterdir())
    )

    manifest = data_a / "manifest.csv"
    train_stable = True
    predict_exact = True
    for family, extra in (("empirical", ()), ("pca-lm", ()),
                          ("rf", ("--trees", "30"))):
        m1 = tmp_path / f"{family}_1.json"
        m2 = tmp_path / f"{family}_2.json"
        assert run("train", str(manifest), "--pipeline", family, *extra,
                   "--out", str(m1)) == 0
        assert run("train", str(manifest), "--pipeline", family, *extra,
                   "--out", str(m2)) == 0
        train_stable = train_stable and m1.read_bytes() == m2.read_bytes()

        pred_path = tmp_path / f"{family}_pred.csv"
        assert run("predict", str(manifest), "--model", str(m1),
                   "--out", str(pred_path)) == 0
        trained, _ = load_model(m1)
        names, curves = load_curves(manifest, trained.grid)
        expected = predict_pipeline(trained, curves)
        rows = pred_path.read_text().splitlines()[1:]
        got = {r.split(",")[0]: float(r.split(",")[3]) for r in rows}
        predict_exact = predict_exact and all(
            got[n] == v for n, v in zip(names, expected)
        )

    cv_a, cv_b = tmp_path / "cv_a", tmp_path / "cv_b"
    for out in (cv_a, cv_b):
        assert run("cv", str(manifest), "--pipeline", "pca-lm", "--k", "3",
                   "--seed", "2", "--out", str(out)) == 0
    cv_stable = all(
        (cv_a / p.name).read_bytes() == p.read_bytes()
        for p in sorted(cv_b.iterdir())
    )

    ok = synth_stable and train_stable and predict_exact and cv_stable
    _report(8, "CLI byte-stable and faithful to the library", ok,
            f"synth {synth_stable}, train {train_stable}, "
            f"predict {predict_exact}, cv {cv_stable}")


def test_acceptance_9_resampling_contracts():
    """Interpolation is exact on affine data and idempotent bit for bit."""
    from smallpunch.curves import RawCurve

    disp = np.linspace(0.0, 1.6, 400)
    affine = RawCurve(displacement_mm=disp, force_N=200.0 * disp + 3.0,
                      meta=make_meta())
    uniform = resample(affine, GRID)
    affine_err = float(np.max(np.abs(
        uniform.force_N - (200.0 * GRID.displacements() + 3.0))))

    again = resample(
        RawCurve(displacement_mm=GRID.displacements(),
                 force_N=uniform.force_N, meta=make_meta()),
        GRID,
    )
    idempotent = bool(np.array_equal(uniform.force_N, again.force_N))

    base = np.concatenate([np.linspace(0.0, 100.0, 60) ** 1.5 / 10.0,
                           np.full(91, 1000.0)])
    curve = make_uniform(base, grid=GRID)
    scaled = make_uniform(base * 4.0, grid=GRID)
    equivariant = True
    for strategy, v_star in ((MARKER_MAX_SLOPE, None), (MARKER_FIXED_V, 0.37)):
        m1 = extract_markers(curve, strategy, v_star)
        m4 = extract_markers(scaled, strategy, v_star)
        equivariant = equivariant and (
            m4.f_max_N == 4.0 * m1.f_max_N
            and m4.f_instability_N == 4.0 * m1.f_instability_N
            and m4.v_instability_mm == m1.v_instability_mm
        )

    ok = affine_err <= 1e-12 and idempotent and equivariant
    _report(9, "resampling exact, idempotent, scale-equivariant", ok,
            f"affine {affine_err:.1e}, idempotent {idempotent}, "
            f"equivariant {equivariant}")
