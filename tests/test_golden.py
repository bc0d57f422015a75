"""Golden parity: every output of a fixed CLI script, byte for byte.

The script synthesizes a small dataset, then trains, predicts,
cross-validates and reports with every pipeline family.  The sha256 of
each file it writes and of each command's stdout was recorded once; a
change that alters any output bit fails here.  A second gate does the
same for full-size forests: 200-tree rf and rf-scores models fitted on
the 120-curve reference set, their model files, predictions and
permutation importances.  A third pins two rf model files written before
forests grew level by level: they must load, predict their recorded bits
and save back byte for byte.  Floating-point results may differ in the last
bits under another numpy build, so the digests hold only for the numpy
version they were recorded with, and the tests skip elsewhere.

To record the digests again after an intended change of output, run
``PYTHONPATH=src python tests/test_golden.py`` and paste its output
over GOLDEN_NUMPY, GOLDEN and GOLDEN_FOREST, giving the reason in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from smallpunch.cli import main
from smallpunch.curves import GridSpec, resample
from smallpunch.features import apply_standardizer, assemble
from smallpunch.forest import ForestConfig, permutation_importances
from smallpunch.modelfile import load_model, save_model
from smallpunch.pca import transform
from smallpunch.pipeline import ForestKind, PipelineSpec, fit_pipeline, predict_pipeline
from smallpunch.synth import SynthConfig, generate

EPOCH = "1700000000"

# model name -> train flags; predict and cv reuse them
MODELS = {
    "empirical": ("--pipeline", "empirical"),
    "empirical-fixed-v": ("--pipeline", "empirical", "--marker", "fixed-v"),
    "pca-lm": ("--pipeline", "pca-lm"),
    "rf": ("--pipeline", "rf", "--trees", "10"),
    "rf-scores": ("--pipeline", "rf", "--trees", "10", "--rf-input", "scores"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_script(root: Path) -> dict[str, str]:
    """Run the script under root; digests of its stdout and files by name."""
    digests: dict[str, str] = {}

    def cli(key: str, *argv: str) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([str(a) for a in argv])
        assert code == 0, f"{key} exited {code}"
        digests[f"stdout {key}"] = _sha(out.getvalue().replace(str(root), "<root>").encode())

    data = root / "data"
    manifest = data / "manifest.csv"
    truth = ("--truth", data / "truth.csv")
    cli("synth", "synth", "--materials", "3", "--per-material", "6",
        "--noise-sigma", "5", "--seed", "7", "--out", data)
    for name, flags in MODELS.items():
        extra = truth if "fixed-v" in name else ()
        model = root / f"model_{name}.json"
        cli(f"train {name}", "train", manifest, *flags, *extra, "--out", model)
        cli(f"predict {name}", "predict", manifest, "--model", model, *extra,
            "--out", root / f"pred_{name}.csv")
        cv_dir = root / f"cv_{name}"
        cli(f"cv {name}", "cv", manifest, *flags, *extra, "--k", "3", "--out", cv_dir)
        family = flags[1]
        cli(f"report {name}", "report", cv_dir / f"{family}_samples.csv",
            "--out", root / f"report_{name}.csv")

    for path in sorted(root.rglob("*")):
        if path.is_file():
            digests[path.relative_to(root).as_posix()] = _sha(path.read_bytes())
    return digests


def forest_digests(root: Path) -> dict[str, str]:
    """Digests of 200-tree forests on the reference set (seed 7, 5 N noise)."""
    raw, _ = generate(SynthConfig(noise_sigma_N=5.0, seed=7))
    curves = [resample(c, GridSpec()) for c in raw]
    matrix, targets = assemble(curves)
    digests: dict[str, str] = {}
    for name, rf_input in (("rf", "raw"), ("rf-scores", "scores")):
        kind = ForestKind(config=ForestConfig(n_trees=200, seed=0), input=rf_input)
        trained = fit_pipeline(curves, PipelineSpec(kind))
        path = root / f"{name}.json"
        save_model(path, trained, {"seed": 0})
        loaded, _ = load_model(path)
        prepared = apply_standardizer(trained.standardizer, matrix)
        design = transform(trained.pca, prepared) if kind.uses_pca else prepared.values
        importances = permutation_importances(loaded.model, design, targets.values, seed=0)
        digests[f"model {name}"] = _sha(path.read_bytes())
        digests[f"predict {name}"] = _sha(predict_pipeline(loaded, curves).tobytes())
        digests[f"permutation {name}"] = _sha(importances.tobytes())
    return digests


GOLDEN_NUMPY = '2.4.6'
GOLDEN: dict[str, str] = {
    'stdout synth': 'b91e9f9dc01a9ddc8c945ae4987a0c67c5be9203e5296aa9255c7810fb22e645',
    'stdout train empirical': '9ae1f894bc2408f3a4bf2df9e93c5507ad974fe217e188168084e3758bdb6d81',
    'stdout predict empirical': 'a9d239fdd0bcdf38aaf565a2a7e72ffe78c2844e1a039b0f53d195c61388ea40',
    'stdout cv empirical': 'aa31800d88a8ad40397f74ffdfe1aac9eabc82fef0b0e04c20994eb04cfe3575',
    'stdout report empirical': '806141a63c40b3caeaffdfda2df5951e74c9b13ea19ea61ff88906a0f0a3fb16',
    'stdout train empirical-fixed-v': '177db131e36a5237b8e7965bf138087acebed18a77221b7a8442e9e4f774e12e',
    'stdout predict empirical-fixed-v': '132c4d60303726c4fcb5eae94c2757dcba5953ae03fc49f8900b5f5fb3df3cca',
    'stdout cv empirical-fixed-v': '4d6c5f7d266e19cfe1a35482c4451d9651f0336896253bcc0dbf2341b27d638b',
    'stdout report empirical-fixed-v': '65361180e0381f5dc2912654e1be83f574f551ca67febd35b068cc98afff7b83',
    'stdout train pca-lm': 'c27986573e5728f7c45e2d137fed144ff31d804f2ba56d7270db3a51c69d7698',
    'stdout predict pca-lm': 'e608c9358eb68d36565d5e76e1d996f1852eba2bf409c6ba3282d0be3a544444',
    'stdout cv pca-lm': '8b42e9860ad04a116aecad3778976dd838369220c03bbad6f55bf12f23e1905c',
    'stdout report pca-lm': '5413772139588eb6abd4e8c1057f1d0d791956ef9971321f26915e57d2b80f3d',
    'stdout train rf': 'ba833c68cf8027b0ddabe9d75f1755add1083fef3234cbadb70268aa2423bfd9',
    'stdout predict rf': '90376b2b0224b3a70e38f19bd50f4d4c5afea7e1110032e56ea783b89fa1ad43',
    'stdout cv rf': '4737f0c795df52312ff6cdcd31e975ffe68c3a7d220dbca0bab9276f90772947',
    'stdout report rf': 'ada8937c3f0cbfa6337afe181026e6c87ef05c9a63ec829549bb60ffef0ec678',
    'stdout train rf-scores': 'd0cdda85a1d69e50018f7998553aa0847acd379361e5007aacba6eb014244a83',
    'stdout predict rf-scores': 'a9d1f1b786ff5de5e5e84bf31430c964b9afc9cea425287f21d208f01fdc05bf',
    'stdout cv rf-scores': '27f00ffd14a145c3d25cdb1e52aa0cac787e5c63823d26f03e3efd78cfff88d8',
    'stdout report rf-scores': '9c69c766fb5773dbceab211f2b3c7d071a2650932da5474ea728550a45b23f02',
    'cv_empirical/empirical_folds.csv': '34a8f439e9c53b9167d07c4181631f5904f0ccc1799695a07bc114f6ca2adffb',
    'cv_empirical/empirical_samples.csv': '4cba79d96cb17bb0e583361c0e0d92d701389f6907f8500a8cc49116d14f0f80',
    'cv_empirical/empirical_summary.csv': 'c0127461146f3ece8dd6a9332db2c7a7fd9c473402482bc7d02c7ae47a5159b2',
    'cv_empirical-fixed-v/empirical_folds.csv': '3e177295dee8adcb0fcfa9e4a9f9f6fcd0f3794ab3834ba2db2909edafcdd6e6',
    'cv_empirical-fixed-v/empirical_samples.csv': 'a331fee12cce9de9458948abd7dc1afcb18cb5f0cc899745ebe6f9e74f826843',
    'cv_empirical-fixed-v/empirical_summary.csv': '7ce7716f8fc111b2889c10a4f2f2e92932119d6365f6d1c1498b24b9396eee75',
    'cv_pca-lm/pca-lm_folds.csv': 'e15d33152721cd68ab7e14ef0bda2cb46040663b8654fc6156f76c85fb6dba0d',
    'cv_pca-lm/pca-lm_samples.csv': '9bebc9088df9acc33bbe4dfdf169d89998021e834f14dca54eb4e142d165e454',
    'cv_pca-lm/pca-lm_summary.csv': 'f6ad0264172ad584a9889c2ee6fa70a2df62eda79025f4838b1fdc88e09d6f51',
    'cv_rf/rf_folds.csv': 'ef6d374303d48627bd3d233fc36520204735c309cf546c112158518fe338eeab',
    'cv_rf/rf_samples.csv': '9ff5ba470670ab4efd6edd45e3f2b8d2e2ddff8c7a1ab9ae82b6056b628d62f4',
    'cv_rf/rf_summary.csv': 'e4ae6111da9539be07d94d137300c14093f8a37758047706926570478bb38627',
    'cv_rf-scores/rf_folds.csv': '0fc0bbb79b9387b8624f8e96e6897021460463e5c67e9df74c42542c6b2a5695',
    'cv_rf-scores/rf_samples.csv': 'bcd7dd2bf835891efa31436224f68b79d36ab29d86389ba4e711b037d856d23d',
    'cv_rf-scores/rf_summary.csv': '25db7c93df6920d0f8b439819091be4b15f7de3fbdb58e6777babfae9a02b5df',
    'data/m00_c00.csv': '0ef8b9771de07d21d3a98bb6ba1460d3ab1e073aed2c00decc51565207c553d5',
    'data/m00_c01.csv': 'fafdde49d048133360bfffcdd99fcb7476a5bd437438e8b7d7a5bcb4fdbae469',
    'data/m00_c02.csv': '8556bfc6bbe66a84e361b747e7e04e13456a4eddbb42d5e9d4a7c53bccdb1ca6',
    'data/m00_c03.csv': '19f766d4aa8b8f41e839488749538df4ced02c6ce5053b3f4ee75fd17bf669f8',
    'data/m00_c04.csv': '2321b3dcb62bf60df561f0e0597bb5061197decf017d0e5f6340d5f872391f4f',
    'data/m00_c05.csv': '54e68a8c768bd9a8f52833c7585cbd2fa30bee5cc1db2007403b4c9e0b3f72f0',
    'data/m01_c00.csv': '729c05c7deddae9551d382a2d1cb8be1d3b9a279dc094b1aedba2530019c7432',
    'data/m01_c01.csv': 'db3ee047542326306b1af82af3e8e289565eec49c91273c1defa0f22b6aa3c28',
    'data/m01_c02.csv': '420412fec6744f4e66a21bc320bb5b1a590ba64ad3b36cc4d050ffe8e7bffef1',
    'data/m01_c03.csv': 'd9f41096590609d740173c0ef609f7221701d470703714890fca90e24d72cd8e',
    'data/m01_c04.csv': 'f79603a1a93e4340ced356593cd316d06625aa35e933b1be49b14e4b4b0432ac',
    'data/m01_c05.csv': 'a881283db2d389a6846358da0228b14874404b33134d9b851915e31037b8da43',
    'data/m02_c00.csv': '0ff0964eac23bdbc1a708a92ef284dc75bb92a084ab53762467fa7812a782309',
    'data/m02_c01.csv': '03b9a480d0748a28abb19c26f85ffe732eebf213d09c9e08c830598c84d12f76',
    'data/m02_c02.csv': '44494a4da72461c8a9d5fd0d8750e3ec8b165a59450025ccf5c51d831388c523',
    'data/m02_c03.csv': '3e4b8610b13d3e0c476fb53390edcd1e5fbd4c91562c759307c09d1b3f250bd4',
    'data/m02_c04.csv': 'ee2c7740b3385c165f88440616d7d7ab80e004bd40ca7d5bc4a0a13a76480eac',
    'data/m02_c05.csv': 'b1f301a9d34f519312eebd2602f34041e30080d9a3cb00876b7dad11b6856741',
    'data/manifest.csv': '9e6dfc524d9f676b58cc5d15199615737b08613117663d7d517b4c590a9c09fb',
    'data/truth.csv': '4159b98ac706cbaad0f7d3b3703be0a681062054b8ca3de715ea221f6b8aa96a',
    'model_empirical-fixed-v.json': '3b9011006e143fbfd6b91c554f48ff2bf4b9e1a9d7199910cf9c419e7c65e802',
    'model_empirical.json': 'bf3d844674f54bb0f57a6cf9986fe3ae73834866a85963287adbd59799130e27',
    'model_pca-lm.json': 'f2273d2d224978ae046e86b6fbb118f8ac1b8a7e738421463741e1845b0e2035',
    'model_rf-scores.json': '07d4a5ed1eb0ade27ea2310b1f88289e29a527b821811cd4d9e71410a7f97987',
    'model_rf.json': '8a4f9ccf044ee840bdf834546ef9c5543aa86767667174790f8b779e80ba2a56',
    'pred_empirical-fixed-v.csv': 'd31ade20fefe5ccf0b45a50dd5816a36c765629d710365674d87397b520d4b4a',
    'pred_empirical.csv': '1431e30e7a5228c0eb337c63440cdc2da6db0192d204eb04f3f3316f234d79d0',
    'pred_pca-lm.csv': 'd41b150ddb92b01f2abe09783728edede98dd6a37f2b083aaee363ff38242305',
    'pred_rf-scores.csv': '509dd259238c379fc15b634adc10a03ff9b79d94182bdfd1c2ca68d97dc08955',
    'pred_rf.csv': 'aa754c8773f5d0e09184867e532be1be2d7626778484528572cc1b4fd9247e75',
    'report_empirical-fixed-v.csv': 'cce6f61abd9101832ad489fa3b95fc77fd2fdbdddb43d52f58cc7928ea3add7c',
    'report_empirical.csv': '77c8b8be51be7553c5d6c35cc4d62a4d9d826b47333a2d70302da7ecad07028f',
    'report_pca-lm.csv': '70af1ae72132b7519d48a94669d0ceaf383cd8bfcdf916d9afb88e37ce1671c1',
    'report_rf-scores.csv': '0d94e76c0d53281b8c7f69abdc43cbb3362283a3e374f9b07b7bbd6870e25da5',
    'report_rf.csv': 'cd9c80edf3b2bf59ef17e9286e903c7734e9cc3314f2ff966ba9235cb10c0a94',
}


GOLDEN_FOREST: dict[str, str] = {
    'model rf': '451a7557e97437b6809e9334f3acfa956d596d90ab3d5f8deebd4e307ff3bc13',
    'predict rf': 'ea9c2d28621fe65d00525c6929cdf8f6612425d0d8d13d96d52be2f1d48bd877',
    'permutation rf': '909348e1bdb9caf56893089fbb519d98a80ec5d08c39e7d1e35db8220fe5bd82',
    'model rf-scores': 'ced73870f87e0955cdb76043d34a9fef1b42de68363772c38df175d4b5ba74f0',
    'predict rf-scores': '42ce8722e608821014108ee02e1cdab0ae7177fd12fbb7af5cc56528ccdbdfa5',
    'permutation rf-scores': '1b5f3e554e94bd3ee1491e9d6819c9175f5fa13511770a34592fa88c025411a2',
}


# rf and rf-scores model files that `train --trees 10` wrote on the synth set
# above (3 x 6 curves, sigma 5 N, seed 7) before forests grew level by level,
# with the digests of their predictions on that set generated in memory.
# Training may change the trees; reading an old file may not change a bit.
DATA = Path(__file__).parent / "data"
PINNED: dict[str, str] = {
    'rf_10_trees_v1.json': '8ec085c190e01329130cb1629b6c7734d923fb22e105f5947760e5f6323fe4c3',
    'rf_scores_10_trees_v1.json': 'b7b5760c7f31ec1e31caa197cebaf26922eacd1055f9ac0280c1c297dcdaa0a9',
}


def _skip_other_numpy() -> None:
    if np.__version__ != GOLDEN_NUMPY:
        pytest.skip(f"digests recorded with numpy {GOLDEN_NUMPY}, running {np.__version__}")


def test_cli_outputs_match_golden_digests(tmp_path, monkeypatch):
    _skip_other_numpy()
    monkeypatch.setenv("SOURCE_DATE_EPOCH", EPOCH)
    assert run_script(tmp_path) == GOLDEN


def test_reference_forests_match_golden_digests(tmp_path):
    _skip_other_numpy()
    assert forest_digests(tmp_path) == GOLDEN_FOREST


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_model_files_predict_and_save_unchanged(tmp_path, name):
    path = DATA / name
    trained, provenance = load_model(path)
    again = tmp_path / name
    save_model(again, trained, provenance)
    assert again.read_bytes() == path.read_bytes()

    _skip_other_numpy()
    raw, _ = generate(SynthConfig(n_materials=3, curves_per_material=6,
                                  noise_sigma_N=5.0, seed=7))
    predictions = predict_pipeline(trained, [resample(c, trained.grid) for c in raw])
    assert _sha(predictions.tobytes()) == PINNED[name]


if __name__ == "__main__":
    os.environ["SOURCE_DATE_EPOCH"] = EPOCH
    with tempfile.TemporaryDirectory() as tmp:
        got = run_script(Path(tmp))
        got_forest = forest_digests(Path(tmp))
    print(f"GOLDEN_NUMPY = {np.__version__!r}")
    for title, table in (("GOLDEN", got), ("GOLDEN_FOREST", got_forest)):
        print(f"{title} = {{")
        for key, digest in table.items():
            print(f"    {key!r}: {digest!r},")
        print("}")
