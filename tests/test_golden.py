"""Golden parity: every output of a fixed CLI script, byte for byte.

The script synthesizes a small dataset, then trains, predicts,
cross-validates and reports with every pipeline family.  The sha256 of
each file it writes and of each command's stdout was recorded once; a
change that alters any output bit fails here.  A second gate does the
same for full-size forests: 200-tree rf and rf-scores models fitted on
the 120-curve reference set, their model files, predictions and
permutation importances.  Floating-point results may differ in the last
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
    'stdout train rf': '9d7aaa74ed4f1024301959944abf2ad81f04691b5dddfea306e2eb1c0657d422',
    'stdout predict rf': '90376b2b0224b3a70e38f19bd50f4d4c5afea7e1110032e56ea783b89fa1ad43',
    'stdout cv rf': '7faac6004561dea2290b6ceddbbce7b00b2ff46aae6e08dc2564bcddf386cbb6',
    'stdout report rf': 'd49428a8a6729447a383ae6fd8e3b09271730a8bc1822c5725def031f60748e5',
    'stdout train rf-scores': 'ffe69598814b9a5f7e3e782c3d87e51b86bc03acc159c7c1ef72fad9c18a40da',
    'stdout predict rf-scores': 'a9d1f1b786ff5de5e5e84bf31430c964b9afc9cea425287f21d208f01fdc05bf',
    'stdout cv rf-scores': 'c8051a78d2e8c04333c7a6b7539f4ad498f48fb8ae32b149e2be7637c73cb495',
    'stdout report rf-scores': 'a17a2254882165c4fb0e85ff87d3864a53a4c70d3c46f04117cdbaf2f3cde278',
    'cv_empirical/empirical_folds.csv': '34a8f439e9c53b9167d07c4181631f5904f0ccc1799695a07bc114f6ca2adffb',
    'cv_empirical/empirical_samples.csv': '4cba79d96cb17bb0e583361c0e0d92d701389f6907f8500a8cc49116d14f0f80',
    'cv_empirical/empirical_summary.csv': 'c0127461146f3ece8dd6a9332db2c7a7fd9c473402482bc7d02c7ae47a5159b2',
    'cv_empirical-fixed-v/empirical_folds.csv': '3e177295dee8adcb0fcfa9e4a9f9f6fcd0f3794ab3834ba2db2909edafcdd6e6',
    'cv_empirical-fixed-v/empirical_samples.csv': 'a331fee12cce9de9458948abd7dc1afcb18cb5f0cc899745ebe6f9e74f826843',
    'cv_empirical-fixed-v/empirical_summary.csv': '7ce7716f8fc111b2889c10a4f2f2e92932119d6365f6d1c1498b24b9396eee75',
    'cv_pca-lm/pca-lm_folds.csv': 'e15d33152721cd68ab7e14ef0bda2cb46040663b8654fc6156f76c85fb6dba0d',
    'cv_pca-lm/pca-lm_samples.csv': '9bebc9088df9acc33bbe4dfdf169d89998021e834f14dca54eb4e142d165e454',
    'cv_pca-lm/pca-lm_summary.csv': 'f6ad0264172ad584a9889c2ee6fa70a2df62eda79025f4838b1fdc88e09d6f51',
    'cv_rf/rf_folds.csv': 'e35902e51307a7bfb6b1d74285c39c956a9cd50d84aedce4002064ece3e58078',
    'cv_rf/rf_samples.csv': '6d7920082dfbc8ec7df0212038cb0ed09fe9322b70802b993dcbd9113f50412a',
    'cv_rf/rf_summary.csv': '96c426f2bcda45e54d9d2bd49870815e3d8d37b1e36dd726f6abc1bc3a233494',
    'cv_rf-scores/rf_folds.csv': '39712aecbae104b060b075bc4fb0f4151ae02e12906968211d2c8d835f592d62',
    'cv_rf-scores/rf_samples.csv': '49e443d3d6e2a50cd077cca3a9750d6e55dc7db685d2373634eafce5e99288a5',
    'cv_rf-scores/rf_summary.csv': 'acb62a45fe751cef1bb63f5731e8d3e9a95901fd2bc4a37c62fcb9c8721258f8',
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
    'model_rf-scores.json': '9dd2acf710be15a99341fbbe9a0cf9c232e588b422dbb3898f5896592f3238e9',
    'model_rf.json': '1349b9a3440d75f58a325c45b6e2dc54bf0af50ef2e4e64086b398f670e1eef1',
    'pred_empirical-fixed-v.csv': 'd31ade20fefe5ccf0b45a50dd5816a36c765629d710365674d87397b520d4b4a',
    'pred_empirical.csv': '1431e30e7a5228c0eb337c63440cdc2da6db0192d204eb04f3f3316f234d79d0',
    'pred_pca-lm.csv': 'd41b150ddb92b01f2abe09783728edede98dd6a37f2b083aaee363ff38242305',
    'pred_rf-scores.csv': 'a32cd4fcbfe5ee39a5ff253ce894ed414ccc33000214cf829d96b30d41f6a049',
    'pred_rf.csv': '04ad6ece491b79933c57db3c7d2dc020f974eda7048d949fb43ea60a7f18d389',
    'report_empirical-fixed-v.csv': 'cce6f61abd9101832ad489fa3b95fc77fd2fdbdddb43d52f58cc7928ea3add7c',
    'report_empirical.csv': '77c8b8be51be7553c5d6c35cc4d62a4d9d826b47333a2d70302da7ecad07028f',
    'report_pca-lm.csv': '70af1ae72132b7519d48a94669d0ceaf383cd8bfcdf916d9afb88e37ce1671c1',
    'report_rf-scores.csv': '48360649914968ab79c325ee7d9e2f6b82bc76318555959cae1225a700eaf069',
    'report_rf.csv': '48029756300d9b5e3a6029defb26957a08917a92b56a5e7e6a83717a0f14e895',
}


GOLDEN_FOREST: dict[str, str] = {
    'model rf': 'ce4c774d20bfa237d1e9df838733f6cee9313e5e64f60b45c5c9c89f322b7a98',
    'predict rf': '7c6a01804bf614850a1781f9c9e448d315a724810465692021f4f55036a548c9',
    'permutation rf': '63c25428c7fd3703c3ebfa3cd4a35b176c9c54762c809664b8fa673f6948d3b5',
    'model rf-scores': '8690122001d32bb4dca8927adb66c5299197b590b1445ac8166faba17d100b5d',
    'predict rf-scores': 'e2c1d3beb75324fa3b31fe3cf30fc7edd858dfe86ae1cc911f7800df607f080e',
    'permutation rf-scores': '068a5c8a4ac4df242a7d8fd17bbc1ffc704f32120ddb6c70432adb7d3d6b3b13',
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
