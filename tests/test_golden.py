"""Golden parity: every output of a fixed CLI script, byte for byte.

The script synthesizes a small dataset, then trains, predicts,
cross-validates and reports with every pipeline family.  The sha256 of
each file it writes and of each command's stdout was recorded once; a
change that alters any output bit fails here.  A second gate does the
same for full-size forests: 200-tree rf and rf-scores models fitted on
the 120-curve reference set, their model files and predictions.  A third
pins model files of older formats: two format 1 rf files written before
forests grew level by level, the six format 2 files the script wrote
before format 3 stored each fact once, its six format 3 files with two
more trained without standardizing before format 4 always standardized,
its six format 4 files before format 5 dropped the model block's type, and
its six format 5 files before format 6 stored a fixed-v model's v_star.
Each must load and predict its recorded bits, and saved again in the
current format it must load to the same model and save back byte for
byte.  A fourth holds the empirical family on the reference set: the
per-sample bytes of its 10-fold CV and its fitted beta, for both modes
with the max-slope marker and for instability-force with the fixed-v
marker, which max-force refuses.  Floating-point results may differ in
the last bits under another numpy build, so the digests hold only for the
numpy version they were recorded with, and the tests skip elsewhere.

To record the digests again after an intended change of output, run
``PYTHONPATH=src python tests/test_golden.py`` and paste its output
over GOLDEN_NUMPY, GOLDEN, GOLDEN_FOREST and GOLDEN_EMPIRICAL, giving the
reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from smallpunch.cli import main
from smallpunch.curves import GridSpec, resample
from smallpunch.forest import ForestConfig, _NodeTable
from smallpunch.modelfile import FORMAT_VERSION, load_model, save_model
from smallpunch.evaluation import cross_validate
from smallpunch.pipeline import (
    EmpiricalKind,
    ForestKind,
    fit_pipeline,
    predict_pipeline,
)
from smallpunch.synth import SynthConfig, generate

from conftest import with_v_i

EPOCH = "1700000000"

# model name -> train flags; predict and cv reuse them
MODELS = {
    "empirical": ("--pipeline", "empirical"),
    "empirical-fixed-v": ("--pipeline", "empirical", "--marker", "fixed-v"),
    "empirical-max-force": ("--pipeline", "empirical", "--mode", "max-force"),
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
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
        assert code == 0, f"{key} exited {code}: {err.getvalue()}"
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
    digests: dict[str, str] = {}
    for name, rf_input in (("rf", "raw"), ("rf-scores", "scores")):
        kind = ForestKind(config=ForestConfig(n_trees=200, seed=0), input=rf_input)
        trained = fit_pipeline(curves, kind)
        path = root / f"{name}.json"
        save_model(path, trained, {"seed": 0})
        loaded, _ = load_model(path)
        digests[f"model {name}"] = _sha(path.read_bytes())
        digests[f"predict {name}"] = _sha(predict_pipeline(loaded, curves).tobytes())
    return digests


def empirical_digests() -> dict[str, str]:
    """10-fold CV and fitted beta of the empirical family on the reference set.

    Both modes with the max-slope marker, and instability-force with the
    fixed-v marker at the planted v_i (seed 7, 5 N noise): the per-sample
    (row, truth, prediction) bytes of each cross-validation and the exact
    beta of a fit on all curves.
    """
    raw, truth = generate(SynthConfig(noise_sigma_N=5.0, seed=7))
    curves = [resample(c, GridSpec()) for c in raw]
    curves = with_v_i(curves, [rec.v_i_mm for rec in truth])
    digests: dict[str, str] = {}
    for mode, marker in (("max-force", "max-slope"), ("instability-force", "max-slope"),
                         ("instability-force", "fixed-v")):
        kind = EmpiricalKind(mode=mode, marker_strategy=marker)
        report = cross_validate(curves, kind, k=10, seed=0)
        beta = fit_pipeline(curves, kind).model.beta
        digests[f"cv {mode} {marker}"] = _sha(np.array(report.per_sample).tobytes())
        digests[f"beta {mode} {marker}"] = repr(beta)
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
    'stdout train empirical-max-force': '5c3eb76fc05c7d3a99715cb4fbd2f161be1e330a7cbcf730fac91e764f5cb29e',
    'stdout predict empirical-max-force': '1d6e97f7e7ee76d1373e9814885478b28af54ea02051d3bc50c0d7143833a9a0',
    'stdout cv empirical-max-force': 'd70ecf72277a1e64193cafa0eb27b4e28667d2fe8b5684e6d43e8eec72620ed8',
    'stdout report empirical-max-force': 'f6292d6fd43dda9d1aad4ef3801839eb94bcb260ae2a0b02acdd3aff547994b9',
    'stdout train pca-lm': 'c27986573e5728f7c45e2d137fed144ff31d804f2ba56d7270db3a51c69d7698',
    'stdout predict pca-lm': 'e608c9358eb68d36565d5e76e1d996f1852eba2bf409c6ba3282d0be3a544444',
    'stdout cv pca-lm': '8b42e9860ad04a116aecad3778976dd838369220c03bbad6f55bf12f23e1905c',
    'stdout report pca-lm': '5413772139588eb6abd4e8c1057f1d0d791956ef9971321f26915e57d2b80f3d',
    'stdout train rf': '6308a3c163b025dbd14ebc479946094ba518349f5416c3a7f9af99a0c9a1b4ab',
    'stdout predict rf': '90376b2b0224b3a70e38f19bd50f4d4c5afea7e1110032e56ea783b89fa1ad43',
    'stdout cv rf': '4a5a4923bfe332599360e6b12e3b52a457864f804732bb32b52ecbff08e525b2',
    'stdout report rf': '3a68966db3d1db8ce568a43c8b70d342a519fc12007b0ba9af1dd1699b652e16',
    'stdout train rf-scores': '74e7f15af181aa3fe6f6c1ff911eb5bdcf8137ac8078152258285880c9f2c7d3',
    'stdout predict rf-scores': 'a9d1f1b786ff5de5e5e84bf31430c964b9afc9cea425287f21d208f01fdc05bf',
    'stdout cv rf-scores': '06f7afdddb1b4661d94c70274c66cb9fcd6528aca47b9ede549b055ba96df278',
    'stdout report rf-scores': '8a6bf92212f54341bfd0729fed732713ba694e857d6794971a9f054f8c1570d5',
    'cv_empirical/empirical_folds.csv': '34a8f439e9c53b9167d07c4181631f5904f0ccc1799695a07bc114f6ca2adffb',
    'cv_empirical/empirical_samples.csv': '4cba79d96cb17bb0e583361c0e0d92d701389f6907f8500a8cc49116d14f0f80',
    'cv_empirical/empirical_summary.csv': 'c0127461146f3ece8dd6a9332db2c7a7fd9c473402482bc7d02c7ae47a5159b2',
    'cv_empirical-fixed-v/empirical_folds.csv': '3e177295dee8adcb0fcfa9e4a9f9f6fcd0f3794ab3834ba2db2909edafcdd6e6',
    'cv_empirical-fixed-v/empirical_samples.csv': 'a331fee12cce9de9458948abd7dc1afcb18cb5f0cc899745ebe6f9e74f826843',
    'cv_empirical-fixed-v/empirical_summary.csv': '7ce7716f8fc111b2889c10a4f2f2e92932119d6365f6d1c1498b24b9396eee75',
    'cv_empirical-max-force/empirical_folds.csv': '2e9f952a785a067e4ec279c1d9b77c0ab4668b2608e8556896a9ab7dcde229d4',
    'cv_empirical-max-force/empirical_samples.csv': 'd874c1f17014aa6e3f44414212026958d0b3b0d2835155dc940670c0ad962a5b',
    'cv_empirical-max-force/empirical_summary.csv': 'd89a192e678791a1c40687a4e73bd82fe245506c72989f8c4c6c7819d3dfa99d',
    'cv_pca-lm/pca-lm_folds.csv': 'e15d33152721cd68ab7e14ef0bda2cb46040663b8654fc6156f76c85fb6dba0d',
    'cv_pca-lm/pca-lm_samples.csv': '9bebc9088df9acc33bbe4dfdf169d89998021e834f14dca54eb4e142d165e454',
    'cv_pca-lm/pca-lm_summary.csv': 'f6ad0264172ad584a9889c2ee6fa70a2df62eda79025f4838b1fdc88e09d6f51',
    'cv_rf/rf_folds.csv': '6f0d653785251bee7c685a260fc87fe310f458f1a0fe64cdaf4632a2e38a9309',
    'cv_rf/rf_samples.csv': 'c99f7c4fa9a6b2a33fc3d513e10d4602ffa110f2c373a826f1f600e88593b70a',
    'cv_rf/rf_summary.csv': '5afa3b15c453440ff1466e0f8c75b8be45377d83392b67112428ddc8f043e20f',
    'cv_rf-scores/rf_folds.csv': '8f8212022b120e37353d061f1bc0ea1edc95230c2e7cc7a4e5364a0580d93cf8',
    'cv_rf-scores/rf_samples.csv': '2bb34716a581cf335d794e1cbc78bc5662c21fd3d6136d45b693124cc35c2310',
    'cv_rf-scores/rf_summary.csv': '4df0436d4f74b712a7d7bcf6402561fb6e7b1a05b6ebd93d920fa21df182e42c',
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
    'model_empirical-fixed-v.json': '439172db2d047efba064af66cb32f991f40ef3424b7ee5c0408e42d094860363',
    'model_empirical-max-force.json': '66390d6c70296cb40b95c82a7c1063edd12d3b3dcc6178b91d0fc3b736d47eb2',
    'model_empirical.json': '7f7fd15ba7ab0a3429a798c4f64d348ccf85006b3d3ff121d2e9240952f6d173',
    'model_pca-lm.json': '7be17e7a3ce46c96176a196f56564499dfded1b498def8a77672f809b738a89c',
    'model_rf-scores.json': '695b346e476929b3d8d62bce956dc8697312e25dffb0f533bfd895cb7b5907fd',
    'model_rf.json': '4d726af56c25156b354b70eab7b5bc95fe03fcb7d893f9f088729f55206bb9b0',
    'pred_empirical-fixed-v.csv': 'd31ade20fefe5ccf0b45a50dd5816a36c765629d710365674d87397b520d4b4a',
    'pred_empirical-max-force.csv': '764d4bbe92778d4c5832e119a3dc9e8818538240a37931fd71e35d1a0e14757c',
    'pred_empirical.csv': '1431e30e7a5228c0eb337c63440cdc2da6db0192d204eb04f3f3316f234d79d0',
    'pred_pca-lm.csv': 'd41b150ddb92b01f2abe09783728edede98dd6a37f2b083aaee363ff38242305',
    'pred_rf-scores.csv': '6a0de50c4477a1394f4c3dac6a39674c2694f72e61d7eb9962bb428509fa4e7d',
    'pred_rf.csv': '1efdd82d6a2d87b82628b266a3ca03abd20bb04470ec33315678d40e72717fc4',
    'report_empirical-fixed-v.csv': 'cce6f61abd9101832ad489fa3b95fc77fd2fdbdddb43d52f58cc7928ea3add7c',
    'report_empirical-max-force.csv': '8e4ff718581b27f195dcde5a64b155dd839973c4c72d448049375be35e4cbca4',
    'report_empirical.csv': '77c8b8be51be7553c5d6c35cc4d62a4d9d826b47333a2d70302da7ecad07028f',
    'report_pca-lm.csv': '70af1ae72132b7519d48a94669d0ceaf383cd8bfcdf916d9afb88e37ce1671c1',
    'report_rf-scores.csv': 'dd4f89f9dfceb0c9b3931dc991da67c541185ed168d59991706cb1002f5609ae',
    'report_rf.csv': '39dc99419c307c941205f32a3e3eb37367d63a838254a19232cf8a550da47660',
}


GOLDEN_FOREST: dict[str, str] = {
    'model rf': '73f9d19cc360d32188b1a866d223a3fffdb7897e82b83973ed6558c5f994c7bb',
    'predict rf': '1d284275e0405c9f86a01620edb063e7a5e4fd46868b8063c15c1e20151bf387',
    'model rf-scores': '0c843ae925dbbbc7bacdd253e8d1e6ae1d7e41cc8b30530bec015670b2ecd2b3',
    'predict rf-scores': '45a8a3e0701490fb26e9a934e05add2cab951efb212c7c40a946e3fe5e24cde3',
}


# The empirical family on the reference set; see empirical_digests.
GOLDEN_EMPIRICAL: dict[str, str] = {
    'cv max-force max-slope': '3ad70978ebf1329ea3fe9c31e125950918f4de4a6a66981f537847fd9ae1f819',
    'beta max-force max-slope': '0.3823110079067408',
    'cv instability-force max-slope': 'e2a0dcf01057dd4a3928c2906d81b4b09b2755a138cfb30e01c68ca276880f8c',
    'beta instability-force max-slope': '1.4864458877869418',
    'cv instability-force fixed-v': 'de35f6984a4b90ba58f70c92d1d0b63dfccfa899ff79bd78c87be7bf032d065c',
    'beta instability-force fixed-v': '0.29992697514583755',
}


# rf and rf-scores model files that `train --trees 10` wrote on the synth set
# above (3 x 6 curves, sigma 5 N, seed 7) before forests grew level by level,
# with the digests of their predictions on that set generated in memory.
# Training may change the trees; reading an old file may not change a bit.
# They are format 1 files, each tree nested as split and leaf objects.
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


def test_reference_empirical_fits_match_golden_digests():
    _skip_other_numpy()
    assert empirical_digests() == GOLDEN_EMPIRICAL


# The six model files the script above wrote, keyed by MODELS, as format 2:
# before format 3 stored each fact once.  Each file's sha256 is the GOLDEN
# digest its model had then.  Their digests are of predictions on the same
# set, the fixed-v model's at the planted v_i.
PINNED_V2: dict[str, str] = {
    'empirical-fixed-v_v2.json': '32e16aff1d13f8ac9246ab834dff9c8cb31135ccd9a89b889c6956d2a289df1e',
    'empirical-max-force_v2.json': '4e9d2f48af3b3a8ee39f609c7c0cdafa3ade04a5b3a235936af0cfc9e56a44ba',
    'empirical_v2.json': '58516587939d659eedcf2b92582a151553a821d75fa1a2c74ea6854fd941f030',
    'pca-lm_v2.json': '721d02ede5c53dbaec37b4eeb1151f649e28ebcaa6cbb163b95d9ba69d4783c2',
    'rf-scores_v2.json': '6659513174a5412e7763b3a9ff4ab6aa808fb58b55670d1cc70823afdf8c3d94',
    'rf_v2.json': '7f12a8570d1f6669746f80882f80abf69ce70203b38e4198dacb11807f3aa3b0',
}


# The six model files the script above wrote, keyed by MODELS, as format 3,
# before format 4 dropped pipeline.standardize; each file's sha256 is the
# GOLDEN digest its model had then.  Two more were trained on the same set
# with --no-standardize, which format 4 reads through the identity
# standardizer: `train --pipeline pca-lm` and `train --pipeline rf --trees 10
# --rf-input scores`.  Their digests are of predictions as for PINNED_V2.
PINNED_V3: dict[str, str] = {
    'empirical-fixed-v_v3.json': '32e16aff1d13f8ac9246ab834dff9c8cb31135ccd9a89b889c6956d2a289df1e',
    'empirical-max-force_v3.json': '4e9d2f48af3b3a8ee39f609c7c0cdafa3ade04a5b3a235936af0cfc9e56a44ba',
    'empirical_v3.json': '58516587939d659eedcf2b92582a151553a821d75fa1a2c74ea6854fd941f030',
    'pca-lm-no-standardize_v3.json': '3e08ed0eb12c092f17b22c81080792faeeaba5877119bdb20aeea2d612e0c1ae',
    'pca-lm_v3.json': '721d02ede5c53dbaec37b4eeb1151f649e28ebcaa6cbb163b95d9ba69d4783c2',
    'rf-scores-no-standardize_v3.json': '84a18b0088e1ef0ea6d9b92558bd0cbf8c12413c266a8ec2809886ecfece4d42',
    'rf-scores_v3.json': '6659513174a5412e7763b3a9ff4ab6aa808fb58b55670d1cc70823afdf8c3d94',
    'rf_v3.json': '7f12a8570d1f6669746f80882f80abf69ce70203b38e4198dacb11807f3aa3b0',
}


# The six model files the script above wrote, keyed by MODELS, as format 4,
# before format 5 dropped model.type and stored the forest's settings under
# pipeline.config; each file's sha256 is the GOLDEN digest its model had
# then.  Their digests are of predictions as for PINNED_V2.
PINNED_V4: dict[str, str] = {
    'empirical-fixed-v_v4.json': '32e16aff1d13f8ac9246ab834dff9c8cb31135ccd9a89b889c6956d2a289df1e',
    'empirical-max-force_v4.json': '4e9d2f48af3b3a8ee39f609c7c0cdafa3ade04a5b3a235936af0cfc9e56a44ba',
    'empirical_v4.json': '58516587939d659eedcf2b92582a151553a821d75fa1a2c74ea6854fd941f030',
    'pca-lm_v4.json': '721d02ede5c53dbaec37b4eeb1151f649e28ebcaa6cbb163b95d9ba69d4783c2',
    'rf-scores_v4.json': '6659513174a5412e7763b3a9ff4ab6aa808fb58b55670d1cc70823afdf8c3d94',
    'rf_v4.json': '7f12a8570d1f6669746f80882f80abf69ce70203b38e4198dacb11807f3aa3b0',
}


# The six model files the script above wrote, keyed by MODELS, as format 5,
# before format 6 stored v_star in an empirical pipeline; each file's sha256
# is the GOLDEN digest its model had then.  Their digests are of predictions
# as for PINNED_V2.
PINNED_V5: dict[str, str] = {
    'empirical-fixed-v_v5.json': '32e16aff1d13f8ac9246ab834dff9c8cb31135ccd9a89b889c6956d2a289df1e',
    'empirical-max-force_v5.json': '4e9d2f48af3b3a8ee39f609c7c0cdafa3ade04a5b3a235936af0cfc9e56a44ba',
    'empirical_v5.json': '58516587939d659eedcf2b92582a151553a821d75fa1a2c74ea6854fd941f030',
    'pca-lm_v5.json': '721d02ede5c53dbaec37b4eeb1151f649e28ebcaa6cbb163b95d9ba69d4783c2',
    'rf-scores_v5.json': '6659513174a5412e7763b3a9ff4ab6aa808fb58b55670d1cc70823afdf8c3d94',
    'rf_v5.json': '7f12a8570d1f6669746f80882f80abf69ce70203b38e4198dacb11807f3aa3b0',
}
PINNED_ALL = {**PINNED, **PINNED_V2, **PINNED_V3, **PINNED_V4, **PINNED_V5}


@pytest.mark.parametrize("name", sorted(PINNED_ALL))
def test_pinned_model_files_predict_and_save_unchanged(tmp_path, name):
    stored = json.loads((DATA / name).read_text(encoding="utf-8"))
    trained, provenance = load_model(DATA / name)
    saved, again = tmp_path / "saved.json", tmp_path / "again.json"
    save_model(saved, trained, provenance)
    assert json.loads(saved.read_text())["format_version"] == FORMAT_VERSION
    reloaded, _ = load_model(saved)
    if trained.kind.name == "rf":
        for column in fields(_NodeTable):
            want = getattr(trained.model.table, column.name)
            got = getattr(reloaded.model.table, column.name)
            if isinstance(want, np.ndarray):
                assert (got.dtype, got.shape) == (want.dtype, want.shape), column.name
                assert got.tobytes() == want.tobytes(), column.name
            else:
                assert got == want, column.name
        assert reloaded.model.importances.tobytes() == trained.model.importances.tobytes()
        assert reloaded.model.oob_rmse == trained.model.oob_rmse
    if stored["pca"] is not None and stored["format_version"] < 3:
        # the ratios formats 1 and 2 stored are the ones format 3 derives
        ratios = np.array(stored["pca"]["explained_ratio"])
        assert reloaded.pca.explained_ratio.tobytes() == ratios.tobytes()
    save_model(again, reloaded, provenance)
    assert again.read_bytes() == saved.read_bytes()

    _skip_other_numpy()
    raw, truth = generate(SynthConfig(n_materials=3, curves_per_material=6,
                                      noise_sigma_N=5.0, seed=7))
    # every file stores no v_star: the fixed-v model reads each curve's planted v_i
    assert getattr(trained.kind, "v_star", None) is None
    for model in (trained, reloaded):
        curves = with_v_i([resample(c, model.grid) for c in raw], [rec.v_i_mm for rec in truth])
        predictions = predict_pipeline(model, curves)
        assert _sha(predictions.tobytes()) == PINNED_ALL[name]


if __name__ == "__main__":
    os.environ["SOURCE_DATE_EPOCH"] = EPOCH
    with tempfile.TemporaryDirectory() as tmp:
        got = run_script(Path(tmp))
        got_forest = forest_digests(Path(tmp))
    got_empirical = empirical_digests()
    print(f"GOLDEN_NUMPY = {np.__version__!r}")
    for title, table in (("GOLDEN", got), ("GOLDEN_FOREST", got_forest),
                         ("GOLDEN_EMPIRICAL", got_empirical)):
        print(f"{title} = {{")
        for key, digest in table.items():
            print(f"    {key!r}: {digest!r},")
        print("}")
