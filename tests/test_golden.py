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
its six format 4 files before format 5 dropped the model block's type,
its six format 5 files before format 6 stored a fixed-v model's v_star, and
its six format 6 files before format 7 stored the grid's resampling rule.
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
    'stdout train empirical': '03bf11fc9e0dc84b87e1d013d5d6aac387f01defa1f83fde5a3cfbda0879ae82',
    'stdout predict empirical': 'a9d239fdd0bcdf38aaf565a2a7e72ffe78c2844e1a039b0f53d195c61388ea40',
    'stdout cv empirical': 'abd192761f7f6bf5a413e2b710bf9d82952668b41f8686a365ad6af08f5c4386',
    'stdout report empirical': '68e4b5d8ca4ac1eb0ab656a82aa354cfafc7cd39e1b0920d0b3537e8e37e9d90',
    'stdout train empirical-fixed-v': '1cec81830d1f8b579e7ee00248a71fec5ea83586aa8f15f409ba6ca8a15f1b37',
    'stdout predict empirical-fixed-v': '132c4d60303726c4fcb5eae94c2757dcba5953ae03fc49f8900b5f5fb3df3cca',
    'stdout cv empirical-fixed-v': '45f519013371820ba2fe6a6995ca16eaf4a80c490b2cd9b03f2ef63528a45cad',
    'stdout report empirical-fixed-v': 'cc16cef2af152b3638d9646f4b0413b7bcffd1f49f8b7ad667db67e5ee26c2bc',
    'stdout train empirical-max-force': '4d39f3a18f598f55dbc5788d6b0bf7070677d1f8fc160c5eb834d13365bee52b',
    'stdout predict empirical-max-force': '1d6e97f7e7ee76d1373e9814885478b28af54ea02051d3bc50c0d7143833a9a0',
    'stdout cv empirical-max-force': 'b4b81435ede1572bbb234b131cc6aee4e2da77e5010fb9ee89cf58b998479bce',
    'stdout report empirical-max-force': '7e437a5607ebcd5a9684ef396142534d0d34e74499a06103efcacf59b259b931',
    'stdout train pca-lm': 'f318f7caae751d8942e9138b337f34bfea66949a60cda87d9648afaceb226122',
    'stdout predict pca-lm': 'e608c9358eb68d36565d5e76e1d996f1852eba2bf409c6ba3282d0be3a544444',
    'stdout cv pca-lm': '6a9f311abf158fe540ecf20416ee721e12909ff00ad9324f5ffabfb9dff22807',
    'stdout report pca-lm': '250383398489155b81ad85f353f1b76853e73d6bba9e1e56568db1ba7daaf3fa',
    'stdout train rf': '212d2407dc795097f9950f2580ac6103094536c211ee822321caea78478ea724',
    'stdout predict rf': '90376b2b0224b3a70e38f19bd50f4d4c5afea7e1110032e56ea783b89fa1ad43',
    'stdout cv rf': '53f5a60cc6b3fd78e322e753276693ebd6b8e1801769f6ba85e3ce7dc76560a6',
    'stdout report rf': '76a348352ba8a6910e0e8f26fcbfd26cb3544c2e50edba469b47fda8c127746e',
    'stdout train rf-scores': 'ee0e13630b77ab486e916b413a24d45805b701f0a32195027b3fff502ef9ddbc',
    'stdout predict rf-scores': 'a9d1f1b786ff5de5e5e84bf31430c964b9afc9cea425287f21d208f01fdc05bf',
    'stdout cv rf-scores': '227c7811d1ea1e1b3f3e0b59d0524477bb0dc57c5db7a7c9de236fc600225e83',
    'stdout report rf-scores': '5e013eb4cdd05ecb131817e9f3641f9bd7e88b3f8c7e2223616c117c75c054ec',
    'cv_empirical/empirical_folds.csv': '82796905414effc1c7dfca8126719c563984a54784243b0d95a528dd14cec21a',
    'cv_empirical/empirical_samples.csv': '1b9008e156e0f05d00cfb6e747a743841433455ba2fd9196bc59ed4c308675ab',
    'cv_empirical/empirical_summary.csv': '631fc8f1e8234625f6588e2bb62de572b8a9201a00b49c37ab96f418196fe8e5',
    'cv_empirical-fixed-v/empirical_folds.csv': '8e8005d973466fc77bbae6379305954331fb9cad9a06ce9a837d4c0468f2349c',
    'cv_empirical-fixed-v/empirical_samples.csv': 'c5296a440a3c942faf058ed9ec1d7c012b06adf7444af2bee14e28551fb2d6b7',
    'cv_empirical-fixed-v/empirical_summary.csv': 'e602521e97449ae2ebeae933de31300f9f9bf081e7b62eecd71229f51b167877',
    'cv_empirical-max-force/empirical_folds.csv': '278059075b43f4cdcb11750733322ca111b4b953191fecfb03fcdb5be06cfd8d',
    'cv_empirical-max-force/empirical_samples.csv': '2009f63d694509d869d7b6369ee524d369ddf9808303857f741490a874d8f638',
    'cv_empirical-max-force/empirical_summary.csv': '35a1043eaa6451e90f07ac47d95e096a502640fcceadf37278065fdda371ea2b',
    'cv_pca-lm/pca-lm_folds.csv': '84a579ce72a25b28e94a28cbdd94d67bdb4bd3775304f177383215c61a18ab50',
    'cv_pca-lm/pca-lm_samples.csv': 'f4c617864f910821b81aa312c6e606915a12dff77f3898fe5c41211bd45c046c',
    'cv_pca-lm/pca-lm_summary.csv': 'b5476356c041298be51bb9ddf649bc646cca43a4fd92383b52cae32406f866b8',
    'cv_rf/rf_folds.csv': 'bf059b3698d6b41bf6457679c039817061c5f3b5d970d7c144c25fef3b834881',
    'cv_rf/rf_samples.csv': '51f5cb92679f84e3c6e0aa36559d93efab6822589eeb51ea2036a50a70758e42',
    'cv_rf/rf_summary.csv': 'db15924e5e95a60a30e993e32921c66a497842f7cf8a9d9c33f6904631e25dd5',
    'cv_rf-scores/rf_folds.csv': 'f076b2b96091ef4e0e7d9afd3d35238ef06e258e549d55716af0a59de2141d02',
    'cv_rf-scores/rf_samples.csv': '8ba44754e5af3b2649bff22b20c95061a6246add2aefcaa1e684797b146d20a4',
    'cv_rf-scores/rf_summary.csv': '3d43f2dac5cb09a49b9a3cd42ece80ba1e8100b46cc34591b08aff6c63f882b3',
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
    'model_empirical-fixed-v.json': 'f1baa6441816dd6078ed16af8497f0d042ef350e381de86ef6b62f53db9b0a37',
    'model_empirical-max-force.json': '7bef6a4c1620ce791c660008c732176a60150794e39050a38a351dd2f92d5e60',
    'model_empirical.json': '2bcdfeaff4eddec642892f83be11ffc3fb85f6287927dab6276862de2afbc969',
    'model_pca-lm.json': '204cd7c1aa49c03ab7e73e39dfdb61a17d908afd7365b5a1fa4cfcb98fc40dee',
    'model_rf-scores.json': '684d889c39ea4ae751eeaa04d8685a528a24f6abc30741dc743ac9dd6f9b97ce',
    'model_rf.json': '19ef9cb4cc7820756f30250e91b000ab87a82417eb7a27793665e3eeccaaa9cb',
    'pred_empirical-fixed-v.csv': 'a75715c18382845438ac160be9bd925eac2e1ef83af18127df35f7d1aaefcf75',
    'pred_empirical-max-force.csv': 'eb6fbb43b19bccfad4aefc7c8e8b1d8b3960544ab29f5bfb44530d64eb55d05e',
    'pred_empirical.csv': 'daf9d155e831d712408d096d8efa5f297760042d8fbb84d49f11b531c78e4ecd',
    'pred_pca-lm.csv': 'c6c5c4de6c4a3fa6a10d79446c4b5d32c8ede032ae76708b020a7f4726b15231',
    'pred_rf-scores.csv': '900688fba827df7399361582e3c634eed4da215929fedfc6f83fc4baa99dd085',
    'pred_rf.csv': '1d8eeca4d114ee7c449a4ee486c3e48fc77f73f5f53f240c05d4826b2db24971',
    'report_empirical-fixed-v.csv': '4f4f85a9bda7927df430a64b3a85e4b3b82a2929c87b2f319b8cb526fb012069',
    'report_empirical-max-force.csv': 'd6fff52aa6a5e25654be0c651165a333102ea7ecb3d9478ced5354a3ff9ffcd2',
    'report_empirical.csv': 'edc787183c8419fa2341568915887f3dfe1aac63945af3bbe973d91a46d8cbac',
    'report_pca-lm.csv': '75ab89fc4739fdc2710c3d320968b62c82f9d044d400e42a323f46aea85ed3e0',
    'report_rf-scores.csv': '30d65080bbc8321c3afcd1dd90b43b6aa9a34e84a7cd9fded620e936af3eb500',
    'report_rf.csv': '31b7baeccc0c6bc4d37d4128f356f2d1e60af3333524baafbed5f13b8baf55f9',
}


GOLDEN_FOREST: dict[str, str] = {
    'model rf': 'deaf44393afdd2c51d45316804b2e7b55041d922a8fea45b87d406fe3662ef57',
    'predict rf': '3afaf2d23c216b67d7deaec724103a55df703a39417bb0917c5364aa11f18d71',
    'model rf-scores': 'f82a905602bd8f1a1c45a48b1ab808669a47f2613107679769494516a7f6d828',
    'predict rf-scores': 'd9283994986148c1e386eb01cabc7c159e93338845133b9364c9b6a3898eb22d',
}


# The empirical family on the reference set; see empirical_digests.
GOLDEN_EMPIRICAL: dict[str, str] = {
    'cv max-force max-slope': 'c68330f9063ad146e48273b37af8436e95d52a1edc5d0f0e9e053716e69027d0',
    'beta max-force max-slope': '0.3826072264419882',
    'cv instability-force max-slope': '69bef83fa9f1996506daace2438ce13cd88e8f89a296f0fb8b08bf725df414c6',
    'beta instability-force max-slope': '1.122141919923683',
    'cv instability-force fixed-v': '2bd31f09025190f3b3a8cbbf9effd4d69af9c7fa710aaba0ed48d60a9e63bc43',
    'beta instability-force fixed-v': '0.2989025258000794',
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


# The six model files the script above wrote, keyed by MODELS, as format 6,
# before format 7 stored the grid's rule; each file's sha256 is the GOLDEN
# digest its model had then.  They were fitted on forces read at the points
# of the 151-point grid, which format 7 reads as the point rule.  Their
# digests are of predictions as for PINNED_V2.
PINNED_V6: dict[str, str] = {
    'empirical-fixed-v_v6.json': '32e16aff1d13f8ac9246ab834dff9c8cb31135ccd9a89b889c6956d2a289df1e',
    'empirical-max-force_v6.json': '4e9d2f48af3b3a8ee39f609c7c0cdafa3ade04a5b3a235936af0cfc9e56a44ba',
    'empirical_v6.json': '58516587939d659eedcf2b92582a151553a821d75fa1a2c74ea6854fd941f030',
    'pca-lm_v6.json': '721d02ede5c53dbaec37b4eeb1151f649e28ebcaa6cbb163b95d9ba69d4783c2',
    'rf-scores_v6.json': '6659513174a5412e7763b3a9ff4ab6aa808fb58b55670d1cc70823afdf8c3d94',
    'rf_v6.json': '7f12a8570d1f6669746f80882f80abf69ce70203b38e4198dacb11807f3aa3b0',
}
PINNED_ALL = {**PINNED, **PINNED_V2, **PINNED_V3, **PINNED_V4, **PINNED_V5, **PINNED_V6}


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
