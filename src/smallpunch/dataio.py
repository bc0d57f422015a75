"""CSV file formats: curve tables, dataset manifests, truth tables, reports.

All writers emit LF line endings and repr-formatted floats, so rerunning a
seeded command reproduces files byte for byte and a written float reads
back bit-identical.  The exception is a curve displacement within 1e-9 um
of a whole micrometre: write_curve_csv stores it as that integer, and it
can read back one ulp off (about 200 of the 1,501 displacements of a
synthetic curve).  write_curve_csv writes a curve table a column at a
time, with the same bytes as a row-by-row loop.  Every table is read with
curves.read_rows.  Every file is read and written as UTF-8, whatever the
locale.
"""

from __future__ import annotations

import hashlib
import math
import os
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .curves import (
    CURVE_HEADER,
    GridSpec,
    RawCurve,
    SpecimenMeta,
    UniformCurve,
    parse_curve_csv,
    read_rows,
    resample,
)
from .errors import MalformedRow, NonFiniteValue, SmallPunchError
from .evaluation import CvReport
from .synth import SynthTruth

MANIFEST_HEADER = ("file", "material_id", "temperature_C", "thickness_mm", "rm_MPa")
TRUTH_HEADER = ("file", "rm_MPa", "v_i_mm", "f_i_N")


def fmt(x: float) -> str:
    """Shortest decimal string that round-trips the double exactly."""
    return repr(float(x))


def _read_utf8(path: Path) -> str:
    """A file's text, decoded as UTF-8; other bytes are a MalformedRow naming the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"{path}: not UTF-8 text: {exc}") from None


def read_table(path: Path) -> list[tuple[int, list[str]]]:
    """curves.read_rows of a file, naming the file in its errors."""
    text = _read_utf8(path)
    try:
        return read_rows(text)
    except MalformedRow as exc:
        raise MalformedRow(f"{path}: {exc}") from exc


def _read_table(path: Path, header: Sequence[str]) -> list[tuple[int, list[str]]]:
    """Data rows of a table with a fixed header, with 1-based line numbers."""
    rows = read_table(path)
    if not rows:
        raise MalformedRow(f"{path}: missing header '{','.join(header)}'")
    lineno, cells = rows[0]
    if cells != list(header):
        raise MalformedRow(f"{path}: row {lineno}: expected header '{','.join(header)}'")
    for lineno, cells in rows[1:]:
        if len(cells) != len(header):
            raise MalformedRow(
                f"{path}: row {lineno}: expected {len(header)} columns, got {len(cells)}"
            )
    return rows[1:]


def write_curve_csv(path: Path, curve: RawCurve) -> None:
    """Write one curve with displacements converted back to micrometres.

    The table is built a column at a time and written once.  A displacement
    within 1e-9 um of a whole micrometre is written as that integer and any
    other cell as fmt writes it: the bytes of a row loop, since array
    arithmetic gives the scalar IEEE results and a tie never passes the test.
    """
    d_um = curve.displacement_mm * 1000.0
    rounded = np.round(d_um)
    whole = np.abs(d_um - rounded) < 1e-9
    cols = zip(d_um.tolist(), rounded.tolist(), whole.tolist(), curve.force_N.tolist())
    lines = [",".join(CURVE_HEADER)]
    lines += [f"{str(int(r)) if w else repr(d)},{f!r}" for d, r, w, f in cols]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_manifest(path: Path, entries: Iterable[tuple[str, SpecimenMeta]]) -> None:
    lines = [",".join(MANIFEST_HEADER)]
    for filename, meta in entries:
        rm = fmt(meta.rm_MPa) if meta.rm_MPa is not None else ""
        lines.append(
            f"{filename},{meta.material_id},{fmt(meta.temperature_C)},"
            f"{fmt(meta.thickness_mm)},{rm}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path: Path | str) -> list[tuple[str, SpecimenMeta]]:
    """Manifest rows as (curve file name, metadata); rm_MPa may be blank.

    A curve file name is a path relative to the manifest's directory and may
    name a subdirectory; an absolute path, or one whose '..' parts lead out
    of that directory, is a MalformedRow.  The name alone is judged; links
    are not followed.
    """
    path = Path(path)
    entries: list[tuple[str, SpecimenMeta]] = []
    for lineno, cells in _read_table(path, MANIFEST_HEADER):
        filename, material_id, temp_s, thick_s, rm_s = cells
        if not filename:
            raise MalformedRow(f"{path}: row {lineno}: empty file name")
        norm = os.path.normpath(filename)
        if os.path.isabs(norm) or norm.split(os.sep)[0] == os.pardir:
            raise MalformedRow(
                f"{path}: row {lineno}: curve file '{filename}' lies outside "
                "the manifest's directory"
            )
        try:
            temperature = float(temp_s)
            thickness = float(thick_s)
            rm = float(rm_s) if rm_s else None
        except ValueError:
            raise MalformedRow(f"{path}: row {lineno}: non-numeric cell") from None
        try:
            meta = SpecimenMeta(
                material_id=material_id,
                temperature_C=temperature,
                thickness_mm=thickness,
                rm_MPa=rm,
            )
        except SmallPunchError as exc:
            raise type(exc)(f"{path}: row {lineno}: {exc}") from exc
        entries.append((filename, meta))
    return entries


def load_curves(
    manifest_path: Path | str, grid: GridSpec
) -> tuple[list[str], list[UniformCurve]]:
    """Parse and resample every curve a manifest references.

    Curve file paths are resolved relative to the manifest's directory.
    Parse errors are re-raised naming the offending curve file.
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    names: list[str] = []
    curves: list[UniformCurve] = []
    for filename, meta in read_manifest(manifest_path):
        curve_path = base / filename
        text = _read_utf8(curve_path)
        try:
            raw = parse_curve_csv(text, meta)
        except SmallPunchError as exc:
            raise type(exc)(f"{curve_path}: {exc}") from exc
        names.append(filename)
        curves.append(resample(raw, grid))
    return names, curves


def write_truth(path: Path, filenames: Sequence[str], truth: SynthTruth) -> None:
    lines = [",".join(TRUTH_HEADER)]
    for filename, rec in zip(filenames, truth.records):
        lines.append(f"{filename},{fmt(rec.rm_MPa)},{fmt(rec.v_i_mm)},{fmt(rec.f_i_N)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_truth(path: Path) -> dict[str, tuple[float, float, float]]:
    """Truth rows keyed by file name: (rm_MPa, v_i_mm, f_i_N)."""
    out: dict[str, tuple[float, float, float]] = {}
    for lineno, cells in _read_table(path, TRUTH_HEADER):
        filename, rm_s, vi_s, fi_s = cells
        try:
            values = (float(rm_s), float(vi_s), float(fi_s))
        except ValueError:
            raise MalformedRow(f"{path}: row {lineno}: non-numeric cell") from None
        if not all(map(math.isfinite, values)):
            raise NonFiniteValue(f"{path}: row {lineno}: non-finite value")
        out[filename] = values
    return out


def write_fold_csv(path: Path, report: CvReport) -> None:
    lines = ["fold,rmse_MPa"]
    for i, r in enumerate(report.fold_rmse):
        lines.append(f"{i},{fmt(r)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_samples_csv(path: Path, report: CvReport) -> None:
    lines = ["row,true_MPa,pred_MPa"]
    for row, truth, pred in report.per_sample:
        lines.append(f"{row},{fmt(truth)},{fmt(pred)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_summary_csv(path: Path, pipeline_name: str, report: CvReport) -> None:
    lines = [
        "pipeline,k,mean_rmse_MPa,std_rmse_MPa",
        f"{pipeline_name},{report.k},{fmt(report.mean_rmse)},{fmt(report.std_rmse)}",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_predictions(
    path: Path, rows: Iterable[tuple[str, SpecimenMeta, float]]
) -> None:
    lines = ["file,material_id,temperature_C,pred_rm_MPa"]
    for filename, meta, pred in rows:
        lines.append(f"{filename},{meta.material_id},{fmt(meta.temperature_C)},{fmt(pred)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
