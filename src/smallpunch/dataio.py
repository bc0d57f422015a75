"""CSV file formats: curve tables, manifests, truth, CV and report tables.

One reader and one writer serve every table.  curves.read_table reads
each in the one dialect, and curves.finite_cells converts its numbers (the
manifest converts its own with curves.decimal_cell: rm_MPa may be blank,
and SpecimenMeta checks them).  _write_table writes every table but a
curve file, and refuses a cell the reader would not return unchanged.  errors.prefixed puts the
file's name in every error.  Files are UTF-8 with LF line ends, whatever
the locale, and floats are written by curves.fmt, their repr, so a seeded
rerun writes the same bytes and a float reads back bit-identical.  The exception is a curve
displacement within 1e-9 um of a whole micrometre: write_curve_csv, which
writes the bytes of a row loop, stores it as that integer, and it can read
back one ulp off (about 200 of the 1,501 displacements of a synthetic
curve).  It formats a displacement column once for a run of curves on one
grid, such as every set synth writes.
"""

from __future__ import annotations

import functools
import hashlib
import operator
import os
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .curves import (
    CURVE_HEADER,
    GridSpec,
    RawCurve,
    SpecimenMeta,
    UniformCurve,
    decimal_cell,
    finite_cells,
    fmt,
    parse_curve_csv,
    read_table,
    resample,
)
from .errors import MalformedRow, NonFiniteValue, prefixed
from .evaluation import CvReport
from .synth import SynthRecord

MANIFEST_HEADER = ("file", "material_id", "temperature_C", "thickness_mm", "rm_MPa")
TRUTH_HEADER = ("file", "rm_MPa", "v_i_mm", "f_i_N")
# report reads a samples table or any table with a true and a predicted strength
_TRUE_COLUMNS, _PRED_COLUMNS = ("true_MPa", "rm_MPa"), ("pred_MPa", "pred_rm_MPa")


def _read_utf8(path: Path) -> str:
    """A file's text as UTF-8, less a leading byte-order mark; other bytes are a MalformedRow."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"not UTF-8 text: {exc}") from None


def _write_table(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]],
                 comment: str | None = None) -> None:
    """Write a table in the dialect of curves.read_table, as UTF-8 with LF line ends.

    A float cell is written by fmt, None as an empty cell and anything else
    by str.  A cell the reader would not return unchanged raises
    MalformedRow naming it: one with a comma or a line break, surrounding
    spaces or a leading double quote, and a first cell that makes the line
    blank or a comment.  A comment ends the table as a '# ' line.
    """
    lines = [",".join(header)]
    with prefixed(path):
        for row in rows:
            cells = ["" if c is None else fmt(c) if isinstance(c, float) else str(c) for c in row]
            for cell in cells:
                if ("," in cell or cell != cell.strip() or cell.startswith('"')
                        or len(cell.splitlines()) > 1):
                    raise MalformedRow(f"cell {cell!r} would not read back unchanged")
            line = ",".join(cells)
            if not line or line.startswith("#"):
                raise MalformedRow(f"first cell {cells[0]!r} makes a blank or comment line")
            lines.append(line)
    if comment is not None:
        lines.append(f"# {comment}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def file_identity(name: str) -> str:
    """The file a manifest or truth-table name stands for: its os.path.normpath.

    So 'a.csv' and './a.csv' are one file.  The name alone is judged; links
    are not followed.
    """
    return os.path.normpath(name)


def _refuse_repeats(path: Path, rows: Iterable[tuple[int, str]]) -> None:
    """MalformedRow at the first (row, file name) naming a file an earlier row named."""
    first: dict[str, int] = {}
    with prefixed(path):
        for lineno, name in rows:
            row = first.setdefault(file_identity(name), lineno)
            if row != lineno:
                raise MalformedRow(f"row {lineno}: file '{name}' repeats row {row}")


@functools.lru_cache(maxsize=1)
def _micrometre_cells(displacement_mm: bytes) -> tuple[str, ...]:
    """Each displacement's micrometre cell and its comma, from the column's float64 bytes.

    A displacement within 1e-9 um of a whole micrometre is written as that
    integer and any other by fmt: the bytes of a row loop, since array
    arithmetic gives the scalar IEEE results and a tie never passes the
    test.  A micrometre value beyond the largest double is a NonFiniteValue
    naming its row, not an 'inf' cell that no reader takes.  Keyed on the bytes,
    a cell depends on the column's bits alone, and the one cached column
    serves each next curve on the same grid.
    """
    d_mm = np.frombuffer(displacement_mm)
    with np.errstate(over="ignore"):
        d_um = d_mm * 1000.0
    overflow = np.flatnonzero(np.isinf(d_um))
    if overflow.size:
        i = overflow[0]  # row 1 is the header
        raise NonFiniteValue(f"row {i + 2}: displacement {fmt(d_mm[i])} mm "
                             "overflows in micrometres")
    rounded = np.round(d_um)
    whole = np.abs(d_um - rounded) < 1e-9
    return tuple(f"{int(r) if w else repr(d)}," for d, r, w in
                 zip(d_um.tolist(), rounded.tolist(), whole.tolist()))


def write_curve_csv(path: Path, curve: RawCurve) -> None:
    """Write one curve with displacements converted back to micrometres.

    The displacement cells come from _micrometre_cells, which formats a
    column once per grid, so consecutive curves on one grid pay for it
    once; each force is written by repr, and the table is joined and
    written once.
    """
    with prefixed(path):
        cells = _micrometre_cells(curve.displacement_mm.tobytes())
    rows = map(operator.add, cells, map(repr, curve.force_N.tolist()))
    path.write_text("\n".join((",".join(CURVE_HEADER), *rows, "")), encoding="utf-8")


def write_manifest(path: Path, entries: Iterable[tuple[str, SpecimenMeta]]) -> None:
    """Write a manifest; a file named twice is a MalformedRow, as read_manifest says."""
    rows = [
        (filename, meta.material_id, float(meta.temperature_C), float(meta.thickness_mm),
         None if meta.rm_MPa is None else float(meta.rm_MPa))
        for filename, meta in entries
    ]
    _refuse_repeats(path, enumerate((row[0] for row in rows), start=2))  # row 1 is the header
    _write_table(path, MANIFEST_HEADER, rows)


def read_manifest(path: Path | str) -> list[tuple[str, SpecimenMeta]]:
    """Manifest rows as (curve file name, metadata); rm_MPa may be blank.

    A curve file name is a path relative to the manifest's directory and may
    name a subdirectory; an absolute path, or one whose '..' parts lead out
    of that directory, is a MalformedRow, and so is a name that another row
    gives too (compared by file_identity): a curve listed twice could sit
    in a fold's training rows and its held-out rows at once.
    """
    path = Path(path)
    entries: list[tuple[str, SpecimenMeta]] = []
    with prefixed(path):
        _, rows = read_table(_read_utf8(path), MANIFEST_HEADER)
        for lineno, (filename, material_id, temp_s, thick_s, rm_s) in rows:
            if not filename:
                raise MalformedRow(f"row {lineno}: empty file name")
            norm = file_identity(filename)
            if os.path.isabs(norm) or norm.split(os.sep)[0] == os.pardir:
                raise MalformedRow(f"row {lineno}: curve file '{filename}' lies outside "
                                   "the manifest's directory")
            try:
                temperature, thickness = decimal_cell(temp_s), decimal_cell(thick_s)
                rm = decimal_cell(rm_s) if rm_s else None
            except ValueError:
                raise MalformedRow(f"row {lineno}: non-numeric cell") from None
            with prefixed(f"row {lineno}"):
                entries.append((filename, SpecimenMeta(material_id, temperature, thickness, rm)))
    _refuse_repeats(path, ((lineno, cells[0]) for lineno, cells in rows))
    return entries


def load_curves(manifest_path: Path | str, grid: GridSpec) -> tuple[list[str], list[UniformCurve]]:
    """Parse and resample every curve a manifest references.

    Curve file paths are resolved relative to the manifest's directory.
    Parse and resampling errors name the offending curve file.
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    names: list[str] = []
    curves: list[UniformCurve] = []
    for filename, meta in read_manifest(manifest_path):
        curve_path = base / filename
        with prefixed(curve_path):
            curves.append(resample(parse_curve_csv(_read_utf8(curve_path), meta), grid))
        names.append(filename)
    return names, curves


def write_truth(path: Path, filenames: Sequence[str], records: Sequence[SynthRecord]) -> None:
    """Write a truth table; a file named twice is a MalformedRow, as read_truth says."""
    _refuse_repeats(path, enumerate(filenames, start=2))  # row 1 is the header
    _write_table(path, TRUTH_HEADER, [
        (filename, float(rec.rm_MPa), float(rec.v_i_mm), float(rec.f_i_N))
        for filename, rec in zip(filenames, records)
    ])


def read_truth(path: Path) -> dict[str, tuple[float, ...]]:
    """Truth rows keyed by file_identity of the file name: (rm_MPa, v_i_mm, f_i_N).

    A file named by two rows is a MalformedRow, not a later row silently
    winning.
    """
    with prefixed(path):
        _, rows = read_table(_read_utf8(path), TRUTH_HEADER)
        truth = {file_identity(cells[0]): tuple(finite_cells(lineno, cells[1:]))
                 for lineno, cells in rows}
    _refuse_repeats(path, ((lineno, cells[0]) for lineno, cells in rows))
    return truth


def write_fold_csv(path: Path, report: CvReport) -> None:
    rows = [(i, float(r)) for i, r in enumerate(report.fold_rmse)]
    _write_table(path, ("fold", "rmse_MPa"), rows)


def write_samples_csv(path: Path, report: CvReport) -> None:
    _write_table(path, ("row", "true_MPa", "pred_MPa"), [
        (row, float(truth), float(pred)) for row, truth, pred in report.per_sample
    ])


def write_summary_csv(path: Path, pipeline_name: str, report: CvReport) -> None:
    _write_table(path, ("pipeline", "k", "mean_rmse_MPa", "std_rmse_MPa"),
                 [(pipeline_name, report.k, float(report.mean_rmse), float(report.std_rmse))])


def write_predictions(path: Path, rows: Iterable[tuple[str, SpecimenMeta, float]]) -> None:
    _write_table(path, ("file", "material_id", "temperature_C", "pred_rm_MPa"), [
        (filename, meta.material_id, float(meta.temperature_C), float(pred))
        for filename, meta, pred in rows
    ])


def read_samples(path: Path) -> list[tuple[float, ...]]:
    """(true, predicted) strength of every row of a samples table, in file order.

    Each is read from the first of its candidate columns the header names:
    true_MPa or rm_MPa, and pred_MPa or pred_rm_MPa.
    """
    with prefixed(path):
        header, rows = read_table(_read_utf8(path))
        cols = []
        for candidates in (_TRUE_COLUMNS, _PRED_COLUMNS):
            found = [header.index(name) for name in candidates if name in header]
            if not found:
                raise MalformedRow(f"need one of columns {candidates}, got {header}")
            cols.append(found[0])
        pairs = [tuple(finite_cells(lineno, [cells[c] for c in cols])) for lineno, cells in rows]
        if not pairs:
            raise MalformedRow("no data rows")
    return pairs


def write_report(path: Path, pairs: Sequence[tuple[float, float]], rmse_MPa: float) -> None:
    """report's table: each (true, predicted) pair and its absolute error, then the RMSE."""
    rows = [(t, p, abs(p - t)) for t, p in pairs]
    _write_table(path, ("true_MPa", "pred_MPa", "abs_err_MPa"), rows,
                 comment=f"rmse_MPa={fmt(rmse_MPa)}")


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
