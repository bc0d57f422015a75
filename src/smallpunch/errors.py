"""Exception types raised by the package, and where an error arose.

Everything derives from SmallPunchError (a ValueError) so callers can catch
one base class; the CLI maps subclasses onto its exit-code taxonomy.
prefixed names the file, row, fold or flags behind an error, keeping its class.
"""

import contextlib
from typing import Any, Iterator


class SmallPunchError(ValueError):
    """Base class for all validation, parsing and fitting errors."""


@contextlib.contextmanager
def prefixed(label: Any) -> Iterator[None]:
    """Prefix '{label}: ' to any SmallPunchError raised inside; same class, chained from it."""
    try:
        yield
    except SmallPunchError as exc:
        raise type(exc)(f"{label}: {exc}") from exc


class MalformedRow(SmallPunchError):
    """A delimited-table row has the wrong column count or a non-numeric cell."""


class EmptyCurve(SmallPunchError):
    """A curve has fewer than two usable samples."""


class NonFiniteValue(SmallPunchError):
    """NaN or infinity where a finite number is required."""


class InvalidCurve(SmallPunchError):
    """Curve arrays violate a structural requirement (ordering, sign, shape)."""


class InvalidSpecimen(SmallPunchError):
    """Specimen metadata out of physical range."""


class TooShort(SmallPunchError):
    """Too few grid points for marker extraction."""


class AllZero(SmallPunchError):
    """Curve carries no positive force anywhere."""


class InvalidMarkers(SmallPunchError):
    """Extracted markers violate their ordering or positivity constraints."""


class MixedGrids(SmallPunchError):
    """A curve is off the grid of the others or of the model that reads them."""


class PartialTargets(SmallPunchError):
    """Some curves carry a strength label and some do not."""


class EmptyInput(SmallPunchError):
    """An operation received no data."""


class TooFewRows(SmallPunchError):
    """Not enough rows to fit the requested model."""


class ShapeMismatch(SmallPunchError):
    """Matrix width disagrees with what a fitted model expects."""


class DegenerateData(SmallPunchError):
    """Data carries no variance to decompose."""


class ZeroDenominator(SmallPunchError):
    """A correlation denominator (thickness, displacement) is zero."""


class EmptyTraining(SmallPunchError):
    """A fit was requested with no training examples or no targets."""


class NonPositiveFeature(SmallPunchError):
    """The empirical correlation needs strictly positive features."""


class RankDeficient(SmallPunchError):
    """The regression design matrix is numerically rank deficient."""


class BadConfig(SmallPunchError):
    """A configuration value is out of its documented range."""


class LengthMismatch(SmallPunchError):
    """Two vectors that must align have different lengths."""


class BadK(SmallPunchError):
    """Fold count outside 2 <= k <= n."""


class InvalidModel(SmallPunchError):
    """Fitted-model parameters violate their structural invariants."""


class ModelFileError(SmallPunchError):
    """A model file is structurally inconsistent."""


class UnsupportedVersion(SmallPunchError):
    """A model file declares a format version this code does not know."""


class GridOutsideCurve(SmallPunchError):
    """No point of the displacement grid lies within a curve's recorded span."""
