"""Exception types raised across the library, and the number rules behind them.

Every error inherits from :class:`SpecinvError`; most also inherit a
matching builtin (``ValueError``/``RuntimeError``) so callers that only
know the standard hierarchy still catch them.  ``_finite`` and ``_whole``
are the one definition of a finite and of a whole number that the
parameter checks share, so NaN, inf or a non-number fails the check with
its own error instead of escaping from ``int()`` or ``np.isfinite``;
``_count`` is the check of a count such as ``workers`` or ``runs``,
``_choice`` the check of a name picked from a table (a window, a clip
mode, a bench stage), ``_need`` the check that an operation got the
container type it takes (a Waveform, a Spectrogram, ...), ``_config`` the
check that a parameter object (a frame config, a window kind) has its type,
and ``_reals`` the one way array input enters the library.  A config
stores the int ``_count`` returns, so a whole float such as 64.0 never
reaches numpy as a size.
"""
import math
import numbers
import sys

import numpy as np

__all__ = [
    "SpecinvError",
    "InvalidConfigError",
    "InvalidInputError",
    "UnsupportedKindError",
    "FormatError",
    "UnsupportedCodecError",
    "MeasurementError",
]


class SpecinvError(Exception):
    """Base class for all library errors."""


class InvalidConfigError(SpecinvError, ValueError):
    """A parameter object (window, frame config, clip mode, ...) is malformed."""


class InvalidInputError(SpecinvError, ValueError):
    """Input data violates an operation's precondition."""


class UnsupportedKindError(SpecinvError, ValueError):
    """The requested operation is undefined for this spectrogram kind."""


class FormatError(SpecinvError, ValueError):
    """A file does not conform to the expected on-disk layout."""


class UnsupportedCodecError(FormatError):
    """A WAV file uses an encoding this library does not read."""


class MeasurementError(SpecinvError, RuntimeError):
    """A benchmark produced unusable timing data (e.g. zero elapsed time)."""


def _finite(value) -> bool:
    """True for a finite real number; NaN, inf, complex numbers and strings are not."""
    return isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and math.isfinite(value))


def _whole(value) -> bool:
    """True for a finite real number with no fractional part, such as 4 or 4.0."""
    return _finite(value) and int(value) == value


def _count(name: str, value, low: int) -> int:
    """``value`` as an int once it is a whole number from ``low`` to ``sys.maxsize``, else an InvalidConfigError.

    A real number below ``low``, -inf included, gets ``"<name> must be >=
    <low>"``; NaN, inf, fractions and non-numbers are not whole numbers.
    ``sys.maxsize`` is the largest size numpy and scipy accept.
    """
    if isinstance(value, numbers.Real) and value < low:
        raise InvalidConfigError(f"{name} must be >= {low}")
    if not _whole(value):
        raise InvalidConfigError(f"{name} must be a whole number, got {value!r}")
    if value > sys.maxsize:
        raise InvalidConfigError(f"{name} must be <= {sys.maxsize}")
    return int(value)


def _choice(noun: str, value, names: tuple) -> str:
    """``value`` once it is a str in ``names``, else an InvalidConfigError naming the choices."""
    if not (isinstance(value, str) and value in names):
        raise InvalidConfigError(f"unknown {noun} {value!r}; expected one of {names}")
    return value


def _need(op: str, value, cls: type):
    """``value`` once it is a container ``cls``, else an InvalidInputError saying what ``op`` needs and what it got."""
    if not isinstance(value, cls):
        raise InvalidInputError(f"{op} needs a {cls.__name__}, got {type(value).__name__}")
    return value


def _config(name: str, value, cls: type):
    """``value`` once it is a parameter object ``cls``, else an InvalidConfigError saying what ``name`` must be."""
    if not isinstance(value, cls):
        raise InvalidConfigError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def _reals(name: str, values, ndim: int = 0) -> np.ndarray:
    """``values`` as a float64 array (a float64 array as it is), else an InvalidInputError.

    Only bool, integer and real floating dtypes convert: complex input is
    refused, not cast to its real part, and strings or objects are not
    numbers.  A nonzero ``ndim`` is the number of dimensions required.
    """
    a = np.asarray(values)
    if a.dtype.kind not in "biuf":
        raise InvalidInputError(f"{name} must hold real numbers, got dtype {a.dtype}")
    a = a.astype(np.float64, copy=False)
    if ndim and a.ndim != ndim:
        raise InvalidInputError(f"{name} must be {ndim}-D, got shape {a.shape}")
    return a
