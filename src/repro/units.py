"""Typed physical quantities for the simulator.

FlexFetch's output *is* numbers with units — joules and seconds per
evaluation stage (§2.2), bytes over links quoted in megabits.  Modelling
them as bare ``float``/``int`` invites the classic trace-simulator bug
class: ms-vs-s slips, Mb-vs-MB slips, adding an energy to a time.  This
module gives every quantity a named alias and keeps every conversion in
one audited place.

The aliases are :data:`typing.Annotated` forms, not ``NewType`` wrappers:

* to a type checker (``mypy --strict``) ``Seconds`` *is* ``float``, so
  annotating the hot layers costs zero call-site churn and no runtime
  wrapping on the simulator's innermost loops;
* to the repo's own static analyzer (``python -m repro.lint``) the alias
  *name* is the unit: rule R2 demands these aliases on physical
  parameters/returns and flags arithmetic that mixes incompatible
  dimensions (see DESIGN.md §10).

Float equality on measured quantities is rule R3's business: compare
with :func:`approx_eq` / :func:`is_zero`, never ``==``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Annotated, TypeAlias


@dataclass(frozen=True, slots=True)
class Unit:
    """Metadata marker carried inside an ``Annotated`` quantity alias."""

    symbol: str
    dimension: str


SECOND = Unit("s", "time")
JOULE = Unit("J", "energy")
WATT = Unit("W", "power")
BYTE = Unit("B", "data")
BYTE_PER_SECOND = Unit("B/s", "bandwidth")

#: Wall-clock-free simulation time, in seconds.
Seconds: TypeAlias = Annotated[float, SECOND]
#: Energy, in joules (1 J = 1 W x 1 s).
Joules: TypeAlias = Annotated[float, JOULE]
#: Power draw, in watts.
Watts: TypeAlias = Annotated[float, WATT]
#: Data size, in bytes (always integral: syscalls move whole bytes).
Bytes: TypeAlias = Annotated[int, BYTE]
#: Link or platter bandwidth, in bytes per second.
BytesPerSecond: TypeAlias = Annotated[float, BYTE_PER_SECOND]


# ----------------------------------------------------------------------
# conversions (the only place magic factors are allowed)
# ----------------------------------------------------------------------
def milliseconds(value: float) -> Seconds:
    """Convert a millisecond figure (datasheet seek times) to seconds."""
    return value * 1e-3


def microseconds(value: float) -> Seconds:
    """Convert a microsecond figure to seconds."""
    return value * 1e-6


def megabits_per_second(megabits: float) -> BytesPerSecond:
    """Convert *decimal megabits/s* (network figures) to bytes/s.

    ``megabits_per_second(11.0)`` -> 1 375 000 B/s for the Aironet 350.
    """
    if megabits < 0:
        raise ValueError(f"bandwidth cannot be negative: {megabits!r}")
    return megabits * 1e6 / 8.0


def megabytes_per_second(megabytes: float) -> BytesPerSecond:
    """Convert *decimal megabytes/s* (disk datasheets) to bytes/s."""
    if megabytes < 0:
        raise ValueError(f"bandwidth cannot be negative: {megabytes!r}")
    return megabytes * 1e6


def energy_of(power: Watts, duration: Seconds) -> Joules:
    """Energy of a constant ``power`` draw held for ``duration``."""
    if duration < 0:
        raise ValueError(f"duration cannot be negative: {duration!r}")
    return power * duration


def transfer_seconds(size: Bytes, bandwidth: BytesPerSecond) -> Seconds:
    """Time to move ``size`` bytes at ``bandwidth`` bytes/second.

    A zero-byte transfer takes zero time regardless of bandwidth; a
    positive transfer over a non-positive bandwidth is a configuration
    error and raises.
    """
    if size < 0:
        raise ValueError(f"size cannot be negative: {size!r}")
    if size == 0:
        return 0.0
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive: {bandwidth!r}")
    return size / bandwidth


# ----------------------------------------------------------------------
# tolerant comparison (rule R3's sanctioned escape hatch)
# ----------------------------------------------------------------------
#: Default absolute slack for measured quantities; well below one
#: microjoule / one nanosecond, far above accumulated float noise.
ABS_TOLERANCE: float = 1e-9

#: Default relative slack, for quantities large enough that absolute
#: noise scales with magnitude (a 10 kJ run's rounding dwarfs 1e-9).
REL_TOLERANCE: float = 1e-9


def approx_eq(a: float, b: float, *, rel_tol: float = REL_TOLERANCE,
              abs_tol: float = ABS_TOLERANCE) -> bool:
    """Tolerant equality for measured times/energies.

    Symmetric mixed absolute/relative comparison: true when
    ``|a - b| <= max(rel_tol * max(|a|, |b|), abs_tol)``.
    """
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


def is_zero(value: float, *, abs_tol: float = ABS_TOLERANCE) -> bool:
    """True when a measured quantity is zero up to float noise."""
    return abs(value) <= abs_tol


def require_finite_fields(spec: object,
                          error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` if any float field of a spec dataclass is NaN/±inf.

    Range checks such as ``x < 0`` and ``x <= 0`` are all False for
    NaN, and inf passes them, yet neither describes a device or a
    schedule: a NaN latency makes the fast path and the event loop
    disagree, an infinite fault horizon never stops drawing outages.
    """
    for f in fields(spec):  # type: ignore[arg-type]
        value = getattr(spec, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value!r}")


__all__ = [
    "Unit",
    "SECOND",
    "JOULE",
    "WATT",
    "BYTE",
    "BYTE_PER_SECOND",
    "Seconds",
    "Joules",
    "Watts",
    "Bytes",
    "BytesPerSecond",
    "milliseconds",
    "microseconds",
    "megabits_per_second",
    "megabytes_per_second",
    "energy_of",
    "transfer_seconds",
    "ABS_TOLERANCE",
    "REL_TOLERANCE",
    "approx_eq",
    "is_zero",
    "require_finite_fields",
]
