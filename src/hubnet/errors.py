"""The one exception type the hubnet modules raise, and its common checks."""

import numbers
import os
import sys

import numpy as np


class HubnetError(ValueError):
    """Invalid input or a computation that is undefined for it.

    Subclassing ``ValueError`` lets a caller that already handles bad
    values catch it; the message says which case it is.
    """


def check_memory(need: int, subject: str, purpose: str) -> None:
    """Raise ``HubnetError`` when ``need`` bytes exceed physical memory.

    Physical memory is read with ``os.sysconf``; where that is unavailable
    there is no check.  The message reads "<subject> needs about <GiB>
    <purpose>, ...".
    """
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return
    if physical > 0 and need > physical:
        raise HubnetError(f"{subject} needs about {need / 2**30:,.1f} GiB {purpose}, "
                          f"more than the {physical / 2**30:,.1f} GiB of physical memory")


def check_int(name: str, value, low: int | None = None) -> None:
    """Raise ``HubnetError`` unless ``value`` is an integer of at least ``low``.

    An integer is a ``numbers.Integral`` other than a bool: a float such as
    10.5, or even 10.0, is refused, because used as a size it fails late
    with a raw ``TypeError``, or truncates silently, and a JSON ``true`` is
    no number.  ``low`` None sets no bound.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise HubnetError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        bound = "nonnegative" if low == 0 else f">= {low}"
        raise HubnetError(f"{name} must be {bound}, got {value}")


def check_float(name: str, value) -> None:
    """Raise ``HubnetError`` unless ``value`` is a finite real number other than a bool."""
    # abs(value) <= the largest float fails for NaN, infinity and an int too large for a float
    if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                       and abs(value) <= sys.float_info.max):
        raise HubnetError(f"{name} must be a finite number, got {value!r}")


def check_indices(what: str, idx: np.ndarray, size: int) -> None:
    """Raise ``HubnetError`` naming the first entry of ``idx`` not an integer in 0..size - 1."""
    bad = ~((idx >= 0) & (idx < size) & (idx == np.floor(idx)))
    if bad.any():
        raise HubnetError(f"{what} {idx[bad][0]:g} is not an integer in 0..{size - 1}")
