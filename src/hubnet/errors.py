"""The one exception type the hubnet modules raise, and the memory guard."""

import os


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
