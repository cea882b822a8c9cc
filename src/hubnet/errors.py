"""The one exception type the hubnet modules raise."""


class HubnetError(ValueError):
    """Invalid input or a computation that is undefined for it.

    Subclassing ``ValueError`` lets a caller that already handles bad
    values catch it; the message says which case it is.
    """
