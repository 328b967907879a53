"""The error every library input check raises, naming the argument at fault."""


class InputError(ValueError):
    """An argument outside its domain: ``name`` is the argument, ``detail`` the message
    without it, so a caller that spells the argument its own way can report it so."""

    def __init__(self, name: str, detail: str) -> None:
        super().__init__(f"{name} {detail}")
        self.name, self.detail = name, detail


def check_in(name: str, value, lo, hi) -> None:
    """Raise :class:`InputError` unless ``lo <= value <= hi``; NaN is outside."""
    if not lo <= value <= hi:
        raise InputError(name, f"must be in [{lo}, {hi}], got {value}")


def check_at_least(name: str, value, lo) -> None:
    """Raise :class:`InputError` unless ``value >= lo``; NaN is outside."""
    if not value >= lo:
        raise InputError(name, f"must be at least {lo}, got {value}")
