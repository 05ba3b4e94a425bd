"""dBm conversions. Library internals work in watts; dBm belongs at the CLI boundary."""

import math

__all__ = ["dbm_to_watts", "watts_to_dbm"]


def dbm_to_watts(dbm: float) -> float:
    """Watts for a dBm value; inf above about 3112.5 dBm, beyond float range."""
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        return math.inf


def watts_to_dbm(watts: float) -> float:
    if watts <= 0.0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(watts) + 30.0
