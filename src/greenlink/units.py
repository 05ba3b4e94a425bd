"""dBm conversions. Library internals work in watts; dBm belongs at the CLI boundary."""

import math

__all__ = ["dbm_to_watts", "watts_to_dbm"]


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts: float) -> float:
    if watts <= 0.0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(watts) + 30.0
