"""Check-report construction shared by metrics, verify, and the CLI.

Every checkable claim produces a dict with the fixed keys
{claim, lhs, rhs, holds, tolerance}; anything extra sits under "details".
"""

from __future__ import annotations

import numpy as np


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def make_report(
    claim: str, lhs: float, rhs: float, holds: bool, tolerance: float, **details
) -> dict:
    rep = {
        "claim": str(claim),
        "lhs": float(lhs),
        "rhs": float(rhs),
        "holds": bool(holds),
        "tolerance": float(tolerance),
    }
    if details:
        rep["details"] = _jsonable(details)
    return rep
