"""What the three workloads share: the operation record and the check helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


class CheckFailed(Exception):
    """An output disagrees with the oracle or with a property of the method."""


def need(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a, b, tol: float, what: str) -> None:
    """Require max |a - b| <= tol, element-wise."""
    a = np.asarray(a)
    b = np.asarray(b)
    need(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    dev = float(np.max(np.abs(a - b))) if a.size else 0.0
    need(dev <= tol, f"{what}: deviation {dev:.3e} > {tol:.1e}")


@dataclass
class Op:
    """One timed call into togglekit.

    ``call`` runs the operation and returns its output; ``check`` raises
    CheckFailed if that output is wrong; ``digest`` turns it into a value
    that later rounds must reproduce exactly.  An operation that raises is
    counted as failed; unless ``may_fail`` marks a known fault of the
    program, that also makes the run incorrect.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    digest: Callable[[Any], Any]
    may_fail: bool = False


def array_digest(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays)
