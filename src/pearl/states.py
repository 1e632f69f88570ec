"""FTL-internal page states and the transition monitor.

The observable model has five states (Empty, V1, I1, V2, I2); the FTL
refines I1 into UI1 (update-invalidated), TI1 (trim-invalidated) and RI1
(relocation-invalidated).  The monitor projects every internal change onto
the five-state graph and asserts it is one of the allowed edges.
"""

from __future__ import annotations

from enum import Enum

from .errors import PearlError


# Observable projection of each internal state, by PageState value.
_OBSERVABLE = {"empty": "Empty", "v1": "V1", "ui1": "I1", "ti1": "I1",
               "ri1": "I1", "v2": "V2", "i2": "I2"}


class PageState(Enum):
    EMPTY = "empty"
    V1 = "v1"
    UI1 = "ui1"
    TI1 = "ti1"
    RI1 = "ri1"
    V2 = "v2"
    I2 = "i2"

    def __init__(self, value):
        # A plain member attribute: the monitor reads it on every change.
        self.observable = _OBSERVABLE[value]


# Edges of the page state transition graph (observable projection).
ALLOWED_EDGES = {
    ("Empty", "V1"),
    ("Empty", "V2"),
    ("V1", "I1"),
    ("I1", "V2"),
    ("I1", "Empty"),
    ("V2", "I2"),
    ("I2", "Empty"),
    ("V1", "Empty"),
}


class TransitionViolation(PearlError):
    pass


class TransitionMonitor:
    """Checks every observable page state transition and raises
    TransitionViolation on one that is not allowed."""

    def record(self, ppn: int, old: PageState, new: PageState, reason: str):
        a, b = old.observable, new.observable
        if a != b and (a, b) not in ALLOWED_EDGES:
            raise TransitionViolation(
                f"page {ppn}: {a} -> {b} ({reason}) is not an allowed transition")
