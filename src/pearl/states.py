"""Page states and the transition monitor.

A page is in one of the five states an adversary can observe: Empty,
V1, I1, V2 or I2.  The FTL keeps an I1 page's role where it uses it:
the Current UI1 page is ``PearlFtl.current_ui1``, a TI1 page is on the
TIQ (``PearlFtl.tiq``), and any other I1 page is a relocation leftover.
The monitor asserts that every change of state is an allowed edge.
"""

from __future__ import annotations

from enum import Enum

from .errors import PearlError


class PageState(Enum):
    EMPTY = "Empty"
    V1 = "V1"
    I1 = "I1"
    V2 = "V2"
    I2 = "I2"


# Edges of the page state transition graph, by PageState value.
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
    """Checks every page state transition and raises TransitionViolation
    on one that is not allowed."""

    def record(self, ppn: int, old: PageState, new: PageState, reason: str):
        a, b = old.value, new.value
        if a != b and (a, b) not in ALLOWED_EDGES:
            raise TransitionViolation(
                f"page {ppn}: {a} -> {b} ({reason}) is not an allowed transition")
