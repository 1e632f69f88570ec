"""Deliberately faulty FTL variants used to validate the detectors.

A detector that never fires is worthless, so the adversary experiments
are calibrated against variants that break exactly one deniability rule.
"""

from __future__ import annotations

from .ftl import PearlFtl
from .states import PageState


class BrokenAllocatorFtl(PearlFtl):
    """Ignores the fill-the-UI1-page-first discipline.

    Pages invalidated by logical updates are simply abandoned instead of
    being queued for a second write, so the device keeps programming
    empty pages (including full writes) while a demonstrably
    update-invalidated page sits unconsumed — the in-block write-order
    pattern the UI1 inference detector looks for.
    """

    def _invalidate_public(self, ppn, reason, relocation=False):
        if self._state[ppn] == PageState.V1:
            # Faulty: the superseded page never enters the UI1 slot.
            self._set_state(ppn, PageState.I1, reason)
            return
        super()._invalidate_public(ppn, reason, relocation)
