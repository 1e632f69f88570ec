"""What a page shows an observer: the write stage read from its OOB
tags, and the projection of internal page states onto the five
observable ones."""

import pytest

from pearl.oob import (LPN_MASK, STAGES, TAG_FIRST, TAG_SECOND, OobSlot,
                       observable_stage, observable_stages, pack_oob,
                       parse_oob, slot_a_claims, trans_field)
from pearl.states import ALLOWED_EDGES, PageState


def _stage_from_slots(oob):
    slot_a, slot_b = parse_oob(oob)
    if slot_b is not None:
        return "second"
    return "first" if slot_a is not None else "empty"


@pytest.mark.parametrize("oob_bytes", [42, 64, 65])
def test_observable_stage_matches_parsed_slots(oob_bytes):
    first = OobSlot(bytes(range(16)), 7, TAG_FIRST)
    second = OobSlot(bytes(16), trans_field(3), TAG_SECOND)
    cases = {
        "empty": pack_oob(oob_bytes, None, None),
        "first": pack_oob(oob_bytes, first, None),
        # A full write: a fake first-write slot next to the real one.
        "second": pack_oob(oob_bytes, first, second),
    }
    # The second write ORs slot B into a first-written OOB.
    written = bytes(a | b for a, b in zip(cases["first"],
                                          pack_oob(oob_bytes, None, second)))
    for stage, oob in list(cases.items()) + [("second", written)]:
        assert observable_stage(oob) == _stage_from_slots(oob) == stage
    oobs = list(cases.values()) + [written]
    assert [STAGES[s] for s in observable_stages(oobs)] == [
        observable_stage(oob) for oob in oobs]
    assert [STAGES[s] for s in observable_stages(oobs[::-1])] == [
        observable_stage(oob) for oob in oobs[::-1]]
    # The slot-A claim, with the translation flag and the widest field.
    widest = pack_oob(oob_bytes, OobSlot(bytes(16), trans_field(LPN_MASK),
                                         TAG_FIRST), None)
    for batch in (oobs + [widest], [widest] + oobs[::-1]):
        assert slot_a_claims(batch).tolist() == [
            -1 if parse_oob(oob)[0] is None else parse_oob(oob)[0].lpn_field
            for oob in batch]


def test_observable_stage_rejects_an_oob_too_short_for_two_slots():
    with pytest.raises(ValueError):
        observable_stage(bytes(41))
    with pytest.raises(ValueError):
        parse_oob(bytes(41))
    with pytest.raises(ValueError):
        observable_stages([bytes(41)])
    with pytest.raises(ValueError):
        observable_stages([bytes(64), bytes(65)])
    with pytest.raises(ValueError):
        slot_a_claims([bytes(41)])
    with pytest.raises(ValueError):
        slot_a_claims([bytes(64), bytes(65)])


def test_page_state_projection():
    """Each page state is one observable state, named by its value."""
    assert [s.value for s in PageState] == ["Empty", "V1", "I1", "V2", "I2"]
    assert {s.value for s in PageState} == {
        node for edge in ALLOWED_EDGES for node in edge}
