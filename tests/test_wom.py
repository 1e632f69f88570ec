"""Two-write WOM codes: table validity, partitions, page codecs."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pearl.wom
from pearl.errors import WomError
from pearl.wom import (
    BUILTIN_CODES,
    WOM_2_3,
    WOM_3_5,
    PageLayout,
    WomCode,
    codeword_histogram,
    covers,
    decode_bits_hidden,
    decode_bits_public,
    decode_page_hidden,
    decode_page_public,
    decode_pages_public,
    encode_bits_full,
    encode_page_first,
    encode_page_full,
    encode_page_second,
    int_to_bits,
    load_code_file,
    verify_equal_partition,
    verify_wom2,
)

ALL_CODES = list(BUILTIN_CODES.values())


# -- brute-force oracles on the scalar codec --------------------------


@pytest.mark.parametrize("code", ALL_CODES, ids=lambda c: c.name)
def test_two_stage_roundtrip_all_message_pairs(code):
    """Independent of verify_wom2: enumerate every (m1, m2) pair and check
    monotonicity plus decode at both stages."""
    for m1, m2 in itertools.product(range(2**code.k), repeat=2):
        c1 = code.encode_first(m1)
        assert code.decode_first(c1) == m1
        c2 = code.encode_second(m2, c1)
        assert covers(c2, c1), "second write must only set bits"
        assert code.decode_second(c2) == m2


@pytest.mark.parametrize("code", ALL_CODES, ids=lambda c: c.name)
def test_full_write_carries_hidden_bit(code):
    for m in range(2**code.k):
        for h in (0, 1):
            cw = code.encode_full(m, h)
            assert code.decode_second(cw) == m
            assert code.decode_hidden(cw) == h


@pytest.mark.parametrize("code", ALL_CODES, ids=lambda c: c.name)
def test_partition_membership_matches_encode_second(code):
    """A_m/B_m membership is exactly 'which of the two codewords a second
    write lands on' — checked against encode_second for every codeword."""
    for m in range(2**code.k):
        a_set, b_set = code.partition[m]
        wa, wb = code.second_write[m]
        assert a_set | b_set == code.c1
        assert not (a_set & b_set)
        for c1 in code.c1:
            expect = wa if c1 in a_set else wb
            assert code.encode_second(m, c1) == expect
            assert covers(expect, c1)


def test_builtin_codes_pass_validity():
    for code in ALL_CODES:
        report = verify_wom2(code)
        assert report.ok, report.violations


def test_equal_partition_sizes():
    report = verify_equal_partition(WOM_3_5)
    assert report.ok
    assert report.equal
    assert all(sizes == (4, 4) for sizes in report.sizes.values())

    report = verify_equal_partition(WOM_2_3)
    assert not report.equal
    assert all(sizes == (1, 3) for sizes in report.sizes.values())


def test_broken_code_detected():
    # Swap one second-write codeword so E2 no longer covers E1.
    rows = list(WOM_3_5.second_write)
    rows[0] = (0b00001, rows[0][1])  # 00001 does not cover most of C1
    broken = WomCode("broken", 3, 5, WOM_3_5.first_write, tuple(rows),
                     WOM_3_5.partition)
    assert not verify_wom2(broken).ok


def test_second_write_codewords_distinct_for_3x5():
    cws = [cw for pair in WOM_3_5.second_write for cw in pair]
    assert len(cws) == len(set(cws)) == 16


def test_invalid_inputs_raise():
    with pytest.raises(WomError):
        WOM_3_5.encode_first(8)
    with pytest.raises(WomError):
        WOM_3_5.encode_second(0, 0b00011)  # not a first-write codeword
    with pytest.raises(WomError):
        WOM_3_5.encode_full(0, 2)
    with pytest.raises(WomError):
        WOM_3_5.decode_second(WOM_3_5.first_write[1])


# -- the worked bit-string example ------------------------------------


def test_group_pair_decodes_public_and_hidden():
    raw = "1100010101"
    assert decode_bits_public(WOM_3_5, raw, "second") == "110010"
    assert decode_bits_hidden(WOM_3_5, raw) == "01"


def test_encode_bits_full_roundtrip():
    raw = encode_bits_full(WOM_3_5, "110010", "01")
    assert decode_bits_public(WOM_3_5, raw, "second") == "110010"
    assert decode_bits_hidden(WOM_3_5, raw) == "01"


# -- exact distribution equality (1-group enumeration) ----------------


def full_write_distribution(code):
    """Codeword distribution of one full write with uniform (public, hidden)."""
    dist = Counter()
    denom = 2**code.k * 2
    for m in range(2**code.k):
        for h in (0, 1):
            dist[code.encode_full(m, h)] += Fraction(1, denom)
    return dist


def two_stage_distribution(code):
    """Codeword distribution after two uniform public writes."""
    dist = Counter()
    denom = 2 ** (2 * code.k)
    for m1 in range(2**code.k):
        for m2 in range(2**code.k):
            cw = code.encode_second(m2, code.encode_first(m1))
            dist[cw] += Fraction(1, denom)
    return dist


def test_full_write_distribution_matches_two_stage_for_3x5():
    assert full_write_distribution(WOM_3_5) == two_stage_distribution(WOM_3_5)


def test_two_group_distribution_equality_for_3x5():
    """Independence across groups: the equality extends to group pairs."""
    full = full_write_distribution(WOM_3_5)
    two = two_stage_distribution(WOM_3_5)
    pair_full = {
        (a, b): pa * pb for a, pa in full.items() for b, pb in full.items()
    }
    pair_two = {
        (a, b): pa * pb for a, pa in two.items() for b, pb in two.items()
    }
    assert pair_full == pair_two


def test_2x3_distributions_differ():
    """The skewed partition makes the two write styles distinguishable."""
    assert full_write_distribution(WOM_2_3) != two_stage_distribution(WOM_2_3)


# -- page-level codecs ------------------------------------------------


@pytest.fixture
def layout():
    return PageLayout.for_page(2048, WOM_3_5)


def test_desk_layout_shape(layout):
    assert layout.groups_per_page == 3272
    assert layout.public_payload_bytes == 1227
    assert layout.hidden_payload_bytes == 409
    assert layout.groups_per_page % 8 == 0
    assert layout.slack_bits == 2048 * 8 - 3272 * 5


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=1227, max_size=1227),
       st.binary(min_size=1227, max_size=1227),
       st.binary(min_size=409, max_size=409))
def test_page_codec_roundtrips(pub1, pub2, hidden):
    layout = PageLayout.for_page(2048, WOM_3_5)
    first = encode_page_first(layout, WOM_3_5, pub1)
    assert decode_page_public(layout, WOM_3_5, first, "first") == pub1

    second = encode_page_second(layout, WOM_3_5, pub2, first)
    assert decode_page_public(layout, WOM_3_5, second, "second") == pub2
    # two-stage writes never clear bits
    a = int.from_bytes(first, "big")
    b = int.from_bytes(second, "big")
    assert a | b == b

    full = encode_page_full(layout, WOM_3_5, pub2, hidden)
    assert decode_page_public(layout, WOM_3_5, full, "second") == pub2
    assert decode_page_hidden(layout, WOM_3_5, full) == hidden


def test_lenient_hidden_decode_of_first_write_page(layout):
    """First-write pages have no hidden content; the lenient decoder maps
    them to all-zero bits instead of raising."""
    first = encode_page_first(layout, WOM_3_5, bytes(1227))
    with pytest.raises(WomError):
        decode_page_hidden(layout, WOM_3_5, first)
    out = decode_page_hidden(layout, WOM_3_5, first, strict=False)
    assert out == bytes(409)


def test_codeword_histogram_counts_groups(layout):
    page = encode_page_full(layout, WOM_3_5, bytes(1227), bytes(409))
    counts = codeword_histogram([page, page], WOM_3_5, layout)
    # public message 0, hidden bit 0 in every group -> w_a(0) everywhere
    assert counts == {WOM_3_5.second_write[0][0]: 2 * 3272}


def test_histogram_rejects_first_stage_page(layout):
    page = encode_page_first(layout, WOM_3_5, bytes(1227))
    with pytest.raises(WomError):
        codeword_histogram([page], WOM_3_5, layout)


# -- page codec against the scalar codec ------------------------------


def _bits(data: bytes) -> str:
    return "".join(format(b, "08b") for b in data)


def _groups(bits: str, width: int) -> list:
    return [int(bits[i:i + width], 2) for i in range(0, len(bits), width)]


def _group_bits(code, values) -> str:
    return "".join(int_to_bits(v, code.n) for v in values)


@pytest.mark.parametrize("page_bytes", [2048, 16384])
@pytest.mark.parametrize("code", [WOM_3_5, WOM_2_3], ids=lambda c: c.name)
def test_page_codec_matches_scalar_codec(code, page_bytes):
    lay = PageLayout.for_page(page_bytes, code)
    rng = random.Random(page_bytes * code.n)
    pub1 = rng.randbytes(lay.public_payload_bytes)
    pub2 = rng.randbytes(lay.public_payload_bytes)
    hidden = rng.randbytes(lay.hidden_payload_bytes)
    used = lay.groups_per_page * code.n

    def group_bits(page):
        bits = _bits(page)
        assert len(bits) == page_bytes * 8
        assert bits[used:] == "0" * lay.slack_bits
        return bits[:used]

    first = encode_page_first(lay, code, pub1)
    first_bits = group_bits(first)
    assert first_bits == _group_bits(
        code, (code.encode_first(m) for m in _groups(_bits(pub1), code.k)))

    second = encode_page_second(lay, code, pub2, first)
    second_bits = group_bits(second)
    assert second_bits == _group_bits(code, (
        code.encode_second(m, c)
        for m, c in zip(_groups(_bits(pub2), code.k),
                        _groups(first_bits, code.n))))

    full = encode_page_full(lay, code, pub2, hidden)
    full_bits = group_bits(full)
    assert full_bits == encode_bits_full(code, _bits(pub2), _bits(hidden))

    for page, bits, stage, public in ((first, first_bits, "first", pub1),
                                      (second, second_bits, "second", pub2),
                                      (full, full_bits, "second", pub2)):
        decoded = decode_page_public(lay, code, page, stage)
        assert _bits(decoded) == decode_bits_public(code, bits, stage)
        assert decoded == public
    decoded = decode_page_hidden(lay, code, full)
    assert _bits(decoded) == decode_bits_hidden(code, full_bits)
    assert decoded == hidden


def _set_group(layout, code, page, g, value):
    bits = _bits(page)
    bits = bits[:g * code.n] + int_to_bits(value, code.n) + bits[(g + 1) * code.n:]
    return int(bits, 2).to_bytes(layout.page_bytes, "big")


@pytest.mark.parametrize("g", [0, 1234, 3271])
def test_corrupted_group_names_first_bad_group(layout, g):
    """Groups g and a later one are corrupted; errors name g."""
    rng = random.Random(g)
    pub = rng.randbytes(layout.public_payload_bytes)
    later = min(g + 9, layout.groups_per_page - 1)
    not_second = WOM_3_5.first_write[0]  # 00000 is no second-write codeword
    not_first = 0b11111

    full = encode_page_full(layout, WOM_3_5, pub,
                            rng.randbytes(layout.hidden_payload_bytes))
    for gg in (later, g):
        full = _set_group(layout, WOM_3_5, full, gg, not_second)
    msg = rf"^group {g} \(00000\) is not a second-write codeword$"
    with pytest.raises(WomError, match=msg):
        decode_page_public(layout, WOM_3_5, full, "second")
    with pytest.raises(WomError, match=msg):
        decode_page_hidden(layout, WOM_3_5, full)
    good = encode_page_full(layout, WOM_3_5, pub, bytes(409))
    for before in (1, 45):  # the histogram takes pages in batches
        with pytest.raises(WomError, match=msg):
            codeword_histogram([good] * before + [full, full], WOM_3_5, layout)

    first = encode_page_first(layout, WOM_3_5, pub)
    for gg in (later, g):
        first = _set_group(layout, WOM_3_5, first, gg, not_first)
    with pytest.raises(WomError,
                       match=rf"^group {g} \(11111\) is not a first-write"):
        decode_page_public(layout, WOM_3_5, first, "first")
    with pytest.raises(WomError, match=rf"^group {g} of existing page"):
        encode_page_second(layout, WOM_3_5, pub, first)


# -- page-batch kernels against the group lanes ------------------------


def test_chunk_tables_fit_sixteen_bits():
    """c groups per lookup: the largest of 1, 2, 4, 8 whose decode index
    (a stage bit and c codewords) fits in 16 bits."""
    assert (WOM_3_5._chunks.c, WOM_3_5._chunks.decode.shape) == (2, (2048,))
    assert (WOM_2_3._chunks.c, WOM_2_3._chunks.decode.shape) == (4, (8192,))
    assert WOM_3_5._chunks.decode.dtype == np.int32


def _batch(code, lay, rng, pages):
    """Random valid pages cycling first, full and first-then-second
    writes, and which of them are at second stage."""
    raw, second = [], []
    for i in range(pages):
        pub = rng.randbytes(lay.public_payload_bytes)
        page = encode_page_first(lay, code, pub)
        if i % 3 == 1:
            page = encode_page_full(lay, code, pub,
                                    rng.randbytes(lay.hidden_payload_bytes))
        elif i % 3 == 2:
            page = encode_page_second(
                lay, code, rng.randbytes(lay.public_payload_bytes), page)
        raw.append(page)
        second.append(i % 3 != 0)
    return raw, np.array(second)


def _grid(pages):
    return np.frombuffer(b"".join(pages), dtype=np.uint8).reshape(
        len(pages), -1)


def _stage(second):
    return "second" if second else "first"


def _message(fn, *args):
    with pytest.raises(WomError) as err:
        fn(*args)
    return str(err.value)


@pytest.mark.parametrize("page_bytes", [512, 2048, 16384])
@pytest.mark.parametrize("code", [WOM_3_5, WOM_2_3], ids=lambda c: c.name)
def test_chunk_kernels_match_the_group_lanes(code, page_bytes, monkeypatch):
    """The batched public decode and the histogram equal the per-page
    group-lane codec and a count of every group, without falling back to
    the group lanes."""
    def no_fallback(*args):
        raise AssertionError("valid pages took the group-lane path")
    monkeypatch.setattr(pearl.wom, "_decode_pages_lanes", no_fallback)
    lay = PageLayout.for_page(page_bytes, code)
    raw, second = _batch(code, lay, random.Random(page_bytes + code.n), 9)
    out = decode_pages_public(lay, code, _grid(raw), second)
    assert out.shape == (len(raw), lay.public_payload_bytes)
    assert [bytes(row) for row in out] == [
        decode_page_public(lay, code, page, _stage(s))
        for page, s in zip(raw, second)]
    pages = [page for page, s in zip(raw, second) if s]
    used = lay.groups_per_page * code.n
    assert codeword_histogram(pages, code, lay) == Counter(
        g for page in pages for g in _groups(_bits(page)[:used], code.n))


@pytest.mark.parametrize("page_bytes", [512, 2048, 16384])
@pytest.mark.parametrize("code", [WOM_3_5, WOM_2_3], ids=lambda c: c.name)
def test_chunk_kernels_raise_the_group_lane_error(code, page_bytes):
    """Group 0, 1,234 or 3,271 of a batch (counted across its pages) is no
    codeword of its page's stage, and so is the same group of the next
    page: the batch kernels raise the text that the per-page codec raises
    for the first bad page.  (Every 3-bit word is a second-write codeword
    of WOM_2_3.)"""
    lay = PageLayout.for_page(page_bytes, code)
    bad_words = {
        "first": min(set(range(2 ** code.n)) - code.c1),
        "second": next((v for v in range(2 ** code.n)
                        if code._d2_arr[v] < 0), None)}
    for stage, word in bad_words.items():
        if word is None:
            continue
        for g in (0, 1234, 3271):
            rng = random.Random(g)
            raw, second = _batch(code, lay, rng, g // lay.groups_per_page + 3)
            page, group = divmod(g, lay.groups_per_page)
            valid, _ = _batch(code, lay, rng, 2)   # a first, a full write
            for p in (page, page + 1):
                second[p] = stage == "second"
                raw[p] = _set_group(lay, code, valid[stage == "second"],
                                    group, word)
            expected = _message(decode_page_public, lay, code, raw[page],
                                stage)
            assert expected == (f"group {group} ({int_to_bits(word, code.n)})"
                                f" is not a {stage}-write codeword")
            assert _message(decode_pages_public, lay, code, _grid(raw),
                            second) == expected
            if stage == "second":
                pages = [p for p, s in zip(raw, second) if s]
                assert _message(codeword_histogram, pages, code,
                                lay) == expected


def test_page_layout_rejects_codes_wider_than_a_byte(tmp_path):
    """A loaded n = 9 code works through the scalar codec, but the page
    codec takes n <= 8 only."""
    path = tmp_path / "wide.code"
    path.write_text("0 000000000 011111111 101111111\n"
                    "1 000000001 110111111 111011111\n")
    code = load_code_file(path)
    assert code.n == 9
    assert verify_wom2(code).ok
    assert code.decode_hidden(code.encode_full(1, 1)) == 1
    with pytest.raises(WomError, match="n <= 8"):
        PageLayout.for_page(2048, code)
