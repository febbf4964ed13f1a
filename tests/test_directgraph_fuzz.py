"""Fuzz tests: malformed pages never crash decoders or the die sampler.

Corrupted flash content must surface as DirectGraphFormatError (host
path) or SamplerFault (on-die path, Section VI-E's runtime check) —
never as a bare IndexError/ValueError/struct garbage.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.directgraph import (
    PAGE_TYPE_PRIMARY,
    PRIMARY_HEADER_BYTES,
    SECTION_TYPE_PRIMARY,
    DirectGraphFormatError,
    FormatSpec,
    PrimarySectionView,
    SectionAddress,
    build_directgraph,
    decode_page,
    decode_section,
)
from repro.gnn import DenseFeatureTable, power_law_graph
from repro.isc import CommandKind, DieSampler, GnnTaskConfig, SamplerFault, SamplingCommand

SPEC = FormatSpec(page_size=512, feature_dim=4)


def built_image():
    graph = power_law_graph(40, 8.0, seed=3)
    feats = DenseFeatureTable.random(40, 4, seed=0)
    return graph, build_directgraph(graph, feats, SPEC)


def read_every_entry(section):
    """Read a decoded section completely: a returned view never fails late."""
    if isinstance(section, PrimarySectionView):
        assert len(section.feature_bytes) == SPEC.feature_bytes
        fields = (section.secondary_addrs, section.inline_neighbor_addrs)
        assert len(section.inline_neighbor_addrs) == section.n_inline
    else:
        fields = (section.neighbor_addrs,)
        assert len(section.neighbor_addrs) == section.neighbor_count
    for addrs in fields:
        entries = list(addrs)
        assert len(entries) == len(addrs)
        assert all(isinstance(a, SectionAddress) for a in entries)
        assert [addrs[i] for i in range(len(addrs))] == entries
        assert [addrs[i] for i in range(-len(addrs), 0)] == entries


def section_past_page_end():
    """A page whose one primary section (no neighbors) runs past the page.

    The header fits and its length field matches the counts, but the
    feature vector ends 4 bytes beyond the last byte of the page.
    """
    raw = bytearray(SPEC.page_size)
    raw[0], raw[1] = PAGE_TYPE_PRIMARY, 1
    at = SPEC.page_size - PRIMARY_HEADER_BYTES - SPEC.feature_bytes + 4
    raw[2:4] = at.to_bytes(2, "little")
    size = SPEC.primary_section_bytes(n_secondary=0, n_inline=0)
    struct.pack_into("<BBHIIHH", raw, at, SECTION_TYPE_PRIMARY, 0, size, 0, 0, 0, 0)
    return bytes(raw)


class TestDecoderFuzz:
    @settings(max_examples=60, deadline=None)
    @given(data=st.binary(min_size=512, max_size=512))
    def test_random_page_never_crashes(self, data):
        try:
            page = decode_page(SPEC, data)
        except DirectGraphFormatError:
            pass  # rejection is the expected failure mode
        else:
            for section in page.sections:
                read_every_entry(section)
        for index in range(SPEC.max_sections_per_page):
            try:
                section = decode_section(SPEC, data, index)
            except DirectGraphFormatError:
                continue
            read_every_entry(section)

    @settings(max_examples=40, deadline=None)
    @given(
        byte_offset=st.integers(min_value=0, max_value=511),
        new_value=st.integers(min_value=0, max_value=255),
        section=st.integers(min_value=0, max_value=15),
    )
    def test_single_byte_corruption_contained(self, byte_offset, new_value, section):
        _graph, image = built_image()
        raw = bytearray(image.page_bytes(0))
        raw[byte_offset] = new_value
        try:
            view = decode_section(SPEC, bytes(raw), section)
        except DirectGraphFormatError:
            pass
        else:
            read_every_entry(view)
        try:
            page = decode_page(SPEC, bytes(raw))
        except DirectGraphFormatError:
            pass
        else:
            for view in page.sections:
                read_every_entry(view)

    def test_wrong_size_page_rejected(self):
        with pytest.raises(DirectGraphFormatError):
            decode_page(SPEC, b"\x00" * 100)

    def test_section_past_page_end_rejected(self):
        raw = section_past_page_end()
        with pytest.raises(DirectGraphFormatError, match="past the 512 B page"):
            decode_section(SPEC, raw, 0)
        with pytest.raises(DirectGraphFormatError):
            decode_page(SPEC, raw)

    def test_sampler_faults_on_section_past_page_end(self):
        config = GnnTaskConfig(num_hops=2, fanout=2, feature_dim=4, seed=0)
        command = SamplingCommand(
            kind=CommandKind.SAMPLE_PRIMARY,
            address=SectionAddress(page=0, section=0),
            target=0,
            hop=0,
            position=0,
        )
        with pytest.raises(SamplerFault):
            DieSampler(SPEC, config).execute(section_past_page_end(), command)

    @settings(max_examples=30, deadline=None)
    @given(
        byte_offset=st.integers(min_value=0, max_value=511),
        new_value=st.integers(min_value=0, max_value=255),
    )
    def test_sampler_faults_cleanly_on_corruption(self, byte_offset, new_value):
        """The on-die path: corruption -> SamplerFault (or a valid read if
        the flipped byte was immaterial), never anything else."""
        _graph, image = built_image()
        config = GnnTaskConfig(num_hops=2, fanout=2, feature_dim=4, seed=0)
        sampler = DieSampler(image.spec, config)
        addr = image.address_of(0)
        raw = bytearray(image.page_bytes(addr.page))
        raw[byte_offset] = new_value
        command = SamplingCommand(
            kind=CommandKind.SAMPLE_PRIMARY,
            address=addr,
            target=0,
            hop=0,
            position=0,
        )
        try:
            sampler.execute(bytes(raw), command)
        except SamplerFault:
            pass
