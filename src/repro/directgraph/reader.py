"""Decoding DirectGraph pages and sections.

The decoder is shared by the host-side verification path (round-trip tests
against the source graph) and by the die-level sampler model, which operates
on exactly these page bytes.

Decoding is header-only, like the die's section iterator (Section V-A): it
validates the page and parses one fixed section header, and the address
fields are :class:`SectionAddresses` views that unpack an entry only when
it is read. The sampler touches ``fanout`` entries of a node's list, so a
decode costs the same for a degree-3 node and a degree-3,000 one.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from .address import ADDRESS_BYTES, AddressCodec, SectionAddress
from .builder import DirectGraphImage
from .spec import (
    FormatSpec,
    PRIMARY_HEADER_BYTES,
    SECONDARY_HEADER_BYTES,
    SECTION_TYPE_PRIMARY,
    SECTION_TYPE_SECONDARY,
)

__all__ = [
    "PrimarySectionView",
    "SecondarySectionView",
    "SectionAddresses",
    "DecodedPage",
    "decode_page",
    "decode_section",
    "DirectGraphReader",
]


@dataclass
class PrimarySectionView:
    """A decoded primary section."""

    node_id: int
    neighbor_count: int  # full degree, including secondary-resident entries
    n_inline: int
    secondary_addrs: SectionAddresses
    feature_bytes: bytes
    inline_neighbor_addrs: SectionAddresses
    section_len: int
    growth_slots_free: int = 0  # unused reserved secondary slots

    @property
    def type(self) -> int:
        return SECTION_TYPE_PRIMARY

    def feature_vector(self, dim: int) -> np.ndarray:
        return np.frombuffer(self.feature_bytes, dtype=np.float16, count=dim)


@dataclass
class SecondarySectionView:
    """A decoded secondary (overflow neighbor list) section."""

    node_id: int
    neighbor_count: int  # entries in this section only
    neighbor_addrs: SectionAddresses
    section_len: int

    @property
    def type(self) -> int:
        return SECTION_TYPE_SECONDARY


SectionView = Union[PrimarySectionView, SecondarySectionView]


@dataclass
class DecodedPage:
    page_type: int
    sections: List[SectionView]


class DirectGraphFormatError(ValueError):
    """Raised when page bytes violate the DirectGraph layout."""


# type, free growth slots, len, node, neighbor count, n_secondary, n_inline
_PRIMARY_HEADER = struct.Struct("<BBHIIHH")
_SECONDARY_HEADER = struct.Struct("<BBHIH")  # type, flags, len, node, count
_OFFSET = struct.Struct("<H")


class SectionAddresses(Sequence):
    """Read-only view of ``count`` packed addresses in a page's bytes.

    Built by :func:`decode_section` after every bound check has passed, so
    reading any entry cannot fail. Only the entries actually read become
    :class:`SectionAddress` objects — the die sampler touches a few of a
    node's neighbor entries, never the whole list.
    """

    __slots__ = ("_codec", "_raw", "_at", "_count")

    def __init__(self, codec: AddressCodec, raw: bytes, at: int, count: int) -> None:
        self._codec = codec
        self._raw = raw
        self._at = at
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> SectionAddress:
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError("section address index out of range")
        at = self._at + ADDRESS_BYTES * index
        return self._codec.unpack_bytes(self._raw[at : at + ADDRESS_BYTES])

    def __eq__(self, other) -> bool:
        if isinstance(other, (SectionAddresses, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


def _check_extent(
    kind: str, at: int, size: Optional[int], end: int, page_size: int
) -> None:
    """A section spans ``at..end``: it must end inside the page and, once
    its header is read, match the header's length field (``size``)."""
    if size is not None and end - at != size:
        raise DirectGraphFormatError(
            f"{kind} section length mismatch: header says {size}, decoded {end - at}"
        )
    if end > page_size:
        raise DirectGraphFormatError(
            f"{kind} section at {at} runs to byte {end}, past the {page_size} B page"
        )


def decode_section(spec: FormatSpec, raw: bytes, index: int) -> SectionView:
    """Decode section ``index`` of a page (as the section iterator does).

    Parses only the fixed header; the address fields are lazy
    :class:`SectionAddresses` views over ``raw``. Every check runs here —
    page length, section index, offset, type, header length against the
    counts and section end against the page size — so any malformed
    content raises :class:`DirectGraphFormatError` now and reading a
    returned view never fails (the on-die checker turns the error into a
    SamplerFault).
    """
    page_size = spec.page_size
    if len(raw) != page_size:
        raise DirectGraphFormatError(f"page must be {page_size} B, got {len(raw)}")
    if type(raw) is not bytes:
        raw = bytes(raw)  # views keep a snapshot, never a mutable buffer
    n_sections = min(raw[1], spec.max_sections_per_page)
    if not (0 <= index < n_sections):
        raise DirectGraphFormatError(
            f"section index {index} out of range (page has {raw[1]})"
        )
    (at,) = _OFFSET.unpack_from(raw, 2 + 2 * index)
    if at < spec.page_header_bytes or at >= page_size:
        raise DirectGraphFormatError(f"corrupt section offset {at}")
    stype = raw[at]
    codec = spec.codec
    if stype == SECTION_TYPE_PRIMARY:
        _check_extent("primary", at, None, at + PRIMARY_HEADER_BYTES, page_size)
        _, growth_free, size, node_id, neighbor_count, n_secondary, n_inline = (
            _PRIMARY_HEADER.unpack_from(raw, at)
        )
        sec_at = at + PRIMARY_HEADER_BYTES
        feature_at = sec_at + ADDRESS_BYTES * (n_secondary + growth_free)
        inline_at = feature_at + spec.feature_bytes
        end = inline_at + ADDRESS_BYTES * n_inline
        _check_extent("primary", at, size, end, page_size)
        return PrimarySectionView(
            node_id=node_id,
            neighbor_count=neighbor_count,
            n_inline=n_inline,
            secondary_addrs=SectionAddresses(codec, raw, sec_at, n_secondary),
            feature_bytes=raw[feature_at:inline_at],
            inline_neighbor_addrs=SectionAddresses(codec, raw, inline_at, n_inline),
            section_len=size,
            growth_slots_free=growth_free,
        )
    if stype == SECTION_TYPE_SECONDARY:
        _check_extent("secondary", at, None, at + SECONDARY_HEADER_BYTES, page_size)
        _, _, size, node_id, count = _SECONDARY_HEADER.unpack_from(raw, at)
        addrs_at = at + SECONDARY_HEADER_BYTES
        end = addrs_at + ADDRESS_BYTES * count
        _check_extent("secondary", at, size, end, page_size)
        return SecondarySectionView(
            node_id=node_id,
            neighbor_count=count,
            neighbor_addrs=SectionAddresses(codec, raw, addrs_at, count),
            section_len=size,
        )
    raise DirectGraphFormatError(f"unknown section type {stype}")


def decode_page(spec: FormatSpec, raw: bytes) -> DecodedPage:
    if len(raw) != spec.page_size:
        raise DirectGraphFormatError(
            f"page must be {spec.page_size} B, got {len(raw)}"
        )
    n_sections = raw[1]
    if n_sections > spec.max_sections_per_page:
        raise DirectGraphFormatError(
            f"page claims {n_sections} sections, max is "
            f"{spec.max_sections_per_page}"
        )
    sections = [decode_section(spec, raw, i) for i in range(n_sections)]
    return DecodedPage(page_type=raw[0], sections=sections)


class DirectGraphReader:
    """Host-side navigation over a serialized image (verification path)."""

    def __init__(self, image: DirectGraphImage) -> None:
        if not image.serialized:
            raise ValueError("reader requires a serialized image")
        self.image = image
        self.spec = image.spec

    def section_at(self, addr: SectionAddress) -> SectionView:
        raw = self.image.page_bytes(addr.page)
        return decode_section(self.spec, raw, addr.section)

    def primary_section(self, node: int) -> PrimarySectionView:
        view = self.section_at(self.image.address_of(node))
        if not isinstance(view, PrimarySectionView):
            raise DirectGraphFormatError(f"node {node} address is not primary")
        return view

    def neighbors(self, node: int) -> List[int]:
        """Full neighbor list of a node as node ids, in storage order.

        Walks the primary section, then every secondary section — exactly
        the read pattern Section IV-A describes.
        """
        primary = self.primary_section(node)
        addrs = list(primary.inline_neighbor_addrs)
        for sec_addr in primary.secondary_addrs:
            sec = self.section_at(sec_addr)
            if not isinstance(sec, SecondarySectionView):
                raise DirectGraphFormatError(
                    f"secondary address of node {node} points to a "
                    f"non-secondary section"
                )
            addrs.extend(sec.neighbor_addrs)
        if len(addrs) != primary.neighbor_count:
            raise DirectGraphFormatError(
                f"node {node}: header count {primary.neighbor_count} != "
                f"{len(addrs)} stored entries"
            )
        return [self.image.node_at(a) for a in addrs]

    def feature(self, node: int) -> np.ndarray:
        return self.primary_section(node).feature_vector(self.spec.feature_dim)
