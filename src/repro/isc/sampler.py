"""Die-level sampler (Section V-A, Figures 10-11).

The sampler lives in each flash die's control circuitry and runs four
micro-units over the page held in the cache register:

* **section iterator** — walks the offset table to the target section
  and checks its fixed header (:meth:`DieSampler.decode_for`, the one
  decode call on every path). Decoding is header-only: neighbor entries
  are read from the page bytes only where a draw lands;
* **vector retriever** — copies the feature vector to the data register;
* **node sampler** — modulo-samples neighbors with TRNG draws. Primary
  sections sample over the *entire* neighbor range (including entries that
  live in secondary sections); draws landing outside the page become
  commands against the owning secondary section, and draws for the same
  secondary section coalesce into one command. Secondary sections sample
  within themselves;
* **command generator** — emits the next-hop sampling commands and the
  result stream (feature bytes + subgraph records + new commands).

Two sampling policies are provided:

* ``EXACT_INDEX`` (default): a draw that lands at overflow index ``i``
  resolves to *exactly* neighbor ``i`` (the coalesced command carries the
  in-section index). This policy is provably equivalent to the reference
  in-order GraphSage sampler, which is what the correctness tests assert.
* ``RESAMPLE_IN_SECTION``: the paper's literal rule — the secondary
  section re-draws uniformly within itself. Statistically this biases
  slightly toward overflow neighbors of partially-filled last sections but
  never produces an invalid edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from ..directgraph.builder import DirectGraphImage
from ..directgraph.reader import (
    DirectGraphFormatError,
    PrimarySectionView,
    SecondarySectionView,
    SectionView,
    decode_section,
)
from ..directgraph.spec import FormatSpec
from ..gnn.sampling import (
    SampledSubgraph,
    TreeNode,
    child_position,
    parent_position,
    tree_capacity,
)
from .commands import (
    UNKNOWN_NODE,
    CommandKind,
    GnnTaskConfig,
    RESULT_HEADER_BYTES,
    SampleRecord,
    SamplingCommand,
)
from .trng import counter_draw

__all__ = [
    "SamplerPolicy",
    "SamplerFault",
    "SampleResult",
    "DieSampler",
    "run_in_storage_sampling",
    "InStorageRunResult",
]

_RESAMPLE_SALT = 0x5EC0  # extra key for the in-section re-draw policy


class SamplerPolicy(Enum):
    EXACT_INDEX = "exact"
    RESAMPLE_IN_SECTION = "resample"


class SamplerFault(RuntimeError):
    """On-die check failure (Section VI-E): sampler stops, control returns
    to firmware."""


@dataclass(slots=True)
class SampleResult:
    """Everything one sampling command produces."""

    command: SamplingCommand
    record: Optional[SampleRecord]
    feature_bytes: Optional[bytes]
    children: List[SamplingCommand] = field(default_factory=list)
    sections_scanned: int = 0
    neighbors_sampled: int = 0

    def payload_bytes(self) -> int:
        """Size of the result stream leaving the die over the channel."""
        total = RESULT_HEADER_BYTES
        if self.feature_bytes is not None:
            total += len(self.feature_bytes)
        total += sum(c.encoded_bytes for c in self.children)
        if self.record is not None:
            total += self.record.encoded_bytes
        return total


class DieSampler:
    """Functional model of the on-die sampling logic."""

    def __init__(
        self,
        spec: FormatSpec,
        config: GnnTaskConfig,
        policy: SamplerPolicy = SamplerPolicy.EXACT_INDEX,
        coalesce_secondary: bool = True,
    ) -> None:
        """``coalesce_secondary=False`` disables the paper's command
        coalescing (one read per secondary section) — used by the ablation
        benchmark to quantify how many redundant reads coalescing saves."""
        if config.feature_dim != spec.feature_dim:
            raise ValueError("task feature_dim differs from format spec")
        self.spec = spec
        self.config = config
        self.policy = policy
        self.coalesce_secondary = coalesce_secondary

    # -- command execution ----------------------------------------------------

    def execute(self, page_bytes: bytes, command: SamplingCommand) -> SampleResult:
        """Run one sampling command against the page in the cache register."""
        if command.kind in (CommandKind.SAMPLE_PRIMARY, CommandKind.FETCH_FEATURE):
            run = self._execute_primary
        elif command.kind == CommandKind.SAMPLE_SECONDARY:
            run = self._execute_secondary
        else:
            raise SamplerFault(f"die cannot execute command kind {command.kind}")
        return run(command, self.decode_for(page_bytes, command))

    def decode_for(self, page_bytes: bytes, command: SamplingCommand) -> SectionView:
        """Decode the section a command addresses (the section iterator).

        The one decode every path takes — device reads, page-cache hits
        and :func:`run_in_storage_sampling` alike. A malformed section is
        the on-die check failing, so it surfaces as :class:`SamplerFault`.
        """
        try:
            return decode_section(self.spec, page_bytes, command.address.section)
        except DirectGraphFormatError as err:
            raise SamplerFault(f"section check failed at {command.address}: {err}")

    def _execute_primary(
        self, command: SamplingCommand, section: SectionView
    ) -> SampleResult:
        if not isinstance(section, PrimarySectionView):
            raise SamplerFault(
                f"expected primary section at {command.address}, got type "
                f"{section.type}"
            )
        if command.node_id != UNKNOWN_NODE and section.node_id != command.node_id:
            raise SamplerFault(
                f"node id mismatch at {command.address}: header "
                f"{section.node_id} != expected {command.node_id}"
            )
        result = SampleResult(
            command=command,
            record=SampleRecord(
                target=command.target,
                position=command.position,
                node_id=section.node_id,
                depth=command.hop,
            ),
            feature_bytes=section.feature_bytes,
            sections_scanned=command.address.section + 1,
        )
        if command.kind == CommandKind.FETCH_FEATURE:
            return result  # final hop: the vector retriever alone runs
        child_depth = command.hop + 1
        if child_depth > self.config.num_hops or section.neighbor_count == 0:
            return result
        fanouts = self.config.fanouts
        sec_cap = self.spec.max_secondary_neighbors
        pending_secondary: Dict[int, List] = {}
        for j in range(self.config.fanout):
            draw = counter_draw(
                self.config.seed, command.target, child_depth, command.position, j
            )
            idx = draw % section.neighbor_count
            result.neighbors_sampled += 1
            if idx < section.n_inline:
                result.children.append(
                    SamplingCommand(
                        kind=self._child_kind(child_depth),
                        address=section.inline_neighbor_addrs[idx],
                        target=command.target,
                        hop=child_depth,
                        position=child_position(
                            fanouts, command.position, child_depth, j
                        ),
                    )
                )
            else:
                overflow = idx - section.n_inline
                ordinal = overflow // sec_cap
                if ordinal >= len(section.secondary_addrs):
                    raise SamplerFault(
                        f"overflow index {idx} beyond secondary sections of "
                        f"node {section.node_id}"
                    )
                if self.policy is SamplerPolicy.EXACT_INDEX:
                    entry = (j, overflow % sec_cap)
                else:
                    entry = (j, -1)
                pending_secondary.setdefault(ordinal, []).append(entry)
        # Coalesced commands: one read per touched secondary section.
        for ordinal in sorted(pending_secondary):
            draw_groups = (
                [tuple(pending_secondary[ordinal])]
                if self.coalesce_secondary
                else [(entry,) for entry in pending_secondary[ordinal]]
            )
            for draws in draw_groups:
                result.children.append(
                    SamplingCommand(
                        kind=CommandKind.SAMPLE_SECONDARY,
                        address=section.secondary_addrs[ordinal],
                        target=command.target,
                        hop=command.hop,
                        position=command.position,
                        node_id=section.node_id,
                        draws=draws,
                    )
                )
        return result

    def _execute_secondary(
        self, command: SamplingCommand, section: SectionView
    ) -> SampleResult:
        if not isinstance(section, SecondarySectionView):
            raise SamplerFault(
                f"expected secondary section at {command.address}, got type "
                f"{section.type}"
            )
        if command.node_id != UNKNOWN_NODE and section.node_id != command.node_id:
            raise SamplerFault(
                f"node id mismatch at {command.address}: header "
                f"{section.node_id} != expected {command.node_id}"
            )
        if not command.draws:
            raise SamplerFault("secondary command without draw list")
        if section.neighbor_count == 0:
            raise SamplerFault(
                f"secondary section at {command.address} holds no entries"
            )
        result = SampleResult(
            command=command,
            record=None,  # the owning node was recorded by its primary read
            feature_bytes=None,
            sections_scanned=command.address.section + 1,
        )
        child_depth = command.hop + 1
        fanouts = self.config.fanouts
        for j, in_section in command.draws:
            if in_section < 0:  # RESAMPLE_IN_SECTION policy
                draw = counter_draw(
                    self.config.seed,
                    command.target,
                    child_depth,
                    command.position,
                    j,
                    _RESAMPLE_SALT,
                )
                in_section = draw % section.neighbor_count
            if in_section >= section.neighbor_count:
                raise SamplerFault(
                    f"draw index {in_section} beyond section of "
                    f"{section.neighbor_count} entries"
                )
            result.neighbors_sampled += 1
            result.children.append(
                SamplingCommand(
                    kind=self._child_kind(child_depth),
                    address=section.neighbor_addrs[in_section],
                    target=command.target,
                    hop=child_depth,
                    position=child_position(
                        fanouts, command.position, child_depth, j
                    ),
                )
            )
        return result

    def _child_kind(self, child_depth: int) -> CommandKind:
        if child_depth >= self.config.num_hops:
            return CommandKind.FETCH_FEATURE
        return CommandKind.SAMPLE_PRIMARY


# -- functional whole-task execution ------------------------------------------


@dataclass
class InStorageRunResult:
    """Output of a (timing-free) in-storage sampling run."""

    subgraphs: Dict[int, SampledSubgraph]
    commands_executed: int
    page_reads: int
    commands_by_kind: Dict[CommandKind, int]
    result_stream_bytes: int
    full_page_bytes: int  # what page-granular transfer would have moved

    @property
    def channel_traffic_saving(self) -> float:
        """Fraction of channel bytes removed by on-die sampling."""
        if self.full_page_bytes == 0:
            return 0.0
        return 1.0 - self.result_stream_bytes / self.full_page_bytes


def run_in_storage_sampling(
    image: DirectGraphImage,
    config: GnnTaskConfig,
    targets: List[int],
    policy: SamplerPolicy = SamplerPolicy.EXACT_INDEX,
    lifo: bool = False,
    coalesce_secondary: bool = True,
) -> InStorageRunResult:
    """Execute a mini-batch entirely in storage, order-independently.

    The command pool starts with one SAMPLE_PRIMARY per target (the host
    supplies target primary-section addresses, Section VI-D) and drains
    until no commands remain — FIFO by default, LIFO with ``lifo=True``
    (tests use both to prove order independence).
    """
    sampler = DieSampler(
        image.spec, config, policy, coalesce_secondary=coalesce_secondary
    )
    queue: List[SamplingCommand] = [
        SamplingCommand(
            kind=CommandKind.SAMPLE_PRIMARY
            if config.num_hops > 0
            else CommandKind.FETCH_FEATURE,
            address=image.address_of(t),
            target=t,
            hop=0,
            position=0,
        )
        for t in dict.fromkeys(targets)  # dedup, preserve order
    ]
    records: List[SampleRecord] = []
    by_kind: Dict[CommandKind, int] = {}
    executed = 0
    stream_bytes = 0
    while queue:
        command = queue.pop() if lifo else queue.pop(0)
        page = image.page_bytes(command.address.page)
        result = sampler.execute(page, command)
        executed += 1
        by_kind[command.kind] = by_kind.get(command.kind, 0) + 1
        stream_bytes += result.payload_bytes()
        if result.record is not None:
            records.append(result.record)
        queue.extend(result.children)

    subgraphs = reconstruct_subgraphs(records, config)
    return InStorageRunResult(
        subgraphs=subgraphs,
        commands_executed=executed,
        page_reads=executed,
        commands_by_kind=by_kind,
        result_stream_bytes=stream_bytes,
        full_page_bytes=executed * image.spec.page_size,
    )


def reconstruct_subgraphs(
    records: List[SampleRecord], config: GnnTaskConfig
) -> Dict[int, SampledSubgraph]:
    """Rebuild per-target trees from (position, node) records.

    Heap numbering makes parentage implicit, so records can arrive in any
    order — exactly how the firmware GNN engine reassembles subgraphs from
    the streaming results in SSD DRAM.
    """
    fanouts = config.fanouts
    capacity = tree_capacity(fanouts)
    subgraphs: Dict[int, SampledSubgraph] = {}
    for rec in sorted(records, key=lambda r: (r.target, r.position)):
        if rec.position >= capacity:
            raise ValueError(f"record position {rec.position} beyond tree size")
        sg = subgraphs.setdefault(
            rec.target, SampledSubgraph(target=rec.target, fanouts=fanouts)
        )
        sg.add(
            TreeNode(
                position=rec.position,
                node_id=rec.node_id,
                depth=rec.depth,
                parent=parent_position(fanouts, rec.position),
            )
        )
    return subgraphs
