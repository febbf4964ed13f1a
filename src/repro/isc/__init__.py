"""In-storage computing engines (functional models).

Die-level sampler, ONFI-style command encodings, and the deterministic
TRNG stand-in. The timed channel-level command routing lives in the
platform datapath (:mod:`repro.platforms.datapath`).
"""

from .commands import (
    COMMAND_BASE_BYTES,
    CommandKind,
    DRAW_ENTRY_BYTES,
    GnnTaskConfig,
    RECORD_BYTES,
    RESULT_HEADER_BYTES,
    SampleRecord,
    SamplingCommand,
    UNKNOWN_NODE,
)
from .sampler import (
    DieSampler,
    InStorageRunResult,
    SampleResult,
    SamplerFault,
    SamplerPolicy,
    reconstruct_subgraphs,
    run_in_storage_sampling,
)
from .trng import DieTrng, counter_draw, splitmix64

__all__ = [
    "DieTrng",
    "counter_draw",
    "splitmix64",
    "CommandKind",
    "GnnTaskConfig",
    "SamplingCommand",
    "SampleRecord",
    "UNKNOWN_NODE",
    "COMMAND_BASE_BYTES",
    "DRAW_ENTRY_BYTES",
    "RECORD_BYTES",
    "RESULT_HEADER_BYTES",
    "DieSampler",
    "SampleResult",
    "SamplerFault",
    "SamplerPolicy",
    "run_in_storage_sampling",
    "InStorageRunResult",
    "reconstruct_subgraphs",
]
