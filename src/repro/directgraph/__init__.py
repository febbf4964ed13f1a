"""DirectGraph: the flash-physical-address GNN format (Section IV)."""

from .address import ADDRESS_BYTES, AddressCodec, SectionAddress
from .builder import (
    BUILD_COUNTER,
    BuildStats,
    DirectGraphImage,
    NodePlan,
    PagePlan,
    build_directgraph,
)
from .imagecache import (
    CachedImage,
    ImageCache,
    default_image_cache_dir,
)
from .layout import DEFAULT_LAYOUT, LAYOUTS, layout_order, locality_order
from .reader import (
    DecodedPage,
    DirectGraphFormatError,
    DirectGraphReader,
    PrimarySectionView,
    SecondarySectionView,
    SectionAddresses,
    decode_page,
    decode_section,
)
from .security import VerificationReport, Violation, verify_image, verify_targets
from .updates import DirectGraphUpdater, UpdateCapacityError, UpdateStats
from .spec import (
    FormatSpec,
    PAGE_TYPE_PRIMARY,
    PAGE_TYPE_SECONDARY,
    PRIMARY_HEADER_BYTES,
    SECONDARY_HEADER_BYTES,
    SECTION_TYPE_PRIMARY,
    SECTION_TYPE_SECONDARY,
)

__all__ = [
    "AddressCodec",
    "SectionAddress",
    "ADDRESS_BYTES",
    "FormatSpec",
    "PAGE_TYPE_PRIMARY",
    "PAGE_TYPE_SECONDARY",
    "SECTION_TYPE_PRIMARY",
    "SECTION_TYPE_SECONDARY",
    "PRIMARY_HEADER_BYTES",
    "SECONDARY_HEADER_BYTES",
    "build_directgraph",
    "BUILD_COUNTER",
    "DirectGraphImage",
    "NodePlan",
    "PagePlan",
    "BuildStats",
    "ImageCache",
    "CachedImage",
    "default_image_cache_dir",
    "LAYOUTS",
    "DEFAULT_LAYOUT",
    "layout_order",
    "locality_order",
    "DirectGraphReader",
    "DirectGraphFormatError",
    "decode_page",
    "decode_section",
    "DecodedPage",
    "PrimarySectionView",
    "SecondarySectionView",
    "SectionAddresses",
    "verify_image",
    "verify_targets",
    "VerificationReport",
    "Violation",
    "DirectGraphUpdater",
    "UpdateCapacityError",
    "UpdateStats",
]
