"""Run configuration for the deniable FTL.

Capacity bounds are enforced here: the public volume may use at most 60%
and the hidden volume at most 20% of physical device capacity, and each
needs at least one page.  The desk defaults sit just below those bounds
(36/64 and 12/64 of the blocks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .flash import DeviceGeometry, PRESETS
from .wom import PageLayout, WOM_3_5, WomCode

MAX_PUBLIC_FRACTION = 0.60
MAX_HIDDEN_FRACTION = 0.20

# Header/metadata block reserved at the front of the device.
RESERVED_BLOCKS = 1


@dataclass(frozen=True)
class PearlConfig:
    geometry: DeviceGeometry
    code: WomCode = WOM_3_5
    cmt_capacity: int = 1024
    public_fraction: float = 36 / 64
    hidden_fraction: float = 12 / 64
    seed: int = 0

    def __post_init__(self):
        for volume, bound in (("public", MAX_PUBLIC_FRACTION),
                              ("hidden", MAX_HIDDEN_FRACTION)):
            fraction = getattr(self, f"{volume}_fraction")
            if not math.isfinite(fraction):
                raise ValueError(
                    f"{volume} capacity fraction {fraction} is not a "
                    "finite number")
            if fraction > bound:
                raise ValueError(
                    f"{volume} capacity fraction {fraction:.4f} exceeds "
                    f"the {bound:.0%} bound")
            # A volume of no page would format, but its header not mount.
            if getattr(self, f"{volume}_pages") < 1:
                raise ValueError(
                    f"{volume} capacity fraction {fraction:.4g} gives no "
                    f"page of the device's {self.geometry.total_pages}: a "
                    "volume needs at least one page")
        if self.cmt_capacity < 1:
            raise ValueError("cmt_capacity must be >= 1")
        if self.geometry.total_blocks <= RESERVED_BLOCKS:
            raise ValueError("geometry too small: nothing left after header block")
        # Fail fast if the page cannot hold even one codeword group.
        PageLayout.for_page(self.geometry.page_bytes, self.code)

    # -- derived layout -------------------------------------------------

    @property
    def layout(self) -> PageLayout:
        return PageLayout.for_page(self.geometry.page_bytes, self.code)

    @property
    def managed_blocks(self) -> range:
        """Blocks available to the FTL (the header block is reserved)."""
        return range(RESERVED_BLOCKS, self.geometry.total_blocks)

    @property
    def public_pages(self) -> int:
        """Public logical capacity in pages (fraction of physical pages)."""
        return int(self.public_fraction * self.geometry.total_pages)

    @property
    def hidden_pages(self) -> int:
        """Hidden logical capacity in pages (fraction of physical pages)."""
        return int(self.hidden_fraction * self.geometry.total_pages)

    @property
    def entries_per_translation_page(self) -> dict:
        """Mapping entries (4 bytes each) per translation page, by volume.

        Public translation pages carry k-bit payloads; hidden translation
        pages live in the 1-bit-per-group hidden payload.
        """
        lay = self.layout
        return {
            "public": lay.public_payload_bytes // 4,
            "hidden": lay.hidden_payload_bytes // 4,
        }


def desk_config(**overrides) -> PearlConfig:
    return PearlConfig(geometry=PRESETS["desk"], **overrides)


def paper_config(**overrides) -> PearlConfig:
    return PearlConfig(geometry=PRESETS["paper"], **overrides)
