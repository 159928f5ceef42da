"""Hybrid2 (Vasilakis et al., HPCA 2020): the flat-mode baseline.

Hybrid2 combines caching and migration in a flat hybrid memory: a small
fixed section of the fast memory acts as a sub-blocked (256 B) cache for
hot slow-memory data, and blocks whose cached footprint stabilizes are
*migrated* (swapped) into the OS-visible fast memory, with the decision
driven by write-back traffic (dirty sub-block counts).

That is exactly Baryon's pipeline with three features removed, which is
also how the paper frames the comparison (Sec. III-E: "when k = 0, the
policy only cares about the write traffic similar to Hybrid2"):

* no compression (every range has CF 1, no Z bit, no CF hints);
* no physical-block sharing (one logical block per fast block space);
* commit benefit = the dirty-traffic term only (k = 0).

So Hybrid2 *is* a :class:`~repro.core.controller.BaryonController` built
on :func:`hybrid2_config`, and the simulator drives it through the same
deferred seam as Baryon. The cache section size reuses the stage-area
knob (Hybrid2's provisioned cache is of the same tens-of-MB magnitude).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.common.config import BaryonConfig, CommitConfig
from repro.core.controller import BaryonController
from repro.devices.memory import HybridMemoryDevices


def hybrid2_config(base: BaryonConfig) -> BaryonConfig:
    """Reduce a Baryon config to Hybrid2: fully-associative flat with a
    provisioned cache section (a caller's flat fraction, else a 75/25
    flat/cache split), k = 0, no compression, no sharing."""
    flat_fraction = base.layout.flat_fraction or 0.75
    layout = dataclasses.replace(
        base.layout, flat_fraction=flat_fraction, fully_associative=True
    )
    return dataclasses.replace(
        base,
        layout=layout,
        commit=CommitConfig(k=0.0),
        compression_enabled=False,
        share_physical_blocks=False,
        compressed_writeback=False,
    )


class Hybrid2(BaryonController):
    """Flat, fully-associative, sub-blocked, compression-free baseline."""

    name = "hybrid2"

    def __init__(
        self,
        config: Optional[BaryonConfig] = None,
        devices: Optional[HybridMemoryDevices] = None,
        seed: int = 1,
    ) -> None:
        config = hybrid2_config(config or BaryonConfig.fully_associative())
        super().__init__(config, devices=devices, seed=seed)
