"""Differential checking: one trace, every design, identical served data.

Correct memory management is invisible to software: whatever Baryon
variant (cache scheme, flat scheme, fully-associative flat, 64 B
sub-blocks) or baseline (SimpleCache, Unison, DICE, Hybrid2) manages the
hybrid memory, a read must return the bytes last written to its address.
The differential checker replays one trace through all of them and
asserts the served-read streams are bit-identical.

The Baryon variants and Hybrid2 (Baryon at k = 0, no compression or
sharing) run as :class:`ContentBackedController`, so their
stream is produced by the real staging/commit/swap machinery; the other
baselines are content-transparent (their accounting moves no data) and
run behind the :class:`GoldenReference` shim, which serves the golden
write-token model directly. Any variant diverging from that stream has
lost or misplaced data somewhere in its movement machinery.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.experiments import build_controller
from repro.baselines.hybrid2 import hybrid2_config
from repro.common.config import BaryonConfig
from repro.common.errors import OracleViolation
from repro.validation.content import ContentBackedController, GoldenReference, replay

#: Baryon variants checked content-backed, in report order.
BARYON_VARIANTS = ("cache", "flat", "fa", "64b")
#: Baselines, in report order: Hybrid2 content-backed, the others
#: through the golden-reference shim.
BASELINE_DESIGNS = ("simple", "unison", "dice", "hybrid2")


def variant_config(config: BaryonConfig, variant: str) -> BaryonConfig:
    """Derive one Baryon variant's config from the cache-scheme base."""
    if variant == "cache":
        return config
    if variant == "flat":
        layout = dataclasses.replace(config.layout, flat_fraction=0.75)
        return dataclasses.replace(config, layout=layout)
    if variant == "fa":
        layout = dataclasses.replace(
            config.layout, flat_fraction=0.75, fully_associative=True
        )
        return dataclasses.replace(config, layout=layout)
    if variant == "64b":
        return config.with_sub_block_size(64)
    raise ValueError(f"unknown variant {variant!r}; choose from {BARYON_VARIANTS}")


def run_differential(
    config: BaryonConfig,
    trace: Sequence[Tuple[int, bool]],
    seed: int = 0,
    variants: Iterable[str] = BARYON_VARIANTS,
    baselines: Iterable[str] = BASELINE_DESIGNS,
    inject_bug: Optional[str] = None,
) -> Dict[str, List[int]]:
    """Replay ``trace`` through every design; raise on any divergence.

    Returns the per-design served-read streams on success. Raises
    :class:`OracleViolation` — ``kind="stale_read"``/``"conservation"``
    from inside a content-backed variant, or ``kind="differential"``
    when two designs' streams disagree (reporting the first divergent
    read and both values).
    """
    streams: Dict[str, List[int]] = {}
    for variant in variants:
        controller = ContentBackedController(
            variant_config(config, variant), seed=seed, inject_bug=inject_bug
        )
        replay(controller, trace)
        streams[f"baryon-{variant}"] = controller.served_reads
    for design in baselines:
        controller = (
            ContentBackedController(
                hybrid2_config(config), seed=seed, inject_bug=inject_bug
            )
            if design == "hybrid2"
            else GoldenReference(build_controller(design, config, seed=seed))
        )
        replay(controller, trace)
        streams[design] = controller.served_reads
    _compare_streams(streams, trace)
    return streams


def _compare_streams(
    streams: Dict[str, List[int]], trace: Sequence[Tuple[int, bool]]
) -> None:
    names = list(streams)
    reference_name = names[0]
    reference = streams[reference_name]
    read_addrs = [addr for addr, is_write in trace if not is_write]
    for name in names[1:]:
        other = streams[name]
        if other == reference:
            continue
        index = next(
            (i for i, (a, b) in enumerate(zip(reference, other)) if a != b),
            min(len(reference), len(other)),
        )
        addr = read_addrs[index] if index < len(read_addrs) else None
        expected = reference[index] if index < len(reference) else None
        got = other[index] if index < len(other) else None
        raise OracleViolation(
            f"designs {reference_name} and {name} served different data at "
            f"read #{index}"
            + (f" (addr {addr:#x})" if addr is not None else "")
            + f": {expected} vs {got}",
            kind="differential", addr=addr, access_index=index,
            location=name, expected=expected, got=got,
        )
