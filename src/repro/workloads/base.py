"""Trace representation and the generator interface."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.config import Geometry
from repro.common.errors import ConfigurationError
from repro.compression.synthetic import PROFILE_LIBRARY, CompressibilityProfile


@dataclass
class Trace:
    """A memory access trace in structure-of-arrays form.

    ``igaps[i]`` is the count of non-memory instructions between access
    ``i-1`` and ``i`` (drives the core-timing model); ``cores[i]`` is the
    issuing core. ``regions`` carries (first_block, last_block, profile
    name) triples describing data compressibility, applied to a
    controller's oracle with :meth:`apply_compressibility`.
    """

    name: str
    addrs: np.ndarray
    writes: np.ndarray
    igaps: np.ndarray
    cores: np.ndarray
    footprint_bytes: int = 0
    regions: List[Tuple[int, int, str]] = field(default_factory=list)
    default_profile: str = "medium"

    def __post_init__(self) -> None:
        n = len(self.addrs)
        if not (len(self.writes) == len(self.igaps) == len(self.cores) == n):
            raise ConfigurationError("trace arrays must have equal length")

    def __len__(self) -> int:
        return len(self.addrs)

    @property
    def write_fraction(self) -> float:
        if len(self) == 0:
            return 0.0
        return float(np.count_nonzero(self.writes)) / len(self)

    def apply_compressibility(self, oracle) -> None:
        """Install this trace's compressibility regions into an oracle.

        A no-op for oracles without profile support (e.g. the null oracle
        of compression-free designs, or content-backed oracles whose
        compressibility comes from real bytes).
        """
        if not hasattr(oracle, "set_default_profile"):
            return
        oracle.set_default_profile(self._profile(self.default_profile))
        for first, last, profile_name in self.regions:
            oracle.add_region(first, last, self._profile(profile_name))

    @staticmethod
    def _profile(name: str) -> CompressibilityProfile:
        try:
            return PROFILE_LIBRARY[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown compressibility profile {name!r}; "
                f"choose from {sorted(PROFILE_LIBRARY)}"
            ) from None

    def replay_view(self) -> "Trace":
        """An immutable view of this trace for replay across designs.

        The matrix runner generates each (workload, seed) stream once and
        hands every design a replay view: the arrays are numpy views
        (no copy) with the writeable flag cleared, so a design cannot
        perturb the stream another design will replay — the "every design
        sees an identical stream" guarantee is enforced, not just
        documented.
        """

        def frozen(array: np.ndarray) -> np.ndarray:
            view = array[:]
            view.flags.writeable = False
            return view

        return Trace(
            name=self.name,
            addrs=frozen(self.addrs),
            writes=frozen(self.writes),
            igaps=frozen(self.igaps),
            cores=frozen(self.cores),
            footprint_bytes=self.footprint_bytes,
            regions=list(self.regions),
            default_profile=self.default_profile,
        )

    def slice(self, start: int, end: int) -> "Trace":
        """A view-like sub-trace (arrays are numpy slices, not copies)."""
        return Trace(
            name=self.name,
            addrs=self.addrs[start:end],
            writes=self.writes[start:end],
            igaps=self.igaps[start:end],
            cores=self.cores[start:end],
            footprint_bytes=self.footprint_bytes,
            regions=self.regions,
            default_profile=self.default_profile,
        )

    # -- persistence ---------------------------------------------------------
    def save(self, path) -> None:
        """Write the trace (arrays + metadata) to a ``.npz`` file, so
        expensive generations can be reused across runs and shared."""
        region_array = np.asarray(
            [(first, last, profile) for first, last, profile in self.regions],
            dtype=object,
        )
        np.savez_compressed(
            path,
            addrs=self.addrs,
            writes=self.writes,
            igaps=self.igaps,
            cores=self.cores,
            name=np.asarray(self.name),
            footprint=np.asarray(self.footprint_bytes),
            default_profile=np.asarray(self.default_profile),
            regions=region_array,
        )

    @staticmethod
    def load(path) -> "Trace":
        """Inverse of :meth:`save`."""
        with np.load(path, allow_pickle=True) as data:
            regions = [
                (int(first), int(last), str(profile))
                for first, last, profile in data["regions"]
            ] if data["regions"].size else []
            return Trace(
                name=str(data["name"]),
                addrs=data["addrs"],
                writes=data["writes"],
                igaps=data["igaps"],
                cores=data["cores"],
                footprint_bytes=int(data["footprint"]),
                regions=regions,
                default_profile=str(data["default_profile"]),
            )


class TraceBuilder:
    """Incremental trace construction for generators written as loops."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._addrs: List[int] = []
        self._writes: List[bool] = []
        self._igaps: List[int] = []
        self._cores: List[int] = []
        self.regions: List[Tuple[int, int, str]] = []
        self.default_profile = "medium"
        self.footprint_bytes = 0

    def add(self, addr: int, write: bool = False, igap: int = 0, core: int = 0) -> None:
        self._addrs.append(addr)
        self._writes.append(write)
        self._igaps.append(igap)
        self._cores.append(core)

    def add_region(self, first_block: int, last_block: int, profile: str) -> None:
        self.regions.append((first_block, last_block, profile))

    def __len__(self) -> int:
        return len(self._addrs)

    def build(self) -> Trace:
        return Trace(
            name=self.name,
            addrs=np.asarray(self._addrs, dtype=np.uint64),
            writes=np.asarray(self._writes, dtype=bool),
            igaps=np.asarray(self._igaps, dtype=np.uint32),
            cores=np.asarray(self._cores, dtype=np.uint16),
            footprint_bytes=self.footprint_bytes,
            regions=self.regions,
            default_profile=self.default_profile,
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """Registry entry: how to build one named workload proxy.

    ``footprint_factor`` scales the data footprint relative to the
    fast-memory capacity (the paper's workloads use 1.5x to 8.6x of the
    4 GB fast memory); ``description`` records what real workload the
    proxy stands in for.
    """

    name: str
    generator: str
    description: str
    footprint_factor: float
    write_fraction: float
    profile: str
    params: Dict[str, float] = field(default_factory=dict)


class TraceGenerator(abc.ABC):
    """Base class for workload proxies.

    Sub-classes implement :meth:`generate`; shared helpers translate
    logical structures (arrays, records, graphs) to byte addresses.
    """

    def __init__(
        self,
        name: str,
        footprint_bytes: int,
        seed: int = 1,
        cores: int = 16,
        geometry: Optional[Geometry] = None,
    ) -> None:
        if footprint_bytes <= 0:
            raise ConfigurationError("footprint must be positive")
        self.name = name
        self.footprint_bytes = footprint_bytes
        self.seed = seed
        self.cores = cores
        self.geometry = geometry or Geometry()
        self.rng = np.random.default_rng(seed)

    @abc.abstractmethod
    def generate(self, n_accesses: int) -> Trace:
        """Produce a trace of approximately ``n_accesses`` accesses."""

    def _line(self, addr: int) -> int:
        """Align to the 64 B access granularity."""
        return int(addr) - (int(addr) % self.geometry.cacheline_size)
