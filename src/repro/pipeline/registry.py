"""The single linker registry: every method, one name, one factory.

``repro --help`` lists linkers from here, docs reference it, and tests
iterate it — adding a linker to the repo means adding one
:class:`LinkerSpec`.  Imports resolve lazily at first lookup so this
module stays import-leaf (the registry names live above the layers they
describe).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class LinkerSpec:
    """One registered linkage method."""

    name: str
    summary: str
    factory: Callable[..., Any]


_SPECS: dict[str, LinkerSpec] | None = None


def _load_specs() -> dict[str, LinkerSpec]:
    from repro.baselines.bfh import BfHLinker
    from repro.baselines.canopy import CanopyLinker
    from repro.baselines.harra import HarraLinker
    from repro.baselines.minhash import MinHashLinker
    from repro.baselines.smeb import SMEBLinker
    from repro.baselines.sorted_neighborhood import SortedNeighborhoodLinker
    from repro.core.linker import CompactHammingLinker
    from repro.pipeline.exhaustive import ExhaustiveLinker

    specs = [
        LinkerSpec(
            "cbv-record",
            "cBV-HB, record-level Hamming threshold (Section 4.2)",
            CompactHammingLinker.record_level,
        ),
        LinkerSpec(
            "cbv-rule",
            "cBV-HB, rule-aware attribute-level blocking (Section 5.4)",
            CompactHammingLinker.rule_aware,
        ),
        LinkerSpec(
            "exhaustive",
            "all-pairs compact-Hamming verification (no blocking; PC upper bound)",
            ExhaustiveLinker,
        ),
        LinkerSpec(
            "bfh",
            "Bloom-filter embeddings + Hamming LSH blocking [17]",
            BfHLinker,
        ),
        LinkerSpec(
            "canopy",
            "canopy clustering on bigram Jaccard + Hamming verification [6]",
            CanopyLinker,
        ),
        LinkerSpec(
            "harra",
            "HARRA h-CC: MinHash LSH with iterative early pruning [18]",
            HarraLinker,
        ),
        LinkerSpec(
            "minhash",
            "non-iterative MinHash LSH blocking + Jaccard verification",
            MinHashLinker,
        ),
        LinkerSpec(
            "smeb",
            "SM-EB: StringMap embeddings + Euclidean p-stable LSH (Section 6.1)",
            SMEBLinker,
        ),
        LinkerSpec(
            "sorted-neighborhood",
            "multi-pass sorted-neighborhood windows + Hamming verification [12]",
            SortedNeighborhoodLinker,
        ),
    ]
    return {spec.name: spec for spec in specs}


def available_linkers() -> tuple[LinkerSpec, ...]:
    """Every registered linker, in registration order."""
    global _SPECS
    if _SPECS is None:
        _SPECS = _load_specs()
    return tuple(_SPECS.values())


def linker_names() -> tuple[str, ...]:
    """The registered linker names."""
    return tuple(spec.name for spec in available_linkers())


def get_linker(name: str) -> LinkerSpec:
    """Look up one linker spec by name (KeyError lists what exists)."""
    available_linkers()
    assert _SPECS is not None
    spec = _SPECS.get(name)
    if spec is None:
        raise KeyError(f"unknown linker {name!r}; available: {', '.join(sorted(_SPECS))}")
    return spec


def create_linker(name: str, **kwargs: Any) -> Any:
    """Instantiate a registered linker with its factory."""
    return get_linker(name).factory(**kwargs)
