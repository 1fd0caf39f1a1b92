"""Data-quality corruptions beyond edit errors (the paper's §7 outlook).

Section 7 names "identifying records with missing or non-standardized
values" as the planned extension of the experimental study.  This module
supplies the corruption machinery for that experiment:

* :class:`MissingValueScheme` — blanks whole attribute values with a given
  probability (a patient form without a town, an address-less voter row);
* :class:`WordScrambleScheme` — reorders the words of multi-word values
  (``'12 MAIN ST'`` vs ``'MAIN ST 12'``), the classic non-standardisation;
* :class:`CompositeScheme` — chains any schemes (e.g. PL typos *plus*
  missing values), so corrupted pairs stay realistic.

All schemes expose the same ``perturb(values, schema, rng)``
interface as :class:`repro.data.perturb.PerturbationScheme`, so they plug
straight into :func:`repro.data.pairs.build_linkage_problem`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.data.perturb import AppliedOperation, Draws, Operation
from repro.data.schema import Dataset, Schema


@dataclass(frozen=True)
class MissingValueScheme:
    """Blank each attribute independently with probability ``missing_rate``.

    ``protect`` lists attribute indices that are never blanked (at least
    one identifying field usually survives in practice); if the random
    draws would blank everything, the first unprotected attribute is
    restored.
    """

    missing_rate: float
    protect: tuple[int, ...] = ()
    name: str = "missing"

    def __post_init__(self) -> None:
        if not 0.0 <= self.missing_rate <= 1.0:
            raise ValueError(f"missing_rate must be in [0, 1], got {self.missing_rate}")

    def perturb(
        self, values: tuple[str, ...], schema: Schema, rng: Draws
    ) -> tuple[tuple[str, ...], tuple[AppliedOperation, ...]]:
        out = list(values)
        log: list[AppliedOperation] = []
        blanked = []
        for index in range(schema.n_attributes):
            if index in self.protect:
                continue
            if rng.random() < self.missing_rate:
                out[index] = ""
                blanked.append(index)
                log.append(AppliedOperation(schema[index].name, Operation.DELETE))
        if blanked and not any(out):
            # Never erase the whole record: restore one field.
            out[blanked[0]] = values[blanked[0]]
            log.pop(0)
        return tuple(out), tuple(log)


@dataclass(frozen=True)
class WordScrambleScheme:
    """Rotate the word order of multi-word attributes (non-standardisation).

    A rotation (rather than a full shuffle) models the dominant real-world
    pattern — a moved house number or a 'LastName FirstName' swap — and
    guarantees the value actually changes.
    """

    scramble_rate: float
    name: str = "scramble"

    def __post_init__(self) -> None:
        if not 0.0 <= self.scramble_rate <= 1.0:
            raise ValueError(
                f"scramble_rate must be in [0, 1], got {self.scramble_rate}"
            )

    def perturb(
        self, values: tuple[str, ...], schema: Schema, rng: Draws
    ) -> tuple[tuple[str, ...], tuple[AppliedOperation, ...]]:
        out = list(values)
        log: list[AppliedOperation] = []
        for index, value in enumerate(values):
            words = value.split(" ")
            if len(words) < 2 or rng.random() >= self.scramble_rate:
                continue
            shift = int(rng.integers(1, len(words)))
            out[index] = " ".join(words[shift:] + words[:shift])
            log.append(AppliedOperation(schema[index].name, Operation.SUBSTITUTE))
        return tuple(out), tuple(log)


@dataclass(frozen=True)
class CompositeScheme:
    """Apply several corruption schemes in sequence to the same values."""

    schemes: tuple
    name: str = field(default="")

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ValueError("composite needs at least one scheme")
        if not self.name:
            object.__setattr__(
                self, "name", "+".join(s.name for s in self.schemes)
            )

    def perturb(
        self, values: tuple[str, ...], schema: Schema, rng: Draws
    ) -> tuple[tuple[str, ...], tuple[AppliedOperation, ...]]:
        log: list[AppliedOperation] = []
        for scheme in self.schemes:
            values, applied = scheme.perturb(values, schema, rng)
            log.extend(applied)
        return values, tuple(log)


def missingness_summary(
    dataset: Dataset, attribute_names: Sequence[str] | None = None
) -> dict[str, float]:
    """Fraction of blank values per attribute (diagnostics for experiments)."""
    names = attribute_names or dataset.schema.names
    out = {}
    for name in names:
        column = dataset.column(name)
        out[name] = sum(1 for v in column if not v) / len(column)
    return out
