"""Perturbation engine (Section 6, experimental settings).

The paper's prototype extracts records and creates data sets A and B,
"where one can specify the perturbation frequency, number of perturbation
operations, and number of perturbed records".  Two schemes are used:

* **PL** (light): one perturbation applied to one randomly chosen attribute;
* **PH** (heavy): one perturbation to each of the first two attributes and
  two perturbations to the third attribute.

A perturbation is one Levenshtein edit operation — substitute, insert or
delete a character — applied at a random position, staying inside the
attribute's alphabet.  Every applied operation is logged so Figure 11's
per-operation-type accuracy breakdown can be reproduced.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Protocol

from repro.data.schema import Schema
from repro.text.alphabet import Alphabet


class Draws(Protocol):
    """The scalar draws perturbation makes: a numpy Generator has them.

    So does :class:`repro.data.draws.RawDraws`, which decodes the same
    values from a Generator's raw words at a fraction of the call cost.
    """

    def random(self) -> float: ...

    def integers(self, low: int, high: int) -> int: ...


class Operation(enum.Enum):
    """The basic Levenshtein perturbation operations (Section 5.1)."""

    SUBSTITUTE = "substitute"
    INSERT = "insert"
    DELETE = "delete"


ALL_OPERATIONS = (Operation.SUBSTITUTE, Operation.INSERT, Operation.DELETE)


@lru_cache(maxsize=1024)
def _letter_candidates(chars: str, exclude: str) -> tuple[str, ...]:
    return tuple(ch for ch in chars if ch not in (" ", "_") and ch != exclude)


def _random_letter(alphabet: Alphabet, rng: Draws, exclude: str = "") -> str:
    """A uniformly chosen non-blank alphabet character, optionally != exclude."""
    candidates = _letter_candidates(alphabet.chars, exclude)
    return candidates[rng.integers(0, len(candidates))]


def apply_operation(value: str, operation: Operation, alphabet: Alphabet, rng: Draws) -> str:
    """Apply one edit operation to ``value`` at a random position.

    Substitutions always change the character (edit distance strictly
    grows); deletes on empty strings degrade to inserts so the operation
    always has an effect.
    """
    if not value and operation is not Operation.INSERT:
        operation = Operation.INSERT

    if operation is Operation.SUBSTITUTE:
        pos = rng.integers(0, len(value))
        new_char = _random_letter(alphabet, rng, exclude=value[pos])
        return value[:pos] + new_char + value[pos + 1 :]
    if operation is Operation.INSERT:
        pos = rng.integers(0, len(value) + 1)
        return value[:pos] + _random_letter(alphabet, rng) + value[pos:]
    # DELETE
    pos = rng.integers(0, len(value))
    return value[:pos] + value[pos + 1 :]


@dataclass(frozen=True, slots=True)
class AppliedOperation:
    """Log entry: which operation hit which attribute of a record."""

    attribute: str
    operation: Operation


@lru_cache(maxsize=1024)
def _applied(attribute: str, operation: Operation) -> AppliedOperation:
    """The one log entry for (attribute, operation); entries are immutable."""
    return AppliedOperation(attribute, operation)


@dataclass(frozen=True)
class PerturbationScheme:
    """How many operations to apply per attribute.

    ``ops_per_attribute`` maps an attribute *index* to an operation count;
    ``random_single`` instead applies one operation to one uniformly
    chosen attribute (the PL scheme).
    """

    name: str
    ops_per_attribute: Mapping[int, int] = field(default_factory=dict)
    random_single: bool = False
    operations: Sequence[Operation] = ALL_OPERATIONS

    def __post_init__(self) -> None:
        if self.random_single and self.ops_per_attribute:
            raise ValueError("random_single excludes explicit per-attribute op counts")
        if not self.random_single and not self.ops_per_attribute:
            raise ValueError("specify ops_per_attribute or random_single")
        for index, count in self.ops_per_attribute.items():
            if count < 1:
                raise ValueError(f"operation count for attribute {index} must be >= 1")

    def total_operations(self, n_attributes: int) -> int:
        if self.random_single:
            return 1
        return sum(self.ops_per_attribute.values())

    def perturb(
        self, values: tuple[str, ...], schema: Schema, rng: Draws
    ) -> tuple[tuple[str, ...], tuple[AppliedOperation, ...]]:
        """Perturbed copy of a record's ``values`` plus the log of applied operations.

        ``rng`` is anything with ``random()`` and ``integers(low, high)``
        drawing what a numpy Generator's scalar calls draw.
        """
        attributes = schema.attributes
        if self.random_single:
            plan = [(rng.integers(0, len(attributes)), 1)]
        else:
            plan = sorted(self.ops_per_attribute.items())
            if plan[-1][0] >= len(attributes):
                raise ValueError(
                    f"scheme targets attribute index {plan[-1][0]}, schema has "
                    f"{len(attributes)} attributes"
                )
        out = list(values)
        log: list[AppliedOperation] = []
        operations = self.operations
        for index, count in plan:
            spec = attributes[index]
            for __ in range(count):
                operation = operations[rng.integers(0, len(operations))]
                out[index] = apply_operation(out[index], operation, spec.scheme.alphabet, rng)
                log.append(_applied(spec.name, operation))
        return tuple(out), tuple(log)


def scheme_pl(operations: Sequence[Operation] = ALL_OPERATIONS) -> PerturbationScheme:
    """The light scheme PL: one operation on one random attribute."""
    return PerturbationScheme(name="PL", random_single=True, operations=operations)


def scheme_ph(operations: Sequence[Operation] = ALL_OPERATIONS) -> PerturbationScheme:
    """The heavy scheme PH: one op on f1 and f2, two ops on f3."""
    return PerturbationScheme(
        name="PH", ops_per_attribute={0: 1, 1: 1, 2: 2}, operations=operations
    )
