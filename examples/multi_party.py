"""Multi-party linkage: more than two data custodians.

Section 5.3 notes the method "is capable of handling an arbitrary number
of data sets (two or more) belonging to different data custodians".  Here
three custodians (two hospitals and an insurer) each hold overlapping,
independently-typo'd views of the same population; Charlie calibrates one
shared compact encoder and links every pair of datasets.

Run:  python examples/multi_party.py
"""

import numpy as np

from repro import (
    CompactHammingLinker,
    NCVRGenerator,
    scheme_pl,
)
from repro.data.schema import Schema, dataset_from_rows


def perturbed_view(population, fraction, rng, scheme, prefix):
    """A custodian's view: a random subset of the population, with typos."""
    schema = Schema(population.schema.attributes)
    picks = np.flatnonzero(rng.random(len(population)) < fraction)
    rows = population.value_rows()
    typod = [scheme.perturb(rows[int(row)], schema, rng)[0] for row in picks]
    view = dataset_from_rows(schema, typod, prefix, name=prefix)
    return view, {i: int(row) for i, row in enumerate(picks)}


def main() -> None:
    rng = np.random.default_rng(11)
    scheme = scheme_pl()

    # The underlying population nobody sees in full.
    population = NCVRGenerator().generate(3000, seed=11, id_prefix="P")

    views = {}
    origin = {}
    for name, fraction in (("hospital-A", 0.6), ("hospital-B", 0.6), ("insurer", 0.7)):
        views[name], origin[name] = perturbed_view(
            population, fraction, rng, scheme, prefix=name[0].upper()
        )
        print(f"{name:<11} holds {len(views[name])} records")

    # One shared linker: calibrating once keeps all three embeddings in
    # the same compact Hamming space (threshold 8 covers one typo per side).
    names = list(views)
    datasets = [views[n] for n in names]
    linker = CompactHammingLinker.record_level(threshold=8, k=30, seed=11)
    results = linker.link_multiple(datasets)

    print(f"\nshared encoder: {linker.encoder}\n")
    print(f"{'pair':<26} {'found':>6} {'truth':>6} {'PC':>7}")
    for (i, j), result in results.items():
        # origin maps view row -> population row; shared origin = match.
        truth = {
            (a, b)
            for a in origin[names[i]]
            for b in origin[names[j]]
            if origin[names[i]][a] == origin[names[j]][b]
        }
        found = len(result.matches & truth)
        pc = found / len(truth) if truth else 1.0
        print(
            f"{names[i]} x {names[j]:<12} {found:>6} {len(truth):>6} {pc:>7.3f}"
        )

    print("\n(each custodian pair is linked in the same 120-bit space —")
    print(" no re-embedding per pair, which is what makes the compact")
    print(" representation attractive for distributed settings)")


if __name__ == "__main__":
    main()
