"""Streaming linkage: the paper's health-surveillance motivation.

Section 1 motivates compact Hamming embeddings with "a health surveillance
system that continuously integrates data from hospitals and pharmacy
stores by performing a large number of distance computations in
real-time".  This example builds exactly that: a hospital patient registry
is indexed once, then a stream of pharmacy purchase records is matched
one record at a time with sub-millisecond lookups.

Run:  python examples/health_surveillance.py
"""

import time

import numpy as np

from repro import NCVRGenerator, RecordEncoder, scheme_pl
from repro.data.generators import EXPERIMENT_SCHEME
from repro.data.schema import Schema
from repro.serve import QueryEngine


def main() -> None:
    rng = np.random.default_rng(7)

    # The hospital registry: 20,000 patients.
    registry = NCVRGenerator().generate(20_000, seed=7, id_prefix="H")
    print(f"hospital registry: {len(registry)} patients")

    # Calibrate the compact encoder on a registry sample (Theorem 1), then
    # index every patient into the Hamming LSH blocking groups.
    encoder = RecordEncoder.calibrated(
        [values for __, values in registry.sample(1000, rng)],
        scheme=EXPERIMENT_SCHEME,
        seed=7,
    )
    print(f"encoder: {encoder} — a patient fits in {encoder.total_bits} bits")

    start = time.perf_counter()
    engine = QueryEngine.build(registry.value_rows(), encoder, threshold=4, k=30, seed=7)
    print(f"indexed in {time.perf_counter() - start:.2f} s")

    # The pharmacy stream: purchases referencing registry patients, with
    # the typos a pharmacist introduces at the counter (scheme PL).
    scheme = scheme_pl()
    schema = Schema(registry.schema.attributes)
    n_events, found, misses = 500, 0, 0
    latencies = []
    for event in range(n_events):
        patient_row = int(rng.integers(0, len(registry)))
        values, __ = scheme.perturb(registry[patient_row][1], schema, rng)
        start = time.perf_counter()
        hits = engine.query_batch([values]).matches()[0]
        latencies.append(time.perf_counter() - start)
        if any(rid == patient_row for rid, __ in hits):
            found += 1
        elif not hits:
            misses += 1

    latencies_ms = np.asarray(latencies) * 1e3
    print(f"\npharmacy events processed: {n_events}")
    print(f"correct patient found:     {found} ({found / n_events:.1%})")
    print(f"no candidate at all:       {misses}")
    print(
        "query latency:             "
        f"median {np.median(latencies_ms):.2f} ms, "
        f"p95 {np.percentile(latencies_ms, 95):.2f} ms"
    )
    print("\n(the >=95% hit rate under typos is the paper's Figure 9 shape;")
    print(" the millisecond lookups are why the embeddings are kept compact)")


if __name__ == "__main__":
    main()
