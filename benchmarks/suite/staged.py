"""The program's hot paths, replayed from their public parts under spans.

``encode_dataset`` and ``batch_query`` are each one call from outside, so
their insides (tokenise, hash, scatter; candidate join, verify, group)
cannot be timed without editing ``src/``.  The traced pass calls the
same public functions those two compose, in the same order, and checks
the result against the real call — when they differ, the layer numbers
describe a different program and the run counts a failure.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.cvector import intern_column
from repro.core.encoder import RecordEncoder
from repro.hamming.bitmatrix import BitMatrix, scatter_bits
from repro.hamming.distance import hamming_packed
from repro.hamming.lsh import HammingLSH
from tracing import Tracer

_EMPTY = np.empty(0, dtype=np.int64)


def encode(
    tracer: Tracer,
    encoder: RecordEncoder,
    rows: Sequence[Sequence[str]],
    counters: dict[str, float],
) -> BitMatrix:
    """``RecordEncoder.encode_dataset`` (single-process path), staged.

    ``counters`` accumulates ``intern_values`` / ``intern_unique``.
    """
    with tracer.span("core.encoder.encode_dataset"):
        row_parts: list[np.ndarray] = []
        bit_parts: list[np.ndarray] = []
        for att, (enc, layout) in enumerate(zip(encoder.encoders, encoder.layouts)):
            values = [row[att] for row in rows]
            with tracer.span("core.cvector.intern"):
                column = intern_column(values, enc.scheme)
            counters["intern_values"] = counters.get("intern_values", 0.0) + column.n_values
            counters["intern_unique"] = counters.get("intern_unique", 0.0) + column.n_unique
            if column.flat_indices.size == 0:
                continue
            with tracer.span("core.cvector.hash"):
                hashed = enc.hash_fn.apply(column.flat_indices)
            row_parts.append(column.rows)
            bit_parts.append((hashed + layout.offset)[column.gather])
        if not row_parts:
            return BitMatrix.zeros(len(rows), encoder.total_bits)
        all_rows, all_bits = np.concatenate(row_parts), np.concatenate(bit_parts)
        with tracer.span("hamming.bitmatrix.scatter"):
            return scatter_bits(len(rows), encoder.total_bits, all_rows, all_bits)


def batch_query(
    tracer: Tracer,
    lsh: HammingLSH,
    words_a: np.ndarray,
    matrix_b: BitMatrix,
    threshold: int,
    counters: dict[str, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``repro.hamming.query.batch_query`` (threshold mode), staged.

    Returns ``(queries, ids, distances)`` grouped by query, ids ascending;
    ``counters`` accumulates ``candidates`` and ``accepted``.
    """
    with tracer.span("hamming.query.batch_query"):
        with tracer.span("hamming.lsh.candidates"):
            cand_a, cand_b = lsh.candidate_pairs(matrix_b)
        counters["candidates"] = counters.get("candidates", 0.0) + cand_a.size
        if cand_a.size == 0:
            return _EMPTY, _EMPTY, _EMPTY
        with tracer.span("hamming.distance.verify"):
            distances = hamming_packed(words_a[cand_a], matrix_b.words[cand_b])
        keep = distances <= threshold
        ids, queries, distances = cand_a[keep], cand_b[keep], distances[keep]
        counters["accepted"] = counters.get("accepted", 0.0) + ids.size
        if ids.size == 0:
            return _EMPTY, _EMPTY, _EMPTY
        order = np.argsort(queries * int(words_a.shape[0]) + ids, kind="stable")
        return queries[order], ids[order], distances[order]


def put_encode_metrics(run, tracer: Tracer, counters: dict[str, float], n_rows: int) -> None:  # noqa: ANN001
    """Layer metrics every workload's replay has: the embed path."""
    encode_s = tracer.total("core.encoder.encode_dataset")
    run.put("core.cvector.intern_s", tracer.total("core.cvector.intern"))
    run.put("core.cvector.hash_s", tracer.total("core.cvector.hash"))
    run.put("hamming.bitmatrix.scatter_s", tracer.total("hamming.bitmatrix.scatter"))
    run.put("core.encoder.encode_dataset_s", encode_s)
    run.put("core.encoder.self_s", tracer.self_total("core.encoder.encode_dataset"))
    run.put("core.encoder.rows_per_s", n_rows / encode_s if encode_s else 0.0)
    values = counters.get("intern_values", 0.0)
    unique = counters.get("intern_unique", 0.0)
    run.put("core.cvector.intern_hit_rate", 1.0 - unique / values if values else 0.0)
    run.put("core.cvector.unique_values", unique)


def put_query_metrics(run, tracer: Tracer, counters: dict[str, float], n_queries: int) -> None:  # noqa: ANN001
    """Layer metrics of the serving replays: the staged ``batch_query`` path."""
    candidates = counters.get("candidates", 0.0)
    run.put("hamming.lsh.keys_s", tracer.total("hamming.lsh.keys"))
    run.put("hamming.lsh.candidates_s", tracer.total("hamming.lsh.candidates"))
    run.put("hamming.distance.verify_s", tracer.total("hamming.distance.verify"))
    run.put("hamming.distance.pairs_verified", candidates)
    run.put("hamming.distance.accept_share",
            counters.get("accepted", 0.0) / candidates if candidates else 0.0)
    run.put("hamming.query.batch_query_s", tracer.total("hamming.query.batch_query"))
    run.put("hamming.query.group_s", tracer.self_total("hamming.query.batch_query"))
    run.put("hamming.query.candidates_per_query", candidates / n_queries)
