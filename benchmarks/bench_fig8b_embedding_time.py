"""Figure 8(b) — time to convert the data sets into each method's embedding.

Measures the embedding stage only, per method: HARRA's record-level bigram
vectors, cBV-HB's compact c-vectors, BfH's Bloom filters and SM-EB's
StringMap coordinates.  Paper shape (NCVR): HARRA fastest (one vector per
record), cBV-HB close behind, BfH slower (15 cryptographic hashes per
bigram), SM-EB slowest by a wide margin (pivot distance computations).

HARRA, cBV-HB and BfH share one embed (``embed_columns``), so beside the
clock the table reports the work each does: bit positions written per
q-gram occurrence, counted on the embed itself (1 for a c-vector or a
bigram vector, 15 for a Bloom filter).
"""

import time
from unittest import mock

from common import NCVR_NAMES, SMEB_N, problem, scaled

from repro.baselines.bloom import BloomRecordEncoder
from repro.baselines.minhash import bigram_matrix
from repro.baselines.stringmap import StringMapEmbedder
from repro.core import cvector
from repro.core.encoder import RecordEncoder
from repro.core.qgram import QGramScheme
from repro.data.generators import EXPERIMENT_SCHEME
from repro.evaluation.reporting import banner, format_table
from repro.text.alphabet import TEXT_ALPHABET


def _rows():
    prob = problem("ncvr", "pl")
    return prob.dataset_a.value_rows()


def _time_harra(rows) -> float:
    scheme = QGramScheme(alphabet=TEXT_ALPHABET)
    start = time.perf_counter()
    bigram_matrix(rows, scheme)
    return time.perf_counter() - start


def _bits_per_gram(embed) -> float:
    """Bit positions ``embed()`` scatters per q-gram occurrence it tokenises."""
    counted = {"grams": 0, "bits": 0}
    real_tokenise, real_scatter = cvector._tokenise, cvector.scatter_bits

    def tokenise(values, scheme):
        flat, counts = real_tokenise(values, scheme)
        counted["grams"] += flat.size
        return flat, counts

    def scatter(n_rows, n_bits, rows, bits):
        counted["bits"] += rows.size
        return real_scatter(n_rows, n_bits, rows, bits)

    with mock.patch.object(cvector, "_tokenise", tokenise):
        with mock.patch.object(cvector, "scatter_bits", scatter):
            embed()
    return counted["bits"] / counted["grams"]


def _time_cbv(rows) -> float:
    encoder = RecordEncoder.calibrated(
        rows[:1000], names=list(NCVR_NAMES), scheme=EXPERIMENT_SCHEME, seed=1
    )
    start = time.perf_counter()
    encoder.encode_dataset(rows)
    return time.perf_counter() - start


def _time_bfh(rows) -> float:
    encoder = BloomRecordEncoder(4, names=list(NCVR_NAMES), scheme=EXPERIMENT_SCHEME)
    start = time.perf_counter()
    encoder.encode_dataset(rows)
    return time.perf_counter() - start


def _time_smeb(rows) -> tuple[float, int]:
    subset = rows[: scaled(SMEB_N)]
    start = time.perf_counter()
    for att in range(4):
        column = [row[att] for row in subset]
        StringMapEmbedder(d=10, pivot_sample=40, seed=att).fit_transform(column)
    elapsed = time.perf_counter() - start
    return elapsed, len(subset)


def test_fig8b_embedding_time(benchmark, report):
    rows = _rows()
    benchmark.pedantic(lambda: _time_cbv(rows), rounds=1, iterations=1)
    t_harra = _time_harra(rows)
    t_cbv = _time_cbv(rows)
    t_bfh = _time_bfh(rows)
    t_smeb, n_smeb = _time_smeb(rows)
    per_record = {
        "HARRA": t_harra / len(rows),
        "cBV-HB": t_cbv / len(rows),
        "BfH": t_bfh / len(rows),
        "SM-EB": t_smeb / n_smeb,
    }
    bits_per_gram = {
        "HARRA": _bits_per_gram(lambda: _time_harra(rows)),
        "cBV-HB": _bits_per_gram(lambda: _time_cbv(rows)),
        "BfH": _bits_per_gram(lambda: _time_bfh(rows)),
        "SM-EB": "-",
    }
    table = format_table(
        ["method", "records", "seconds", "us/record", "bits/q-gram"],
        [
            [
                method,
                n,
                round(elapsed, 3),
                round(per_record[method] * 1e6, 1),
                bits_per_gram[method],
            ]
            for method, n, elapsed in (
                ("HARRA", len(rows), t_harra),
                ("cBV-HB", len(rows), t_cbv),
                ("BfH", len(rows), t_bfh),
                ("SM-EB", n_smeb, t_smeb),
            )
        ],
    )
    report(
        banner("Figure 8(b) — embedding time per method (NCVR)")
        + "\n" + table
        + "\npaper shape: HARRA least, SM-EB largest by a wide margin;"
        + " BfH writes 15 bits per q-gram where cBV-HB and HARRA write 1."
    )
    # The paper's ordering on per-record cost.
    assert per_record["SM-EB"] > per_record["BfH"]
    assert per_record["BfH"] > per_record["HARRA"]
