"""Tests for repro.core.persist — encoder serialisation."""

import json
import mmap

import numpy as np
import pytest

from repro.core.cvector import CVectorEncoder
from repro.core.encoder import RecordEncoder
from repro.core.persist import (
    encoder_from_dict,
    encoder_to_dict,
    load_encoder,
    load_index_snapshot,
    save_encoder,
    save_index_snapshot,
    scheme_from_dict,
    scheme_to_dict,
)
from repro.core.qgram import QGramScheme
from repro.data.generators import EXPERIMENT_SCHEME
from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.lsh import HammingLSH
from repro.text.alphabet import Alphabet
from tests.test_two_run_group import column_keys


@pytest.fixture
def encoder():
    return RecordEncoder(
        [
            CVectorEncoder(15, scheme=EXPERIMENT_SCHEME, seed=1),
            CVectorEncoder(68, scheme=EXPERIMENT_SCHEME, seed=2),
        ],
        names=["FirstName", "Address"],
    )


class TestSchemeRoundTrip:
    def test_default_scheme(self):
        scheme = QGramScheme()
        assert scheme_from_dict(scheme_to_dict(scheme)) == scheme

    def test_padded_trigram_scheme(self):
        scheme = QGramScheme(q=3, alphabet=Alphabet.uppercase_padded(), padded=True)
        loaded = scheme_from_dict(scheme_to_dict(scheme))
        assert loaded.q == 3
        assert loaded.padded
        assert loaded.index_set("JOHN") == scheme.index_set("JOHN")


class TestEncoderRoundTrip:
    def test_dict_round_trip_bit_identical(self, encoder):
        loaded = encoder_from_dict(encoder_to_dict(encoder))
        record = ("JONES", "12 MAIN ST APT 4")
        assert loaded.encode_dataset([record]) == encoder.encode_dataset([record])
        assert loaded.total_bits == encoder.total_bits
        assert [l.name for l in loaded.layouts] == ["FirstName", "Address"]

    def test_file_round_trip(self, encoder, tmp_path):
        path = tmp_path / "encoder.json"
        save_encoder(encoder, path)
        loaded = load_encoder(path)
        record = ("MARIA", "99 OAK AVE")
        assert loaded.encode_dataset([record]) == encoder.encode_dataset([record])

    def test_file_is_plain_json(self, encoder, tmp_path):
        path = tmp_path / "encoder.json"
        save_encoder(encoder, path)
        data = json.loads(path.read_text())
        assert data["format_version"] == 1
        assert len(data["attributes"]) == 2

    def test_version_checked(self, encoder):
        data = encoder_to_dict(encoder)
        data["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            encoder_from_dict(data)

    def test_empty_attributes_rejected(self):
        with pytest.raises(ValueError, match="no attributes"):
            encoder_from_dict({"format_version": 1, "attributes": []})

    def test_calibrated_encoder_survives(self, tmp_path):
        from repro.data import NCVRGenerator

        rows = NCVRGenerator().generate(200, seed=5).value_rows()
        original = RecordEncoder.calibrated(rows, scheme=EXPERIMENT_SCHEME, seed=5)
        path = tmp_path / "enc.json"
        save_encoder(original, path)
        loaded = load_encoder(path)
        matrix_original = original.encode_dataset(rows[:20])
        matrix_loaded = loaded.encode_dataset(rows[:20])
        assert matrix_original == matrix_loaded


class TestSnapshotKeysStayByteIdentical:
    """Bundles on disk hold keys computed by gathering ``K`` bit columns per
    group; an index built with the one-pass key table must write the same
    bytes and serve a bundle written the old way."""

    @pytest.mark.parametrize("k", [8, 30, 70])
    def test_bundle_with_column_keys_loads_and_answers_identically(self, encoder, tmp_path, k):
        names = ["JOHN", "JOHNNY", "JON", "MARY", "MARIA", "MARK", "ANNA", "ANNE"]
        streets = ["12 MAIN ST", "12 MAINE ST", "99 OAK AVE", "9 OAK AVE", "1 ELM RD"]
        rows = [(names[i % 8], streets[i % 5]) for i in range(40)]
        matrix = encoder.encode_dataset(rows)
        probes = encoder.encode_dataset(rows[::3])
        lsh = HammingLSH(encoder.total_bits, k, n_tables=4, seed=7)
        lsh.index(matrix)

        old = HammingLSH(encoder.total_bits, k, n_tables=4, seed=7)
        tables = []
        for group in old.groups:
            keys = column_keys(matrix, group.composite.positions)
            order = np.argsort(keys, kind="stable")
            tables.append((keys[order], order))
        old.adopt(
            np.concatenate([keys for keys, __ in tables]),
            np.concatenate([order for __, order in tables]),
            [0, *np.cumsum([order.size for __, order in tables]).tolist()],
        )

        new_dir = save_index_snapshot(tmp_path / "new", encoder, matrix, lsh)
        old_dir = save_index_snapshot(tmp_path / "old", encoder, matrix, old)
        for name in ("keys.npy", "ids.npy", "bounds.npy", "words.npy"):
            assert (new_dir / name).read_bytes() == (old_dir / name).read_bytes()
        loaded = load_index_snapshot(old_dir).lsh
        for group, ref_group in zip(loaded.groups, lsh.groups):
            for got, want in zip(group.export_arrays(), ref_group.export_arrays()):
                assert got.tobytes() == want.tobytes()
        for got, want in zip(loaded.candidate_pairs(probes), lsh.candidate_pairs(probes)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("k", [8, 70])
    def test_load_adopts_the_mapped_payloads_whole(self, encoder, tmp_path, k):
        """The payloads are the per-table arrays laid end to end — what every
        bundle written before the tables were one run holds — and loading
        maps them without copying: the run *is* the two mapped arrays and a
        group is a slice of them."""
        rows = [(f"N{i % 9}", f"{i % 6} MAIN ST") for i in range(50)]
        matrix = encoder.encode_dataset(rows)
        lsh = HammingLSH(encoder.total_bits, k, n_tables=4, seed=3)
        lsh.index(BitMatrix(matrix.words[:30], matrix.n_bits))
        lsh.insert_rows(BitMatrix(matrix.words[30:], matrix.n_bits), np.arange(30, 50))
        first = save_index_snapshot(tmp_path / "first", encoder, matrix, lsh)

        per_table = []
        for group in lsh.groups:
            keys = column_keys(matrix, group.composite.positions)
            order = np.argsort(keys, kind="stable")
            bounds = np.flatnonzero(np.r_[True, keys[order][1:] != keys[order][:-1]])
            per_table.append((keys[order], order, bounds))
        stored_keys = np.load(first / "keys.npy")
        want_keys = np.concatenate([keys for keys, __, __ in per_table])
        assert stored_keys.tobytes() == want_keys.tobytes()
        assert stored_keys.dtype == (np.uint64 if k <= 64 else np.uint8)
        want_ids = np.concatenate([order for __, order, __ in per_table])
        want_bounds = np.concatenate([bounds for __, __, bounds in per_table])
        assert np.array_equal(np.load(first / "ids.npy"), want_ids)
        assert np.array_equal(np.load(first / "bounds.npy"), want_bounds)
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["table_offsets"] == [0, 50, 100, 150, 200]
        assert manifest["format_version"] == 1

        loaded = load_index_snapshot(first)
        run = loaded.lsh.export()
        for array in (run.keys, run.ids):
            backing = array
            while getattr(backing, "base", None) is not None:
                backing = backing.base
            assert isinstance(backing, mmap.mmap) and not array.flags.writeable
        assert type(run.ids) is np.ndarray  # not the slow-to-index memmap subclass
        for group, (keys, order, bounds) in zip(loaded.lsh.groups, per_table):
            got_keys, got_ids, got_bounds = group.export_arrays()
            assert np.shares_memory(got_ids, run.ids) and np.shares_memory(got_keys, run.keys)
            assert got_keys.tobytes() == keys.tobytes()
            assert np.array_equal(got_ids, order) and np.array_equal(got_bounds, bounds)
        probes = encoder.encode_dataset(rows[::4])
        for got, want in zip(loaded.lsh.candidate_pairs(probes), lsh.candidate_pairs(probes)):
            assert np.array_equal(got, want)

        second = save_index_snapshot(tmp_path / "second", encoder, loaded.matrix, loaded.lsh)
        assert sorted(f.name for f in second.iterdir()) == sorted(f.name for f in first.iterdir())
        for file in first.iterdir():
            assert (second / file.name).read_bytes() == file.read_bytes()
