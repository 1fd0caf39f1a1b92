"""Tests for repro.data.io — CSV round-trips."""

import pytest

from repro.data import NCVRGenerator
from repro.data.io import read_dataset, write_dataset, write_matches


@pytest.fixture
def dataset():
    return NCVRGenerator().generate(50, seed=3)


class TestRoundTrip:
    def test_write_then_read_preserves_everything(self, dataset, tmp_path):
        path = tmp_path / "voters.csv"
        write_dataset(dataset, path)
        loaded = read_dataset(path)
        assert loaded.schema.names == dataset.schema.names
        assert loaded.ids == dataset.ids
        assert loaded.value_rows() == dataset.value_rows()

    def test_id_column_autodetected(self, dataset, tmp_path):
        path = tmp_path / "voters.csv"
        write_dataset(dataset, path)
        loaded = read_dataset(path)
        assert "id" not in loaded.schema.names

    def test_explicit_attribute_subset(self, dataset, tmp_path):
        path = tmp_path / "voters.csv"
        write_dataset(dataset, path)
        loaded = read_dataset(path, attributes=["LastName", "Town"])
        assert loaded.schema.names == ("LastName", "Town")
        __, values = dataset[0]
        assert loaded[0] == (dataset.ids[0], (values[1], values[3]))


class TestReadValidation:
    def test_missing_column_rejected(self, dataset, tmp_path):
        path = tmp_path / "voters.csv"
        write_dataset(dataset, path)
        with pytest.raises(ValueError, match="lacks columns"):
            read_dataset(path, attributes=["Nope"])

    def test_missing_id_column_rejected(self, dataset, tmp_path):
        path = tmp_path / "voters.csv"
        write_dataset(dataset, path)
        with pytest.raises(ValueError, match="id column"):
            read_dataset(path, id_column="uuid")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,Name\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_dataset(path)

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "row, fields",
        [
            ("4,DAN,LEE,EXTRA", 4),  # a trailing extra cell
            ("4,LEE, DAN,SMITH", 4),  # an unquoted comma inside a name
            ("2,BOB", 2),  # a short row
        ],
        ids=["extra-cell", "comma-in-name", "short-row"],
    )
    def test_ragged_row_names_file_and_line(self, tmp_path, row, fields):
        path = tmp_path / "ragged.csv"
        path.write_text(f"id,first,last\n1,ANN,KIM\n{row}\n")
        message = rf"ragged\.csv, line 3: {fields} fields, the header has 3"
        with pytest.raises(ValueError, match=message):
            read_dataset(path)

    def test_empty_id_names_file_and_line(self, tmp_path):
        path = tmp_path / "ids.csv"
        path.write_text("id,first,last\n1,ANN,KIM\n\n,BOB,LEE\n")
        with pytest.raises(ValueError, match=r"ids\.csv, line 4: empty 'id' cell"):
            read_dataset(path)

    def test_repeated_header_column_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,first,first\n1,ANN,KIM\n")
        message = r"dup\.csv, line 1: header repeats columns \['first'\]"
        with pytest.raises(ValueError, match=message):
            read_dataset(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("first,last\nANN,KIM\n\nBOB,LEE\n")
        loaded = read_dataset(path)
        assert loaded.ids == ["R0", "R1"]
        assert loaded.value_rows() == [("ANN", "KIM"), ("BOB", "LEE")]


class TestNormalisation:
    def test_values_normalised_on_read(self, tmp_path):
        path = tmp_path / "messy.csv"
        path.write_text("id,Name\nr1,\" o'brien, jr. \"\n")
        loaded = read_dataset(path)
        assert loaded[0] == ("r1", ("OBRIEN JR",))

    def test_raw_mode(self, tmp_path):
        path = tmp_path / "messy.csv"
        path.write_text("id,Name\nr1,miXed\n")
        loaded = read_dataset(path, normalize_values=False)
        assert loaded[0] == ("r1", ("miXed",))

    def test_missing_cell_becomes_empty(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("id,A,B\nr1,X,\n")
        loaded = read_dataset(path)
        assert loaded[0] == ("r1", ("X", ""))


class TestWriteMatches:
    def test_matches_written_with_ids(self, dataset, tmp_path):
        path = tmp_path / "matches.csv"
        count = write_matches({(0, 1), (2, 3)}, dataset, dataset, path)
        assert count == 2
        lines = path.read_text().splitlines()
        assert lines[0] == "id_a,id_b"
        assert f"{dataset.ids[0]},{dataset.ids[1]}" in lines
