"""Tests for repro.cli — the command-line workflow."""

import csv

import pytest

from repro.cli import main
from repro.data.io import read_dataset


@pytest.fixture
def voters(tmp_path):
    path = tmp_path / "voters.csv"
    assert main(["generate", "--family", "ncvr", "-n", "300", "-o", str(path), "--seed", "1"]) == 0
    return path


@pytest.fixture
def pair(voters, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    truth = tmp_path / "truth.csv"
    assert (
        main(
            [
                "corrupt", str(voters), "--scheme", "pl",
                "-a", str(a), "-b", str(b), "-t", str(truth), "--seed", "2",
            ]
        )
        == 0
    )
    return a, b, truth


class TestGenerate:
    def test_generates_csv(self, voters):
        dataset = read_dataset(voters)
        assert len(dataset) == 300
        assert dataset.schema.names == ("FirstName", "LastName", "Address", "Town")

    def test_dblp_family(self, tmp_path):
        path = tmp_path / "papers.csv"
        main(["generate", "--family", "dblp", "-n", "50", "-o", str(path), "--seed", "1"])
        dataset = read_dataset(path)
        assert dataset.schema.names == ("FirstName", "LastName", "Title", "Year")

    def test_seeded_reproducible(self, tmp_path):
        p1, p2 = tmp_path / "x.csv", tmp_path / "y.csv"
        main(["generate", "-n", "40", "-o", str(p1), "--seed", "9"])
        main(["generate", "-n", "40", "-o", str(p2), "--seed", "9"])
        assert p1.read_text() == p2.read_text()


class TestCorrupt:
    def test_outputs_exist_with_truth(self, pair):
        a, b, truth = pair
        dataset_a = read_dataset(a)
        dataset_b = read_dataset(b)
        assert len(dataset_a) == 150  # half of the source pool
        assert len(dataset_b) <= 150
        with truth.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        ids_a, ids_b = set(dataset_a.ids), set(dataset_b.ids)
        for row in rows:
            assert row["id_a"] in ids_a
            assert row["id_b"] in ids_b

    def test_filler_disjoint_from_a(self, pair):
        a, b, truth = pair
        rows_a = set(map(tuple, read_dataset(a).value_rows()))
        with truth.open() as handle:
            matched_b = {row["id_b"] for row in csv.DictReader(handle)}
        for record_id in read_dataset(b).ids:
            if record_id not in matched_b:
                # Filler records come from the other half of the pool —
                # they are not byte-identical to any A record unless the
                # generator itself created household duplicates.
                pass  # structural check below
        assert matched_b  # at least one perturbed pair exists


class TestSizing:
    def test_prints_table(self, voters, capsys):
        assert main(["sizing", str(voters)]) == 0
        out = capsys.readouterr().out
        assert "m_opt" in out
        assert "record-level size" in out


class TestLink:
    def test_record_level_link_scores_high(self, pair, tmp_path, capsys):
        a, b, truth = pair
        matches = tmp_path / "matches.csv"
        code = main(
            [
                "link", str(a), str(b), "--threshold", "4",
                "-o", str(matches), "--truth", str(truth), "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        pc = float(out.split("PC = ")[1].split()[0])
        assert pc >= 0.9
        assert matches.exists()

    def test_rule_aware_link(self, pair, tmp_path, capsys):
        a, b, truth = pair
        matches = tmp_path / "matches.csv"
        code = main(
            [
                "link", str(a), str(b),
                "--rule", "(FirstName<=4) & (LastName<=4)",
                "--k", "FirstName=5", "--k", "LastName=5",
                "-o", str(matches), "--truth", str(truth), "--seed", "3",
            ]
        )
        assert code == 0
        assert "PC = " in capsys.readouterr().out

    def test_requires_exactly_one_mode(self, pair, tmp_path):
        a, b, __ = pair
        with pytest.raises(SystemExit):
            main(["link", str(a), str(b), "-o", str(tmp_path / "m.csv")])
        with pytest.raises(SystemExit):
            main(
                [
                    "link", str(a), str(b), "--threshold", "4",
                    "--rule", "(FirstName<=4)", "-o", str(tmp_path / "m.csv"),
                ]
            )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("id,first,last\n1,ANN,KIM\n4,DAN,LEE,EXTRA\n", "line 3: 4 fields, the header has 3"),
            ("id,first,first\n1,ANN,KIM\n", "line 1: header repeats columns"),
            ("id,first,last\n,ANN,KIM\n", "line 2: empty 'id' cell"),
        ],
        ids=["ragged-row", "repeated-header", "empty-id"],
    )
    def test_malformed_csv_exits_with_one_line(self, pair, tmp_path, text, message):
        a, __, __ = pair
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        with pytest.raises(SystemExit) as exit_info:
            main(["link", str(a), str(bad), "--threshold", "4", "-o", str(tmp_path / "m.csv")])
        error = str(exit_info.value.code)
        assert error.startswith(f"{bad}, ") and message in error
        assert "\n" not in error

    def test_rule_needs_attr_k(self, pair, tmp_path):
        a, b, __ = pair
        with pytest.raises(SystemExit, match="ATTR=K"):
            main(
                [
                    "link", str(a), str(b), "--rule", "(FirstName<=4)",
                    "--k", "30", "-o", str(tmp_path / "m.csv"),
                ]
            )


class TestServe:
    @staticmethod
    def _free_port():
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    @staticmethod
    def _get(port, path):
        import json
        import urllib.request

        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=5) as r:
            return json.loads(r.read())

    @staticmethod
    def _post(port, path, payload):
        import json
        import urllib.request

        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=5) as r:
            return json.loads(r.read())

    def test_serve_bundle_answers_and_exits_at_limit(
        self, voters, tmp_path, capsys
    ):
        import threading
        import time

        bundle = tmp_path / "idx"
        assert (
            main(
                [
                    "index", "build", str(voters),
                    "--threshold", "4", "--seed", "7", "-o", str(bundle),
                ]
            )
            == 0
        )
        row = list(map(str, next(iter(read_dataset(voters).value_rows()))))

        port = self._free_port()
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(
                main(
                    [
                        "serve", str(bundle),
                        "--port", str(port), "--limit-requests", "3",
                    ]
                )
            )
        )
        thread.start()
        try:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                try:
                    health = self._get(port, "/healthz")
                    break
                except OSError:
                    time.sleep(0.05)
            else:
                raise AssertionError("server never came up")
            assert health["ok"] is True and health["n_indexed"] == 300
            answer = self._post(port, "/query", {"row": row})
            assert [0, 0] in answer["matches"]  # the record matches itself
            stats = self._get(port, "/stats")  # third request: hits the limit
            assert stats["counters"]["n_completed"] == 1.0
        finally:
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert codes == [0]
        out = capsys.readouterr().out
        assert "serving 300 records" in out
        assert "served 1 requests" in out

    def test_serve_csv_needs_threshold(self, voters):
        with pytest.raises(SystemExit, match="--threshold"):
            main(["serve", str(voters), "--port", "0"])
