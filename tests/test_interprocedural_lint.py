"""Tests for reprolint phase 4: interprocedural rules RL301-RL303 and RL305,
unused-suppression detection (RL007) and rule-id globs.

Synthetic fixtures are small package trees written to tmp_path (same
idiom as test_project_lint.py).  The mutation tests copy the *real*
``src/repro`` tree plus the shipped pyproject protocol table into
tmp_path, seed one realistic bug per rule into the wal/shards/serve/cli
sources, and assert the lint catches exactly it — proving the shipped
protocol configuration guards the code it claims to guard.
"""

import shutil
import textwrap
from pathlib import Path

from repro.analysis import LintConfig, lint_paths, load_config
from repro.analysis.__main__ import main as lint_main
from repro.analysis.config import (
    OrderProtocol,
    ProtocolConfig,
    RequireProtocol,
    TypestateProtocol,
)
from repro.analysis.engine import all_rule_ids

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_tree(tmp_path, files):
    """Write dedented file contents, creating parent directories."""
    for rel, content in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content))
    return tmp_path


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


def order_protocols(*modules):
    return ProtocolConfig(
        events={"fsync": ("os.fsync",), "publish": ("os.replace",)},
        orders=(
            OrderProtocol(
                anchor="publish",
                before="fsync",
                after="fsync",
                modules=modules or ("app.store",),
            ),
        ),
        present=True,
    )


class TestRL301CrashConsistency:
    def _lint(self, tmp_path, body, protocols=None):
        root = make_tree(
            tmp_path,
            {"src/app/__init__.py": "", "src/app/store.py": body},
        )
        config = LintConfig(
            select=("RL301",), protocols=protocols or order_protocols()
        )
        return lint_paths([root], config)

    def test_fenced_publish_is_clean(self, tmp_path):
        assert (
            self._lint(
                tmp_path,
                """
                import os

                def _sync(fd):
                    os.fsync(fd)

                def publish(tmp, dst, fd, dirfd):
                    _sync(fd)
                    os.replace(tmp, dst)
                    _sync(dirfd)
                """,
            )
            == []
        )

    def test_missing_before_fsync_flagged(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            import os

            def _sync(fd):
                os.fsync(fd)

            def publish(tmp, dst, dirfd):
                os.replace(tmp, dst)
                _sync(dirfd)
            """,
        )
        assert rule_ids(findings) == ["RL301"]
        assert "not preceded by `fsync`" in findings[0].message

    def test_missing_after_fsync_flagged(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            import os

            def publish(tmp, dst, fd):
                os.fsync(fd)
                os.replace(tmp, dst)
            """,
        )
        assert rule_ids(findings) == ["RL301"]
        assert "not followed by `fsync`" in findings[0].message

    def test_fsync_on_one_branch_only_flagged(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            import os

            def publish(tmp, dst, fd, fast):
                if not fast:
                    os.fsync(fd)
                os.replace(tmp, dst)
                os.fsync(fd)
            """,
        )
        assert rule_ids(findings) == ["RL301"]

    def test_unscoped_module_not_checked(self, tmp_path):
        assert (
            self._lint(
                tmp_path,
                """
                import os

                def publish(tmp, dst):
                    os.replace(tmp, dst)
                """,
                protocols=order_protocols("other.module"),
            )
            == []
        )


def require_protocols():
    return ProtocolConfig(
        events={"fsync": ("os.fsync",)},
        requires=(
            RequireProtocol(event="fsync", functions=("app.wal.sync_all",)),
        ),
        present=True,
    )


class TestRL302Durability:
    def _lint(self, tmp_path, body, select=("RL302",)):
        root = make_tree(
            tmp_path,
            {"src/app/__init__.py": "", "src/app/wal.py": body},
        )
        config = LintConfig(select=select, protocols=require_protocols())
        return lint_paths([root], config)

    def test_fsync_on_all_paths_is_clean(self, tmp_path):
        assert (
            self._lint(
                tmp_path,
                """
                import os

                def sync_all(handle):
                    handle.flush()
                    os.fsync(handle.fileno())
                """,
            )
            == []
        )

    def test_fsync_through_helper_is_clean(self, tmp_path):
        assert (
            self._lint(
                tmp_path,
                """
                import os

                def _sync(handle):
                    os.fsync(handle.fileno())

                def sync_all(handle):
                    _sync(handle)
                """,
            )
            == []
        )

    def test_conditional_fsync_flagged(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            import os

            def sync_all(handle, durable):
                if durable:
                    os.fsync(handle.fileno())
            """,
        )
        assert rule_ids(findings) == ["RL302"]
        assert findings[0].severity == "error"
        assert "app.wal.sync_all" in findings[0].message

    def test_always_raising_function_is_vacuously_durable(self, tmp_path):
        assert (
            self._lint(
                tmp_path,
                """
                def sync_all(handle):
                    raise RuntimeError("unsupported")
                """,
            )
            == []
        )


def typestate_protocols():
    return ProtocolConfig(
        typestates=(
            TypestateProtocol(
                create=("*.open_index",),
                final=("close",),
                forbidden=("query", "ingest"),
                modules=("app.cli",),
            ),
        ),
        present=True,
    )


class TestRL303Typestate:
    STORE = """
        class Index:
            def query(self, q):
                return q

            def ingest(self, rows):
                return rows

            def close(self):
                pass

        def open_index(path):
            return Index()
    """

    def _lint(self, tmp_path, body):
        root = make_tree(
            tmp_path,
            {
                "src/app/__init__.py": "",
                "src/app/store.py": self.STORE,
                "src/app/cli.py": body,
            },
        )
        config = LintConfig(select=("RL303",), protocols=typestate_protocols())
        return lint_paths([root], config)

    def test_close_then_use_flagged(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            from app.store import open_index

            def run(path):
                idx = open_index(path)
                idx.close()
                return idx.query(1)
            """,
        )
        assert rule_ids(findings) == ["RL303"]
        assert "idx.query()" in findings[0].message

    def test_use_then_close_is_clean(self, tmp_path):
        assert (
            self._lint(
                tmp_path,
                """
                from app.store import open_index

                def run(path):
                    idx = open_index(path)
                    out = idx.query(1)
                    idx.close()
                    return out
                """,
            )
            == []
        )

    def test_close_on_one_branch_flagged(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            from app.store import open_index

            def run(path, early):
                idx = open_index(path)
                if early:
                    idx.close()
                return idx.query(1)
            """,
        )
        assert rule_ids(findings) == ["RL303"]

    def test_rebinding_starts_a_fresh_trace(self, tmp_path):
        assert (
            self._lint(
                tmp_path,
                """
                from app.store import open_index

                def run(path):
                    idx = open_index(path)
                    idx.close()
                    idx = open_index(path)
                    return idx.query(1)
                """,
            )
            == []
        )


class TestRL305Ownership:
    def _lint(self, tmp_path, body):
        root = make_tree(
            tmp_path,
            {
                "src/app/__init__.py": "",
                "src/app/io_helpers.py": """
                    def open_log(path):
                        return open(path, "rb")
                """,
                "src/app/use.py": body,
            },
        )
        return lint_paths([root], LintConfig(select=("RL305",)))

    def test_leaked_helper_handle_flagged(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            from app.io_helpers import open_log

            def leak(path):
                h = open_log(path)
                data = h.read()
                return len(data)
            """,
        )
        assert rule_ids(findings) == ["RL305"]
        assert "open_log" in findings[0].message

    def test_discarded_helper_handle_flagged(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            from app.io_helpers import open_log

            def touch(path):
                open_log(path)
            """,
        )
        assert rule_ids(findings) == ["RL305"]
        assert "discarded" in findings[0].message

    def test_closed_handle_is_clean(self, tmp_path):
        assert (
            self._lint(
                tmp_path,
                """
                from app.io_helpers import open_log

                def read(path):
                    h = open_log(path)
                    try:
                        return h.read()
                    finally:
                        h.close()
                """,
            )
            == []
        )

    def test_returned_handle_transfers_ownership(self, tmp_path):
        assert (
            self._lint(
                tmp_path,
                """
                from app.io_helpers import open_log

                def reopen(path):
                    h = open_log(path)
                    return h
                """,
            )
            == []
        )

    def test_non_handle_helper_is_clean(self, tmp_path):
        assert (
            self._lint(
                tmp_path,
                """
                from app.io_helpers import open_log

                def _compute(x):
                    return x + 1

                def run(path):
                    v = _compute(2)
                    return v + 1
                """,
            )
            == []
        )


class TestRuleIdGlobs:
    def test_select_glob_enables_family(self):
        config = LintConfig(select=("RL3*",))
        assert config.rule_enabled("RL301")
        assert config.rule_enabled("RL305")
        assert not config.rule_enabled("RL201")
        assert not config.rule_enabled("RL007")

    def test_ignore_glob_disables_family(self):
        config = LintConfig(ignore=("RL2*",))
        assert not config.rule_enabled("RL201")
        assert not config.rule_enabled("RL204")
        assert config.rule_enabled("RL301")
        assert config.rule_enabled("RL001")

    def test_cli_accepts_glob_select(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("X: int = 1\n")
        assert lint_main([str(target), "--select", "RL3*"]) == 0
        capsys.readouterr()

    def test_cli_rejects_glob_matching_nothing(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("X: int = 1\n")
        assert lint_main([str(target), "--select", "RL9*"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule id" in err
        assert "RL3*" in err  # the error advertises the valid prefixes

    def test_all_rule_ids_include_new_families(self):
        known = all_rule_ids()
        assert {"RL301", "RL302", "RL303", "RL305", "RL007"} <= known


class TestUnusedSuppressions:
    def test_off_by_default(self, tmp_path):
        root = make_tree(
            tmp_path,
            {"src/app/mod.py": "Y: int = 1  # reprolint: disable=RL002\n"},
        )
        assert lint_paths([root], LintConfig()) == []

    def test_unused_suppression_flagged_when_enabled(self, tmp_path):
        root = make_tree(
            tmp_path,
            {"src/app/mod.py": "Y: int = 1  # reprolint: disable=RL002\n"},
        )
        findings = lint_paths(
            [root], LintConfig(warn_unused_suppressions=True)
        )
        assert rule_ids(findings) == ["RL007"]
        assert "unused suppression" in findings[0].message
        assert findings[0].severity == "warn"

    def test_used_suppression_not_flagged(self, tmp_path):
        root = make_tree(
            tmp_path,
            {"src/app/mod.py": "x = eval('1')  # reprolint: disable=RL002\n"},
        )
        findings = lint_paths(
            [root], LintConfig(warn_unused_suppressions=True)
        )
        assert findings == []

    def test_unknown_rule_id_reported(self, tmp_path):
        root = make_tree(
            tmp_path,
            {"src/app/mod.py": "Y: int = 1  # reprolint: disable=RL999\n"},
        )
        findings = lint_paths(
            [root], LintConfig(warn_unused_suppressions=True)
        )
        assert rule_ids(findings) == ["RL007"]
        assert "unknown rule RL999" in findings[0].message

    def test_suppression_of_disabled_rule_skipped(self, tmp_path):
        # RL002 never ran, so its suppression cannot be proven unused.
        root = make_tree(
            tmp_path,
            {"src/app/mod.py": "Y: int = 1  # reprolint: disable=RL002\n"},
        )
        findings = lint_paths(
            [root],
            LintConfig(select=("RL007",), warn_unused_suppressions=True),
        )
        assert findings == []

    def test_inter_phase_suppression_counts_as_used(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/app/__init__.py": "",
                "src/app/wal.py": """
                    import os

                    def sync_all(handle, durable):  # reprolint: disable=RL302
                        if durable:
                            os.fsync(handle.fileno())
                """,
            },
        )
        config = LintConfig(
            select=("RL302", "RL007"),
            protocols=require_protocols(),
            warn_unused_suppressions=True,
        )
        assert lint_paths([root], config) == []

    def test_pyproject_toggle(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.reprolint]\nwarn-unused-suppressions = true\n"
        )
        assert load_config(pyproject).warn_unused_suppressions

    def test_cli_flag(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("Y: int = 1  # reprolint: disable=RL002\n")
        assert (
            lint_main([str(target), "--warn-unused-suppressions"])
            == 0  # RL007 defaults to warn severity
        )
        out = capsys.readouterr().out
        assert "RL007" in out


class TestProtocolConfigParsing:
    def test_shipped_table_parses(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        protocols = config.protocols
        assert protocols.present
        assert "os.fsync" in protocols.events["fsync"]
        assert any(
            order.anchor == "publish" and order.before == "fsync"
            for order in protocols.orders
        )
        assert any(
            "repro.wal.segment.SegmentWriter.sync" in req.functions
            for req in protocols.requires
        )
        assert any("close" in ts.final for ts in protocols.typestates)

    def test_minimal_table(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            textwrap.dedent(
                """
                [tool.reprolint.protocols.events]
                sync = ["os.fsync", "os.fdatasync"]

                [[tool.reprolint.protocols.order]]
                anchor = "sync"
                before = "sync"
                modules = ["pkg.*"]
                """
            )
        )
        protocols = load_config(pyproject).protocols
        assert protocols.events["sync"] == ("os.fsync", "os.fdatasync")
        assert protocols.orders[0].after == ""
        assert protocols.order_scoped("pkg.mod")
        assert not protocols.order_scoped("other.mod")


def copy_real_tree(tmp_path):
    """Copy src/repro plus the shipped protocol table into tmp_path."""
    shutil.copytree(REPO_ROOT / "src" / "repro", tmp_path / "src" / "repro")
    shutil.copy(REPO_ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    return tmp_path


def lint_real(root, *select):
    config = load_config(root / "pyproject.toml").with_overrides(
        select=list(select)
    )
    return lint_paths([root / "src"], config)


def mutate(path, old, new):
    text = path.read_text()
    assert old in text, f"mutation anchor not found in {path}"
    path.write_text(text.replace(old, new, 1))


class TestSeededBugsInRealSources:
    """One realistic seeded bug per interprocedural rule, each caught."""

    def test_rl301_payload_fsync_removed_from_manifest_swap(self, tmp_path):
        root = copy_real_tree(tmp_path)
        mutate(
            root / "src/repro/core/shards.py",
            "    tmp.write_text(json.dumps(manifest, indent=2), encoding=\"utf-8\")\n"
            "    fsync_file(tmp)\n",
            "    tmp.write_text(json.dumps(manifest, indent=2), encoding=\"utf-8\")\n",
        )
        findings = lint_real(root, "RL301")
        assert rule_ids(findings) == ["RL301"]
        assert findings[0].path.endswith("core/shards.py")
        assert "not preceded by `fsync`" in findings[0].message

    def test_rl301_directory_fsync_removed_after_publish(self, tmp_path):
        root = copy_real_tree(tmp_path)
        mutate(
            root / "src/repro/core/shards.py",
            "    os.replace(tmp, root / MANIFEST_NAME)\n"
            "    # Without a directory fsync the rename itself may not survive a\n"
            "    # crash, leaving the old generation authoritative after an ack.\n"
            "    _fsync_dir(root)\n",
            "    os.replace(tmp, root / MANIFEST_NAME)\n",
        )
        findings = lint_real(root, "RL301")
        assert rule_ids(findings) == ["RL301"]
        assert "not followed by `fsync`" in findings[0].message

    def test_rl302_fsync_removed_from_wal_ack_path(self, tmp_path):
        root = copy_real_tree(tmp_path)
        mutate(
            root / "src/repro/wal/segment.py",
            "        self._handle.flush()\n"
            "        os.fsync(self._handle.fileno())\n",
            "        self._handle.flush()\n",
        )
        findings = lint_real(root, "RL302")
        assert rule_ids(findings) == ["RL302"]
        assert findings[0].severity == "error"
        assert findings[0].path.endswith("wal/segment.py")
        assert "SegmentWriter.sync" in findings[0].message

    def test_rl303_engine_closed_before_ingest(self, tmp_path):
        root = copy_real_tree(tmp_path)
        mutate(
            root / "src/repro/cli.py",
            "    started = time.perf_counter()\n"
            "    try:\n"
            "        gids = engine.ingest(list(value_rows(dataset)))\n",
            "    started = time.perf_counter()\n"
            "    engine.close()\n"
            "    try:\n"
            "        gids = engine.ingest(list(value_rows(dataset)))\n",
        )
        findings = lint_real(root, "RL303")
        assert rule_ids(findings) == ["RL303"]
        assert findings[0].path.endswith("cli.py")
        assert "engine.ingest()" in findings[0].message

    def test_rl305_helper_returned_handle_leaked(self, tmp_path):
        root = copy_real_tree(tmp_path)
        segment = root / "src/repro/wal/segment.py"
        segment.write_text(
            segment.read_text()
            + textwrap.dedent(
                """

                def _open_segment(path):
                    return open(path, "rb")


                def segment_bytes(path):
                    handle = _open_segment(path)
                    data = handle.read()
                    return len(data)
                """
            )
        )
        findings = lint_real(root, "RL305")
        assert rule_ids(findings) == ["RL305"]
        assert "_open_segment" in findings[0].message

    def test_unmutated_tree_is_clean(self, tmp_path):
        root = copy_real_tree(tmp_path)
        findings = lint_real(root, "RL301", "RL302", "RL303", "RL305")
        assert findings == [], [f.format() for f in findings]


class TestInterSelfHosting:
    """Acceptance: src/ lints clean with the full 18-rule set."""

    def test_inter_rules_clean_on_src(self):
        config = load_config(REPO_ROOT / "pyproject.toml").with_overrides(
            select=["RL301", "RL302", "RL303", "RL305"]
        )
        findings = lint_paths([REPO_ROOT / "src"], config)
        assert findings == [], [f.format() for f in findings]

    def test_no_unused_suppressions_on_src(self):
        config = load_config(REPO_ROOT / "pyproject.toml").with_overrides(
            warn_unused_suppressions=True
        )
        findings = lint_paths([REPO_ROOT / "src"], config)
        assert findings == [], [f.format() for f in findings]
