"""Tests for the flow-sensitive phase of reprolint (RL201, RL202, RL204).

Three layers mirror the implementation: the CFG builder
(:mod:`repro.analysis.cfg`) gets structural tests over exception edges,
``finally`` duplication and loop routing; the generic fixpoint solver
(:mod:`repro.analysis.dataflow`) gets toy forward/backward analyses
exercising may/must joins and the exception-edge transfer; and each
RL20x rule gets positive and negative fixtures plus one *seeded bug*
test that mutates a real in-tree file (hamming kernel, serving engine,
persistence layer) and asserts the rule catches exactly the class of
defect it was built for — proving none of the rules are vacuous against
the code they guard.
"""

import ast
import textwrap

import pytest

from repro.analysis import LintConfig, LintEngine, lint_paths, load_config
from repro.analysis.cfg import EXCEPTION, NORMAL, build_cfg, evaluated
from repro.analysis.config import RuleConfig
from repro.analysis.dataflow import BACKWARD, DataflowAnalysis, solve
from repro.analysis.report import render_text
from tests.test_project_lint import REPO_ROOT, rule_ids

#: Fixture paths chosen for rule scoping: RL202 only runs in the kernel
#: and serving trees; RL201/RL204 run anywhere outside tests/.
KERNEL = "src/repro/hamming/fixture.py"
SERVE = "src/repro/serve/fixture.py"


def _cfg(code):
    fn = ast.parse(textwrap.dedent(code)).body[0]
    assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    return build_cfg(fn), fn


def _only(graph, pred):
    nodes = [n for n in graph.nodes if pred(n)]
    assert len(nodes) == 1, [n.label for n in nodes]
    return nodes[0]


def _assign_to(graph, name):
    return _only(
        graph,
        lambda n: isinstance(n.stmt, ast.Assign)
        and isinstance(n.stmt.targets[0], ast.Name)
        and n.stmt.targets[0].id == name,
    )


@pytest.fixture
def engine():
    return LintEngine(LintConfig())


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------


class TestCFGConstruction:
    def test_linear_chain(self):
        graph, _ = _cfg(
            """
            def _f():
                a = 1
                b = 2
            """
        )
        ((a_idx, kind),) = graph.nodes[graph.entry].succs
        assert kind == NORMAL
        ((b_idx, _),) = graph.nodes[a_idx].succs
        ((end, _),) = graph.nodes[b_idx].succs
        assert end == graph.exit
        # No calls anywhere: nothing can reach the raise exit.
        assert graph.nodes[graph.raise_exit].preds == []

    def test_if_else_branches_and_merge(self):
        graph, _ = _cfg(
            """
            def _f(p):
                if p:
                    x = 1
                else:
                    x = 2
                y = x
            """
        )
        branch = _only(graph, lambda n: n.label == "branch")
        assert len(branch.succs) == 2
        merge = _assign_to(graph, "y")
        assert len(merge.preds) == 2

    def test_if_without_else_falls_through(self):
        graph, _ = _cfg(
            """
            def _f(p):
                if p:
                    x = 1
                y = 2
            """
        )
        branch = _only(graph, lambda n: n.label == "branch")
        after = _assign_to(graph, "y")
        assert (after.index, NORMAL) in graph.nodes[
            _assign_to(graph, "x").index
        ].succs
        assert (after.index, NORMAL) in branch.succs

    def test_while_loop_back_edge_and_break(self):
        graph, _ = _cfg(
            """
            def _f(n):
                i = 0
                while i < n:
                    if i == 3:
                        break
                    i = i + 1
                return i
            """
        )
        head = _only(graph, lambda n: n.label == "loop")
        # Entered from ``i = 0`` and re-entered from the increment.
        assert len(head.preds) >= 2
        brk = _only(graph, lambda n: isinstance(n.stmt, ast.Break))
        ret = _only(graph, lambda n: isinstance(n.stmt, ast.Return))
        assert brk.succs == [(ret.index, NORMAL)]

    def test_continue_returns_to_loop_head(self):
        graph, _ = _cfg(
            """
            def _f(n):
                while n:
                    if n:
                        continue
                    n = 0
            """
        )
        head = _only(graph, lambda n: n.label == "loop")
        cont = _only(graph, lambda n: isinstance(n.stmt, ast.Continue))
        assert cont.succs == [(head.index, NORMAL)]

    def test_while_true_without_break_kills_fallthrough(self):
        graph, _ = _cfg(
            """
            def _f():
                while True:
                    pass
                x = 1
            """
        )
        after = _assign_to(graph, "x")
        assert after.index not in graph.reachable()

    def test_while_true_with_break_falls_through(self):
        graph, _ = _cfg(
            """
            def _f(q):
                while True:
                    if q:
                        break
                x = 1
            """
        )
        after = _assign_to(graph, "x")
        assert after.index in graph.reachable()

    def test_call_statement_gets_exception_edge(self):
        graph, _ = _cfg(
            """
            def _f(p):
                data = load(p)
                return data
            """
        )
        call = _assign_to(graph, "data")
        assert (graph.raise_exit, EXCEPTION) in call.succs

    def test_try_except_routes_exception_to_dispatch(self):
        graph, _ = _cfg(
            """
            def _f(p):
                try:
                    data = load(p)
                except ValueError:
                    data = None
                return data
            """
        )
        dispatch = _only(graph, lambda n: n.label == "except-dispatch")
        body = [n for n in graph.nodes if isinstance(n.stmt, ast.Assign)][0]
        assert (dispatch.index, EXCEPTION) in body.succs
        # ValueError is not catch-all: an unmatched exception still
        # escapes the function.
        assert (graph.raise_exit, EXCEPTION) in dispatch.succs

    def test_catch_all_handler_stops_propagation(self):
        graph, _ = _cfg(
            """
            def _f(p):
                try:
                    data = load(p)
                except Exception:
                    data = None
                return data
            """
        )
        assert graph.nodes[graph.raise_exit].preds == []

    def test_finally_body_duplicated_per_continuation(self):
        graph, fn = _cfg(
            """
            def _f(p):
                fh = acquire(p)
                try:
                    return fh.read()
                finally:
                    fh.close()
            """
        )
        close_stmt = fn.body[1].finalbody[0]
        copies = [n for n in graph.nodes if n.stmt is close_stmt]
        # One copy on the return path, one on the exception path of the
        # returned expression (at least).
        assert len(copies) >= 2
        assert graph.exit in graph.reachable()
        assert graph.raise_exit in graph.reachable()

    def test_evaluated_header_excludes_body(self):
        graph, fn = _cfg(
            """
            def _f(p):
                if p(1):
                    x = p(2)
            """
        )
        branch = _only(graph, lambda n: n.label == "branch")
        assert evaluated(branch) == (fn.body[0].test,)
        body_stmt = _assign_to(graph, "x")
        assert evaluated(body_stmt) == (body_stmt.stmt,)
        assert evaluated(graph.nodes[graph.entry]) == ()


# ---------------------------------------------------------------------------
# Dataflow solver
# ---------------------------------------------------------------------------


def _stored_names(node):
    names = set()
    for part in evaluated(node):
        for sub in ast.walk(part):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                names.add(sub.id)
    return frozenset(names)


class _MayDefined(DataflowAnalysis):
    def boundary(self):
        return frozenset()

    def join(self, states):
        out = states[0]
        for state in states[1:]:
            out = out | state
        return out

    def transfer(self, node, state):
        return state | _stored_names(node)


class _MustDefined(_MayDefined):
    def join(self, states):
        out = states[0]
        for state in states[1:]:
            out = out & state
        return out


class _DefinedNoExc(_MayDefined):
    def transfer_exception(self, node, state):
        return state  # a raising statement never completes its store


class _LiveNames(DataflowAnalysis):
    direction = BACKWARD

    def boundary(self):
        return frozenset()

    def join(self, states):
        out = states[0]
        for state in states[1:]:
            out = out | state
        return out

    def transfer(self, node, out):
        loads = set()
        for part in evaluated(node):
            for sub in ast.walk(part):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    loads.add(sub.id)
        return (out - _stored_names(node)) | frozenset(loads)


BRANCHY = """
    def _f(p):
        if p:
            a = 1
        else:
            b = 2
        c = 3
"""


class TestDataflowSolver:
    def test_forward_may_union_at_merge(self):
        graph, _ = _cfg(BRANCHY)
        states = solve(graph, _MayDefined())
        merge = _assign_to(graph, "c")
        assert states[merge.index] == frozenset({"a", "b"})

    def test_forward_must_intersection_at_merge(self):
        graph, _ = _cfg(BRANCHY)
        states = solve(graph, _MustDefined())
        merge = _assign_to(graph, "c")
        assert states[merge.index] == frozenset()

    def test_exception_transfer_drops_incomplete_store(self):
        graph, _ = _cfg(
            """
            def _f(p):
                x = load(p)
                return x
            """
        )
        states = solve(graph, _DefinedNoExc())
        ret = _only(graph, lambda n: isinstance(n.stmt, ast.Return))
        assert states[ret.index] == frozenset({"x"})
        assert states[graph.raise_exit] == frozenset()

    def test_backward_liveness(self):
        graph, _ = _cfg(
            """
            def _f():
                a = 1
                b = 2
                return a
            """
        )
        states = solve(graph, _LiveNames())
        # ``a`` is live after both assignments (read by the return) and
        # dead before its own definition.
        assert states[_assign_to(graph, "a").index] == frozenset({"a"})
        assert states[_assign_to(graph, "b").index] == frozenset({"a"})
        assert states[graph.entry] == frozenset()

    def test_unreachable_nodes_have_no_state(self):
        graph, _ = _cfg(
            """
            def _f():
                return 1
                x = 2
            """
        )
        states = solve(graph, _MayDefined())
        assert _assign_to(graph, "x").index not in states

    def test_unknown_direction_rejected(self):
        graph, _ = _cfg("def _f():\n    pass\n")
        analysis = _MayDefined()
        analysis.direction = "sideways"
        with pytest.raises(ValueError):
            solve(graph, analysis)


# ---------------------------------------------------------------------------
# RL201 resource lifetime
# ---------------------------------------------------------------------------


class TestRL201ResourceLifetime:
    def test_branch_leak_triggers(self, engine):
        findings = engine.lint_source(
            SERVE,
            textwrap.dedent(
                """
                def _f(path, flag):
                    fh = open(path)
                    if flag:
                        fh.close()
                    return None
                """
            ),
        )
        assert rule_ids(findings) == ["RL201"]
        assert "not closed on every path" in findings[0].message
        assert findings[0].line == 3

    def test_exception_path_leak_triggers(self, engine):
        findings = engine.lint_source(
            SERVE,
            textwrap.dedent(
                """
                def _f(path):
                    fh = open(path)
                    data = fh.read()
                    fh.close()
                    return data
                """
            ),
        )
        assert rule_ids(findings) == ["RL201"]
        assert "exception escapes" in findings[0].message

    def test_discarded_acquisition_triggers(self, engine):
        findings = engine.lint_source(
            SERVE, "def _f(path):\n    open(path)\n    return None\n"
        )
        assert rule_ids(findings) == ["RL201"]
        assert "immediately discarded" in findings[0].message

    def test_with_statement_is_clean(self, engine):
        findings = engine.lint_source(
            SERVE,
            textwrap.dedent(
                """
                def _f(path):
                    with open(path) as fh:
                        return fh.read()
                """
            ),
        )
        assert findings == []

    def test_try_finally_close_is_clean(self, engine):
        findings = engine.lint_source(
            SERVE,
            textwrap.dedent(
                """
                def _f(path):
                    fh = open(path)
                    try:
                        return fh.read()
                    finally:
                        fh.close()
                """
            ),
        )
        assert findings == []

    def test_returned_handle_transfers_ownership(self, engine):
        findings = engine.lint_source(
            SERVE, "def _f(path):\n    fh = open(path)\n    return fh\n"
        )
        assert findings == []

    def test_handle_passed_to_callee_is_clean(self, engine):
        findings = engine.lint_source(
            SERVE,
            "def _f(path, sink):\n    fh = open(path)\n    sink(fh)\n",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# RL202 dtype discipline
# ---------------------------------------------------------------------------


class TestRL202DtypeDiscipline:
    def test_mixed_width_bitwise_triggers(self, engine):
        findings = engine.lint_source(
            KERNEL,
            textwrap.dedent(
                """
                import numpy as np

                def _kernel(a, b):
                    x = np.asarray(a, dtype=np.uint64)
                    y = np.asarray(b, dtype=np.int32)
                    return x ^ y
                """
            ),
        )
        assert rule_ids(findings) == ["RL202"]
        assert "bitwise" in findings[0].message

    def test_unsigned_signed_arithmetic_triggers(self, engine):
        findings = engine.lint_source(
            KERNEL,
            textwrap.dedent(
                """
                import numpy as np

                def _kernel(a):
                    x = np.asarray(a, dtype=np.uint64)
                    y = x + np.int64(1)
                    return y
                """
            ),
        )
        assert rule_ids(findings) == ["RL202"]
        assert "float64" in findings[0].message

    def test_true_division_on_unsigned_triggers(self, engine):
        findings = engine.lint_source(
            KERNEL,
            textwrap.dedent(
                """
                import numpy as np

                def _kernel(a):
                    x = np.asarray(a, dtype=np.uint64)
                    return x / 2
                """
            ),
        )
        assert rule_ids(findings) == ["RL202"]
        assert "division" in findings[0].message

    def test_matching_dtypes_are_clean(self, engine):
        findings = engine.lint_source(
            KERNEL,
            textwrap.dedent(
                """
                import numpy as np

                def _kernel(a, b):
                    x = np.asarray(a, dtype=np.uint64)
                    y = np.asarray(b, dtype=np.uint64)
                    z = x ^ y
                    return z // 2
                """
            ),
        )
        assert findings == []

    def test_rebinding_on_all_paths_is_tracked(self, engine):
        findings = engine.lint_source(
            KERNEL,
            textwrap.dedent(
                """
                import numpy as np

                def _kernel(a):
                    x = np.asarray(a, dtype=np.uint64)
                    x = x.astype(np.int32)
                    return x ^ np.uint64(1)
                """
            ),
        )
        assert rule_ids(findings) == ["RL202"]

    def test_disagreeing_branches_stay_silent(self, engine):
        findings = engine.lint_source(
            KERNEL,
            textwrap.dedent(
                """
                import numpy as np

                def _kernel(a, flag):
                    x = np.asarray(a, dtype=np.uint64)
                    if flag:
                        x = x.astype(np.int64)
                    return x ^ np.uint64(1)
                """
            ),
        )
        assert findings == []

    def test_scoped_out_of_non_kernel_modules(self, engine):
        findings = engine.lint_source(
            "src/repro/data/fixture.py",
            textwrap.dedent(
                """
                import numpy as np

                def _helper(a, b):
                    x = np.asarray(a, dtype=np.uint64)
                    y = np.asarray(b, dtype=np.int32)
                    return x ^ y
                """
            ),
        )
        assert findings == []


# ---------------------------------------------------------------------------
# RL204 exception hygiene
# ---------------------------------------------------------------------------


class TestRL204ExceptionHygiene:
    def test_broad_handler_swallows_snapshot_error(self, engine):
        findings = engine.lint_source(
            SERVE,
            textwrap.dedent(
                """
                def _f(path):
                    try:
                        snap = load_index_snapshot(path)
                    except Exception:
                        snap = None
                    return snap
                """
            ),
        )
        assert rule_ids(findings) == ["RL204"]
        assert "SnapshotError" in findings[0].message

    def test_explicit_snapshot_handler_first_is_clean(self, engine):
        findings = engine.lint_source(
            SERVE,
            textwrap.dedent(
                """
                def _f(path):
                    try:
                        snap = load_index_snapshot(path)
                    except SnapshotError:
                        raise
                    except Exception:
                        snap = None
                    return snap
                """
            ),
        )
        assert findings == []

    def test_reraising_broad_handler_is_clean(self, engine):
        findings = engine.lint_source(
            SERVE,
            textwrap.dedent(
                """
                def _f(path, log):
                    try:
                        snap = load_index_snapshot(path)
                    except Exception:
                        log("load failed")
                        raise
                    return snap
                """
            ),
        )
        assert findings == []

    def test_try_without_snapshot_io_is_clean(self, engine):
        findings = engine.lint_source(
            SERVE,
            textwrap.dedent(
                """
                def _f(payload):
                    try:
                        value = int(payload)
                    except Exception:
                        value = 0
                    return value
                """
            ),
        )
        assert findings == []

    def test_unreachable_statement_triggers(self, engine):
        findings = engine.lint_source(
            SERVE,
            "def _f(p, cleanup):\n    return p\n    cleanup(p)\n",
        )
        assert rule_ids(findings) == ["RL204"]
        assert "unreachable" in findings[0].message
        assert findings[0].line == 3

    def test_only_first_of_dead_run_reported(self, engine):
        findings = engine.lint_source(
            SERVE,
            "def _f(p):\n    return p\n    a = 1\n    b = 2\n    return b\n",
        )
        assert rule_ids(findings) == ["RL204"]
        assert findings[0].line == 3

    def test_merging_branches_are_reachable(self, engine):
        findings = engine.lint_source(
            SERVE,
            textwrap.dedent(
                """
                def _f(p):
                    if p:
                        return 1
                    return 2
                """
            ),
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Engine integration: scoping, severity, suppression
# ---------------------------------------------------------------------------

_LEAKY = "def _f(path):\n    fh = open(path)\n    return None\n"


class TestFlowEngineIntegration:
    def test_suppression_comment_silences_flow_rule(self, engine):
        source = (
            "def _f(path):\n"
            "    fh = open(path)  # reprolint: disable=RL201\n"
            "    return None\n"
        )
        assert engine.lint_source(SERVE, source) == []

    def test_severity_config_applies_to_flow_rules(self):
        config = LintConfig(
            select=("RL201",),
            rule_configs={"RL201": RuleConfig(severity="warn")},
        )
        findings = LintEngine(config).lint_source(SERVE, _LEAKY)
        assert [f.severity for f in findings] == ["warn"]

    def test_select_restricts_flow_rules(self):
        config = LintConfig(select=("RL204",))
        assert LintEngine(config).lint_source(SERVE, _LEAKY) == []

# ---------------------------------------------------------------------------
# Seeded bugs in the real tree
# ---------------------------------------------------------------------------


class TestSeededBugs:
    """Mutate real in-tree files and assert each rule catches its bug.

    The unmodified file must lint clean under the shipped configuration
    (self-hosting) and the one-line mutation must produce exactly the
    expected rule — evidence the rules bite on the code they guard, not
    just on synthetic fixtures.
    """

    def _mutate(self, rel, old, new):
        source = (REPO_ROOT / rel).read_text(encoding="utf-8")
        assert old in source, f"seed anchor missing from {rel}"
        engine = LintEngine(load_config(REPO_ROOT / "pyproject.toml"))
        clean = engine.lint_source(rel, source)
        assert clean == [], render_text(clean)
        return engine.lint_source(rel, source.replace(old, new, 1))

    def test_rl201_unclosed_manifest_handle(self):
        findings = self._mutate(
            "src/repro/core/persist.py",
            '        manifest = json.loads(manifest_file.read_text(encoding="utf-8"))',
            '        fh = open(manifest_file, encoding="utf-8")\n'
            "        manifest = json.loads(fh.read())",
        )
        assert "RL201" in rule_ids(findings)

    def test_rl202_mixed_width_xor_in_kernel(self):
        findings = self._mutate(
            "src/repro/hamming/distance.py",
            "^ np.asarray(words_b, dtype=np.uint64)",
            "^ np.asarray(words_b, dtype=np.int32)",
        )
        assert "RL202" in rule_ids(findings)

    def test_rl204_swallowed_snapshot_error(self):
        findings = self._mutate(
            "src/repro/core/shards.py",
            "            return cls.single(load_index_snapshot(root, mmap_mode=mmap_mode))",
            "            try:\n"
            "                snapshot = load_index_snapshot(root, mmap_mode=mmap_mode)\n"
            "            except Exception:\n"
            "                snapshot = None\n"
            "            return cls.single(snapshot)",
        )
        assert "RL204" in rule_ids(findings)


# ---------------------------------------------------------------------------
# Self-hosting: the whole tree stays clean with every rule enabled
# ---------------------------------------------------------------------------


class TestSelfHosting:
    def test_tests_and_benchmarks_lint_clean(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        findings = lint_paths(
            [REPO_ROOT / "tests", REPO_ROOT / "benchmarks"], config
        )
        assert findings == [], render_text(findings)
