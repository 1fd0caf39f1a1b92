"""Configuration for reprolint: ``[tool.reprolint]`` in ``pyproject.toml``.

Recognised keys::

    [tool.reprolint]
    select = ["RL001", "RL2*"]         # only these rules (default: all);
    ignore = ["RL006", "RL3*"]         # drop these rules; globs allowed
    exclude = ["build/*"]              # path globs skipped entirely
    warn-unused-suppressions = true    # RL007: stale disable= comments

    [tool.reprolint.rules.RL003]
    include = ["core/sizing.py", "hamming/*"]   # restrict rule to paths
    [tool.reprolint.rules.RL006]
    exclude = ["evaluation/reporting.py"]       # skip rule on paths
    [tool.reprolint.rules.RL105]
    severity = "warn"                           # downgrade from error

    [tool.reprolint.architecture]               # RL102 contract
    leaf = ["repro.perf", "repro.pipeline"]     # import-leaf packages
    [tool.reprolint.architecture.allowed]       # allowed module-level edges
    "repro.core" = ["repro.hamming", "repro.text"]

    [tool.reprolint.protocols.events]           # named call-pattern sets
    fsync = ["os.fsync"]
    publish = ["os.replace", "os.rename"]

    [[tool.reprolint.protocols.order]]          # RL301 ordering contract
    anchor = "publish"                          # sites the contract anchors on
    before = "fsync"                            # event required on every path in
    after = "fsync"                             # event required on every success path out
    modules = ["repro.core.persist"]            # module-name globs checked

    [[tool.reprolint.protocols.require]]        # RL302 durability contract
    event = "fsync"                             # event required on every success path
    functions = ["repro.wal.segment.SegmentWriter.sync"]

    [[tool.reprolint.protocols.typestate]]      # RL303 lifecycle contract
    create = ["*.from_bundle"]                  # constructors starting a trace
    final = ["close"]                           # methods ending the object's life
    forbidden = ["ingest", "compact"]           # methods illegal after a final
    modules = ["repro.cli", "repro.serve.*"]

Patterns are :mod:`fnmatch` globs matched against the posix form of the
file path; a pattern also matches when it matches a path suffix, so
``core/sizing.py`` matches ``src/repro/core/sizing.py``.  CLI flags
(``--select``/``--ignore``) override ``select``/``ignore`` from the file.
``select``/``ignore`` entries may be rule-id globs (``RL2*``).
"""

from __future__ import annotations

import tomllib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Protocol


class ScopedRule(Protocol):
    """What path scoping and grading need from a rule of any family."""

    rule_id: str
    default_include: tuple[str, ...]
    default_exclude: tuple[str, ...]
    default_severity: str


def _matches(path: str, patterns: Iterable[str]) -> bool:
    posix = Path(path).as_posix()
    name = posix.rsplit("/", 1)[-1]
    for pattern in patterns:
        if "/" in pattern:
            # Directory-qualified patterns are suffix-matched anywhere in
            # the path ("tests/*" hits "repo/tests/x.py").
            if fnmatch(posix, pattern) or fnmatch(posix, f"*/{pattern}"):
                return True
        # Bare patterns name *files* ("test_*.py", "conftest.py") -- match
        # the basename only, lest fnmatch's slash-crossing `*` swallow
        # everything nested under e.g. a test_* directory.
        elif fnmatch(name, pattern):
            return True
    return False


@dataclass(frozen=True)
class RuleConfig:
    """Per-rule options from ``[tool.reprolint.rules.RLxxx]``."""

    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()
    #: "error" or "warn"; None keeps the rule's default severity.
    severity: str | None = None


@dataclass(frozen=True)
class ArchitectureConfig:
    """The layering contract from ``[tool.reprolint.architecture]``.

    ``allowed`` maps a package unit (first two dotted segments, or the
    bare module name for top-level modules) to the units its modules may
    import at module level.  ``leaf`` lists import-leaf units whose
    allowed edges may only reach other leaves.  When the table is absent
    (``present`` False) RL102 skips silently.
    """

    leaf: tuple[str, ...] = ()
    allowed: dict[str, tuple[str, ...]] = field(default_factory=dict)
    present: bool = False


def _module_matches(module_name: str, patterns: Iterable[str]) -> bool:
    """fnmatch a dotted module name against protocol ``modules`` globs."""
    return any(fnmatch(module_name, pattern) for pattern in patterns)


@dataclass(frozen=True)
class OrderProtocol:
    """One ``[[tool.reprolint.protocols.order]]`` entry (checked by RL301).

    At every call site matching the ``anchor`` event inside a scoped
    module, the ``before`` event (when set) must have occurred on every
    path reaching the site, and the ``after`` event (when set) must
    occur on every normal path from the site to function exit --
    directly or through a callee that may emit it.
    """

    anchor: str
    before: str = ""
    after: str = ""
    modules: tuple[str, ...] = ()
    message: str = ""

    def scoped(self, module_name: str) -> bool:
        return _module_matches(module_name, self.modules)


@dataclass(frozen=True)
class RequireProtocol:
    """One ``[[tool.reprolint.protocols.require]]`` entry (checked by RL302).

    Each listed function (fully dotted, ``module.func`` or
    ``module.Class.method``) must emit ``event`` on every path that
    reaches a normal return -- directly or through a callee that must
    emit it.
    """

    event: str
    functions: tuple[str, ...] = ()
    message: str = ""


@dataclass(frozen=True)
class TypestateProtocol:
    """One ``[[tool.reprolint.protocols.typestate]]`` entry (RL303).

    A local bound from a call matching a ``create`` pattern is traced;
    once a ``final`` method may have been called on it, calling any
    ``forbidden`` method is an error (use-after-close).
    """

    create: tuple[str, ...] = ()
    final: tuple[str, ...] = ()
    forbidden: tuple[str, ...] = ()
    modules: tuple[str, ...] = ()
    message: str = ""

    def scoped(self, module_name: str) -> bool:
        return _module_matches(module_name, self.modules)


@dataclass(frozen=True)
class ProtocolConfig:
    """The declarative protocol table from ``[tool.reprolint.protocols]``."""

    events: dict[str, tuple[str, ...]] = field(default_factory=dict)
    orders: tuple[OrderProtocol, ...] = ()
    requires: tuple[RequireProtocol, ...] = ()
    typestates: tuple[TypestateProtocol, ...] = ()
    present: bool = False

    def order_scoped(self, module_name: str) -> bool:
        """Is any ordering contract in force for ``module_name``?"""
        return any(order.scoped(module_name) for order in self.orders)

    def typestate_scoped(self, module_name: str) -> bool:
        """Is any typestate contract in force for ``module_name``?"""
        return any(ts.scoped(module_name) for ts in self.typestates)


def _id_matches(rule_id: str, patterns: Iterable[str]) -> bool:
    """Exact id or ``RL2*``-style glob membership."""
    return any(
        rule_id == pattern or ("*" in pattern and fnmatch(rule_id, pattern))
        for pattern in patterns
    )


@dataclass(frozen=True)
class LintConfig:
    """Resolved reprolint configuration."""

    select: tuple[str, ...] = ()
    ignore: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()
    rule_configs: dict[str, RuleConfig] = field(default_factory=dict)
    architecture: ArchitectureConfig = field(default_factory=ArchitectureConfig)
    protocols: ProtocolConfig = field(default_factory=ProtocolConfig)
    warn_unused_suppressions: bool = False

    def rule_enabled(self, rule_id: str) -> bool:
        if self.select and not _id_matches(rule_id, self.select):
            return False
        return not _id_matches(rule_id, self.ignore)

    def path_excluded(self, path: str) -> bool:
        return _matches(path, self.exclude)

    def rule_applies(self, rule: ScopedRule, path: str) -> bool:
        """Does ``rule`` run on ``path``, honouring include/exclude scoping?"""
        rule_cfg = self.rule_configs.get(rule.rule_id, RuleConfig())
        include = rule_cfg.include or rule.default_include
        if include and not _matches(path, include):
            return False
        if _matches(path, rule.default_exclude):
            return False
        return not _matches(path, rule_cfg.exclude)

    def severity_for(self, rule_id: str, default: str = "error") -> str:
        """Effective severity of a rule: config override or its default."""
        rule_cfg = self.rule_configs.get(rule_id)
        if rule_cfg is not None and rule_cfg.severity is not None:
            return rule_cfg.severity
        return default

    def with_overrides(
        self,
        select: Sequence[str] | None = None,
        ignore: Sequence[str] | None = None,
        warn_unused_suppressions: bool | None = None,
    ) -> "LintConfig":
        return LintConfig(
            select=tuple(select) if select else self.select,
            ignore=tuple(ignore) if ignore is not None and ignore else self.ignore,
            exclude=self.exclude,
            rule_configs=dict(self.rule_configs),
            architecture=self.architecture,
            protocols=self.protocols,
            warn_unused_suppressions=(
                self.warn_unused_suppressions
                if warn_unused_suppressions is None
                else warn_unused_suppressions
            ),
        )


def find_pyproject(start: Path | None = None) -> Path | None:
    """Walk up from ``start`` (default cwd) looking for ``pyproject.toml``."""
    current = (start or Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def _str_tuple(raw: object) -> tuple[str, ...]:
    if isinstance(raw, str):
        return (raw,)
    if isinstance(raw, (list, tuple)):
        return tuple(str(item) for item in raw)
    return ()


def _parse_protocols(table: dict[str, object]) -> ProtocolConfig:
    """Build a :class:`ProtocolConfig` from ``[tool.reprolint.protocols]``."""
    if not table:
        return ProtocolConfig()
    events_raw = table.get("events", {})
    events = (
        {name: _str_tuple(patterns) for name, patterns in events_raw.items()}
        if isinstance(events_raw, dict)
        else {}
    )
    orders = []
    for entry in table.get("order", ()) or ():
        if isinstance(entry, dict) and entry.get("anchor"):
            orders.append(
                OrderProtocol(
                    anchor=str(entry["anchor"]),
                    before=str(entry.get("before", "")),
                    after=str(entry.get("after", "")),
                    modules=_str_tuple(entry.get("modules", ())),
                    message=str(entry.get("message", "")),
                )
            )
    requires = []
    for entry in table.get("require", ()) or ():
        if isinstance(entry, dict) and entry.get("event"):
            requires.append(
                RequireProtocol(
                    event=str(entry["event"]),
                    functions=_str_tuple(entry.get("functions", ())),
                    message=str(entry.get("message", "")),
                )
            )
    typestates = []
    for entry in table.get("typestate", ()) or ():
        if isinstance(entry, dict):
            typestates.append(
                TypestateProtocol(
                    create=_str_tuple(entry.get("create", ())),
                    final=_str_tuple(entry.get("final", ())),
                    forbidden=_str_tuple(entry.get("forbidden", ())),
                    modules=_str_tuple(entry.get("modules", ())),
                    message=str(entry.get("message", "")),
                )
            )
    return ProtocolConfig(
        events=events,
        orders=tuple(orders),
        requires=tuple(requires),
        typestates=tuple(typestates),
        present=True,
    )


def _normalise_severity(raw: object) -> str | None:
    if raw in ("error",):
        return "error"
    if raw in ("warn", "warning"):
        return "warn"
    return None


def load_config(pyproject: Path | None = None) -> LintConfig:
    """Load ``[tool.reprolint]``; missing file or table yields defaults."""
    if pyproject is None:
        pyproject = find_pyproject()
    if pyproject is None or not pyproject.is_file():
        return LintConfig()
    with open(pyproject, "rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("reprolint", {})
    rule_configs: dict[str, RuleConfig] = {}
    for rule_id, entry in table.get("rules", {}).items():
        rule_configs[rule_id] = RuleConfig(
            include=tuple(entry.get("include", ())),
            exclude=tuple(entry.get("exclude", ())),
            severity=_normalise_severity(entry.get("severity")),
        )
    arch_table = table.get("architecture", {})
    architecture = ArchitectureConfig(
        leaf=tuple(arch_table.get("leaf", ())),
        allowed={
            unit: tuple(targets)
            for unit, targets in arch_table.get("allowed", {}).items()
        },
        present=bool(arch_table),
    )
    protocols_table = table.get("protocols", {})
    protocols = _parse_protocols(
        protocols_table if isinstance(protocols_table, dict) else {}
    )
    return LintConfig(
        select=tuple(table.get("select", ())),
        ignore=tuple(table.get("ignore", ())),
        exclude=tuple(table.get("exclude", ())),
        rule_configs=rule_configs,
        architecture=architecture,
        protocols=protocols,
        warn_unused_suppressions=bool(
            table.get(
                "warn-unused-suppressions",
                table.get("warn_unused_suppressions", False),
            )
        ),
    )
