"""Source guards over the package's modules: every name a module imports is read
somewhere in it, no module keeps a memo of its own, the cache has one
conflict rule and no state but its value map, its path and the ledger's
split profiles, the characters come from one Murnaghan-Nakayama recursion
on bead masks, the integrality theorem guards its one door, each fact
about a Hurwitz key is written once, in `partitions`, every message that
names a profile prints it through `format_partition`, each container has
one checked door, and the API keeps no knob that no caller sets."""

import ast
import inspect
import re
from fractions import Fraction
from pathlib import Path

import pytest

import hurwitz
from hurwitz import analysis, engine, oracle
from hurwitz.engine import GenSeries, HurwitzCache, hurwitz_number
from hurwitz.symfunc import PowerSumPoly

MODULES = sorted(p for p in Path(hurwitz.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import (other than `from __future__`) that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom math import comb, factorial as f\nf(3)\n"
    assert unused_imports(source) == ["os", "comb"]


# The logged covering series are asked for one key at a time by
# `connected_from_log`, whose callers have no build to own the table, so
# `engine._log_tables` is the one memo kept for the life of the process.
ALLOWED_MEMOS = {("engine.py", "_log_tables")}
MEMO_DECORATORS = {"lru_cache", "cache"}
EMPTY_CONTAINERS = {"dict", "list", "set"}


def _called_name(node: ast.expr) -> str | None:
    """The name a decorator or call refers to: `f`, `functools.f`, or either called."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_empty_container(node: ast.expr | None) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    if not isinstance(node, ast.Call) or node.keywords:
        return False
    name = _called_name(node)
    if name == "defaultdict":
        return len(node.args) <= 1  # a factory but no initial items
    return name in EMPTY_CONTAINERS and not node.args


def module_memos(source: str) -> list[str]:
    """Functions decorated with `lru_cache` or `cache`, and module-level names
    bound to an empty dict, list, set or defaultdict."""
    tree = ast.parse(source)
    found = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef)
        and any(_called_name(dec) in MEMO_DECORATORS for dec in node.decorator_list)
    ]
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if _is_empty_container(value):
            found += [t.id for t in targets if isinstance(t, ast.Name)]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_keeps_no_memo_of_its_own(path):
    memos = module_memos(path.read_text(encoding="utf-8"))
    assert [name for name in memos if (path.name, name) not in ALLOWED_MEMOS] == []


def test_the_guard_finds_a_module_memo():
    source = (
        "import functools\nfrom collections import defaultdict\n"
        "@functools.lru_cache(maxsize=None)\ndef a(): pass\n"
        "@functools.cache\ndef b(): pass\n"
        "class K:\n    @lru_cache\n    def c(self): pass\n"
        "d: dict[int, int] = {}\ne = f = []\ng = set()\nh = dict()\ni = defaultdict(list)\n"
        "kept = {1: 2}\nitems = [3]\nfrom_data = dict(x=1)\nnot_a_memo = tuple()\n"
        "def local():\n    memo = {}\n    return memo\n"
    )
    assert module_memos(source) == ["a", "b", "c", "d", "e", "f", "g", "h", "i"]


def recursions(source: str) -> list[str]:
    """Functions that call themselves by name: `Class.method`, `function`, or
    `outer.inner` when nested."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef):
                calls = (n for n in ast.walk(child) if isinstance(n, ast.Call))
                if any(_called_name(call) == child.name for call in calls):
                    found.append(prefix + child.name)
            if isinstance(child, ast.ClassDef | ast.FunctionDef | ast.AsyncFunctionDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def _function(source: str, name: str) -> ast.FunctionDef:
    return next(n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef) and n.name == name)


def module_calls(source: str, name: str) -> set[str]:
    """The module-level functions of `source` that its function `name` calls."""
    defined = {n.name for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)}
    return {_called_name(n) for n in ast.walk(_function(source, name)) if isinstance(n, ast.Call)} & defined


SEQUENCE_CALLS = {"list", "set", "sorted", "tuple"}
SEQUENCE_NODES = (ast.List, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def sequences_built(source: str, name: str) -> list[str]:
    """The lists, sets, comprehensions and sorted or converted sequences that
    the module-level function `name` builds, by node or callee name."""
    found = []
    for node in ast.walk(_function(source, name)):
        if isinstance(node, SEQUENCE_NODES):
            found.append(type(node).__name__)
        elif isinstance(node, ast.Call) and _called_name(node) in SEQUENCE_CALLS:
            found.append(_called_name(node))
    return found


def generators(source: str) -> list[str]:
    """Module-level functions that yield."""
    return [
        n.name
        for n in ast.parse(source).body
        if isinstance(n, ast.FunctionDef) and any(isinstance(x, ast.Yield | ast.YieldFrom) for x in ast.walk(n))
    ]


def test_src_holds_one_murnaghan_nakayama_recursion():
    # The characters are one recursion on bead masks: a border strip is two
    # bit flips and a popcount, with no strip helper and no beta list, set or
    # sorted tuple per strip; `engine` reaches characters only through it.
    found = [(path.name, name) for path in MODULES for name in recursions(path.read_text(encoding="utf-8"))]
    assert found == [("partitions.py", "partitions_of.build"), ("symfunc.py", "_character")]
    symfunc = next(p for p in MODULES if p.name == "symfunc.py").read_text(encoding="utf-8")
    assert module_calls(symfunc, "_character") == {"_character"}
    assert sequences_built(symfunc, "_character") == []
    assert generators(symfunc) == []
    engine_source = next(p for p in MODULES if p.name == "engine.py").read_text(encoding="utf-8")
    assert callers_of(engine_source, "_character") == ["_charsum_counts"]
    assert callers_of(engine_source, "bead_mask") == ["_irreps"]
    assert callers_of(engine_source, "character") == callers_of(engine_source, "schur_in_power_sums") == []


def test_the_guard_finds_a_beta_list_character():
    source = (
        "def _strip_removals(lam, size):\n"
        "    beta = [lam[i] + len(lam) - 1 - i for i in range(len(lam))]\n"
        "    occupied = set(beta)\n"
        "    for b in beta:\n        yield 1, tuple(sorted(beta))\n"
        "def _character(lam, mu, memo):\n"
        "    return sum(s * _character(r, mu[1:], memo) for s, r in _strip_removals(lam, mu[0]))\n"
        "class C:\n    def walk(self):\n        def inner():\n            return inner()\n        return self.walk()\n"
    )
    assert recursions(source) == ["_character", "C.walk", "C.walk.inner"]
    assert module_calls(source, "_character") == {"_character", "_strip_removals"}
    assert sequences_built(source, "_character") == ["GeneratorExp"]
    assert sequences_built(source, "_strip_removals") == ["ListComp", "set", "tuple", "sorted"]
    assert generators(source) == ["_strip_removals"]


def conflict_raises(source: str) -> int:
    """How many `raise` statements raise CacheConflictError."""
    return sum(
        1
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise) and node.exc is not None and _called_name(node.exc) == "CacheConflictError"
    )


def test_the_guard_counts_conflict_raises():
    source = (
        "class C:\n"
        "    def check(self):\n        raise CacheConflictError('a')\n"
        "def load():\n    if x:\n        raise CacheConflictError\n    raise ValueError('b')\n"
    )
    assert conflict_raises(source) == 2


def places(source: str, match) -> list[str]:
    """Where a node that `match` accepts occurs, once per node: `Class.method`,
    `function` (`outer.inner` when nested), or `<module>` outside every function."""
    found = []

    def visit(node: ast.AST, where: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, where, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef):
                visit(child, prefix + child.name, f"{prefix}{child.name}.")
            else:
                if match(child):
                    found.append(where)
                visit(child, where, prefix)

    visit(ast.parse(source), "<module>", "")
    return found


def callers_of(source: str, name: str) -> list[str]:
    """Where `name` is called, once per call, named as `places` names them."""
    return places(source, lambda node: isinstance(node, ast.Call) and _called_name(node) == name)


def test_the_integrality_theorem_is_checked_at_the_cache_door_and_by_its_audit():
    # `HurwitzCache._store` refuses every value from outside the recursion that
    # the theorem rules out, so the CLI loads through `cache_load` alone.
    calls = [
        (path.name, caller)
        for path in MODULES
        for caller in callers_of(path.read_text(encoding="utf-8"), "integrality_check")
    ]
    assert calls == [("analysis.py", "integrality_audit"), ("engine.py", "HurwitzCache._store")]
    cli = next(p for p in MODULES if p.name == "cli.py").read_text(encoding="utf-8")
    assert set(callers_of(cli, "cache_load")) == {"_dispatch"}


def test_the_cache_has_one_conflict_rule_and_save_stores_the_file_through_it():
    # Every value that enters a cache from outside the recursion goes through
    # `_store`'s one conflict check: `insert`'s, each line `cache_load` reads,
    # and each entry of the file `save` reloads before it replaces it.
    source = next(p for p in MODULES if p.name == "engine.py").read_text(encoding="utf-8")
    assert conflict_raises(source) == 1
    assert callers_of(source, "_store") == ["HurwitzCache.insert", "HurwitzCache.save", "cache_load"]
    assert callers_of(source, "cache_load") == ["HurwitzCache.save"]
    assert "merge" not in vars(HurwitzCache)


def test_the_cli_loads_and_saves_the_cache_in_one_sequence():
    # `_dispatch` loads once for the four computing commands and once for
    # `cache stats`, and saves once, after the output is flushed.
    cli = next(p for p in MODULES if p.name == "cli.py").read_text(encoding="utf-8")
    assert callers_of(cli, "cache_load") == ["_dispatch", "_dispatch"]
    assert callers_of(cli, "save") == ["_dispatch"]


def test_the_guard_finds_each_caller():
    source = (
        "class C:\n    def _store(self):\n        integrality_check(1)\n"
        "def audit():\n    def inner():\n        return analysis.integrality_check(2)\n    return inner\n"
        "x = [integrality_check(3)]\n"
        "def load(p):\n    return cache_load(p)\n"
        "def main():\n    return load(p)\n"
    )
    assert callers_of(source, "integrality_check") == ["C._store", "audit.inner", "<module>"]
    assert callers_of(source, "cache_load") == ["load"]


# The expressions that spell out a fact about a Hurwitz key: the branch count,
# the printed profile and the part rule.  Each is written once, in `partitions`;
# `HurwitzCache.save` joins a profile for its own JSON line format.
KEY_FACTS = {
    "branch count": r"2 \* \w+ - 2 \+ len\(.+\) \+ sum\(.+\)",
    "printed profile": r"','\.join\(map\(str, .+\)\)",
    "part rule": r"type\((\w+)\) is int and \1 >= 1",
}


def spelled_out(source: str, fact: str) -> list[str]:
    """Where an expression spells out `fact`, named as `places` names them."""
    pattern = re.compile(KEY_FACTS[fact])
    return places(source, lambda node: isinstance(node, ast.expr) and pattern.fullmatch(ast.unparse(node)))


@pytest.mark.parametrize(
    "fact, homes",
    [
        ("branch count", [("partitions.py", "branch_count")]),
        ("printed profile", [("engine.py", "HurwitzCache.save"), ("partitions.py", "format_partition")]),
        ("part rule", [("partitions.py", "sort_to_partition")]),
    ],
)
def test_each_fact_about_a_key_is_written_once(fact, homes):
    found = [
        (path.name, where) for path in MODULES for where in spelled_out(path.read_text(encoding="utf-8"), fact)
    ]
    assert found == homes


PROFILE_NAMES = {"mu", "lam"}


def raw_profiles(source: str) -> list[str]:
    """Where an f-string prints a profile raw, named as `places` names them:
    `mu=` followed by a value that is not a `format_partition(...)` call, or a
    bare `{mu}` or `{lam}`, with no conversion or format spec."""

    def bare(value: ast.AST) -> bool:
        return (
            isinstance(value, ast.FormattedValue)
            and value.conversion == -1
            and value.format_spec is None
            and isinstance(value.value, ast.Name)
            and value.value.id in PROFILE_NAMES
        )

    def raw(node: ast.AST) -> bool:
        if not isinstance(node, ast.JoinedStr):
            return False
        parts = node.values
        return any(map(bare, parts)) or any(
            isinstance(text, ast.Constant)
            and re.search(r"\bmu=\(?$", text.value)
            and isinstance(value, ast.FormattedValue)
            and _called_name(value.value) != "format_partition"
            for text, value in zip(parts, parts[1:])
        )

    return places(source, raw)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_message_prints_a_profile_through_format_partition(path):
    assert raw_profiles(path.read_text(encoding="utf-8")) == []


def test_the_guard_finds_a_profile_printed_raw():
    source = (
        "def a(mu):\n    return f'at mu={mu}'\n"
        "def b(mu):\n    return f'at mu=({format_partition(mu)}) ok'\n"
        "class C:\n    def c(self, key):\n        raise ValueError(f'g={key[0]}, mu=({key[1]})')\n"
        "d = f'{mu=}'\n"
        "def e(lam):\n    return f'lam={lam!r} emu={lam!r}'\n"
        "def f(mu):\n    shown = format_partition(mu)\n    return f'mu=({shown})'\n"
        "def g(lam, mu):\n    return f'|{lam}| != |{mu}|'\n"
        "def h(lam, mu, nu):\n    return f'{lam!r} {mu:>8} {nu} {len(mu)}'\n"
    )
    assert raw_profiles(source) == ["a", "C.c", "<module>", "f", "g"]


def test_the_guard_finds_each_spelling_of_a_key_fact():
    source = (
        "def r(g, mu):\n    return 2 * g - 2 + len(mu) + sum(mu)\n"
        "def w(g, lam):\n    return 2 * g - 2 + len(lam)\n"
        "class C:\n    def show(self, mu):\n        return f'({\",\".join(map(str, mu))})'\n"
        "csv = ' '.join(map(str, mu))\n"
        "ok = all(type(q) is int and q >= 1 for q in t)\n"
        "loose = all(type(q) is int and p >= 1 for q in t)\n"
    )
    assert spelled_out(source, "branch count") == ["r"]
    assert spelled_out(source, "printed profile") == ["C.show"]
    assert spelled_out(source, "part rule") == ["<module>"]


def test_the_oracle_bound_is_a_module_constant():
    assert list(inspect.signature(oracle.count_covers_bruteforce).parameters) == [
        "d", "r", "mu", "connected", "groups"
    ]


@pytest.mark.parametrize(
    "name", ["integrality_audit", "identity_suite", "cross_method_audit", "oracle_audit", "parity_scan"]
)
def test_each_audit_is_handed_the_runs_cache(name):
    cache = inspect.signature(getattr(analysis, name)).parameters["cache"]
    assert cache.default is inspect.Parameter.empty


def test_the_series_keeps_only_the_methods_the_commands_call():
    methods = {
        name
        for name, value in vars(GenSeries).items()
        if callable(value) and (name.startswith("__") or not name.startswith("_"))
    }
    assert methods == {"__init__", "__getitem__", "log"}
    # the builders write `coeffs` directly; a read is the one checked door
    assert not hasattr(engine, "_series_key")


def test_monomial_takes_only_a_profile():
    # a coefficient is a scalar product: `PowerSumPoly.monomial(mu) * c`
    assert list(inspect.signature(PowerSumPoly.monomial).parameters) == ["mu"]


def test_the_cache_keeps_one_value_map(tmp_path):
    # One map holds the values, as 2h; the rest are the path and `_ledger`'s
    # table of split profiles.  No writer sets a flag beside the map: what a
    # run has not saved is read off the map's growth.
    state = {"twice", "path", "_grown"}
    path = str(tmp_path / "cache.jsonl")
    cache = HurwitzCache(path)
    assert set(vars(cache)) == state
    hurwitz_number(1, (2, 1), cache)
    cache.insert(0, (3,), Fraction(1))
    other = HurwitzCache(path)
    other.insert(1, (3,), Fraction(9))
    other.save()
    cache.save()  # stores the entry `other` saved
    assert (1, (3,)) in cache.twice
    assert set(vars(cache)) == state
