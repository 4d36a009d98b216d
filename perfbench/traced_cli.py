"""Run one `hurwitz` CLI invocation in this interpreter, with spans around
the public functions of each module.

    python3 perfbench/traced_cli.py TRACE_OUT ARG...

ARG... are the CLI arguments, exactly as `hurwitz ARG...` takes them;
`src/` must be on PYTHONPATH.  Stdout and the exit status are the CLI's own,
so a traced invocation is checked like an untraced one.  When the CLI
returns, TRACE_OUT receives one JSON object:

    spans     [name, start, end, parent, note], one per wrapped call.
              parent is the index of the enclosing span, or -1.  note is a
              per-call number: the branch count of the requested key for
              engine.hurwitz_number, the oracle's own work formula for
              oracle.count_covers_bruteforce, the record count returned by
              analysis.coefficient_audit, the entry count loaded or saved
              for engine.cache_load and engine.HurwitzCache.save.
    counters  sizes of the module-level memos after the invocation.
    missing   wrapped names this source tree does not define.

Each invocation needs a fresh interpreter: the memos (`symfunc._char_memo`,
`engine._operator_power`, `engine._log_tables`) live in module globals and
would carry work over from one call to the next.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from math import comb, factorial

SPANS: list[list] = []
_STACK: list[int] = []


def _wrap(name, fn, note=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(SPANS)
        SPANS.append([name, time.perf_counter(), None, _STACK[-1] if _STACK else -1, None])
        _STACK.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            _STACK.pop()
            SPANS[idx][2] = time.perf_counter()
        if note is not None:
            try:
                SPANS[idx][4] = note(args, result)
            except (TypeError, ValueError, AttributeError):
                pass
        return result

    return wrapper


def _branch_count(args, _result):
    g, mu = args[0], args[1]
    return 2 * g - 2 + len(mu) + sum(mu)


def _oracle_work(args, _result):
    # The oracle's own refusal formula: class size of mu times C(d, 2)^r,
    # plus the one-off cost of indexing the symmetric group.
    d, r, mu = args[0], args[1], args[2]
    z = 1
    for part in set(mu):
        m = list(mu).count(part)
        z *= part**m * factorial(m)
    return factorial(d) // z * comb(d, 2) ** r + factorial(d) * (comb(d, 2) + 1)


def _record_count(_args, result):
    return len(result.records)


def _loaded(_args, result):
    return len(result)


def _saved(args, _result):
    return len(args[0])


# (module, qualified name, note) for every function the benchmark times.
TARGETS = [
    ("engine", "hurwitz_number", _branch_count),
    ("engine", "covering_series", None),
    ("engine", "covering_series_charsum", None),
    ("engine", "disconnected_count_charsum", None),
    ("engine", "GenSeries.log", None),
    ("engine", "cache_load", _loaded),
    ("engine", "HurwitzCache.save", _saved),
    ("symfunc", "character", None),
    ("symfunc", "cut_and_join", None),
    ("partitions", "partitions_of", None),
    ("analysis", "parity_scan", None),
    ("analysis", "integrality_audit", None),
    ("analysis", "identity_suite", None),
    ("analysis", "coefficient_audit", _record_count),
    ("oracle", "count_covers_bruteforce", _oracle_work),
]


def install() -> list[str]:
    """Replace every target wherever a hurwitz module looks it up.

    A function bound by `from .engine import hurwitz_number` is a separate
    global of the importing module, and `engine._SERIES_BUILDERS` holds the
    series builders by value, so each module's globals and module-level
    dicts are searched for the original object.  Methods are replaced on
    their class.  Returns the targets this source tree lacks.
    """
    modules = [m for n, m in sys.modules.items() if n == "hurwitz" or n.startswith("hurwitz.")]
    missing = []
    for mod_name, qualname, note in TARGETS:
        owner = sys.modules.get(f"hurwitz.{mod_name}")
        span_name = f"{mod_name}.{qualname}"
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(owner, cls_name, None)
            if cls is None or attr not in vars(cls):
                missing.append(span_name)
                continue
            setattr(cls, attr, _wrap(span_name, vars(cls)[attr], note))
            continue
        original = getattr(owner, qualname, None)
        if original is None:
            missing.append(span_name)
            continue
        wrapper = _wrap(span_name, original, note)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
    return missing


def memo_counters() -> dict[str, int]:
    engine = sys.modules["hurwitz.engine"]
    symfunc = sys.modules["hurwitz.symfunc"]
    counters = {}
    char_memo = getattr(symfunc, "_char_memo", None)
    if char_memo is not None:
        counters["symfunc.char_memo.entries"] = len(char_memo)
    op_power = getattr(engine, "_operator_power", None)
    if op_power is not None and hasattr(op_power, "cache_info"):
        info = op_power.cache_info()
        counters["engine.operator_power.hits"] = info.hits
        counters["engine.operator_power.misses"] = info.misses
    log_tables = getattr(engine, "_log_tables", None)
    if log_tables is not None:
        counters["engine.log_table.terms"] = sum(len(t.coeffs) for t in log_tables.values())
    return counters


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import hurwitz.cli as cli

    SPANS.append(["cli.import", start, time.perf_counter(), -1, None])
    missing = install()
    run = _wrap("cli.main", cli.main)
    try:
        return run(argv)
    finally:
        sys.stdout.flush()
        with open(trace_out, "w", encoding="ascii") as fh:
            json.dump({"spans": SPANS, "counters": memo_counters(), "missing": missing}, fh)


if __name__ == "__main__":
    raise SystemExit(main())
