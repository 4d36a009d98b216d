"""Mutation gate: every check in `src/hurwitz` can fail in a tier-1 test.

Each mutant below is a one-line text edit that weakens one check.  For each,
the script copies the tree into a temporary directory, applies the edit and
runs tier-1 there with `-x`, with Hypothesis tests deselected, so that a kill
never rests on a random draw.  It prints one line per mutant: `killed` (with
the first failing test), `SURVIVED`, or `equivalent` (with the reason the
edit cannot change behaviour; such a mutant is not run).

An unmutated copy runs first as the control and must pass.  The script exits
1 when the control fails, when a mutant's text is not found exactly once, or
when a mutant not marked equivalent survives.  Run it from anywhere:

    python tests/mutants.py

pytest does not collect it: its name does not match `test_*.py`.  A PR that
adds a check adds its mutant here, with a test that kills it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/hurwitz, text, its replacement, reason if equivalent)
MUTANTS = [
    (
        "cache_load: a zero denominator passes the sign check",
        "engine.py", "if den <= 0:", "if den < 0:",
        "Fraction(num, 0) raises ZeroDivisionError inside the same per-line check",
    ),
    (
        "parity_scan: candidates need no even branch count",
        "analysis.py", "candidate = r % 2 == 0 and len(mu)", "candidate = len(mu)",
        "at most two parts, all odd, make d + len(mu) and so r = 2g - 2 + d + len(mu) even",
    ),
    (
        "_store: the integrality theorem guards no cached value",
        "engine.py", "if not integrality_check(g, mu, value)[1]:", "if False:", None,
    ),
    (
        "cache_load: a fraction need not be in lowest terms",
        "engine.py", "if value.denominator != den:", "if False:", None,
    ),
    (
        "cache_load: a record may carry extra fields",
        "engine.py", "if len(rec) != 4:", "if False:", None,
    ),
    (
        "GenSeries.log: any constant term is taken",
        "engine.py", "if self[(0, 0, ())] != 1:", "if False:", None,
    ),
    (
        "_ledger: a distinct merge drops its multiplicity factor",
        "engine.py", "2 * (m[a + b] + 1) * (a + b)", "2 * (a + b)", None,
    ),
    (
        "_ledger: a distinct genus-drop cut drops beta's multiplicity factor",
        "engine.py", "* (m[alpha] + 1) * (m[beta] + 1)", "* (m[alpha] + 1)", None,
    ),
    (
        "_term_ok: an odd twice-coefficient passes",
        "analysis.py", "ok = twice % 2 == 0 and twice >= 0", "ok = twice >= 0", None,
    ),
    (
        "hurwitz_key: genus -1 passes",
        "partitions.py", "if g < 0:", "if g < -1:", None,
    ),
    (
        "cover_args: mu need not be a partition of d",
        "partitions.py", "if sum(mu) != d or d < 1:", "if d < 1:", None,
    ),
    (
        "hurwitz_number: 8h need only be even",
        "engine.py", "if eight_h % 4:", "if eight_h % 2:", None,
    ),
    (
        "_term_ok: an odd central binomial passes",
        "analysis.py", "binomial is not None and binomial % 2 == 0", "binomial is not None", None,
    ),
    (
        "parity_scan: the published list always matches",
        "analysis.py", "                got == expected,\n", "                True,\n", None,
    ),
    (
        "count_covers_bruteforce: the r levels leave the work count",
        "oracle.py", "(1 + r * connected) + r + factorial(d)", "(1 + r * connected) + factorial(d)", None,
    ),
    (
        "count_covers_bruteforce: a connected search's transitivity tests leave the work count",
        "oracle.py", "n_trans**r * (1 + r * connected)", "n_trans**r", None,
    ),
    (
        "count_covers_bruteforce: no refusal from 2^(d-1) <= d!",
        "oracle.py", "if (d - 1 >= bits or r *", "if (r *", None,
    ),
    (
        "count_covers_bruteforce: no refusal from 2^(r (bits(C(d,2)) - 1)) <= C(d,2)^r",
        "oracle.py", "d - 1 >= bits or r * (n_trans.bit_length() - 1) >= bits or", "d - 1 >= bits or", None,
    ),
    (
        "count_covers_bruteforce: no refusal from r <= steps",
        "oracle.py", " or r > WORK_BOUND\n", "\n", None,
    ),
]


def tier1(tree: Path) -> tuple[bool, str]:
    """Run tier-1's deterministic tests in `tree`: (passed, first failing test)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-m", "not hypothesis"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = [line.split(" - ")[0] for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode == 0, failed[0] if failed else f"pytest exit {proc.returncode}"


def copy_tree(dest: Path) -> Path:
    tree = dest / "tree"
    shutil.copytree(
        ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench")
    )
    return tree


def main() -> int:
    start = time.perf_counter()
    faults = 0
    with tempfile.TemporaryDirectory() as tmp:
        passed, first = tier1(copy_tree(Path(tmp)))
    print(f"{'control' if passed else 'CONTROL FAILED'}: unmutated tree{'' if passed else f' ({first})'}", flush=True)
    if not passed:
        return 1
    for name, file, old, new, reason in MUTANTS:
        text = (ROOT / "src" / "hurwitz" / file).read_text(encoding="utf-8")
        if text.count(old) != 1:
            print(f"{'MISSING':<10} {name}: {old!r} occurs {text.count(old)} times in {file}", flush=True)
            faults += 1
            continue
        if reason is not None:
            print(f"{'equivalent':<10} {name}: {reason}", flush=True)
            continue
        with tempfile.TemporaryDirectory() as tmp:
            tree = copy_tree(Path(tmp))
            (tree / "src" / "hurwitz" / file).write_text(text.replace(old, new), encoding="utf-8")
            passed, first = tier1(tree)
        faults += passed
        print(f"{'SURVIVED' if passed else 'killed':<10} {name}{'' if passed else f' ({first})'}", flush=True)
    print(f"{len(MUTANTS)} mutants, {faults} faults, {time.perf_counter() - start:.0f} s")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
