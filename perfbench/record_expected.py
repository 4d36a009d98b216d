"""Rewrite perfbench/expected.json from the outputs of the current source.

    python3 perfbench/record_expected.py

The stored digests are what the benchmark checks every output against.
Rewrite them only when a change of output is intended and reviewed: the
CLI's stdout and cache files are meant to be byte-stable.
"""

from __future__ import annotations

import json
import re
import shutil
import tempfile
from pathlib import Path

import run


def record(args: list[str], work: Path) -> tuple[run.Invocation, bytes]:
    cache = work / "cache.jsonl"
    cache.unlink(missing_ok=True)
    call = run.Invocation([*args, "--cache", str(cache)], work, False)
    if call.rc != 0:
        call.complain("cannot record a failing command")
        raise SystemExit(1)
    return call, cache.read_bytes()


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT_DIR))
    try:
        expected: dict = {}
        stdout: dict[str, bytes] = {}
        for name, args in [*run.COLD.items(), ("session-start", run.SESSION_START)]:
            call, cache = record(args, work)
            stdout[name] = call.stdout
            expected[name] = {
                "command": ["hurwitz", *args],
                "stdout_sha256": run.sha256(call.stdout),
                "cache_sha256": run.sha256(cache),
                # One operation is one (g, mu) value in the saved cache ...
                "ops": cache.count(b"\n"),
            }
            if name == "parity-r20-cold":
                expected["r20_cache_lines"] = [run.line_digest(x) for x in cache.splitlines()]
        # ... except on oracle-r5, where it is one brute-force comparison.
        found = re.search(rb"(\d+) brute-force comparisons", stdout["oracle-r5"])
        expected["oracle-r5"]["ops"] = int(found.group(1))
        (run.HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
