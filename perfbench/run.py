"""Benchmark of the `hurwitz` CLI, run the way users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every invocation is a fresh child
process, one at a time, with `PYTHONPATH=src`, its own `--cache` file and no
`HURWITZ_CACHE`.  Every output is checked against the digests stored in
`perfbench/expected.json`; a nonzero exit or a mismatch counts the
invocation's operations as failed.

With `--trace 0` the run repeats the workload for S seconds and reports the
end-to-end metrics of BENCHMARK.json.  With `--trace 1` it alternates an
untraced pass with a traced one (each child runs `traced_cli.py`, which
times the calls into each module from outside) and reports the per-layer
metrics, checks that the workload still spends its time in the layer it is
meant to stress, and writes the spans of the last traced pass to
`.perfbench/trace-<workload>.json`.

The last line of stdout is the JSON result; the lines before it give the
run context.  The work directory under `.perfbench/` is removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from traced_cli import TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
CLI_ENTRY = "from hurwitz.cli import main; raise SystemExit(main())"  # the `hurwitz` console script
TRACED_CLI = HERE / "traced_cli.py"

# Workloads that run one command on an empty cache.  The value is the
# command; its stdout and saved cache are compared with expected.json.
COLD = {
    # The recursion (engine.hurwitz_number) is ~99% of the time; series,
    # characters and the oracle are not touched.
    "parity-r20-cold": ["parity", "--rmax", "20", "--allow-long"],
    # The series builders and GenSeries.log are ~97%; the recursion ~2%.
    "verify-r10-cold": ["verify", "--rmax", "10"],
    # oracle.count_covers_bruteforce is ~96%.
    "oracle-r5": ["verify", "--rmax", "5", "--with-oracle"],
}
# session-warm: seeded `compute` calls against one persistent cache that
# starts with every key of branch count <= 18; 6 of the 40 calls ask for
# keys of branch count 19 or 20, which are computed and saved.  A miss takes
# about 2.5 times as long as a hit, so with a quarter of misses call_p75_s
# would sit on the step between the two; at 6 in 40 it stays among the hits.
SESSION_START = ["parity", "--rmax", "18", "--allow-long"]
SESSION_CALLS = 40
SESSION_MISSES = 6
SESSION_MISS_R = (19, 20)
WORKLOADS = [*COLD, "session-warm"]

# Traced-run check: the named spans must cover at least this share of the
# time spent in cli.main, or the workload no longer stresses its layer.
LAYER_SPLIT = {
    "parity-r20-cold": (("engine.hurwitz_number",), 0.90),
    "verify-r10-cold": (
        ("engine.covering_series", "engine.covering_series_charsum", "engine.GenSeries.log"),
        0.80,
    ),
    "oracle-r5": (("oracle.count_covers_bruteforce",), 0.90),
}

SETUP_SAMPLES = 5
RECURSION_BUCKETS = range(14, 21)
# Spans whose call count and inclusive time are reported as NAME.calls, NAME.s.
TIMED_SPANS = [f"{module}.{name}" for module, name, _ in TARGETS]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def line_digest(line: bytes) -> str:
    return hashlib.blake2b(line, digest_size=8).hexdigest()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HURWITZ_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def _drain(*pipes) -> list[bytes]:
    """Read every pipe to its end, whichever the child writes first."""
    chunks: dict = {pipe: [] for pipe in pipes}
    with selectors.DefaultSelector() as sel:
        for pipe in pipes:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    return [b"".join(chunks[pipe]) for pipe in pipes]


class Invocation:
    """One finished child process: exit code, wall time, peak RSS, stdout."""

    def __init__(self, args: list[str], work: Path, trace: bool):
        trace_path = work / "trace.json"
        if trace:
            cmd = [sys.executable, str(TRACED_CLI), str(trace_path), *args]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *args]
        # Output goes through pipes: truncating a file on this kind of
        # filesystem can wait for a flush, which would be timed as the CLI's.
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT
        )
        with proc.stdout, proc.stderr:
            self.stdout, self.stderr = _drain(proc.stdout, proc.stderr)
        # wait4 gives the child's own rusage, not a total over all children.
        _, status, usage = os.wait4(proc.pid, 0)
        self.seconds = time.perf_counter() - start
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024
        self.args = args
        self.spans = {"spans": [], "counters": {}, "missing": []}
        if trace and trace_path.exists():
            self.spans = json.loads(trace_path.read_text(encoding="ascii"))
            trace_path.unlink()

    def complain(self, why: str) -> None:
        print(f"FAILED: hurwitz {' '.join(self.args)}: {why} (exit {self.rc})", file=sys.stderr)
        tail = self.stderr.decode(errors="replace").strip().splitlines()[-5:]
        for line in tail:
            print(f"  | {line}", file=sys.stderr)


class Pass:
    """One pass over a workload: its invocations and how many ops failed."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.calls: list[Invocation] = []
        self.ops = 0
        self.failed = 0
        self.cache_file: Path | None = None

    @property
    def wall(self) -> float:
        return sum(c.seconds for c in self.calls)


# ---------------------------------------------------------------------------
# workloads


def cold_pass(name: str, expected: dict, work: Path, trace: bool) -> Pass:
    exp = expected[name]
    cache = work / "cache.jsonl"
    cache.unlink(missing_ok=True)
    run = Pass(trace)
    call = Invocation([*COLD[name], "--cache", str(cache)], work, trace)
    run.calls.append(call)
    run.ops = exp["ops"]
    run.cache_file = cache
    why = None
    if call.rc != 0:
        why = "nonzero exit"
    elif sha256(call.stdout) != exp["stdout_sha256"]:
        why = "stdout differs from the stored digest"
    elif not cache.exists() or sha256(cache.read_bytes()) != exp["cache_sha256"]:
        why = "saved cache differs from the stored digest"
    if why:
        call.complain(why)
        run.failed = run.ops
    return run


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def keys_with_branch_count(counts) -> list[tuple[int, tuple[int, ...]]]:
    """All (g, mu) whose branch count 2g - 2 + len(mu) + |mu| is in counts.

    Enumerated here rather than imported: the driver does not import the
    package it measures."""
    out = []
    for n in range(1, max(counts) + 2):
        for mu in _partitions(n):
            for r in counts:
                twice_g = r + 2 - len(mu) - n
                if twice_g >= 0 and twice_g % 2 == 0:
                    out.append((twice_g // 2, mu))
    return sorted(out)


def _parse_cache_line(line: bytes) -> tuple[tuple[int, tuple[int, ...]], str]:
    rec = json.loads(line)
    return (int(rec["g"]), tuple(rec["mu"])), str(Fraction(int(rec["num"]), int(rec["den"])))


class SessionChecker:
    """Checks a session's cache file and `compute` values.

    Every line of a saved cache must be a line of the reference cache of all
    keys with branch count <= 20 (stored as line digests), in the reference
    order, and every line of the verified starting cache must stay.  The
    value `compute` prints must equal the value of its key in the file.
    """

    def __init__(self, reference_lines: list[str], start: bytes):
        self.ref_pos = {d: i for i, d in enumerate(reference_lines)}
        self.values: dict[int, tuple[tuple, str]] = {}  # reference position -> (key, value)
        self.pos_of_key: dict[tuple, int] = {}
        self.start_pos = set()
        for line in start.splitlines():
            pos = self.ref_pos.get(line_digest(line))
            if pos is None:
                raise SystemExit("error: expected.json: a line of the starting cache is not in r20_cache_lines")
            self.start_pos.add(pos)
            self._learn(pos, line)
        self.present: set[int] = set(self.start_pos)
        self.last_sha = sha256(start)

    def _learn(self, pos: int, line: bytes) -> None:
        if pos not in self.values:
            key, value = _parse_cache_line(line)
            self.values[pos] = (key, value)
            self.pos_of_key[key] = pos

    def reset(self, start: bytes) -> None:
        self.present = set(self.start_pos)
        self.last_sha = sha256(start)

    def check_file(self, data: bytes) -> str | None:
        sha = sha256(data)
        if sha == self.last_sha:
            return None
        if not data.endswith(b"\n"):
            return "saved cache does not end with a newline"
        last = -1
        present = set()
        for line in data[:-1].split(b"\n"):
            pos = self.ref_pos.get(line_digest(line))
            if pos is None:
                return f"saved cache has a line not in the reference: {line[:80]!r}"
            if pos <= last:
                return "saved cache lines are out of order or repeated"
            last = pos
            present.add(pos)
            self._learn(pos, line)
        if not self.start_pos <= present:
            return "saved cache lost entries of the starting cache"
        self.present = present
        self.last_sha = sha
        return None

    def check_value(self, g: int, mu: tuple[int, ...], stdout: bytes) -> str | None:
        head = f"h_{{{g},({','.join(map(str, mu))})}} = "
        text = stdout.decode("ascii", errors="replace")
        if not text.startswith(head) or "  # " not in text or text.count("\n") != 1:
            return f"unexpected output {text[:120]!r}"
        printed = text[len(head):].split("  # ", 1)[0]
        pos = self.pos_of_key.get((g, mu))
        if pos is None or pos not in self.present:
            return "the key is missing from the saved cache"
        if printed != self.values[pos][1]:
            return f"printed {printed}, cache holds {self.values[pos][1]}"
        return None


def session_plan(seed: int, start: bytes) -> list[tuple[int, tuple[int, ...]]]:
    """The seeded sequence of `compute` keys: hits from the starting cache,
    misses of branch count 19 or 20, in shuffled order."""
    rng = random.Random(seed)
    hits = sorted(_parse_cache_line(line)[0] for line in start.splitlines())
    misses = keys_with_branch_count(SESSION_MISS_R)
    plan = rng.sample(hits, SESSION_CALLS - SESSION_MISSES) + rng.sample(misses, SESSION_MISSES)
    rng.shuffle(plan)
    return plan


def session_pass(plan, start: bytes, checker: SessionChecker, work: Path, trace: bool) -> Pass:
    cache = work / "session.jsonl"
    cache.unlink(missing_ok=True)
    cache.write_bytes(start)
    checker.reset(start)
    run = Pass(trace)
    run.cache_file = cache
    for g, mu in plan:
        call = Invocation(["compute", str(g), ",".join(map(str, mu)), "--cache", str(cache)], work, trace)
        run.calls.append(call)
        run.ops += 1
        why = "nonzero exit" if call.rc != 0 else None
        why = why or checker.check_file(cache.read_bytes()) or checker.check_value(g, mu, call.stdout)
        if why:
            call.complain(why)
            run.failed += 1
    return run


def session_start(expected: dict, work: Path) -> bytes:
    """Build the session's starting cache once, and check it."""
    exp = expected["session-start"]
    path = work / "start.jsonl"
    call = Invocation([*SESSION_START, "--cache", str(path)], work, False)
    if call.rc != 0 or sha256(call.stdout) != exp["stdout_sha256"]:
        call.complain("starting cache build failed")
        raise SystemExit(1)
    data = path.read_bytes()
    if sha256(data) != exp["cache_sha256"]:
        call.complain("starting cache differs from the stored digest")
        raise SystemExit(1)
    return data


def setup_sample(cache: Path, expect_entries: int, work: Path) -> tuple[float, bool]:
    """Time one `hurwitz cache stats` on the workload's starting cache:
    interpreter start, `import hurwitz.cli` and the cache load."""
    call = Invocation(["cache", "stats", "--cache", str(cache)], work, False)
    ok = call.rc == 0 and call.stdout.startswith(f"{expect_entries} entries".encode())
    if not ok:
        call.complain("unexpected cache stats output")
    return call.seconds, ok


# ---------------------------------------------------------------------------
# metrics


def quartile3(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    # Call latency quantiles are taken within each pass and then the median
    # over passes, so that a pass slowed by the machine moves them little.
    latencies = [[c.seconds for c in p.calls] for p in passes]
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "ops_per_s": statistics.median((p.ops - p.failed) / p.wall for p in passes),
        "call_p50_s": statistics.median(statistics.median(x) for x in latencies),
        "call_p75_s": statistics.median(quartile3(x) for x in latencies),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(max(c.peak_rss_mb for c in p.calls) for p in passes),
    }


def layer_metrics(run: Pass) -> dict[str, float]:
    """Per-layer totals of one traced pass, from the spans of its calls."""
    out: dict[str, float] = defaultdict(float)
    for name in TIMED_SPANS:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
    for r in RECURSION_BUCKETS:
        out[f"engine.hurwitz_number.r{r}_s"] = 0.0
    for key in ("engine.hurwitz_number.self_s", "engine.cache.keys_added", "oracle.nodes_computed",
                "analysis.coefficient_audit.terms", "cli.import_s", "cli.main_s",
                "symfunc.char_memo.entries", "engine.operator_power.hits",
                "engine.operator_power.misses", "engine.log_table.terms"):
        out[key] = 0
    for call in run.calls:
        spans = call.spans["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        loaded = saved = None
        for (name, start, end, _, note), inner in zip(spans, child_time):
            dur = end - start
            if name == "cli.import":
                out["cli.import_s"] += dur
            elif name == "cli.main":
                out["cli.main_s"] += dur
            else:
                out[f"{name}.calls"] += 1
                out[f"{name}.s"] += dur
            if name == "engine.hurwitz_number":
                out["engine.hurwitz_number.self_s"] += dur - inner
                if note in RECURSION_BUCKETS:
                    out[f"engine.hurwitz_number.r{note}_s"] += dur
            elif name == "oracle.count_covers_bruteforce" and note is not None:
                out["oracle.nodes_computed"] += note
            elif name == "analysis.coefficient_audit" and note is not None:
                out["analysis.coefficient_audit.terms"] += note
            elif name == "engine.cache_load" and loaded is None:
                loaded = note
            elif name == "engine.HurwitzCache.save":
                saved = note
        if loaded is not None and saved is not None:
            out["engine.cache.keys_added"] += saved - loaded
        for key, value in call.spans["counters"].items():
            out[key] += value
    data = run.cache_file.read_bytes() if run.cache_file and run.cache_file.exists() else b""
    out["engine.cache.entries"] = data.count(b"\n")
    out["engine.cache.file_bytes"] = len(data)
    return dict(out)


def check_layer_split(workload: str, layers: dict[str, float]) -> bool:
    if workload not in LAYER_SPLIT:
        return True
    names, floor = LAYER_SPLIT[workload]
    main_s = layers["cli.main_s"]
    share = sum(layers[f"{n}.s"] for n in names) / main_s if main_s else 0.0
    verdict = "ok" if share >= floor else "FAILED"
    print(f"# layer split {verdict}: {' + '.join(names)} = {share:.1%} of cli.main (floor {floor:.0%})")
    if share < floor:
        print(f"LAYER SPLIT FAILED on {workload}: {share:.1%} < {floor:.0%}; "
              "the workload no longer stresses the layer it was chosen for", file=sys.stderr)
    return share >= floor


# ---------------------------------------------------------------------------
# run context and entry point


def run_context(seed: int) -> dict[str, str]:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu_count": str(os.cpu_count()),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": str(seed),
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    trace = bool(args.trace)

    if not (SRC / "hurwitz" / "cli.py").is_file():
        print(f"error: no hurwitz source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    units = declared_metrics(trace)
    expected = json.loads((HERE / "expected.json").read_text())
    context = run_context(args.seed)
    for key, value in context.items():
        print(f"# {key}: {value}")

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        # Compile the package's bytecode before anything is timed.
        Invocation(["cache", "stats", "--cache", str(work / "none.jsonl")], work, False)
        if args.workload == "session-warm":
            start = session_start(expected, work)
            checker = SessionChecker(expected["r20_cache_lines"], start)
            plan = session_plan(args.seed, start)
            setup_cache, setup_entries = work / "start.jsonl", len(start.splitlines())

            def one_pass(traced: bool) -> Pass:
                return session_pass(plan, start, checker, work, traced)
        else:
            setup_cache, setup_entries = work / "empty.jsonl", 0

            def one_pass(traced: bool) -> Pass:
                return cold_pass(args.workload, expected, work, traced)
        # Set-up is sampled before the first pass and after every pass, so
        # that a short disturbance of the machine moves few of the samples.
        setup = [setup_sample(setup_cache, setup_entries, work) for _ in range(SETUP_SAMPLES)]
        passes: list[Pass] = []
        began = time.perf_counter()
        while True:
            passes.append(one_pass(False))
            if trace:
                passes.append(one_pass(True))
            setup.append(setup_sample(setup_cache, setup_entries, work))
            if time.perf_counter() - began >= args.seconds:
                break
        setup_s = statistics.median(seconds for seconds, _ in setup)
        attempted = len(setup)
        failed = sum(not ok for _, ok in setup)
        for p in passes:
            attempted += p.ops
            failed += p.failed
        plain = [p for p in passes if not p.trace]
        correct = failed == 0

        if trace:
            traced = [p for p in passes if p.trace]
            per_pass = [layer_metrics(p) for p in traced]
            metrics = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
            metrics["trace.overhead_s"] = (
                statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in plain)
            )
            missing = sorted({n for p in traced for c in p.calls for n in c.spans["missing"]})
            if missing:
                print(f"# not in this source tree, reported as 0: {', '.join(missing)}")
            correct = check_layer_split(args.workload, metrics) and correct
            trace_file = OUT_DIR / f"trace-{args.workload}.json"
            trace_file.unlink(missing_ok=True)
            trace_file.write_text(json.dumps(
                {"context": context, "workload": args.workload,
                 "calls": [{"args": c.args, "spans": c.spans["spans"], "counters": c.spans["counters"]}
                           for c in traced[-1].calls]}))
            print(f"# spans of the last traced pass: {trace_file.relative_to(ROOT)}")
        else:
            metrics = end_to_end(plain, setup_s)

        print(f"# passes: {len(plain)} untraced, {len(passes) - len(plain)} traced; "
              f"calls per pass: {len(passes[0].calls)}")
        print(f"# fail_frac: {failed / attempted} ({failed} of {attempted} operations failed)")
        absent = sorted(set(units) - set(metrics))
        if absent:
            print(f"error: metrics not measured: {', '.join(absent)}", file=sys.stderr)
            return 1
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
