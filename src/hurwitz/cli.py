"""Command-line front end: compute values, render tables, run verification
suites, scan parity data, and manage the persistent value cache.

Exit status: 0 on success, 1 on verification failure, 2 on usage errors
(bad syntax, method/input mismatch, refused oracle searches, an unreadable
or unwritable cache path, a cached key that is not a Hurwitz key or a value
the integrality theorem rules out, an input too large to hold in memory or
to count with machine-sized integers),
141 when the reader closes stdout before the output is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import analysis, engine, oracle
from .engine import HurwitzCache, cache_load
from .partitions import Partition, partitions_of, ramification, sort_to_partition

USAGE_ERROR = 2
CHECK_FAILURE = 1
CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a process killed by it
SHOWN_MISMATCHES = 10  # failing records printed under each verify line


class UsageError(ValueError):
    pass


def parse_partition(text: str) -> Partition:
    """Parse comma-separated parts with exponent shorthand, e.g. "2,1^4"; each
    number is ASCII decimal digits only (no sign, underscore or other script)."""
    parts: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise UsageError(f"empty part in partition {text!r}")
        base_text, caret, exp_text = token.partition("^")
        numbers = (base_text, exp_text) if caret else (base_text,)
        if not all(n.isascii() and n.isdigit() for n in numbers):
            raise UsageError(f"bad partition token {token!r}")
        base = int(base_text)
        if base < 1:
            raise UsageError(f"partition parts must be positive, got {base}")
        parts.extend([base] * (int(exp_text) if caret else 1))
    if not parts:
        raise UsageError("empty partition")
    return sort_to_partition(parts)


def format_partition(mu: Partition) -> str:
    return ",".join(map(str, mu))


def default_cache_path() -> str:
    env = os.environ.get("HURWITZ_CACHE")
    if env:
        return env
    base = os.environ.get("XDG_DATA_HOME", os.path.expanduser("~/.local/share"))
    return os.path.join(base, "hurwitz", "cache.jsonl")


# ---------------------------------------------------------------------------
# compute

def cmd_compute(g: int, mu: Partition, method: str, cache: HurwitzCache) -> str:
    """The output line `h_{g,(mu)} = value  # method=... elapsed=...s`."""
    start = time.perf_counter()
    if method == "cj":
        value = engine.hurwitz_number(g, mu, cache)
    elif method in ("charsum", "operator"):
        value = engine.connected_from_log(g, mu, method=method)
    elif method == "closed":
        if len(mu) == 1:
            value = engine.one_part_closed(g, mu[0])
        elif len(mu) == 2 and g == 0:
            value = engine.two_part_genus0(mu[0], mu[1])
        else:
            raise UsageError(
                "closed form needs a one-part profile or a genus-zero two-part profile"
            )
    elif method == "oracle":
        value = oracle.count_covers_bruteforce(sum(mu), ramification(g, mu), mu, connected=True)
    else:
        raise UsageError(f"unknown method {method!r}")
    elapsed = time.perf_counter() - start
    return f"h_{{{g},({format_partition(mu)})}} = {value!s}  # method={method} elapsed={elapsed:.3f}s"


# ---------------------------------------------------------------------------
# table

def table_values(
    g_max: int, n_max: int, cache: HurwitzCache, weight_exactly: int | None = None
) -> list[tuple[Partition, list[str]]]:
    """Rows (profile, values for g = 0..g_max) in table order."""
    keys = [
        mu
        for n in range(1, n_max + 1)
        if weight_exactly is None or n == weight_exactly
        for mu in partitions_of(n)
    ]
    return [
        (mu, [str(engine.hurwitz_number(g, mu, cache)) for g in range(g_max + 1)])
        for mu in keys
    ]


def render_table(rows: list[tuple[Partition, list[str]]], g_max: int, fmt: str) -> str:
    if fmt == "md":
        header = "| mu | " + " | ".join(f"g={g}" for g in range(g_max + 1)) + " |"
        sep = "|" + "---|" * (g_max + 2)
        lines = [header, sep]
        for mu, values in rows:
            lines.append(f"| ({format_partition(mu)}) | " + " | ".join(values) + " |")
        return "\n".join(lines)
    if fmt == "csv":
        lines = ["g,mu,value"]
        for mu, values in rows:
            mu_field = " ".join(map(str, mu))
            for g, value in enumerate(values):
                lines.append(f'{g},"{mu_field}",{value}')
        return "\n".join(lines)
    if fmt == "json":
        records = [
            {"g": g, "mu": list(mu), "value": value}
            for mu, values in rows
            for g, value in enumerate(values)
        ]
        return json.dumps(records, sort_keys=True, separators=(",", ":"))
    raise UsageError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# verify

def run_verification(r_max: int, with_oracle: bool, cache: HurwitzCache) -> bool:
    """Print each verify report's PASS or FAIL line and first failing records."""
    ok = True
    for report in analysis.verification_reports(r_max, with_oracle, cache):
        ok = ok and report.ok
        print(("PASS" if report.ok else "FAIL") + f" {report.name}: {report.summary}")
        for rec in [rec for rec in report.records if not rec.passed][:SHOWN_MISMATCHES]:
            where = "" if rec.g is None else f" g={rec.g}"
            print(f"  mismatch{where} mu={rec.mu} {rec.label}: {rec.value} {rec.detail}".rstrip())
    return ok


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hurwitz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute a single value")
    p_compute.add_argument("g", type=int)
    p_compute.add_argument("mu", help='partition, e.g. "2,1" or "2,1^4"')
    p_compute.add_argument(
        "--method", choices=("cj", "charsum", "operator", "closed", "oracle"), default="cj"
    )
    p_compute.add_argument("--cache", default=None)

    p_table = sub.add_parser("table", help="render a table of values")
    p_table.add_argument("--gmax", type=int, default=6)
    p_table.add_argument("--nmax", type=int, default=5)
    p_table.add_argument("--weight", type=int, default=None, help="restrict to |mu| equal to this")
    p_table.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p_table.add_argument("--cache", default=None)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--rmax", type=int, default=8)
    p_verify.add_argument("--with-oracle", action="store_true")
    p_verify.add_argument("--cache", default=None)

    p_parity = sub.add_parser("parity", help="scan parity data")
    p_parity.add_argument("--rmax", type=int, default=14)
    p_parity.add_argument("--allow-long", action="store_true", help="unlock rmax beyond 14")
    p_parity.add_argument("--format", choices=("text", "json"), default="text")
    p_parity.add_argument("--cache", default=None)

    p_cache = sub.add_parser("cache", help="manage the persistent cache")
    p_cache.add_argument("subop", choices=("path", "clear", "stats"))
    p_cache.add_argument("--cache", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        # Exact values and cached numerators may exceed the default 4300 digits.
        sys.set_int_max_str_digits(0)
    try:
        status = _dispatch(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout (`hurwitz table ... | head -1`): end quietly
        # with the status of a process killed by SIGPIPE.  Stdout now points at
        # the null device, so the interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CLOSED_STDOUT
    except oracle.WorkBoundExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError:
        # A MemoryError carries no message of its own.
        print("error: out of memory: the input is too large", file=sys.stderr)
        return USAGE_ERROR
    except OverflowError as exc:
        # e.g. a part count or a factorial beyond a machine-sized integer
        print(f"error: the input is too large: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _load_cache(flag_value: str | None) -> HurwitzCache:
    """Load the cache (`cache_load` refuses keys that are not Hurwitz keys) and
    refuse any value the integrality theorem rules out."""
    path = flag_value or default_cache_path()
    cache = cache_load(path)
    for (g, mu), value in cache.entries.items():
        _, ok = analysis.integrality_check(g, mu, value)
        if not ok:
            raise ValueError(
                f"{path}: cached value {value} at g={g}, mu=({format_partition(mu)})"
                " contradicts the integrality theorem"
            )
    return cache


def _save_cache(cache: HurwitzCache) -> None:
    # Deliver the output first: if the reader has gone, the BrokenPipeError
    # ends the run before the save, as SIGPIPE would.
    sys.stdout.flush()
    if cache.dirty:
        cache.save()


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "compute":
        mu = parse_partition(args.mu)
        if args.g < 0:
            raise UsageError("genus must be non-negative")
        cache = _load_cache(args.cache)
        print(cmd_compute(args.g, mu, args.method, cache))
        _save_cache(cache)
        return 0

    if args.command == "table":
        if args.gmax < 0 or args.nmax < 0:
            raise UsageError("bounds must be non-negative")
        if args.weight is not None and args.weight < 0:
            raise UsageError("weight must be non-negative")
        cache = _load_cache(args.cache)
        rows = table_values(args.gmax, args.nmax, cache, weight_exactly=args.weight)
        print(render_table(rows, args.gmax, args.format))
        _save_cache(cache)
        return 0

    if args.command == "verify":
        if args.rmax < 0:
            raise UsageError("rmax must be non-negative")
        cache = _load_cache(args.cache)
        ok = run_verification(args.rmax, args.with_oracle, cache)
        _save_cache(cache)
        return 0 if ok else CHECK_FAILURE

    if args.command == "parity":
        if args.rmax < 0:
            raise UsageError("rmax must be non-negative")
        if args.rmax > 14 and not args.allow_long:
            raise UsageError("rmax beyond 14 requires --allow-long")
        cache = _load_cache(args.cache)
        report = analysis.parity_scan(args.rmax, cache)
        print(report.to_json() if args.format == "json" else report.render())
        _save_cache(cache)
        return 0 if report.ok else CHECK_FAILURE

    if args.command == "cache":
        path = args.cache or default_cache_path()
        if args.subop == "path":
            print(path)
            return 0
        if args.subop == "clear":
            if os.path.exists(path):
                os.remove(path)
                print(f"removed {path}")
            else:
                print(f"no cache at {path}")
            return 0
        if args.subop == "stats":
            if not os.path.exists(path):
                print(f"0 entries (no cache at {path})")
                return 0
            rs = [ramification(g, mu) for g, mu in _load_cache(path).entries]
            span = f", r in [{min(rs)}, {max(rs)}]" if rs else ""
            print(f"{len(rs)} entries{span}")
            return 0

    raise UsageError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
