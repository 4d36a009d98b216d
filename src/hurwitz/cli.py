"""Command-line front end: compute values, render tables, run verification
suites, scan parity data, and manage the persistent value cache.

Exit status: 0 on success, 1 on verification failure, 2 on usage errors
(bad syntax, method/input mismatch, refused oracle searches, an unreadable
or unwritable cache path, a malformed cache line, an input too large to
hold in memory or to count with machine-sized integers),
141 when the reader closes stdout before the output is written.  Every usage
error, argparse's own included, prints one `error:` line (`refused:` for an
oracle search) on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from . import analysis, engine, oracle
from .engine import HurwitzCache, cache_load
from .partitions import Partition, branch_count, format_partition, hurwitz_key, partitions_of, sort_to_partition

USAGE_ERROR = 2
CHECK_FAILURE = 1
CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a process killed by it
SHOWN_MISMATCHES = 10  # failing records printed under each verify line
DECIMAL = re.compile("[0-9]+")  # ASCII digits only: no sign, space, underscore or other script


class UsageError(ValueError):
    pass


def parse_partition(text: str) -> Partition:
    """Parse comma-separated parts with exponent shorthand, e.g. "2,1^4"; each
    number matches `DECIMAL`."""
    parts: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise UsageError(f"empty part in partition {text!r}")
        base_text, caret, exp_text = token.partition("^")
        numbers = (base_text, exp_text) if caret else (base_text,)
        if not all(map(DECIMAL.fullmatch, numbers)):
            raise UsageError(f"bad partition token {token!r}")
        base = int(base_text)
        if base < 1:
            raise UsageError(f"partition parts must be positive, got {base}")
        parts.extend([base] * (int(exp_text) if caret else 1))
    if not parts:
        raise UsageError("empty partition")
    return sort_to_partition(parts)


def default_cache_path() -> str:
    env = os.environ.get("HURWITZ_CACHE")
    if env:
        return env
    base = os.environ.get("XDG_DATA_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        base = os.path.expanduser("~/.local/share")
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
    else:  # "oracle": argparse's choices admit no other method
        value = oracle.count_covers_bruteforce(sum(mu), branch_count(g, mu), mu, connected=True)
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
    # "json": argparse's choices admit no other format
    records = [
        {"g": g, "mu": list(mu), "value": value}
        for mu, values in rows
        for g, value in enumerate(values)
    ]
    return json.dumps(records, sort_keys=True, separators=(",", ":"))


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

class _Parser(argparse.ArgumentParser):
    """Argparse's refusals leave through `main`'s one `error:` line; the
    subcommand parsers inherit the class."""

    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hurwitz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute a single value")
    p_compute.add_argument("g")
    p_compute.add_argument("mu", help='partition, e.g. "2,1" or "2,1^4"')
    p_compute.add_argument(
        "--method", choices=("cj", "charsum", "operator", "closed", "oracle"), default="cj"
    )
    p_compute.add_argument("--cache", default=None)

    p_table = sub.add_parser("table", help="render a table of values")
    p_table.add_argument("--gmax", default="6")
    p_table.add_argument("--nmax", default="5")
    p_table.add_argument("--weight", default=None, help="restrict to |mu| equal to this")
    p_table.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p_table.add_argument("--cache", default=None)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--rmax", default="8")
    p_verify.add_argument("--with-oracle", action="store_true")
    p_verify.add_argument("--cache", default=None)

    p_parity = sub.add_parser("parity", help="scan parity data")
    p_parity.add_argument("--rmax", default="14")
    p_parity.add_argument("--allow-long", action="store_true", help="unlock rmax beyond 14")
    p_parity.add_argument("--format", choices=("text", "json"), default="text")
    p_parity.add_argument("--cache", default=None)

    p_cache = sub.add_parser("cache", help="manage the persistent cache")
    p_cache.add_argument("subop", choices=("path", "clear", "stats"))
    p_cache.add_argument("--cache", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Exact values may exceed the default 4300 digits; the caller's limit comes back.
    old_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if old_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        status = _dispatch(build_parser().parse_args(argv))
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
    finally:
        if old_limit is not None:
            sys.set_int_max_str_digits(old_limit)


def _dispatch(args: argparse.Namespace) -> int:
    for name in ("g", "gmax", "nmax", "weight", "rmax"):  # the integer arguments
        text = getattr(args, name, None)
        if text is None:
            continue
        if not DECIMAL.fullmatch(text.removeprefix("-")):
            raise UsageError(f"{name} must be a decimal integer, got {text!r}")
        setattr(args, name, int(text))
    if args.cache == "":
        raise UsageError("--cache needs a path, got ''")
    path = default_cache_path() if args.cache is None else args.cache
    if args.command == "cache":
        if args.subop == "path":
            print(path)
        elif args.subop == "clear":
            if os.path.exists(path):
                os.remove(path)
                print(f"removed {path}")
            else:
                print(f"no cache at {path}")
        elif not os.path.exists(path):
            print(f"0 entries (no cache at {path})")
        else:
            rs = [branch_count(g, mu) for g, mu in cache_load(path).twice]
            span = f", r in [{min(rs)}, {max(rs)}]" if rs else ""
            print(f"{len(rs)} entries{span}")
        return 0

    # Every check runs before the cache is read.
    if args.command == "compute":
        g, mu = hurwitz_key(args.g, parse_partition(args.mu))
    elif args.command == "table":
        if args.gmax < 0 or args.nmax < 0:
            raise UsageError("bounds must be non-negative")
        if args.nmax == 0:
            raise UsageError("nmax must be at least 1")
        if args.weight is not None and not 1 <= args.weight <= args.nmax:
            raise UsageError(f"weight must be between 1 and nmax ({args.nmax})")
    else:  # verify and parity
        if args.rmax < 0:
            raise UsageError("rmax must be non-negative")
        if args.command == "parity" and args.rmax > 14 and not args.allow_long:
            raise UsageError("rmax beyond 14 requires --allow-long")

    cache = cache_load(path)
    loaded = len(cache)
    ok = True
    if args.command == "compute":
        print(cmd_compute(g, mu, args.method, cache))
    elif args.command == "table":
        rows = table_values(args.gmax, args.nmax, cache, weight_exactly=args.weight)
        print(render_table(rows, args.gmax, args.format))
    elif args.command == "verify":
        ok = run_verification(args.rmax, args.with_oracle, cache)
    else:
        report = analysis.parity_scan(args.rmax, cache)
        print(report.to_json() if args.format == "json" else report.render())
        ok = report.ok
    # Deliver the output first: if the reader has gone, the BrokenPipeError
    # ends the run before the save, as SIGPIPE would.
    sys.stdout.flush()
    # A key is never removed or overwritten, so a run added keys exactly
    # when the map grew.
    if len(cache) > loaded:
        cache.save()
    return 0 if ok else CHECK_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
