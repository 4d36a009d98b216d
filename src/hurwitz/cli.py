"""Command-line front end: compute values, render tables, run verification
suites, scan parity data, and manage the persistent value cache.

Exit status: 0 on success, 1 on verification failure, 2 on usage errors
(bad syntax, method/input mismatch, refused oracle searches, an unreadable
or unwritable cache path).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import analysis, engine, oracle, reference_data
from .engine import HurwitzCache, cache_load
from .partitions import Partition, partitions_of, ramification, sort_to_partition

USAGE_ERROR = 2
CHECK_FAILURE = 1


class UsageError(ValueError):
    pass


@dataclass
class OutputRecord:
    g: int
    mu: Partition
    method: str
    value: str
    elapsed: float

    def line(self) -> str:
        mu_text = ",".join(map(str, self.mu))
        return f"h_{{{self.g},({mu_text})}} = {self.value}  # method={self.method} elapsed={self.elapsed:.3f}s"


def parse_partition(text: str) -> Partition:
    """Parse comma-separated parts with exponent shorthand, e.g. "2,1^4"."""
    parts: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise UsageError(f"empty part in partition {text!r}")
        if "^" in token:
            base_text, _, exp_text = token.partition("^")
            try:
                base, exp = int(base_text), int(exp_text)
            except ValueError as exc:
                raise UsageError(f"bad partition token {token!r}") from exc
            if base < 1 or exp < 0:
                raise UsageError(f"bad partition token {token!r}")
            parts.extend([base] * exp)
        else:
            try:
                base = int(token)
            except ValueError as exc:
                raise UsageError(f"bad partition token {token!r}") from exc
            if base < 1:
                raise UsageError(f"partition parts must be positive, got {base}")
            parts.append(base)
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


def resolve_cache_path(flag_value: str | None) -> str:
    return flag_value if flag_value else default_cache_path()


# ---------------------------------------------------------------------------
# compute

def cmd_compute(g: int, mu: Partition, method: str, cache: HurwitzCache) -> OutputRecord:
    start = time.perf_counter()
    if method == "cj":
        value = engine.hurwitz_number(g, mu, cache)
    elif method == "charsum":
        value = engine.connected_from_log(g, mu, method="charsum")
    elif method == "operator":
        value = engine.connected_from_log(g, mu, method="operator")
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
    return OutputRecord(g, mu, method, str(value), elapsed)


# ---------------------------------------------------------------------------
# table

def _table_keys(g_max: int, n_max: int) -> list[Partition]:
    keys = []
    for n in range(1, n_max + 1):
        keys.extend(partitions_of(n))
    return keys


def table_values(
    g_max: int, n_max: int, cache: HurwitzCache, weight_exactly: int | None = None
) -> list[tuple[Partition, list[str]]]:
    """Rows (profile, values for g = 0..g_max) in table order."""
    keys = _table_keys(g_max, n_max)
    if weight_exactly is not None:
        keys = [mu for mu in keys if sum(mu) == weight_exactly]
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

def run_verification(r_max: int, with_oracle: bool, cache: HurwitzCache, out) -> bool:
    ok = True

    def emit(passed: bool, label: str, detail: str) -> None:
        nonlocal ok
        ok = ok and passed
        print(("PASS" if passed else "FAIL") + f" {label}: {detail}", file=out)

    keys = analysis.keys_with_ramification_at_most(r_max)
    # Every key has |mu| <= r_max + 1: build each log table once, at full size.
    for method in ("operator", "charsum"):
        engine.log_table(r_max + 1, r_max, method)
    mismatches = []
    for g, mu in keys:
        h = engine.hurwitz_number(g, mu, cache)
        for method in ("operator", "charsum"):
            other = engine.connected_from_log(g, mu, method=method)
            if other != h:
                mismatches.append((g, mu, method, str(h), str(other)))
    emit(not mismatches, "cross-method", f"{len(keys)} keys (recursion vs charsum/operator logs)")
    for g, mu, method, h, other in mismatches[:10]:
        print(f"  mismatch g={g} mu={mu} {method}: {other} != {h}", file=out)

    suite = analysis.identity_suite(min(r_max, 6), min(r_max + 1, 6), cache)
    emit(suite.ok, "identities", f"{len(suite.records)} checks, {suite.failures} failures")

    integ = analysis.integrality_audit(r_max, cache)
    emit(integ.ok, "integrality", f"{len(integ.records)} keys, {integ.failures} violations")

    coeff_failures = 0
    coeff_terms = 0
    for g, mu in analysis.keys_with_ramification_at_most(min(r_max, 10)):
        rep = analysis.coefficient_audit(g, mu)
        coeff_terms += len(rep.records)
        coeff_failures += rep.failures
    emit(coeff_failures == 0, "coefficients", f"{coeff_terms} terms, {coeff_failures} non-integral")

    if with_oracle:
        bad = 0
        checked = 0
        for d in range(1, min(r_max + 2, 6)):
            for mu in partitions_of(d):
                for r in range(min(r_max, 6) + 1):
                    disc = oracle.count_covers_bruteforce(d, r, mu, connected=False)
                    if disc != engine.disconnected_count_charsum(d, r, mu):
                        bad += 1
                    conn = oracle.count_covers_bruteforce(d, r, mu, connected=True)
                    base = len(mu) + d - 2
                    if r >= base and (r - base) % 2 == 0:
                        expect = engine.hurwitz_number((r - base) // 2, mu, cache)
                    else:
                        expect = Fraction(0)
                    if conn != expect:
                        bad += 1
                    checked += 2
        emit(bad == 0, "oracle", f"{checked} brute-force comparisons, {bad} mismatches")
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
    try:
        return _dispatch(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except oracle.WorkBoundExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _load_cache(flag_value: str | None) -> HurwitzCache:
    return cache_load(resolve_cache_path(flag_value))


def _save_cache(cache: HurwitzCache) -> None:
    if cache.dirty:
        cache.save()


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "compute":
        mu = parse_partition(args.mu)
        if args.g < 0:
            raise UsageError("genus must be non-negative")
        cache = _load_cache(args.cache)
        record = cmd_compute(args.g, mu, args.method, cache)
        print(record.line())
        if args.method == "cj":
            _save_cache(cache)
        return 0

    if args.command == "table":
        if args.gmax < 0 or args.nmax < 0:
            raise UsageError("bounds must be non-negative")
        cache = _load_cache(args.cache)
        rows = table_values(args.gmax, args.nmax, cache, weight_exactly=args.weight)
        print(render_table(rows, args.gmax, args.format))
        _save_cache(cache)
        return 0

    if args.command == "verify":
        if args.rmax < 0:
            raise UsageError("rmax must be non-negative")
        cache = _load_cache(args.cache)
        ok = run_verification(args.rmax, args.with_oracle, cache, sys.stdout)
        _save_cache(cache)
        return 0 if ok else CHECK_FAILURE

    if args.command == "parity":
        if args.rmax > 14 and not args.allow_long:
            raise UsageError("rmax beyond 14 requires --allow-long")
        cache = _load_cache(args.cache)
        report = analysis.parity_scan(args.rmax, cache)
        print(report.to_json() if args.format == "json" else report.render())
        _save_cache(cache)
        return 0 if report.ok else CHECK_FAILURE

    if args.command == "cache":
        path = resolve_cache_path(args.cache)
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
            cache = cache_load(path)
            if cache.missing_on_load:
                print(f"0 entries (no cache at {path})")
            else:
                rs = [ramification(g, mu) for g, mu in cache.entries]
                span = f", r in [{min(rs)}, {max(rs)}]" if rs else ""
                print(f"{len(cache)} entries{span}")
            return 0

    raise UsageError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
