import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import hurwitz
from hurwitz.cli import (
    UsageError,
    build_parser,
    default_cache_path,
    format_partition,
    main,
    parse_partition,
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    path = str(tmp_path / "cache.jsonl")
    monkeypatch.setenv("HURWITZ_CACHE", path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_partition():
    assert parse_partition("2,1") == (2, 1)
    assert parse_partition("2,1^4") == (2, 1, 1, 1, 1)
    assert parse_partition("3") == (3,)
    assert parse_partition("1,3,2") == (3, 2, 1)
    assert format_partition((2, 1, 1)) == "2,1,1"
    for bad in ("", "0", "a", "2,", "1^x", "-1", "2^-1", "1_0", "+2", "٣", "2^1_0"):
        with pytest.raises(UsageError):
            parse_partition(bad)


@given(st.text(alphabet="0123456789,^-+_ \u0663", max_size=6))
def test_parse_partition_returns_a_partition_or_refuses(text):
    try:
        mu = parse_partition(text)
    except UsageError:
        return
    assert type(mu) is tuple and mu and all(type(part) is int and part > 0 for part in mu)
    assert list(mu) == sorted(mu, reverse=True)


@given(st.lists(st.tuples(st.integers(1, 20), st.integers(1, 4), st.booleans()), min_size=1, max_size=5))
def test_parse_partition_expands_rendered_exponents(pairs):
    text = ",".join(
        f" {base}^{exp}" if exp > 1 or caret else f"{base} " for base, exp, caret in pairs
    )
    expansion = [base for base, exp, _ in pairs for _ in range(exp)]
    assert parse_partition(text) == tuple(sorted(expansion, reverse=True))


def test_compute_methods(capsys):
    for method, expected in [
        ("cj", "40"),
        ("charsum", "40"),
        ("operator", "40"),
    ]:
        code, out, _ = run(capsys, "compute", "1", "2,1", "--method", method)
        assert code == 0
        assert f"= {expected}" in out

    code, out, _ = run(capsys, "compute", "0", "5", "--method", "closed")
    assert code == 0 and "= 25" in out
    code, out, _ = run(capsys, "compute", "0", "3", "--method", "oracle")
    assert code == 0 and "= 1" in out
    code, out, _ = run(capsys, "compute", "0", "2", "--method", "cj")
    assert code == 0 and "= 1/2" in out


def test_compute_exponent_shorthand_expanded_in_output(capsys):
    code, out, _ = run(capsys, "compute", "0", "2,1^2", "--method", "cj")
    assert code == 0
    assert "(2,1,1)" in out and "^" not in out.split("#")[0]


def test_compute_deep_genus(capsys):
    # the recursion runs without Python recursion, so depth is no limit
    code, out, _ = run(capsys, "compute", "500", "2")
    assert code == 0
    assert "= 1/2" in out


def test_compute_usage_errors(capsys):
    code, _, err = run(capsys, "compute", "0", "2,x")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "compute", "-1", "2")
    assert code == 2
    code, _, err = run(capsys, "compute", "1", "2,1", "--method", "closed")
    assert code == 2  # two-part closed form needs genus zero
    code, _, err = run(capsys, "compute", "3", "7", "--method", "oracle")
    assert code == 2 and "refused" in err  # work bound


def test_oracle_refusal_of_a_huge_search_is_one_short_line(capsys):
    # The search size, 2 * 3^2000002 + 24, has 954,244 digits; the message leaves it out.
    code, out, err = run(capsys, "compute", "1000000", "3", "--method", "oracle")
    assert code == 2 and out == ""
    assert err == "refused: search size exceeds work bound 100000000 for d=3, r=2000002, len(mu)=1\n"


def test_oracle_refusal_of_a_long_profile_is_one_short_line(capsys):
    # The refusal names the profile's length, not its 60,000 parts.
    code, out, err = run(capsys, "compute", "0", "1^60000", "--method", "oracle")
    assert code == 2 and out == ""
    assert err.startswith("refused: ") and err.count("\n") == 1 and len(err.encode()) < 200


def test_out_of_memory_exits_2(capsys, monkeypatch):
    # stands in for `compute 0 "2^9999999999"`, which asks for a list of 10^10 parts
    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr(hurwitz.cli, "parse_partition", exhausted)
    code, out, err = run(capsys, "compute", "0", "2^9999999999")
    assert code == 2 and out == ""
    assert err == "error: out of memory: the input is too large\n"


@pytest.mark.parametrize("method", ["cj", "charsum", "operator", "closed", "oracle"])
def test_every_method_gives_the_genus_zero_two_part_value(capsys, method):
    code, out, err = run(capsys, "compute", "0", "3,2", "--method", method)
    assert code == 0 and err == ""
    assert out.startswith(f"h_{{0,(3,2)}} = 216  # method={method} ")


def _choices(command, option):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]._option_string_actions[option].choices


def test_each_method_and_format_choice_takes_its_own_branch(capsys, monkeypatch):
    # the last branch of each chain stands for the last choice; a choice the
    # chain does not name would fall through to it and run the oracle or
    # print another format's output
    oracle_runs = []
    bruteforce = hurwitz.cli.oracle.count_covers_bruteforce
    monkeypatch.setattr(
        hurwitz.cli.oracle, "count_covers_bruteforce", lambda *a, **k: oracle_runs.append(a) or bruteforce(*a, **k)
    )
    for method in _choices("compute", "--method"):
        del oracle_runs[:]
        assert run(capsys, "compute", "0", "3,2", "--method", method)[0] == 0
        assert len(oracle_runs) == (method == "oracle"), method
    for command, argv in (("table", ("--gmax", "1", "--nmax", "2")), ("parity", ("--rmax", "2"))):
        outputs = {run(capsys, command, *argv, "--format", fmt)[1] for fmt in _choices(command, "--format")}
        assert len(outputs) == len(_choices(command, "--format")), command


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--rmax", "-1"), "rmax must be non-negative"),
        (("table", "--nmax", "-1"), "bounds must be non-negative"),
        (("table", "--gmax", "-1"), "bounds must be non-negative"),
        (("compute", "0", "1^0"), "empty partition"),
        (("table", "--weight", "6"), "weight must be between 1 and nmax (5)"),
        (("table", "--weight", "0"), "weight must be between 1 and nmax (5)"),
        (("table", "--weight", "7", "--nmax", "5"), "weight must be between 1 and nmax (5)"),
        (("table", "--nmax", "0"), "nmax must be at least 1"),
        (("compute", "1_0", "3"), "g must be a decimal integer, got '1_0'"),
        (("compute", "\u0663", "3"), "g must be a decimal integer, got '\u0663'"),
        (("compute", "+1", "3"), "g must be a decimal integer, got '+1'"),
        (("compute", " 2", "3"), "g must be a decimal integer, got ' 2'"),
        (("table", "--gmax", "+1"), "gmax must be a decimal integer, got '+1'"),
        (("table", "--gmax", "\u0663"), "gmax must be a decimal integer, got '\u0663'"),
        (("table", "--nmax", " 2"), "nmax must be a decimal integer, got ' 2'"),
        (("table", "--weight", "1_0"), "weight must be a decimal integer, got '1_0'"),
        (("verify", "--rmax", "1_0"), "rmax must be a decimal integer, got '1_0'"),
        (("parity", "--rmax", "2.0"), "rmax must be a decimal integer, got '2.0'"),
        (("table", "--gmax", ""), "gmax must be a decimal integer, got ''"),
    ],
)
def test_usage_error_exits_2_with_one_error_line(capsys, isolated_cache, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert not os.path.exists(isolated_cache)


def test_table_formats_have_identical_value_multisets(capsys):
    outputs = {}
    for fmt in ("md", "csv", "json"):
        code, out, _ = run(capsys, "table", "--gmax", "2", "--nmax", "3", "--format", fmt)
        assert code == 0
        outputs[fmt] = out.strip()

    md_values = []
    for line in outputs["md"].splitlines()[2:]:
        md_values.extend(cell.strip() for cell in line.strip("|").split("|")[1:])
    csv_values = [line.rsplit(",", 1)[1] for line in outputs["csv"].splitlines()[1:]]
    json_values = [rec["value"] for rec in json.loads(outputs["json"])]
    assert sorted(md_values) == sorted(csv_values) == sorted(json_values)
    assert "364" in csv_values


def test_table_csv_quotes_mu_field(capsys):
    code, out, _ = run(capsys, "table", "--gmax", "0", "--nmax", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "g,mu,value"
    assert '0,"1",1' in lines
    assert '0,"1 1",1/2' in lines


def test_table_json_uses_string_values(capsys):
    code, out, _ = run(capsys, "table", "--gmax", "6", "--nmax", "1", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert all(isinstance(rec["value"], str) for rec in records)
    assert records[0] == {"g": 0, "mu": [1], "value": "1"}


def test_table_deterministic(capsys):
    _, first, _ = run(capsys, "table", "--gmax", "3", "--nmax", "4")
    _, second, _ = run(capsys, "table", "--gmax", "3", "--nmax", "4")
    assert first == second


def test_table_weight_restriction(capsys):
    code, out, _ = run(capsys, "table", "--gmax", "0", "--nmax", "4", "--weight", "4", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 5  # partitions of 4
    assert all(sum(int(p) for p in line.split('"')[1].split()) == 4 for line in rows)


def test_verify_rmax0(capsys):
    code, out, _ = run(capsys, "verify", "--rmax", "0")
    assert code == 0
    assert "PASS cross-method: 1 keys" in out


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--rmax", "4")
    assert code == 0
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_verify_with_oracle(capsys):
    code, out, _ = run(capsys, "verify", "--rmax", "3", "--with-oracle")
    assert code == 0
    assert "PASS oracle" in out


def test_verify_with_oracle_builds_one_charsum_series(capsys, monkeypatch):
    import hurwitz.engine

    calls = []
    real = hurwitz.engine.covering_series_charsum

    def counted(d_max, r_max):
        calls.append((d_max, r_max))
        return real(d_max, r_max)

    def pointwise(*args):
        raise AssertionError("disconnected_count_charsum called")

    monkeypatch.setattr(hurwitz.engine, "covering_series_charsum", counted)
    monkeypatch.setattr(hurwitz.engine, "disconnected_count_charsum", pointwise)
    code, out, _ = run(capsys, "verify", "--rmax", "3", "--with-oracle")
    assert code == 0
    assert "PASS oracle: 88 brute-force comparisons, 0 mismatches" in out
    assert calls == [(4, 3)]


def test_verify_checks_every_printed_table_cell(capsys):
    # identity_suite(6, 6): 54 identity checks, 202 printed cells and the erratum cell
    code, out, _ = run(capsys, "verify", "--rmax", "6")
    assert code == 0
    assert "PASS identities: 257 checks, 0 failures" in out


def test_parity_command(capsys):
    code, out, _ = run(capsys, "parity", "--rmax", "8")
    assert code == 0
    assert "0 failures" in out
    code, _, err = run(capsys, "parity", "--rmax", "16")
    assert code == 2 and "--allow-long" in err


def test_parity_negative_rmax_exits_2(capsys):
    code, out, err = run(capsys, "parity", "--rmax", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "rmax" in err


def test_table_negative_weight_exits_2(capsys):
    code, out, err = run(capsys, "table", "--weight", "-3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "weight" in err


def test_parity_json_output(capsys):
    code, out, _ = run(capsys, "parity", "--rmax", "8", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == 0
    flattened = {
        (g, tuple(mu)) for _, pairs in report["data"]["converse_failures"] for g, mu in pairs
    }
    assert flattened == {(1, (7,)), (1, (5, 1)), (1, (3, 3))}


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("parity", "--rmax", "12", "--format", "json"),
            "1121e784d517584c6a1cdf478c8a93df22c28595bfa39e8ce9a317cf514854b1",
        ),
        (
            ("table", "--gmax", "6", "--nmax", "6", "--format", "md"),
            "846e09b617f50d31d7f2d3ad2a59bf7a298144c8ba2af7131f5c50db51dc0754",
        ),
        (
            ("table", "--gmax", "6", "--nmax", "6", "--format", "csv"),
            "843aa3935b1a0afa79ee25008f4e7a2a3897a78f268cdbbd1d91fc2a0ad5f0b8",
        ),
        (
            ("table", "--gmax", "6", "--nmax", "6", "--format", "json"),
            "d2bb880f1da27ad0636a110d2b46b955ff521c3b8f6dc1b5ec51792113fba2e2",
        ),
        (
            ("verify", "--rmax", "7"),
            "8f9ecef096ab926d1266acd0f27e25b6406e778a11f9638fcc2e9fdf65458899",
        ),
        (
            ("verify", "--rmax", "5", "--with-oracle"),
            "f1c8708cdd2203f2c7142460768bc16b090fd78ea4b39a97f1f5b2726338f05b",
        ),
    ],
)
def test_output_bytes_are_stable(capsys, argv, digest):
    # The benchmark's recorded digests cover parity text, verify and compute;
    # these pin the other report formats byte for byte.
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_unknown_flag_exits_2(capsys):
    code, out, err = run(capsys, "table", "--format", "xml")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# Argparse's wording differs across Python versions (3.12.8 and 3.13.1 stopped
# quoting choices), so only the stable start of each message is pinned.
@pytest.mark.parametrize(
    "argv, start",
    [
        (("verify", "--rmax", "-1_0"), "error: argument --rmax: expected one argument"),
        (("compute", "-x", "3"), "error: the following arguments are required: "),
        (("compute", "0"), "error: the following arguments are required: "),
        (("table", "--format", "xml"), "error: argument --format: invalid choice:"),
        (("cache", "bogus"), "error: argument subop: invalid choice:"),
        ((), "error: the following arguments are required: "),
    ],
)
def test_argparse_refusal_exits_2_with_one_error_line(capsys, isolated_cache, argv, start):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(start) and err.count("\n") == 1
    assert not os.path.exists(isolated_cache)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hurwitz ")


BAD_NUMBERS = ("-1", "-1_0", "1_0", "+1", " 2", "2.0", "\u0663", "")
NOISE = ("-x", "-1_0", "--bogus", "--", "x", "+1", " 2", "\u0663", "2,")


def _numbers(high: int):
    good = st.integers(0, high).map(str)
    return st.one_of(good, good, good, st.sampled_from(BAD_NUMBERS))


def _partition_texts():
    pairs = st.lists(st.tuples(st.integers(1, 5), st.integers(1, 3)), min_size=1, max_size=2)
    rendered = pairs.filter(lambda ps: sum(b * e for b, e in ps) <= 6).map(
        lambda ps: ",".join(f"{b}^{e}" if e > 1 else str(b) for b, e in ps)
    )
    bad = st.sampled_from(("", "0", "2,", "1^x", "1^0", "-1", "\u0663"))
    return st.one_of(rendered, rendered, rendered, bad)


@st.composite
def _argvs(draw):
    """One CLI argument vector: a subcommand, some of its flags, each with a
    drawn value or none, and a noise token, in any order."""

    def flag(name, values):
        return [name, draw(values)] if draw(st.integers(0, 4)) else [name]

    def some(*chunks):
        return [chunk for chunk in chunks if draw(st.booleans())]

    command = draw(st.sampled_from(("compute",) * 3 + ("table", "verify", "parity", "cache", "bogus", "")))
    chunks = []
    if command == "compute":
        positionals = [draw(_numbers(3)), draw(_partition_texts())]
        chunks = [positionals[: draw(st.sampled_from((2, 2, 2, 1, 0)))]]
        chunks += some(flag("--method", st.sampled_from(("cj", "charsum", "operator", "closed", "oracle", "bogus"))))
    elif command == "table":
        chunks = some(
            flag("--gmax", _numbers(3)),
            flag("--nmax", _numbers(5)),
            flag("--weight", _numbers(6)),
            flag("--format", st.sampled_from(("md", "csv", "json", "xml"))),
        )
    elif command == "verify" and draw(st.booleans()):
        chunks = [flag("--rmax", _numbers(4)), ["--with-oracle"]]
    elif command in ("verify", "parity"):
        # --rmax is always given: the defaults (8 and 14) are beyond the bound.
        chunks = [flag("--rmax", _numbers(6))]
        if command == "parity":
            chunks += some(["--allow-long"], flag("--format", st.sampled_from(("text", "json", "xml"))))
    elif command == "cache":
        chunks = [[draw(st.sampled_from(("path", "clear", "stats", "bogus")))]]
    chunks += [[token] for token in draw(st.lists(st.sampled_from(NOISE), max_size=1))]
    return [command][: bool(command)] + [token for chunk in draw(st.permutations(chunks)) for token in chunk]


@settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argvs())
def test_every_argv_ends_in_one_of_three_statuses(capsys, monkeypatch, argv):
    """Numbers stay small (g <= 3, parts <= 5, exponents <= 3, --rmax <= 6,
    --with-oracle only with --rmax <= 4) so that the test runs in seconds: no
    size bound on the CLI's input exists yet, so this claims no size coverage."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.jsonl")
        monkeypatch.setenv("HURWITZ_CACHE", path)
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2)
        assert (code == 2) == (err != "")
        if code == 2:
            assert err.count("\n") == 1 and err.startswith(("error: ", "refused: "))
            assert out == "" and not os.path.exists(path)
        if code == 1:
            assert argv[0] in ("verify", "parity")


def test_verify_failure_exits_1(capsys, monkeypatch):
    import hurwitz.engine

    real = hurwitz.engine.log_table

    def corrupted(d_max, r_max, method):
        table = real(d_max, r_max, method)
        if method == "operator":
            table.coeffs[(3, 2, (3,))] += 1  # h_{0,(3)} = 1 has branch count 2
        return table

    monkeypatch.setattr(hurwitz.engine, "log_table", corrupted)
    code, out, _ = run(capsys, "verify", "--rmax", "2")
    assert code == 1
    _assert_only_failure(
        out,
        "FAIL cross-method: 5 keys (recursion vs charsum/operator logs)",
        "  mismatch g=0 mu=(3) operator: 2 != 1",
    )


def test_oracle_mismatch_fails_verify_with_exit_1(capsys, monkeypatch):
    real = hurwitz.oracle.count_covers_bruteforce

    def corrupted(d, r, mu, connected=False, groups=None):
        value = real(d, r, mu, connected=connected, groups=groups)
        return value + 1 if (d, r, mu) == (3, 2, (3,)) else value

    monkeypatch.setattr(hurwitz.oracle, "count_covers_bruteforce", corrupted)
    code, out, _ = run(capsys, "verify", "--rmax", "2", "--with-oracle")
    assert code == 1
    assert "FAIL oracle: 36 brute-force comparisons, 2 mismatches" in out.splitlines()
    assert "FAIL" not in out.replace("FAIL oracle", "")


def _assert_only_failure(out, fail_line, mismatch_line):
    lines = out.splitlines()
    assert fail_line in lines and mismatch_line in lines
    assert "FAIL" not in out.replace(fail_line, "")


def test_identity_failure_fails_verify_with_exit_1(capsys, monkeypatch):
    real = hurwitz.analysis.one_part_genus0
    monkeypatch.setattr(
        hurwitz.analysis, "one_part_genus0", lambda n: real(n) + 1 if n == 3 else real(n)
    )
    code, out, _ = run(capsys, "verify", "--rmax", "2")
    assert code == 1
    _assert_only_failure(
        out,
        "FAIL identities: 32 checks, 1 failures",
        "  mismatch g=0 mu=(3) one-part-genus0: 1 expected 2",
    )


def test_integrality_failure_fails_verify_with_exit_1(capsys, monkeypatch):
    real = hurwitz.analysis.integrality_check

    def corrupted(g, mu, value):
        label, ok = real(g, mu, value)
        return label, ok and (g, mu) != (0, (3,))

    monkeypatch.setattr(hurwitz.analysis, "integrality_check", corrupted)
    code, out, _ = run(capsys, "verify", "--rmax", "2")
    assert code == 1
    _assert_only_failure(
        out,
        "FAIL integrality: 5 keys, 1 violations",
        "  mismatch g=0 mu=(3) positive-integer: 1",
    )


def test_coefficient_failure_fails_verify_with_exit_1(capsys, monkeypatch):
    real = hurwitz.analysis._ledger

    def corrupted(g, lam, grown=None):
        if (g, lam) == (0, (1, 1)):
            return [("merge-equal", 1, ((0, (2,)),), None)]
        return real(g, lam, grown)

    monkeypatch.setattr(hurwitz.analysis, "_ledger", corrupted)
    code, out, _ = run(capsys, "verify", "--rmax", "2")
    assert code == 1
    _assert_only_failure(
        out,
        "FAIL coefficients: 4 terms, 1 non-integral",
        "  mismatch g=0 mu=(1,1) merge-equal: 1/2 h[0,(2)]",
    )


def test_odd_central_binomial_fails_verify_with_exit_1(capsys, monkeypatch):
    # no key of branch count <= 2 has a symmetric split, so the audits read
    # one at (0, (1,1)): an even twice-coefficient with an odd central binomial
    real = hurwitz.analysis._ledger

    def corrupted(g, lam, grown=None):
        if (g, lam) == (0, (1, 1)):
            return [("split-symmetric", 2, ((0, (1,)), (0, (1,))), 1)]
        return real(g, lam, grown)

    monkeypatch.setattr(hurwitz.analysis, "_ledger", corrupted)
    code, out, _ = run(capsys, "verify", "--rmax", "2")
    assert code == 1
    _assert_only_failure(
        out,
        "FAIL coefficients: 4 terms, 1 non-integral",
        "  mismatch g=0 mu=(1,1) split-symmetric: 1 h[0,(1)] * h[0,(1)] central-binomial=1",
    )


def test_verify_with_oracle_indexes_each_symmetric_group_once(capsys, monkeypatch):
    real = hurwitz.oracle.permutations
    degrees = []

    def counted(points):
        degrees.append(len(points))
        return real(points)

    monkeypatch.setattr(hurwitz.oracle, "permutations", counted)
    code, out, _ = run(capsys, "verify", "--rmax", "5", "--with-oracle")
    assert code == 0 and "FAIL" not in out
    assert degrees == [1, 2, 3, 4, 5]


def test_verify_builds_each_series_once(capsys, monkeypatch, tmp_path):
    import hurwitz.engine

    calls = {}

    def counted(method, builder):
        def wrapper(d_max, r_max):
            calls.setdefault(method, []).append((d_max, r_max))
            return builder(d_max, r_max)

        return wrapper

    for method, builder in list(hurwitz.engine._SERIES_BUILDERS.items()):
        monkeypatch.setitem(hurwitz.engine._SERIES_BUILDERS, method, counted(method, builder))
    code, out, _ = run(capsys, "verify", "--rmax", "6", "--cache", str(tmp_path / "v.jsonl"))
    assert code == 0 and "FAIL" not in out
    assert calls == {"operator": [(7, 6)], "charsum": [(7, 6)]}


_STATE_AFTER_TWO_RUNS = """
import sys
from contextlib import redirect_stdout
from io import StringIO

from hurwitz.cli import main


def snapshot():
    return {
        (name, attr): (id(value), len(value) if isinstance(value, (dict, list, set)) else None)
        for name, module in list(sys.modules.items())
        if name == "hurwitz" or name.startswith("hurwitz.")
        for attr, value in vars(module).items()
    }


before = snapshot()
with redirect_stdout(StringIO()):
    codes = [main(["verify", "--rmax", "2"]), main(["compute", "0", "3", "--method", "charsum"])]
after = snapshot()
print(codes, sorted(key for key in before.keys() | after.keys() if before.get(key) != after.get(key)))
"""


def test_cli_runs_leave_no_module_state_behind():
    # A fresh interpreter, so no earlier test has filled a global before the
    # first snapshot: a global the runs bind anew, or a container they grow,
    # is named.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hurwitz.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _STATE_AFTER_TWO_RUNS], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0] []\n"


@pytest.mark.parametrize("argv", [("compute", "1", "3"), ("cache", "stats")])
def test_cache_path_that_is_a_directory_exits_2(capsys, tmp_path, argv):
    code, _, err = run(capsys, *argv, "--cache", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_cache_commands(capsys, isolated_cache):
    code, out, _ = run(capsys, "cache", "path")
    assert code == 0 and out.strip() == isolated_cache

    code, out, _ = run(capsys, "cache", "stats")
    assert code == 0 and out.startswith("0 entries")

    code, out, _ = run(capsys, "compute", "1", "3", "--method", "cj")
    assert code == 0
    assert os.path.exists(isolated_cache)

    code, out, _ = run(capsys, "cache", "stats")
    assert code == 0 and not out.startswith("0 entries")

    code, out, _ = run(capsys, "cache", "clear")
    assert code == 0 and not os.path.exists(isolated_cache)


def test_cache_clear_without_a_file(capsys, isolated_cache):
    code, out, err = run(capsys, "cache", "clear")
    assert code == 0 and err == ""
    assert out == f"no cache at {isolated_cache}\n"
    assert not os.path.exists(isolated_cache)


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "0", "2,1"),
        ("table", "--nmax", "2"),
        ("verify", "--rmax", "1"),
        ("parity", "--rmax", "2"),
        ("cache", "path"),
        ("cache", "clear"),
        ("cache", "stats"),
    ],
    ids=" ".join,
)
def test_an_empty_cache_flag_exits_2_and_touches_no_file(capsys, monkeypatch, tmp_path, argv):
    # Every place a cache path can come from points into tmp_path, which must
    # stay empty: an empty --cache is refused, not read as no flag at all.
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_DATA_HOME", str(tmp_path / "xdg"))
    monkeypatch.setenv("HURWITZ_CACHE", str(tmp_path / "env.jsonl"))
    code, out, err = run(capsys, *argv, "--cache", "")
    assert code == 2 and out == ""
    assert err == "error: --cache needs a path, got ''\n"
    assert list(tmp_path.iterdir()) == []


def test_cache_flag_overrides_env(capsys, tmp_path):
    override = str(tmp_path / "elsewhere.jsonl")
    code, out, _ = run(capsys, "cache", "path", "--cache", override)
    assert code == 0 and out.strip() == override
    code, _, _ = run(capsys, "compute", "0", "3", "--cache", override)
    assert code == 0 and os.path.exists(override)


def test_default_cache_path_respects_env(monkeypatch):
    monkeypatch.delenv("HURWITZ_CACHE", raising=False)
    monkeypatch.setenv("XDG_DATA_HOME", "/tmp/xdgtest")
    assert default_cache_path() == "/tmp/xdgtest/hurwitz/cache.jsonl"
    monkeypatch.setenv("HURWITZ_CACHE", "/tmp/explicit.jsonl")
    assert default_cache_path() == "/tmp/explicit.jsonl"
    monkeypatch.setenv("HURWITZ_CACHE", "")  # empty counts as unset
    assert default_cache_path() == "/tmp/xdgtest/hurwitz/cache.jsonl"


@pytest.mark.parametrize("xdg", [None, "", "relative/share"])
def test_default_cache_path_falls_back_unless_xdg_data_home_is_absolute(capsys, monkeypatch, tmp_path, xdg):
    monkeypatch.delenv("HURWITZ_CACHE")
    monkeypatch.setenv("HOME", str(tmp_path))
    if xdg is None:
        monkeypatch.delenv("XDG_DATA_HOME", raising=False)
    else:
        monkeypatch.setenv("XDG_DATA_HOME", xdg)
    code, out, _ = run(capsys, "cache", "path")
    assert code == 0 and out == f"{tmp_path}/.local/share/hurwitz/cache.jsonl\n"


def test_compute_persists_cache_across_invocations(capsys, isolated_cache):
    run(capsys, "compute", "2", "2,1", "--method", "cj")
    size_first = os.path.getsize(isolated_cache)
    run(capsys, "compute", "2", "2,1", "--method", "cj")
    assert os.path.getsize(isolated_cache) == size_first


def test_a_run_saves_the_cache_exactly_when_it_added_keys(capsys, isolated_cache, monkeypatch):
    saves = []
    save = hurwitz.engine.HurwitzCache.save

    def counted(cache):
        saves.append(cache.path)
        save(cache)

    monkeypatch.setattr(hurwitz.engine.HurwitzCache, "save", counted)

    def save_count(*argv):
        saves.clear()
        run(capsys, *argv)
        assert set(saves) <= {isolated_cache}
        return len(saves)

    assert save_count("verify", "--rmax", "3") == 1
    os.remove(isolated_cache)
    assert save_count("compute", "1", "3") == 1  # a miss
    assert save_count("compute", "1", "3") == 0  # a hit
    for method in ("charsum", "operator", "closed", "oracle"):
        assert save_count("compute", "1", "3", "--method", method) == 0
    assert save_count("table", "--gmax", "1", "--nmax", "3") == 1
    assert save_count("table", "--gmax", "1", "--nmax", "3") == 0
    assert save_count("cache", "stats") == 0
    assert save_count("compute", "-1", "2") == 0


def _write_cache(path, entries):
    with open(path, "w", encoding="ascii") as fh:
        for g, mu, num, den in entries:
            fh.write(json.dumps({"g": g, "mu": mu, "num": str(num), "den": str(den)}) + "\n")


@pytest.mark.parametrize("argv", [("compute", "0", "2"), ("cache", "stats")])
@pytest.mark.parametrize(
    "g, mu, num, den",
    [(0, [2], 1, 3), (0, [3], 1, 2), (2, [1], 1, 1), (0, [2, 1], -4, 1), (1, [3], 0, 1)],
)
def test_cache_value_that_breaks_the_theorem_exits_2(capsys, isolated_cache, argv, g, mu, num, den):
    _write_cache(isolated_cache, [(g, mu, num, den)])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {isolated_cache}:1: malformed cache line: cached value ") and "Traceback" not in err
    assert f"g={g}, mu=({','.join(map(str, mu))})" in err


def test_cache_keeps_the_theorems_exceptions(capsys, isolated_cache):
    _write_cache(
        isolated_cache,
        [(0, [1], 1, 1), (2, [1], 0, 1), (0, [2], 1, 2), (3, [1, 1], 1, 2), (0, [3], 1, 1)],
    )
    code, out, _ = run(capsys, "cache", "stats")
    assert code == 0 and out.startswith("5 entries")
    code, out, _ = run(capsys, "compute", "0", "3")
    assert code == 0 and "= 1" in out


@pytest.mark.parametrize("argv", [("compute", "0", "2"), ("cache", "stats")])
@pytest.mark.parametrize(
    "g, mu, num, den, fault",
    [(-1, [2], 1, 2, "genus must be non-negative"), (0, [], 1, 1, "empty ramification profile")],
)
def test_cache_key_that_is_not_a_hurwitz_key_exits_2(capsys, isolated_cache, argv, g, mu, num, den, fault):
    # Each value passes the integrality check, so only the key is at fault.
    _write_cache(isolated_cache, [(g, mu, num, den)])
    with open(isolated_cache, encoding="ascii") as fh:
        before = fh.read()
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {isolated_cache}:1: malformed cache line: {fault}\n"
    with open(isolated_cache, encoding="ascii") as fh:
        assert fh.read() == before


def test_compute_checks_the_key_before_it_reads_the_cache(capsys, isolated_cache):
    with open(isolated_cache, "w", encoding="ascii") as fh:
        fh.write("not json\n")
    code, out, err = run(capsys, "compute", "-1", "2")
    assert code == 2 and out == ""
    assert err == "error: genus must be non-negative\n"
    with open(isolated_cache, encoding="ascii") as fh:
        assert fh.read() == "not json\n"


@pytest.mark.parametrize("argv", [("compute", "1", "3"), ("compute", "0", "2"), ("cache", "stats")])
@pytest.mark.parametrize(
    "line",
    [
        '{"g":1.5,"mu":[3],"num":"2_7","den":1}',
        '{"g":true,"mu":[3],"num":"27","den":"1"}',
        '{"g":1,"mu":[3],"num":"027","den":"1"}',
        '{"g":1,"mu":[3],"num":"27","den":1}',
        '{"g":1,"mu":"21","num":"40","den":"1"}',
        '{"g":1,"mu":["2","1"],"num":"40","den":"1"}',
        '{"g":0,"mu":[2],"num":"2","den":"4"}',
        '{"g":1,"mu":[3],"num":"27","den":"1","x":1}',
    ],
)
def test_cache_line_that_save_could_not_have_written_exits_2(capsys, isolated_cache, argv, line):
    with open(isolated_cache, "w", encoding="ascii") as fh:
        fh.write(line + "\n")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {isolated_cache}:1: malformed cache line: ") and "Traceback" not in err
    with open(isolated_cache, encoding="ascii") as fh:
        assert fh.read() == line + "\n"


def test_cache_line_with_a_non_ascii_byte_exits_2(capsys, isolated_cache):
    data = b'{"g":0,"mu":[1],"num":"1","den":"1"}\n{"g":0,"mu":[2],"num":"1","den":"2","\xc3\xa9":1}\n'
    with open(isolated_cache, "wb") as fh:
        fh.write(data)
    code, out, err = run(capsys, "compute", "0", "3")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {isolated_cache}:2: malformed cache line: 'ascii' codec can't decode byte 0xc3")
    assert err.count("\n") == 1
    with open(isolated_cache, "rb") as fh:
        assert fh.read() == data


def test_conflict_with_the_file_at_save_exits_2_and_keeps_the_file(capsys, isolated_cache, monkeypatch):
    # Another run saves a different value for the key while this one computes.
    computed = hurwitz.cli.cmd_compute

    def compute_then_disk_changes(*args):
        line = computed(*args)
        _write_cache(isolated_cache, [(0, [3], 2, 1)])
        return line

    monkeypatch.setattr(hurwitz.cli, "cmd_compute", compute_then_disk_changes)
    code, out, err = run(capsys, "compute", "0", "3")
    assert code == 2
    assert out.startswith("h_{0,(3)} = 1  # method=cj") and out.count("\n") == 1
    assert err == "error: cache conflict at g=0, mu=(3): 1 != 2\n"
    with open(isolated_cache, encoding="ascii") as fh:
        assert fh.read() == '{"g": 0, "mu": [3], "num": "2", "den": "1"}\n'
    assert os.listdir(os.path.dirname(isolated_cache)) == ["cache.jsonl"]


def test_value_the_theorem_rules_out_written_during_a_run_exits_2_and_keeps_the_file(
    capsys, isolated_cache, monkeypatch
):
    # Another run writes a line the integrality theorem rules out while this one computes.
    bad = '{"g":5,"mu":[2],"num":"1","den":"3"}\n'
    computed = hurwitz.engine.hurwitz_number

    def compute_then_disk_changes(*args):
        value = computed(*args)
        with open(isolated_cache, "w", encoding="ascii") as fh:
            fh.write(bad)
        return value

    monkeypatch.setattr(hurwitz.engine, "hurwitz_number", compute_then_disk_changes)
    code, out, err = run(capsys, "compute", "0", "3")
    assert code == 2
    assert out.startswith("h_{0,(3)} = 1  # method=cj") and out.count("\n") == 1
    assert err == (
        f"error: {isolated_cache}:1: malformed cache line: "
        "cached value 1/3 at g=5, mu=(2) contradicts the integrality theorem\n"
    )
    with open(isolated_cache, encoding="ascii") as fh:
        assert fh.read() == bad
    assert os.listdir(os.path.dirname(isolated_cache)) == ["cache.jsonl"]


def _run_cli(*argv):
    """The CLI in a child process, so its lifted int/str digit limit stays there."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hurwitz.__file__)))
    return subprocess.run(
        [sys.executable, "-c", "from hurwitz.cli import main; raise SystemExit(main())", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture
def no_int_digit_limit():
    """Lift the int/str digit limit in this process for the test's own conversions."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
@pytest.mark.parametrize(
    "argv, status", [(("cache", "path"), 0), (("compute", "0", "x"), 2), (("table", "--format", "xml"), 2)]
)
def test_main_leaves_the_int_digit_limit_as_it_found_it(capsys, argv, status):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert run(capsys, *argv)[0] == status
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(old)


def test_values_beyond_4300_digits_print(no_int_digit_limit):
    value = str(hurwitz.one_part_closed(5000, 3))
    assert len(value) > 4300
    proc = _run_cli("compute", "5000", "3", "--method", "closed")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"h_{{5000,(3)}} = {value}  # method=closed ")


def test_values_beyond_4300_digits_load_and_save(isolated_cache, no_int_digit_limit):
    value = hurwitz.one_part_closed(5000, 3)
    line = f'{{"g":5000,"mu":[3],"num":"{value.numerator}","den":"1"}}\n'
    with open(isolated_cache, "w", encoding="ascii") as fh:
        fh.write(line)
    proc = _run_cli("compute", "5000", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"h_{{5000,(3)}} = {value}  # method=cj ")
    proc = _run_cli("compute", "0", "2")  # a miss: the cache is saved again
    assert proc.returncode == 0, proc.stderr
    with open(isolated_cache, encoding="ascii") as fh:
        saved = fh.readlines()
    assert saved[-1] == line and len(saved) > 1


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "0", "2^99999999999999999999"),  # a part count past a list's size
        ("compute", "0", "99999999999999999999", "--method", "oracle"),  # a factorial's argument
    ],
)
def test_input_too_large_for_a_machine_integer_exits_2(isolated_cache, argv):
    _write_cache(isolated_cache, [(0, [2], 1, 2)])
    with open(isolated_cache, "rb") as fh:
        before = fh.read()
    proc = _run_cli(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: the input is too large: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    with open(isolated_cache, "rb") as fh:
        assert fh.read() == before


def test_closed_stdout_exits_141_quietly_without_saving(tmp_path):
    # The CSV table is about 280 kB, far more than a pipe buffer holds, so the
    # CLI is still writing when the reader closes its end after one line.
    cache = tmp_path / "cache.jsonl"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hurwitz.__file__)))
    proc = subprocess.Popen(
        [
            sys.executable, "-c", "from hurwitz.cli import main; raise SystemExit(main())",
            "table", "--gmax", "40", "--nmax", "9", "--format", "csv", "--cache", str(cache),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"g,mu,value\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 141
    assert err == b""
    assert not cache.exists()


def test_importing_the_cli_loads_the_traced_modules_and_not_dataclasses():
    # perfbench/traced_cli.py wraps functions of these five modules right
    # after `import hurwitz.cli`, so the import must load each of them; the
    # dataclasses module would pull in inspect, ast, dis and tokenize.
    code = "import hurwitz.cli, sys; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hurwitz.__file__)))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "dataclasses" not in loaded and "inspect" not in loaded
    for name in ("engine", "symfunc", "partitions", "analysis", "oracle"):
        assert f"hurwitz.{name}" in loaded, name
