import hashlib
import json
import os
import subprocess
import sys

import pytest

import hurwitz
from hurwitz.cli import (
    UsageError,
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--rmax", "-1"), "rmax must be non-negative"),
        (("table", "--nmax", "-1"), "bounds must be non-negative"),
        (("table", "--gmax", "-1"), "bounds must be non-negative"),
        (("compute", "0", "1^0"), "empty partition"),
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
    with pytest.raises(SystemExit) as err:
        main(["table", "--format", "xml"])
    assert err.value.code == 2


def test_verify_failure_exits_1(capsys, monkeypatch):
    import hurwitz.engine

    real = hurwitz.engine.connected_from_log

    def corrupted(g, mu, method="operator"):
        value = real(g, mu, method=method)
        return value + 1 if (g, mu) == (0, (3,)) else value

    monkeypatch.setattr(hurwitz.engine, "connected_from_log", corrupted)
    code, out, _ = run(capsys, "verify", "--rmax", "2")
    assert code == 1
    assert "FAIL cross-method" in out


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
        "  mismatch g=0 mu=(3,) one-part-genus0: 1 expected 2",
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
        "  mismatch g=0 mu=(3,) positive-integer: 1",
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
        "  mismatch g=0 mu=(1, 1) merge-equal: 1/2 h[0,(2)]",
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

    monkeypatch.setattr(hurwitz.engine, "_log_tables", {})
    for method, builder in list(hurwitz.engine._SERIES_BUILDERS.items()):
        monkeypatch.setitem(hurwitz.engine._SERIES_BUILDERS, method, counted(method, builder))
    code, out, _ = run(capsys, "verify", "--rmax", "6", "--cache", str(tmp_path / "v.jsonl"))
    assert code == 0 and "FAIL" not in out
    assert calls == {"operator": [(7, 6)], "charsum": [(7, 6)]}


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


def test_compute_persists_cache_across_invocations(capsys, isolated_cache):
    run(capsys, "compute", "2", "2,1", "--method", "cj")
    size_first = os.path.getsize(isolated_cache)
    run(capsys, "compute", "2", "2,1", "--method", "cj")
    assert os.path.getsize(isolated_cache) == size_first


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
    assert err.startswith(f"error: {isolated_cache}: ") and "Traceback" not in err
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
@pytest.mark.parametrize("g, mu, num, den", [(-1, [2], 1, 2), (0, [], 1, 1)])
def test_cache_key_that_is_not_a_hurwitz_key_exits_2(capsys, isolated_cache, argv, g, mu, num, den):
    # Each value passes the integrality check, so only the key is at fault.
    _write_cache(isolated_cache, [(g, mu, num, den)])
    with open(isolated_cache, encoding="ascii") as fh:
        before = fh.read()
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    mu_text = ",".join(map(str, mu))
    assert err == f"error: {isolated_cache}: cached key g={g}, mu=({mu_text}) is not a Hurwitz key\n"
    with open(isolated_cache, encoding="ascii") as fh:
        assert fh.read() == before


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
