import json
import os

import pytest

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
    for bad in ("", "0", "a", "2,", "1^x", "-1", "2^-1"):
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


def test_parity_command(capsys):
    code, out, _ = run(capsys, "parity", "--rmax", "8")
    assert code == 0
    assert "0 failures" in out
    code, _, err = run(capsys, "parity", "--rmax", "16")
    assert code == 2 and "--allow-long" in err


def test_parity_json_output(capsys):
    code, out, _ = run(capsys, "parity", "--rmax", "8", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == 0
    flattened = {
        (g, tuple(mu)) for _, pairs in report["data"]["converse_failures"] for g, mu in pairs
    }
    assert flattened == {(1, (7,)), (1, (5, 1)), (1, (3, 3))}


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
