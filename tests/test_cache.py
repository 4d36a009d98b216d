import json
import os
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hurwitz import CacheConflictError, HurwitzCache, cache_load, hurwitz_number
from hurwitz.analysis import keys_with_ramification_at_most
from hurwitz.partitions import as_partition, ramification


def test_insert_get_and_idempotence():
    cache = HurwitzCache()
    cache.insert(0, (1,), Fraction(1))
    assert cache.twice.get((0, (1,))) == 2
    cache.insert(0, (1,), Fraction(1))  # same value: no-op
    assert len(cache) == 1
    with pytest.raises(CacheConflictError):
        cache.insert(0, (1,), Fraction(2))


def test_save_load_roundtrip(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = HurwitzCache(path)
    cache.insert(0, (1,), Fraction(1))
    cache.insert(0, (2,), Fraction(1, 2))
    cache.insert(2, (2, 1), Fraction(364))
    cache.save()
    loaded = cache_load(path)
    assert loaded.twice == cache.twice
    assert loaded.path == path


def test_insert_stores_at_the_canonical_key_that_load_gives_back(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = HurwitzCache(path)
    cache.insert(0, (1, 2), Fraction(4))
    assert cache.twice == {(0, (2, 1)): 8}
    cache.save()
    assert cache_load(path).twice == {(0, (2, 1)): 8}


def test_failed_save_keeps_the_old_file_and_leaves_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    cache = HurwitzCache(str(path))
    cache.insert(0, (1,), Fraction(1))
    cache.save()
    before = path.read_bytes()

    def broken_replace(src, dst):
        raise OSError("disk full")

    cache.insert(0, (2,), Fraction(1, 2))
    monkeypatch.setattr(os, "replace", broken_replace)
    with pytest.raises(OSError, match="disk full"):
        cache.save()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["cache.jsonl"]
    assert cache.twice[(0, (2,))] == 1


def test_load_missing_path_gives_empty_cache_at_that_path(tmp_path):
    path = str(tmp_path / "absent.jsonl")
    loaded = cache_load(path)
    assert len(loaded) == 0
    assert loaded.path == path and not os.path.exists(path)


def test_save_without_a_path_is_refused():
    cache = HurwitzCache()
    cache.insert(0, (1,), Fraction(1))
    with pytest.raises(ValueError, match="^no cache path configured$"):
        cache.save()
    assert cache.twice == {(0, (1,)): 2}


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('\n{"g":0,"mu":[2],"num":"1","den":"2"}\n\n  \n{"g":1,"mu":[3],"num":"27","den":"1"}\n\n')
    assert cache_load(str(path)).twice == {(0, (2,)): 1, (1, (3,)): 54}


def test_load_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"g":0,"mu":[1],"num":"1","den":"1"}\nnot json\n')
    with pytest.raises(ValueError, match=":2:"):
        cache_load(str(path))


def test_load_rejects_nonpositive_denominator(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"g":0,"mu":[1],"num":"1","den":"0"}\n')
    with pytest.raises(ValueError, match=":1:"):
        cache_load(str(path))


def test_load_repeated_key_with_a_different_value_is_a_conflict(tmp_path):
    path = tmp_path / "twice.jsonl"
    path.write_text(
        '{"g":0,"mu":[3],"num":"1","den":"1"}\n'
        '{"g":0,"mu":[3],"num":"1","den":"1"}\n'
        '{"g":0,"mu":[3],"num":"2","den":"1"}\n'
    )
    with pytest.raises(CacheConflictError, match=r"g=0, mu=\(3,\): 1 != 2"):
        cache_load(str(path))


def test_load_ends_lines_where_text_mode_does(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b'{"g":0,"mu":[2],"num":"1","den":"2"}\r{"g":1,"mu":[3],"num":"27","den":"1"}\r\n\x0c\n')
    assert cache_load(str(path)).twice == {(0, (2,)): 1, (1, (3,)): 54}


def test_load_rejects_a_profile_that_is_not_a_partition(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"g":0,"mu":[1],"num":"1","den":"1"}\n{"g":0,"mu":[1,2],"num":"1","den":"1"}\n')
    with pytest.raises(ValueError, match=f"{path}:2: malformed cache line"):
        cache_load(str(path))


@pytest.mark.parametrize(
    "line",
    [
        '{"g":1.5,"mu":[3],"num":"2_7","den":1}',
        '{"g":1.5,"mu":[3],"num":"27","den":"1"}',
        '{"g":true,"mu":[3],"num":"27","den":"1"}',
        '{"g":"1","mu":[3],"num":"27","den":"1"}',
        '{"g":1,"mu":[3],"num":"2_7","den":"1"}',
        '{"g":1,"mu":[3],"num":" 27","den":"1"}',
        '{"g":1,"mu":[3],"num":"+27","den":"1"}',
        '{"g":1,"mu":[3],"num":"027","den":"1"}',
        '{"g":1,"mu":[3],"num":"-0","den":"1"}',
        '{"g":1,"mu":[3],"num":27,"den":"1"}',
        '{"g":1,"mu":[3],"num":"27","den":1}',
        '{"g":1,"mu":[3],"num":"27","den":"+1"}',
        '{"g":1,"mu":[3],"num":"27","den":"01"}',
    ],
)
def test_load_refuses_a_line_that_save_could_not_have_written(tmp_path, line):
    path = tmp_path / "c.jsonl"
    path.write_text('{"g":0,"mu":[1],"num":"1","den":"1"}\n' + line + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: malformed cache line: "):
        cache_load(str(path))


def test_load_accepts_the_lines_save_writes(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"g":0,"mu":[1],"num":"1","den":"1"}\n'
        '{"g":1,"mu":[3],"num":"27","den":"1"}\n'
        '{"g":0,"mu":[2],"num":"1","den":"2"}\n'
        '{"g":1,"mu":[1],"num":"0","den":"1"}\n'
    )
    assert cache_load(str(path)).twice == {(0, (1,)): 2, (1, (3,)): 54, (0, (2,)): 1, (1, (1,)): 0}


@pytest.mark.parametrize(
    "line, fault",
    [
        ('{"g":0,"mu":[2],"num":"2","den":"4"}', "2/4 is not in lowest terms"),
        ('{"g":1,"mu":[1],"num":"0","den":"5"}', "0/5 is not in lowest terms"),
        ('{"g":0,"mu":[2],"num":"1","den":"2","x":1,"a":[]}', "unexpected fields: ['a', 'x']"),
    ],
)
def test_load_names_a_reducible_fraction_or_an_extra_field(tmp_path, line, fault):
    path = tmp_path / "c.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ValueError) as info:
        cache_load(str(path))
    assert str(info.value) == f"{path}:1: malformed cache line: {fault}"


def test_load_accepts_any_spacing_and_key_order(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{ "den": "2",  "mu": [ 2 ], "num": "1", "g": 0 }\n{"g": 1, "mu": [3], "num": "27", "den": "1"}\n')
    assert cache_load(str(path)).twice == {(0, (2,)): 1, (1, (3,)): 54}


@pytest.mark.parametrize(
    "g, mu, message",
    [
        (True, (2,), "genus is not an integer: True"),
        (1.5, (3,), "genus is not an integer: 1.5"),
        (-1, (2,), "genus must be non-negative"),
        (0, (), "empty ramification profile"),
        (0, (True,), "not a partition: (True,)"),
    ],
)
def test_insert_refuses_a_key_that_load_refuses(g, mu, message):
    cache = HurwitzCache()
    with pytest.raises(ValueError) as info:
        cache.insert(g, mu, Fraction(1, 2))
    assert str(info.value) == message
    assert cache.twice == {}


def _reference_load(path):
    """Entries of a cache file read the plain way: `as_partition` on each profile."""
    entries = {}
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                g = int(rec["g"])
                mu = as_partition(map(int, rec["mu"]))
                num, den = int(rec["num"]), int(rec["den"])
                if den <= 0:
                    raise ValueError("denominator must be positive")
            except Exception as exc:
                raise ValueError(f"{path}:{lineno}: malformed cache line: {exc}") from exc
            value = Fraction(num, den)
            old = entries.setdefault((g, mu), value)
            if old != value:
                raise CacheConflictError(f"cache conflict at g={g}, mu={mu}: {old} != {value}")
    return entries


@pytest.mark.parametrize(
    "mu",
    [
        [2, 1], [3, 3, 1],  # accepted
        [],  # a partition, but not of a Hurwitz key
        [1, 2], [2, 1, 2],  # ascending
        [0], [2, 0], [3, 1, 0],  # zero
        [-1], [2, -1],  # negative
        ["2", "1"], [2.0, 1], [True],  # a list, but not of integers
        "21", {"2": 0, "1": 0},  # not a list
        [""], [2, ""],  # empty string
        ["x"], [2, "1.5"], [None], 7,  # not numeric
    ],
)
def test_load_refuses_exactly_the_profiles_as_partition_refuses(tmp_path, mu):
    # `save` writes a profile as a JSON array, so any other JSON value is
    # refused before `as_partition` sees it; an array item that is not a JSON
    # integer gets `as_partition`'s message.
    path = tmp_path / "c.jsonl"
    line = json.dumps({"g": 1, "mu": mu, "num": "1", "den": "1"})
    path.write_text('{"g":0,"mu":[1],"num":"1","den":"1"}\n' + line + "\n")
    try:
        if type(mu) is not list:
            raise ValueError(f"profile is not a list of integers: {mu!r}")
        expected = as_partition(mu)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            cache_load(str(path))
        assert str(info.value) == f"{path}:2: malformed cache line: {exc}"
    else:
        if not expected:
            with pytest.raises(ValueError) as info:
                cache_load(str(path))
            assert str(info.value) == f"{path}:2: malformed cache line: empty ramification profile"
        else:
            assert list(cache_load(str(path)).twice.items()) == [((0, (1,)), 2), ((1, expected), 2)]


@pytest.mark.parametrize(
    "g, mu, fault",
    [
        (-1, [2], "genus must be non-negative"),
        (-3, [1, 1], "genus must be non-negative"),
        (0, [], "empty ramification profile"),
    ],
)
def test_load_refuses_a_key_that_is_not_a_hurwitz_key(tmp_path, g, mu, fault):
    # The value 1/2 passes every value check, so only the key is at fault.
    path = tmp_path / "c.jsonl"
    line = json.dumps({"g": g, "mu": mu, "num": "1", "den": "2"}, separators=(",", ":"))
    path.write_text('{"g":0,"mu":[1],"num":"1","den":"1"}\n' + line + "\n")
    with pytest.raises(ValueError) as info:
        cache_load(str(path))
    assert str(info.value) == f"{path}:2: malformed cache line: {fault}"


def test_load_reports_the_first_offending_line_in_file_order(tmp_path):
    path = tmp_path / "c.jsonl"
    key = '{"g":-1,"mu":[2],"num":"1","den":"2"}\n'
    malformed = '{"g":0,"mu":[1,2],"num":"1","den":"1"}\n'
    path.write_text(key + malformed)
    with pytest.raises(ValueError) as info:
        cache_load(str(path))
    assert str(info.value) == f"{path}:1: malformed cache line: genus must be non-negative"
    path.write_text(malformed + key)
    with pytest.raises(ValueError) as info:
        cache_load(str(path))
    assert str(info.value) == f"{path}:1: malformed cache line: not a partition: (1, 2)"


# JSON fragments for each field of a cache record: mostly what `save` writes,
# on few enough keys that lines repeat and conflict; else a wrong JSON type,
# or a decimal string or number past Python's default 4,300-digit limit for
# int/str conversion.
_WRONG_TYPES = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
    st.lists(st.one_of(st.integers(-1, 4), st.text(max_size=1), st.booleans()), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
).map(json.dumps)
_LONG_DIGITS = st.integers(4290, 4310).map(lambda n: "9" * n)
_FIELDS = {
    "g": (st.integers(0, 1).map(str), st.one_of(st.just("-1"), _WRONG_TYPES)),
    "mu": (st.sampled_from(["[1]", "[2]", "[1,1]"]), st.one_of(st.just("[1,2]"), _WRONG_TYPES)),
    "num": (st.sampled_from(['"1"', '"3"']), st.one_of(_LONG_DIGITS.map(json.dumps), _LONG_DIGITS, _WRONG_TYPES)),
    "den": (st.sampled_from(['"1"', '"2"']), st.one_of(st.just('"0"'), _LONG_DIGITS.map(json.dumps), _WRONG_TYPES)),
}


@st.composite
def _cache_lines(draw):
    parts = []
    for name, (good, bad) in _FIELDS.items():
        if draw(st.integers(0, 49)):  # now and then a field is missing
            parts.append(f'"{name}":{draw(good if draw(st.integers(0, 9)) else bad)}')
    line = ("{" + ",".join(parts) + "}").encode()
    cut = draw(st.integers(0, len(line)))
    if draw(st.integers(0, 11)) == 0:
        line = line[:cut]  # a truncated record
    elif draw(st.integers(0, 11)) == 0:
        line = line[:cut] + draw(st.sampled_from([b"\x00", b"\xc3\xa9", b"\xff", b"\x85", b"\r"])) + line[cut:]
    return line


@example([b'{"g":0,"mu":[2],"num":"1","den":"2","\xc3\xa9":1}'])
@example([b'{"g":0,"mu":[3],"num":"1","den":"1"}', b'{"g":0,"mu":[3],"num":"2","den":"1"}'])
@example([b'{"g":0,"mu":[2],"num":"1","den":"' + b"1" * 4301 + b'"}'])
@example([b'{"g":0,"mu":[2],"num":' + b"1" * 4301 + b',"den":"1"}'])
@settings(deadline=None)
@given(st.lists(_cache_lines(), max_size=4))
def test_load_of_any_bytes_loads_conflicts_or_names_the_line(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("fuzz") / "c.jsonl"
    path.write_bytes(b"\n".join(lines))
    try:
        cache_load(str(path))
    except CacheConflictError:
        pass
    except ValueError as exc:
        assert re.match(rf"{re.escape(str(path))}:[1-9][0-9]*: malformed cache line: ", str(exc)), str(exc)


def test_load_matches_the_plain_reader_on_every_key_up_to_branch_count_18(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = HurwitzCache(path)
    for g, mu in keys_with_ramification_at_most(18):
        hurwitz_number(g, mu, cache)
    cache.save()
    assert list(cache_load(path).twice.items()) == [(key, 2 * value) for key, value in _reference_load(path).items()]


def test_recursion_stores_its_values_without_insert(monkeypatch):
    def refuse(*args):
        raise AssertionError("insert called")

    monkeypatch.setattr(HurwitzCache, "insert", refuse)
    cache = HurwitzCache()
    assert hurwitz_number(2, (2, 1), cache) == 364
    assert cache.twice.get((0, (1,))) == 2 and cache.twice.get((2, (2, 1))) == 728


def test_merge_conflict_is_fatal():
    a = HurwitzCache()
    a.insert(1, (3,), Fraction(9))
    b = HurwitzCache()
    b.insert(1, (3,), Fraction(8))
    with pytest.raises(CacheConflictError):
        a.merge(b)


def test_merge_of_agreeing_caches():
    a = HurwitzCache()
    a.insert(1, (3,), Fraction(9))
    b = HurwitzCache()
    b.insert(1, (3,), Fraction(9))
    b.insert(0, (3,), Fraction(1))
    a.merge(b)
    assert len(a) == 2


def test_two_caches_saving_one_path_in_turn_keep_both_new_keys(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    start = HurwitzCache(path)
    start.insert(0, (1,), Fraction(1))
    start.save()
    a, b = cache_load(path), cache_load(path)
    a.insert(0, (2,), Fraction(1, 2))
    b.insert(1, (3,), Fraction(9))
    a.save()
    b.save()
    assert cache_load(path).twice == {(0, (1,)): 2, (0, (2,)): 1, (1, (3,)): 18}


def test_save_over_a_file_that_disagrees_is_a_conflict_and_keeps_the_file(tmp_path):
    path = tmp_path / "cache.jsonl"
    disk = HurwitzCache(str(path))
    disk.insert(1, (3,), Fraction(8))
    disk.insert(0, (1,), Fraction(1))
    disk.save()
    before = path.read_bytes()
    cache = HurwitzCache(str(path))
    cache.insert(1, (3,), Fraction(9))
    with pytest.raises(CacheConflictError) as info:
        cache.save()
    assert str(info.value) == "cache conflict at g=1, mu=(3,): 9 != 8"
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["cache.jsonl"]


@pytest.mark.parametrize(
    "g, mu, value, shown",
    [(5, (2,), Fraction(1, 3), "(2)"), (0, (3,), Fraction(1, 2), "(3)"), (2, (1,), Fraction(1), "(1)"),
     (0, (2, 1), Fraction(-4), "(2,1)"), (1, (3,), Fraction(0), "(3)")],
)
def test_insert_refuses_a_value_the_theorem_rules_out(g, mu, value, shown):
    cache = HurwitzCache()
    with pytest.raises(ValueError) as info:
        cache.insert(g, mu, value)
    assert str(info.value) == f"cached value {value} at g={g}, mu={shown} contradicts the integrality theorem"
    assert type(info.value) is ValueError
    assert cache.twice == {}


def test_save_over_a_file_with_a_value_the_theorem_rules_out_raises_and_keeps_the_file(tmp_path):
    # Another run wrote the line after this cache was loaded.
    path = tmp_path / "cache.jsonl"
    bad = b'{"g":5,"mu":[2],"num":"1","den":"3"}\n'
    path.write_bytes(bad)
    cache = HurwitzCache(str(path))
    cache.insert(0, (3,), Fraction(1))
    with pytest.raises(ValueError) as info:
        cache.save()
    assert str(info.value) == (
        f"{path}:1: malformed cache line: cached value 1/3 at g=5, mu=(2) contradicts the integrality theorem"
    )
    assert path.read_bytes() == bad
    assert os.listdir(tmp_path) == ["cache.jsonl"]


def test_save_is_byte_stable_and_order_independent(tmp_path):
    entries = [(0, (1,), Fraction(1)), (1, (3,), Fraction(9)), (0, (2, 2), Fraction(12)), (0, (4,), Fraction(4))]
    p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    a = HurwitzCache(p1)
    for g, mu, v in entries:
        a.insert(g, mu, v)
    a.save()
    b = HurwitzCache(p2)
    for g, mu, v in reversed(entries):
        b.insert(g, mu, v)
    b.save()
    data1 = Path(p1).read_bytes()
    assert data1 == Path(p2).read_bytes()
    a.save()  # repeated save identical
    assert Path(p1).read_bytes() == data1


def test_file_format_fields(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = HurwitzCache(path)
    cache.insert(0, (2,), Fraction(1, 2))
    cache.save()
    lines = Path(path).read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec == {"g": 0, "mu": [2], "num": "1", "den": "2"}


def test_save_lines_are_the_compact_json_of_each_record(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = HurwitzCache(path)
    cache.insert(0, (2,), Fraction(1, 2))
    cache.insert(3, (1,), Fraction(0))
    cache.insert(6, (4, 3, 3, 1), Fraction(10**29 + 7))
    with pytest.raises(ValueError, match="contradicts the integrality theorem"):
        cache.insert(1, (2, 2), Fraction(-(10**29) - 1, 3))
    cache.insert(1, (2, 2), Fraction(3 * 10**29 + 1))
    cache.save()
    expected = [
        json.dumps(
            {"g": g, "mu": list(mu), "num": str(v.numerator), "den": str(v.denominator)},
            separators=(",", ":"),
        )
        for g, mu, v in [
            (0, (2,), Fraction(1, 2)),
            (1, (2, 2), Fraction(3 * 10**29 + 1)),
            (3, (1,), Fraction(0)),
            (6, (4, 3, 3, 1), Fraction(10**29 + 7)),
        ]
    ]
    assert Path(path).read_text(encoding="ascii").splitlines() == expected


def test_sort_order_is_by_branch_count_then_genus(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = HurwitzCache(path)
    cache.insert(1, (1,), Fraction(0))   # r = 2
    cache.insert(0, (1,), Fraction(1))   # r = 0
    cache.insert(0, (2,), Fraction(1, 2))  # r = 1
    cache.insert(0, (1, 1), Fraction(1, 2))  # r = 2
    cache.save()
    lines = Path(path).read_text().splitlines()
    keys = [(json.loads(line)["g"], tuple(json.loads(line)["mu"])) for line in lines]
    assert keys == [(0, (1,)), (0, (2,)), (0, (1, 1)), (1, (1,))]


def _admitted(g, mu, value):
    """The integrality theorem, stated apart from the engine's check."""
    if mu == (1,) and g >= 1:
        return value == 0
    if mu in ((2,), (1, 1)):
        return value == Fraction(1, 2)
    return value.denominator == 1 and value > 0


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
            st.integers(min_value=1),
            st.fractions(),
        ),
        max_size=12,
    )
)
def test_roundtrip_random_entries(tmp_path_factory, entries):
    path = str(tmp_path_factory.mktemp("cache") / "c.jsonl")
    cache = HurwitzCache(path)
    for g, mu, n, other in entries:
        key = tuple(sorted(mu, reverse=True))
        if not _admitted(g, key, other):
            before = dict(cache.twice)
            with pytest.raises(ValueError, match="contradicts the integrality theorem"):
                cache.insert(g, key, other)
            assert cache.twice == before
        if cache.twice.get((g, key)) is None:
            value = next(v for v in (Fraction(n), Fraction(1, 2), Fraction(0)) if _admitted(g, key, v))
            cache.insert(g, key, value)
    cache.save()
    assert cache_load(path).twice == cache.twice


def test_recursion_reuses_persisted_values(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = HurwitzCache(path)
    hurwitz_number(2, (2, 1), cache)
    cache.save()
    warm = cache_load(path)
    n_before = len(warm)
    assert hurwitz_number(2, (2, 1), warm) == 364
    assert len(warm) == n_before  # nothing recomputed, nothing new inserted


def test_a_loaded_cache_feeds_the_recursion(tmp_path):
    # Every child of an r = 10 key has r <= 9, so each is read from the loaded
    # file as 2h, integral values included, and none is recomputed.
    path = str(tmp_path / "cache.jsonl")
    cold = HurwitzCache(path)
    for g, mu in keys_with_ramification_at_most(9):
        hurwitz_number(g, mu, cold)
    cold.save()
    warm = cache_load(path)
    fresh = HurwitzCache()
    top = [(g, mu) for g, mu in keys_with_ramification_at_most(10) if ramification(g, mu) == 10]
    for g, mu in top:
        assert hurwitz_number(g, mu, warm) == hurwitz_number(g, mu, fresh), (g, mu)
    assert len(warm) == len(cold) + len(top)
