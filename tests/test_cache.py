import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hurwitz import CacheConflictError, HurwitzCache, cache_load, hurwitz_number


def test_insert_get_and_idempotence():
    cache = HurwitzCache()
    cache.insert(0, (1,), Fraction(1))
    assert cache.get(0, (1,)) == 1
    cache.insert(0, (1,), Fraction(1))  # same value: no-op
    assert len(cache) == 1
    with pytest.raises(CacheConflictError):
        cache.insert(0, (1,), Fraction(2))


def test_save_load_roundtrip(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = HurwitzCache()
    cache.insert(0, (1,), Fraction(1))
    cache.insert(0, (2,), Fraction(1, 2))
    cache.insert(2, (2, 1), Fraction(364))
    cache.save(path)
    loaded = cache_load(path)
    assert loaded.entries == cache.entries
    assert not loaded.missing_on_load


def test_failed_save_keeps_the_old_file_and_leaves_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    cache = HurwitzCache()
    cache.insert(0, (1,), Fraction(1))
    cache.save(str(path))
    before = path.read_bytes()

    def broken_replace(src, dst):
        raise OSError("disk full")

    cache.insert(0, (2,), Fraction(1, 2))
    monkeypatch.setattr(os, "replace", broken_replace)
    with pytest.raises(OSError, match="disk full"):
        cache.save(str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["cache.jsonl"]
    assert cache.dirty


def test_load_missing_path_gives_empty_cache_with_flag(tmp_path):
    loaded = cache_load(str(tmp_path / "absent.jsonl"))
    assert len(loaded) == 0
    assert loaded.missing_on_load


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


def test_save_is_byte_stable_and_order_independent(tmp_path):
    entries = [(0, (1,), Fraction(1)), (1, (3,), Fraction(9)), (0, (2, 2), Fraction(12)), (0, (4,), Fraction(4))]
    p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    a = HurwitzCache()
    for g, mu, v in entries:
        a.insert(g, mu, v)
    a.save(p1)
    b = HurwitzCache()
    for g, mu, v in reversed(entries):
        b.insert(g, mu, v)
    b.save(p2)
    data1 = open(p1, "rb").read()
    assert data1 == open(p2, "rb").read()
    a.save(p1)  # repeated save identical
    assert open(p1, "rb").read() == data1


def test_file_format_fields(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = HurwitzCache()
    cache.insert(0, (2,), Fraction(1, 2))
    cache.save(path)
    lines = open(path).read().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec == {"g": 0, "mu": [2], "num": "1", "den": "2"}


def test_sort_order_is_by_branch_count_then_genus(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = HurwitzCache()
    cache.insert(1, (1,), Fraction(0))   # r = 2
    cache.insert(0, (1,), Fraction(1))   # r = 0
    cache.insert(0, (2,), Fraction(1, 2))  # r = 1
    cache.insert(0, (1, 1), Fraction(1, 2))  # r = 2
    cache.save(path)
    keys = [(json.loads(line)["g"], tuple(json.loads(line)["mu"])) for line in open(path)]
    assert keys == [(0, (1,)), (0, (2,)), (0, (1, 1)), (1, (1,))]


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
            st.fractions(),
        ),
        max_size=12,
    )
)
def test_roundtrip_random_entries(tmp_path_factory, entries):
    path = str(tmp_path_factory.mktemp("cache") / "c.jsonl")
    cache = HurwitzCache()
    for g, mu, value in entries:
        key = tuple(sorted(mu, reverse=True))
        if cache.get(g, key) is None:
            cache.insert(g, key, value)
    cache.save(path)
    assert cache_load(path).entries == cache.entries


def test_recursion_reuses_persisted_values(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = HurwitzCache()
    hurwitz_number(2, (2, 1), cache)
    cache.save(path)
    warm = cache_load(path)
    n_before = len(warm)
    assert hurwitz_number(2, (2, 1), warm) == 364
    assert len(warm) == n_before  # nothing recomputed, nothing new inserted
