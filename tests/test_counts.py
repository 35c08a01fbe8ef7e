"""Multiplicity tables: compression, weighted sums, file ingestion."""

import gc
import math
import tracemalloc
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bayesdiv import counts as counts_module
from bayesdiv.counts import build_table, load_count_files
from bayesdiv.estimators import _canonical_orientation

from _oracles import brute_double_sum, expand_counts


def _rows(table):
    return {(int(n), int(m)): int(nu) for n, m, nu in zip(table.n, table.m, table.nu)}


# --- construction -----------------------------------------------------------

def test_build_table_basic_compression():
    table = build_table([3, 3, 1, 0], [0, 0, 2, 5], 4)
    assert table.K == 4 and table.N == 7 and table.M == 7
    assert _rows(table) == {(3, 0): 2, (1, 2): 1, (0, 5): 1}
    assert int(table.nu.sum()) == 4


def test_build_table_pads_unlisted_categories():
    table = build_table([2, 1], [1, 1], 10)
    assert _rows(table)[(0, 0)] == 8
    assert int(table.nu.sum()) == 10


def test_build_table_merges_explicit_and_padded_zeros():
    table = build_table([2, 0, 0], [1, 0, 0], 5)
    assert _rows(table)[(0, 0)] == 4


def test_build_table_empty_samples():
    table = build_table([], [], 7)
    assert table.N == 0 and table.M == 0
    assert _rows(table) == {(0, 0): 7}


@st.composite
def _listed_counts(draw):
    """K from 1 to 30 and two aligned count vectors of length 0..K.  Counts
    are small, so that pairs (explicit (0, 0) ones among them) repeat, or
    reach 1e12; either vector may be all zero."""
    K = draw(st.integers(1, 30))
    listed = draw(st.integers(0, K))
    count = st.integers(0, 3) | st.integers(0, 10**12)
    sample = st.lists(count, min_size=listed, max_size=listed) | st.just([0] * listed)
    return draw(sample), draw(sample), K


@settings(max_examples=100, deadline=None)
@given(_listed_counts())
def test_build_table_matches_a_counter_of_pairs(case):
    n, m, K = case
    pairs = Counter(zip(n, m))
    pairs[(0, 0)] += K - len(n)
    expected = {pair: nu for pair, nu in pairs.items() if nu}
    table = build_table(n, m, K)
    assert _rows(table) == expected
    assert len(table.nu) == len(expected)
    assert (table.K, table.N, table.M) == (K, sum(n), sum(m))
    for arr in (table.n, table.m, table.nu):
        assert arr.dtype == np.int64
        assert not arr.flags.writeable
    # the tables the estimators see: this one and, from either sample
    # order, the canonical orientation, which may swap the samples
    mirror = build_table(m, n, K)
    for seen in (table, _canonical_orientation(table)[0], _canonical_orientation(mirror)[0]):
        _assert_sorted_with_levels(seen)


def _assert_sorted_with_levels(table):
    """Rows sorted by (n, m), and each sample's levels reproduce its counts."""
    pairs = list(zip(table.n.tolist(), table.m.tolist()))
    assert pairs == sorted(set(pairs))
    for counts, levels in ((table.n, table.n_levels), (table.m, table.m_levels)):
        assert levels.values.tolist() == sorted(set(counts.tolist()))
        assert np.array_equal(levels.values[levels.index], counts)
        per_level = Counter()
        for c, nu in zip(counts.tolist(), table.nu.tolist()):
            per_level[c] += nu
        assert levels.nu.tolist() == [per_level[v] for v in levels.values.tolist()]
        for arr in (levels.values, levels.nu, levels.index):
            assert not arr.flags.writeable


def test_build_table_accepts_integer_valued_floats():
    table = build_table(np.array([1.0, 2.0]), np.array([0.0, 3.0]), 2)
    assert table.N == 3 and table.M == 3


def test_build_table_rejects_bad_input():
    with pytest.raises(ValueError):
        build_table([1, -1], [0, 0], 2)
    with pytest.raises(ValueError):
        build_table([1.5], [1], 1)
    with pytest.raises(ValueError):
        build_table([1, 2], [0], 2)
    with pytest.raises(ValueError):
        build_table([1, 2, 3], [0, 0, 0], 2)
    with pytest.raises(ValueError):
        build_table([[1], [2]], [[0], [0]], 2)
    with pytest.raises(ValueError):
        build_table([1], [1], 0)
    with pytest.raises(ValueError, match="K must"):
        build_table([1], [1], 2**63)


def _int64(*values):
    return np.array(values, dtype=np.int64)


# (the rule's message, one broken invariant) applied to the table of
# build_table([2, 1], [0, 3], 3): rows (0, 0), (1, 3), (2, 0), each
# once, N = M = 3
SHAPE, SIGN, ORDER, SUM = "1-D int64 arrays", "non-negative", "sorted", "sum to K"
BROKEN_TABLES = {
    "float counts": (SHAPE, dict(n=np.array([0.0, 1.0, 2.0]))),
    "two-dimensional": (SHAPE, dict(m=_int64(0, 3, 0).reshape(1, 3))),
    "empty": (SHAPE, dict(n=_int64(), m=_int64(), nu=_int64(), K=0, N=0, M=0)),
    "lengths differ": (SHAPE, dict(m=_int64(0, 3))),
    "negative count": (SIGN, dict(n=_int64(-1, 1, 2), N=2)),
    "nu below 1": (SIGN, dict(nu=_int64(0, 1, 2), N=5)),
    "rows unsorted": (ORDER, dict(n=_int64(1, 0, 2), m=_int64(3, 0, 0))),
    "rows repeated": (ORDER, dict(n=_int64(0, 2, 2), m=_int64(0, 0, 0), N=4, M=0)),
    "nu not summing to K": (SUM, dict(K=4)),
    "wrong N": ("N must", dict(N=99)),
    "wrong M": ("M must", dict(M=2)),
    # 2 * 2^62 wraps to -2^63 in int64
    "N wrapped in int64": ("N must", dict(n=_int64(0, 2**62), m=_int64(0, 0),
                                          nu=_int64(1, 2), N=-(2**63), M=0)),
}


@pytest.mark.parametrize("rule, changes", BROKEN_TABLES.values(), ids=BROKEN_TABLES.keys())
def test_table_rejects_a_broken_invariant(rule, changes):
    table = build_table([2, 1], [0, 3], 3)
    assert (_rows(table), table.N, table.M) == ({(0, 0): 1, (1, 3): 1, (2, 0): 1}, 3, 3)
    with pytest.raises(ValueError, match=rule):
        replace(table, **changes)


def test_table_arrays_are_read_only():
    table = build_table([1, 2], [0, 1], 3)
    with pytest.raises(ValueError):
        table.nu[0] = 99


def test_tables_compare_and_hash_by_identity():
    # the fields are arrays, whose == has no single truth value
    table, twin = build_table([1, 2], [0, 1], 3), build_table([1, 2], [0, 1], 3)
    assert table == table and not table != table
    assert table != twin and not table == twin
    assert len({table, twin, table}) == 2
    assert hash(table.n_levels) == hash(table.n_levels)
    assert table.n_levels != twin.n_levels


def test_observed_categories_counts_positive_rows():
    table = build_table([2, 1, 0, 0], [0, 3, 3, 0], 6)
    assert table.observed_categories(1) == 2
    assert table.observed_categories(2) == 2


def test_joint_permutation_gives_identical_table():
    rng = np.random.default_rng(2)
    n = rng.integers(0, 9, size=12)
    m = rng.integers(0, 9, size=12)
    perm = rng.permutation(12)
    a = build_table(n, m, 15)
    b = build_table(n[perm], m[perm], 15)
    assert np.array_equal(a.n, b.n)
    assert np.array_equal(a.m, b.m)
    assert np.array_equal(a.nu, b.nu)


# --- weighted sums ------------------------------------------------------------

def test_sum_over_categories_matches_expanded_sum():
    # a multiplicity-weighted sum over the table rows, the form every grid
    # evaluator takes, equals the sum over the K expanded categories
    table = build_table([4, 4, 1, 0], [2, 2, 0, 1], 9)
    f = (table.n + 0.5) * (table.m + 2.0)
    got = math.fsum((f * table.nu).tolist())
    n, m = expand_counts(table)
    want = math.fsum((ni + 0.5) * (mi + 2.0) for ni, mi in zip(n, m))
    assert got == pytest.approx(want, rel=1e-15, abs=0)
    assert len(n) == table.K


def test_build_table_rejects_a_total_past_int64():
    with pytest.raises(ValueError, match="counts1 total"):
        build_table([5 * 10**18, 5 * 10**18], [1, 1], 2)
    table = build_table([2**62, 2**62 - 1], [1, 1], 2)
    assert table.N == 2**63 - 1
    assert build_table(np.array([2**63 - 1], dtype=np.uint64), [0], 2).N == 2**63 - 1


_PACKED_AT = (2**63 - 1) // 7   # 7 * _PACKED_AT = 2^63 - 1


@pytest.mark.parametrize("n, m", [
    ([6, 0, 3, 6, 0], [_PACKED_AT - 1, 5, 0, _PACKED_AT - 1, 0]),
    ([2**63 - 2, 0, 1], [0, 0, 0]),
    ([1, 0, 1, 1], [2**62 - 1, 1, 0, 2**62 - 1]),
    ([2**63 - 1, 0], [0, 0]),
    ([2**63 - 1, 0, 0], [0, 2**63 - 1, 0]),
], ids=["product 2^63-1", "width 1, product 2^63-1", "product 2^63", "width 1, product 2^63",
        "both counts 2^63-1"])
def test_build_table_packs_counts_up_to_the_int64_bound(n, m):
    # one sort key packs the counts while (max n + 1)(max m + 1) fits an
    # int64, else their ranks: the first two cases pack, the rest rank
    pairs = Counter(zip(n, m))
    pairs[(0, 0)] += 2   # two unlisted categories
    table = build_table(n, m, len(n) + 2)
    assert list(zip(table.n.tolist(), table.m.tolist(), table.nu.tolist())) == [
        (*pair, nu) for pair, nu in sorted(pairs.items())]
    assert (table.N, table.M) == (sum(n), sum(m))


def test_double_sum_counts_all_ordered_pairs():
    # f == 1 everywhere sums diag + off-diag to exactly K^2 pairs, K of
    # them on the diagonal
    table = build_table([5, 5, 2, 0, 0], [1, 0, 0, 3, 3], 11)
    assert brute_double_sum(table, lambda a, b, same: 1.0) == table.K**2
    assert brute_double_sum(table, lambda a, b, same: float(same)) == table.K


# --- file ingestion -------------------------------------------------------------

def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_tsv_pair_with_k_flag(tmp_path):
    f1 = _write(tmp_path, "a.tsv", "0\t3\n2\t1\n")
    f2 = _write(tmp_path, "b.tsv", "# comment line\n2\t4\n5\t2\n")
    table = load_count_files(f1, f2, k=8)
    assert table.K == 8 and table.N == 4 and table.M == 6
    rows = _rows(table)
    # categories 0,2,5 are mentioned; five more are implicit zeros
    assert rows[(3, 0)] == 1 and rows[(1, 4)] == 1 and rows[(0, 2)] == 1
    assert rows[(0, 0)] == 5


def test_load_tsv_pair_with_header_k(tmp_path):
    f1 = _write(tmp_path, "a.tsv", "#K=6\n0\t2\n")
    f2 = _write(tmp_path, "b.tsv", "0\t1\n1\t1\n")
    table = load_count_files(f1, f2)
    assert table.K == 6


def test_load_tsv_header_conflict(tmp_path):
    f1 = _write(tmp_path, "a.tsv", "#K=6\n0\t2\n")
    f2 = _write(tmp_path, "b.tsv", "#K=7\n0\t1\n")
    with pytest.raises(ValueError):
        load_count_files(f1, f2)


def test_load_tsv_requires_some_k(tmp_path):
    f1 = _write(tmp_path, "a.tsv", "0\t2\n")
    f2 = _write(tmp_path, "b.tsv", "0\t1\n")
    with pytest.raises(ValueError):
        load_count_files(f1, f2)


def test_load_tsv_duplicate_category(tmp_path):
    f1 = _write(tmp_path, "a.tsv", "0\t2\n0\t3\n")
    f2 = _write(tmp_path, "b.tsv", "0\t1\n")
    with pytest.raises(ValueError):
        load_count_files(f1, f2, k=3)


def test_load_tsv_rejects_negative_and_garbage(tmp_path):
    f2 = _write(tmp_path, "b.tsv", "0\t1\n")
    bad1 = _write(tmp_path, "neg.tsv", "0\t-2\n")
    with pytest.raises(ValueError):
        load_count_files(bad1, f2, k=3)
    bad2 = _write(tmp_path, "text.tsv", "0\tfoo\n")
    with pytest.raises(ValueError):
        load_count_files(bad2, f2, k=3)


def test_tsv_line_order_does_not_change_the_table(tmp_path):
    lines1 = ["#K=9", "a\t3", "b\t1", "c\t3", "d\t0"]
    lines2 = ["b\t2", "e\t5", "a\t1", "f\t1"]
    tables = []
    for order in (slice(None), slice(None, None, -1)):
        f1 = _write(tmp_path, "a.tsv", "\n".join(lines1[order]) + "\n")
        f2 = _write(tmp_path, "b.tsv", "\n".join(lines2[order]) + "\n")
        tables.append(load_count_files(f1, f2))
    a, b = tables
    assert (a.K, a.N, a.M) == (b.K, b.N, b.M) == (9, 7, 9)
    for field in ("n", "m", "nu"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


@pytest.mark.parametrize("first, second", [
    (["a\t3", "b\t1", "c\t2"], ["b\t4", "d\t5"]),   # a, c only in the first
    (["a\t3", "b\t1"], ["c\t2", "d\t2", "e\t7"]),   # disjoint ids
], ids=["overlapping", "disjoint"])
def test_tsv_pair_gives_the_joint_csv_table(tmp_path, first, second):
    # the same K=7 categories written as a TSV pair and as an n,m CSV
    ids = sorted({line.split("\t")[0] for line in first + second})
    counts = [dict(line.split("\t") for line in sample) for sample in (first, second)]
    rows = [f"{counts[0].get(c, 0)},{counts[1].get(c, 0)}" for c in ids]
    rows += ["0,0"] * (7 - len(ids))
    f1 = _write(tmp_path, "a.tsv", "\n".join(first) + "\n")
    f2 = _write(tmp_path, "b.tsv", "\n".join(second) + "\n")
    pair = load_count_files(f1, f2, k=7)
    joint = load_count_files(_write(tmp_path, "j.csv", "\n".join(rows) + "\n"))
    assert (pair.K, pair.N, pair.M) == (joint.K, joint.N, joint.M)
    for field in ("n", "m", "nu"):
        assert np.array_equal(getattr(pair, field), getattr(joint, field))


def test_load_single_csv(tmp_path):
    f = _write(tmp_path, "pair.csv", "2,2\n1,0\n0,1\n")
    table = load_count_files(f)
    assert table.K == 3 and table.N == 3 and table.M == 3


def test_load_single_csv_k_mismatch(tmp_path):
    f = _write(tmp_path, "pair.csv", "2,2\n1,0\n")
    with pytest.raises(ValueError):
        load_count_files(f, k=5)


def test_load_too_many_categories_for_k(tmp_path):
    f1 = _write(tmp_path, "a.tsv", "0\t1\n1\t1\n2\t1\n")
    f2 = _write(tmp_path, "b.tsv", "0\t1\n")
    with pytest.raises(ValueError):
        load_count_files(f1, f2, k=2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("count", [2**63, 10**20, np.uint64(2**63), 1e19],
                         ids=["int", "bigint", "uint64", "float"])
def test_build_table_rejects_a_count_past_int64_before_the_cast(count):
    with pytest.raises(ValueError, match="counts1 must lie in 0..9223372036854775807"):
        build_table(np.array([count]), [1], 2)


# --- the count-file grammar: bulk reader against the line walker ----------------

_LIMIT = 2**63 - 1


def _ref_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line:
                yield lineno, line


def _ref_count(text, path, lineno):
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: not an integer count: {text!r}")
    if not 0 <= value <= _LIMIT:
        raise ValueError(f"{path}:{lineno}: count {value} outside 0..{_LIMIT}")
    return value


def _ref_tsv(path):
    counts, header_k = {}, None
    for lineno, line in _ref_lines(path):
        if line.startswith("#"):
            body = line[1:].strip()
            if body.upper().startswith("K="):
                try:
                    header_k = int(body[2:])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad #K= header")
                if header_k < 1:
                    raise ValueError(f"{path}:{lineno}: K must be positive")
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected category<TAB>count")
        cat = fields[0].strip()
        if cat in counts:
            raise ValueError(f"{path}:{lineno}: duplicate category {cat!r}")
        counts[cat] = _ref_count(fields[1].strip(), path, lineno)
    return counts, header_k


def _ref_load(path1, path2=None, k=None):
    """The line walker, written out plainly, with a dict join of the ids."""
    if path2 is None:
        n, m = [], []
        for lineno, line in _ref_lines(path1):
            if line.startswith("#"):
                continue
            fields = line.split(",")
            if len(fields) != 2:
                raise ValueError(f"{path1}:{lineno}: expected two columns n,m "
                                 "(one file is read as an n,m CSV)")
            n.append(_ref_count(fields[0].strip(), path1, lineno))
            m.append(_ref_count(fields[1].strip(), path1, lineno))
        if not n:
            raise ValueError(f"{path1}: no count rows found")
        if k is not None and k != len(n):
            raise ValueError(f"{path1}: has {len(n)} rows but --k={k}")
        return build_table(n, m, len(n))
    (first, k1), (second, k2) = _ref_tsv(path1), _ref_tsv(path2)
    if k1 is not None and k2 is not None and k1 != k2:
        raise ValueError(f"#K= headers disagree: {k1} vs {k2}")
    header_k = k1 if k1 is not None else k2
    if k is None and header_k is None:
        raise ValueError("K not given: pass --k or add a #K= header line")
    if k is not None and header_k is not None and k != header_k:
        raise ValueError(f"{path1 if k1 is not None else path2}: "
                         f"has #K={header_k} but --k={k}")
    ids = list(first) + [c for c in second if c not in first]
    return build_table([first.get(c, 0) for c in ids], [second.get(c, 0) for c in ids],
                       header_k if k is None else k)


def _outcome(load, *args):
    """A loader's table as plain values, or the text of its ValueError."""
    try:
        t = load(*args)
    except ValueError as exc:
        return str(exc)
    return t.n.tolist(), t.m.tolist(), t.nu.tolist(), t.K, t.N, t.M


# whitespace around a field; "\t" would split a TSV line, so only odd lines get it
_SPACE = st.sampled_from(["", " ", "\x0c", "\u00a0", "\u3000"])
_ODD_SPACE = st.sampled_from(["", "\t", "\x1c", "\x85"])
# counts that int() reads and numpy's reader does not, that neither reads,
# or that lie out of range
_ODD_COUNT = st.sampled_from(["+5", "-3", "-0", "1_0", "\u0663", "\u0663\u0663", str(2**63),
                              str(2**63 - 1), "5.0", "1e3", "x", ""])
_ODD_ID = st.sampled_from(["", " ", "a", "a#", "#a", "a\x00"])
# blank lines, comments, headers good and bad, inline "#", extra columns
_ODD_LINE = st.sampled_from(["", "   ", "\x0c", "#c", "# c # d", "  #c", "#K=6", "# k = 9",
                             "#K=x", "#K=0", "#K=12", "#K=+7", "a\t1 #x", "a\t1#", "a\t1\t2",
                             "1,2 #x", "1,2#", "1,2,3", "\t4", ",4"])
_NEWLINE = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@st.composite
def _count_file(draw, tsv):
    """A count file's bytes: well-formed lines with distinct ids, then up to
    two lines that may break the grammar, anywhere, and any line endings."""
    rows = draw(st.integers(0, 8))
    if tsv:
        keys = draw(st.lists(st.text("abc\u00e9", min_size=1, max_size=12),
                             min_size=rows, max_size=rows, unique=True))
    else:
        keys = [str(c) for c in draw(st.lists(st.integers(0, 20), min_size=rows, max_size=rows))]
    sep = "\t" if tsv else ","
    space = lambda: draw(_SPACE)
    lines = [space() + key + space() + sep + space() + str(draw(st.integers(0, 20))) + space()
             for key in keys]
    for _ in range(draw(st.integers(0, 2))):
        odd_row = (draw(_ODD_SPACE) + draw(_ODD_ID if tsv else _ODD_COUNT) + sep
                   + draw(_ODD_COUNT) + draw(_ODD_SPACE))
        lines.insert(draw(st.integers(0, len(lines))), draw(st.just(odd_row) | _ODD_LINE))
    return "".join(line + draw(_NEWLINE) for line in lines).encode()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(first=_count_file(tsv=True), second=_count_file(tsv=True),
       k=st.none() | st.integers(1, 12))
def test_tsv_pair_loads_as_the_line_walker_reads_it(tmp_path, first, second, k):
    paths = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
    for path, data in zip(paths, (first, second)):
        path.write_bytes(data)
    paths = list(map(str, paths))
    assert _outcome(load_count_files, *paths, k) == _outcome(_ref_load, *paths, k)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_count_file(tsv=False), k=st.none() | st.integers(0, 12))
def test_joint_csv_loads_as_the_line_walker_reads_it(tmp_path, data, k):
    path = tmp_path / "j.csv"
    path.write_bytes(data)
    assert _outcome(load_count_files, str(path), None, k) == _outcome(_ref_load, str(path), None, k)


def _write_lines(tmp_path, name, lines, newline="\n"):
    path = tmp_path / name
    path.write_bytes(newline.join(lines).encode() + newline.encode())
    return str(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_well_formed_files_never_reach_the_walker(tmp_path, monkeypatch, newline):
    # the layout perfbench writes, with comments, blank lines and spaces
    rng = np.random.default_rng(3)
    n, m = rng.integers(0, 30, 2000), rng.integers(0, 30, 2000)
    tsv = [[f"#K={len(n)}", "# a comment", ""] +
           [f" c{i} \t {c}" for i, c in enumerate(counts.tolist()) if c] for counts in (n, m)]
    csv = ["# n,m", *(f"{a}, {b}" for a, b in zip(n.tolist(), m.tolist())), "#"]
    files = [_write_lines(tmp_path, name, lines, newline)
             for name, lines in (("a.tsv", tsv[0]), ("b.tsv", tsv[1]), ("j.csv", csv))]
    want = (_outcome(_ref_load, *files[:2]), _outcome(_ref_load, files[2]))

    def walk(path, *_):
        raise AssertionError(f"{path} was handed to the line walker")

    monkeypatch.setattr(counts_module, "_walk", walk)
    assert (_outcome(load_count_files, *files[:2]), _outcome(load_count_files, files[2])) == want
    assert want[0] == want[1]


@pytest.mark.parametrize("first, second, walked", [
    ("1_0", "٣", True), ("+5", " 7 ", False),
], ids=["counts only int() reads", "counts numpy reads"])
def test_counts_only_int_reads_leave_a_tsv_to_the_walker(tmp_path, monkeypatch,
                                                         first, second, walked):
    f1 = _write_lines(tmp_path, "a.tsv", ["#K=6", "a\t3", f"b\t{first}"])
    f2 = _write_lines(tmp_path, "b.tsv", [f"a\t{second}", "c\t2"])
    want = _outcome(_ref_load, f1, f2)
    assert want[3] == 6   # a table, not an error
    handed = []
    walk = counts_module._walk
    monkeypatch.setattr(counts_module, "_walk",
                        lambda path, *args: handed.append(path) or walk(path, *args))
    assert _outcome(load_count_files, f1, f2) == want
    assert handed == ([f1, f2] if walked else [])


def _forbid_the_walker(monkeypatch):
    def walk(path, *_):
        raise AssertionError(f"{path} was handed to the line walker")

    monkeypatch.setattr(counts_module, "_walk", walk)


@pytest.mark.parametrize("order", ["index", "shuffled"])
def test_a_wide_tsv_pair_loads_without_holding_its_parsed_rows(tmp_path, monkeypatch, order):
    # perfbench's layout: K=1e5, N=M=1e6 from Dirichlet(1), nonzero rows
    # only (about 91 000 a file), in index order or shuffled.  A count
    # column that viewed the parsed rows would keep both files' rows alive
    # through the join; ids read as Python objects peaked at 22.3 MB, and
    # as 4-byte text at 13.2 MB.  As UTF-8 bytes, with one sort building
    # the table, the load peaks near 7.5 MB
    K = 100_000
    rng = np.random.default_rng(0)
    paths = []
    for name in ("a.tsv", "b.tsv"):
        counts = rng.multinomial(1_000_000, rng.dirichlet(np.ones(K)))
        idx = np.flatnonzero(counts)
        if order == "shuffled":
            idx = rng.permutation(idx)
        paths.append(_write_lines(tmp_path, name, [f"#K={K}", *(
            f"c{i}\t{c}" for i, c in zip(idx.tolist(), counts[idx].tolist()))]))
    _forbid_the_walker(monkeypatch)
    tracemalloc.start()
    try:
        table = load_count_files(*paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (table.K, table.N, table.M) == (K, 1_000_000, 1_000_000)
    assert peak < 10e6, peak


def test_ids_of_any_length_and_script_load_exactly_on_the_bulk_path(tmp_path, monkeypatch):
    # ids are matched exactly once stripped, however long: "a" * 300 sets
    # both files' str widths, and each "\u00e9\u548c" is 2 letters in 5 bytes
    long, script = "a" * 300, "\u00e9\u548c" * 30
    f1 = _write_lines(tmp_path, "a.tsv", ["#K=12", f"{long}\t3", f"{long[:-1]}b\t1",
                                          f"{script}\t2", " a \t1", "aa\t4", "a b\t5"])
    f2 = _write_lines(tmp_path, "b.tsv", [f" {long} \t7", f"{long[:-1]}\t6", f"{script}\t1",
                                          f"{script[:-1]}\t2", "a\t2", " aa\t9", "a b \t8",
                                          "a  b\t1"])
    want = _outcome(_ref_load, f1, f2)
    _forbid_the_walker(monkeypatch)
    assert _outcome(load_count_files, f1, f2) == want
    assert _rows(load_count_files(f1, f2)) == {
        (0, 0): 3, (0, 1): 1, (0, 2): 1, (0, 6): 1, (1, 0): 1,
        (1, 2): 1, (2, 1): 1, (3, 7): 1, (4, 9): 1, (5, 8): 1}


def test_ids_of_mixed_length_stay_on_the_bulk_path(tmp_path, monkeypatch):
    # names of 5 to 60 characters, as species names run: the widest is
    # under four mean lines long, so no file needs the walker
    rng = np.random.default_rng(5)
    letters = list("abcdefghijklmnopqrstuvwxyz")
    names = set()
    for size in rng.integers(5, 61, 2000).tolist():
        word = "".join(rng.choice(letters, size))
        names.add(f"{word[:size // 2]} {word[size // 2 + 1:]}")   # "genus species"
    names = rng.permutation(sorted(names)).tolist()
    assert {len(name) for name in names} == set(range(5, 61))
    f1, f2 = (_write_lines(tmp_path, f"{name}.tsv", [f"#K={len(names)}", *(
        f"{key}\t{c}" for key, c in zip(keys, rng.integers(0, 30, len(keys)).tolist()))])
              for name, keys in (("a", names[:1500]), ("b", names[500:])))
    want = _outcome(_ref_load, f1, f2)
    _forbid_the_walker(monkeypatch)
    assert _outcome(load_count_files, f1, f2) == want


@pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
def test_ids_about_the_8_byte_word_boundaries_load_exactly_on_the_bulk_path(
        tmp_path, monkeypatch, order):
    # ids of at most 8 bytes are sorted and joined as big-endian 8-byte
    # words, longer ones as bytes: these are 7, 8, 9 and 17 bytes long, share
    # their first 8 bytes, are prefixes of each other, or hold a character
    # whose UTF-8 bytes straddle bytes 8 and 9.  The first pair joins a wide
    # file with a file of words, the second two files of words
    stems = ["abcdefg", "abcdefgh", "abcdefghi", "abcdefghijklmnopq", "abcdefghZ",
             "abcdefghijklmnop", "abcdefgé", "abcdefg和", "abcdefghé",
             "ab", "b", "abcdefgi", "zzzzzzzzzzzzzzzzz", "éabcdefg", "abcdefg h", "yx"]
    ids = sorted({*stems, *(stem + "q" for stem in stems)})
    if order != "sorted":
        ids = ids[::-1] if order == "reversed" else np.random.default_rng(7).permutation(ids).tolist()
    f1 = _write_lines(tmp_path, "a.tsv", [f"#K={len(ids) + 1}", *(
        f"{key}\t{i}" for i, key in enumerate(ids) if i % 3)])
    f2, f3 = (_write_lines(tmp_path, f"{name}.tsv", [f"{key}\t{i + 1}" for i, key in enumerate(ids)
                                                    if i % step and len(key.encode()) <= 8])
              for name, step in (("b", 2), ("c", 3)))
    wants = [_outcome(_ref_load, *pair, len(ids) + 1) for pair in ((f1, f2), (f3, f2))]
    assert [want[3] for want in wants] == [len(ids) + 1] * 2   # tables, not errors
    _forbid_the_walker(monkeypatch)
    assert [_outcome(load_count_files, *pair, len(ids) + 1)
            for pair in ((f1, f2), (f3, f2))] == wants


@pytest.mark.parametrize("line, walked", [("x" * 5000 + "\t1", 1),
                                          ("# " + "x" * 5000 + "\tnote", 0)],
                         ids=["long id", "long comment holding a tab"])
def test_a_skewed_tsv_goes_to_the_walker_within_bounded_memory(tmp_path, monkeypatch, line, walked):
    # one 5000-byte span before a tab among 91 000 short ids would make a
    # U5000 array of about 1.8 GB; that file is walked instead.  A comment
    # becomes no id, so the width is taken again without it: that file
    # stays on the bulk path
    K = 100_000
    rng = np.random.default_rng(0)
    paths = []
    for name, extra in (("a.tsv", [line]), ("b.tsv", [])):
        counts = rng.multinomial(1_000_000, rng.dirichlet(np.ones(K)))
        idx = np.flatnonzero(counts)
        paths.append(_write_lines(tmp_path, name, [f"#K={K}", *(
            f"c{i}\t{c}" for i, c in zip(idx.tolist(), counts[idx].tolist())), *extra]))
    want = _outcome(_ref_load, *paths)
    handed = []
    walk = counts_module._walk
    monkeypatch.setattr(counts_module, "_walk",
                        lambda path, *args: handed.append(path) or walk(path, *args))
    tracemalloc.start()
    try:
        got = _outcome(load_count_files, *paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got, handed) == (want, paths[:walked])
    assert peak < 26e6, peak


@pytest.mark.parametrize("edge", ["\u00a0", "\u0085", "\u3000", "\x1c"],
                         ids=["U+00A0", "U+0085", "U+3000", "0x1c"])
@pytest.mark.parametrize("side", ["start", "end"])
def test_an_id_with_text_whitespace_at_an_edge_loads_as_the_walker_reads_it(
        tmp_path, monkeypatch, edge, side):
    # str.strip cuts these and bytes.strip does not: the file goes to the
    # walker, and its id joins the other file's "a"
    key = edge + "a" if side == "start" else "a" + edge
    f1 = _write_lines(tmp_path, "a.tsv", ["#K=5", f"{key}\t1", "b\t2"])
    f2 = _write_lines(tmp_path, "b.tsv", ["a\t5", "b\t1"])
    handed = []
    walk = counts_module._walk
    monkeypatch.setattr(counts_module, "_walk",
                        lambda path, *args: handed.append(path) or walk(path, *args))
    assert _outcome(load_count_files, f1, f2) == _outcome(_ref_load, f1, f2)
    assert _rows(load_count_files(f1, f2)) == {(0, 0): 3, (1, 5): 1, (2, 1): 1}
    assert handed[0] == f1


def test_ids_with_interior_text_whitespace_stay_on_the_bulk_path(tmp_path, monkeypatch):
    # "\u00e0" ends in byte 0xa0, as U+00A0 does, and is kept; U+00A0 inside
    # an id is kept too.  A mark before the first data line is dropped
    lines = ["\u00e0\t1", "x\u00a0y\t2", "\u00e9\u548c\t3", " \u00e0\u00e0 \t4", "#K=9"]
    plain = _write_lines(tmp_path, "plain.tsv", lines)
    marked = _write_lines(tmp_path, "marked.tsv", ["\ufeff" + lines[0], *lines[1:]])
    f2 = _write_lines(tmp_path, "b.tsv", ["\u00e0\t5", "x y\t6", "\u00e9\u548c\t7",
                                          "\u00e0\u00e0\t8", "\u00e0\u00e0\u00e0\t9"])
    want = _outcome(_ref_load, plain, f2)
    assert want[:3] == ([0, 0, 0, 1, 2, 3, 4], [0, 6, 9, 5, 0, 7, 8], [3, 1, 1, 1, 1, 1, 1])
    checked = []
    check = counts_module._strips_as_text
    monkeypatch.setattr(counts_module, "_strips_as_text",
                        lambda ids: checked.append(len(ids)) or check(ids))
    _forbid_the_walker(monkeypatch)
    assert _outcome(load_count_files, plain, f2) == want
    assert _outcome(load_count_files, marked, f2) == want
    assert checked == [4, 5, 4, 5]


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
def test_an_ascii_file_skips_the_per_id_strip_check(tmp_path, monkeypatch, newline):
    def check(ids):
        raise AssertionError("an ASCII file's ids were checked one by one")

    monkeypatch.setattr(counts_module, "_strips_as_text", check)
    f1 = _write_lines(tmp_path, "a.tsv", ["#K=6", " a \t1", "b\x0b\t2", "# note\ttab", "\x0cc\t3"],
                      newline)
    f2 = _write_lines(tmp_path, "b.tsv", ["a\t4", "d \t5"], newline)
    want = _outcome(_ref_load, f1, f2)
    _forbid_the_walker(monkeypatch)
    assert _outcome(load_count_files, f1, f2) == want


def test_ids_that_differ_by_a_trailing_nul_stay_apart(tmp_path):
    # a numpy str array drops trailing NULs, so "a" and "a\0" would merge
    f1 = _write_lines(tmp_path, "a.tsv", ["#K=3", "a\t1"])
    f2 = _write_lines(tmp_path, "b.tsv", ["a\x00\t2"])
    table = load_count_files(f1, f2)
    assert _rows(table) == {(0, 0): 1, (0, 2): 1, (1, 0): 1}


@pytest.mark.parametrize("extra", ["# a comment", "  # a comment after spaces"],
                         ids=["bulk reader", "line walker"])
def test_the_last_k_header_of_a_file_counts(tmp_path, extra):
    f1 = _write_lines(tmp_path, "a.tsv", ["#K=5", "a\t1", extra, "#K=7"])
    f2 = _write_lines(tmp_path, "b.tsv", ["b\t2"])
    assert load_count_files(f1, f2).K == 7


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_shuffled_data_lines_give_an_identical_table(tmp_path, data):
    K = data.draw(st.integers(2, 40))
    n = data.draw(st.lists(st.integers(0, 5) | st.integers(0, 10**12), min_size=K, max_size=K))
    m = data.draw(st.lists(st.integers(0, 5), min_size=K, max_size=K))
    tsv = [[f"c{i}\t{c}" for i, c in enumerate(counts) if c] for counts in (n, m)]
    csv = [f"{a},{b}" for a, b in zip(n, m)]
    tables = []
    for order in (lambda lines: lines, lambda lines: data.draw(st.permutations(lines))):
        files = [_write_lines(tmp_path, "a.tsv", [f"#K={K}", *order(tsv[0])]),
                 _write_lines(tmp_path, "b.tsv", order(tsv[1]))]
        tables.append(load_count_files(*files))
        tables.append(load_count_files(_write_lines(tmp_path, "j.csv", order(csv))))
    plain = [(t.n.tolist(), t.m.tolist(), t.nu.tolist(), t.K, t.N, t.M) for t in tables]
    assert plain[0] == plain[1] == plain[2] == plain[3]


# --- every rejected line is named path:line ---------------------------------------

TSV_REJECTIONS = {
    "negative count": ("b\t-2", "count -2 outside 0..9223372036854775807"),
    "non-integer": ("b\t2.5", "not an integer count: '2.5'"),
    "three columns": ("b\t2\t1", "expected category<TAB>count"),
    "one column": ("b", "expected category<TAB>count"),
    "inline #": ("b\t2 # two", "not an integer count: '2 # two'"),
    "bad #K= header": ("#K=many", "bad #K= header"),
    "#K=0 header": ("#K=0", "K must be positive"),
    "duplicate id": ("a\t4", "duplicate category 'a'"),
    "empty id": ("\t4", "expected category<TAB>count"),
}
CSV_REJECTIONS = {
    "negative count": ("-2,1", "count -2 outside 0..9223372036854775807"),
    "non-integer": ("1,2.5", "not an integer count: '2.5'"),
    "three columns": ("1,2,3", "expected two columns n,m (one file is read as an n,m CSV)"),
    "one column": ("1", "expected two columns n,m (one file is read as an n,m CSV)"),
    "inline #": ("1,2 # two", "not an integer count: '2 # two'"),
    "empty field": (",2", "not an integer count: ''"),
}


@pytest.mark.parametrize("bad, message", TSV_REJECTIONS.values(), ids=TSV_REJECTIONS.keys())
def test_tsv_rejection_names_the_line(tmp_path, bad, message):
    f1 = _write_lines(tmp_path, "a.tsv", ["#K=9", "a\t3", "", bad, "c\t1"])
    f2 = _write_lines(tmp_path, "b.tsv", ["a\t1"])
    with pytest.raises(ValueError) as exc:
        load_count_files(f1, f2)
    assert str(exc.value) == f"{f1}:4: {message}"
    with pytest.raises(ValueError) as exc:   # the second file is named as well
        load_count_files(f2, f1)
    assert str(exc.value) == f"{f1}:4: {message}"


@pytest.mark.parametrize("bad, message", CSV_REJECTIONS.values(), ids=CSV_REJECTIONS.keys())
def test_csv_rejection_names_the_line(tmp_path, bad, message):
    f = _write_lines(tmp_path, "j.csv", ["# n,m", "3,1", "", bad, "0,2"])
    with pytest.raises(ValueError) as exc:
        load_count_files(f)
    assert str(exc.value) == f"{f}:4: {message}"


@pytest.mark.parametrize("layout, bad, message", [
    ("tsv", "c89998\t-4", "count -4 outside 0..9223372036854775807"),
    ("tsv", "c1\t4", "duplicate category 'c1'"),
    ("csv", "7,3 #x", "not an integer count: '3 #x'"),
    ("csv", "7,3,0", "expected two columns n,m (one file is read as an n,m CSV)"),
], ids=["tsv negative", "tsv duplicate", "csv inline #", "csv three columns"])
def test_a_bad_line_deep_in_a_wide_file_is_named(tmp_path, monkeypatch, layout, bad, message):
    # K=1e5 rows: the bulk reader parses the file, then hands it over
    K = 100_000
    if layout == "tsv":
        lines = [f"#K={K}", *(f"c{i}\t{i % 50}" for i in range(K - 1))]
    else:
        lines = [f"{i % 50},{i % 7}" for i in range(K)]
    lines[90_000 - 1] = bad
    path = _write_lines(tmp_path, f"wide.{layout}", lines)
    handed = []
    bulk = counts_module._bulk_read
    monkeypatch.setattr(counts_module, "_bulk_read",
                        lambda *args: handed.append(bulk(*args) is None) or None)
    paths = [path, _write_lines(tmp_path, "b.tsv", ["c0\t1"])] if layout == "tsv" else [path]
    with pytest.raises(ValueError) as exc:
        load_count_files(*paths)
    assert str(exc.value) == f"{path}:90000: {message}"
    assert handed == [True]


# --- encodings ---------------------------------------------------------------------

@pytest.mark.parametrize("extra", [[], ["  # a comment after spaces"]],
                         ids=["bulk reader", "line walker"])
@pytest.mark.parametrize("layout", ["tsv", "csv"])
def test_a_utf8_byte_order_mark_is_skipped(tmp_path, monkeypatch, layout, extra):
    # some Windows editors begin a UTF-8 file with U+FEFF
    def files(bom, name):
        if layout == "csv":
            return [_write_lines(tmp_path, f"{name}.csv", [bom + "3,1", "0,2", *extra, "1,0"])]
        return [_write_lines(tmp_path, f"{name}.tsv", [bom + "#K=3", "a\t1", *extra]),
                _write_lines(tmp_path, "b.tsv", ["b\t2"])]

    plain = load_count_files(*files("", "plain"))
    handed = []
    bulk = counts_module._bulk_read

    def bulk_read(*args):
        parsed = bulk(*args)
        handed.append(parsed is None)
        return parsed

    monkeypatch.setattr(counts_module, "_bulk_read", bulk_read)
    table = load_count_files(*files("\ufeff", "bom"))
    assert (_rows(table), table.K) == (_rows(plain), plain.K)
    assert handed[0] == bool(extra)   # the file with the mark took the named route


@pytest.mark.parametrize("layout", ["tsv", "csv"])
def test_a_byte_that_is_not_utf8_is_named_with_its_line(tmp_path, layout):
    lines = [b"#K=3", b"a\t1", b"\xffb\t2"] if layout == "tsv" else [b"3,1", b"\xff0,2", b"1,0"]
    path = tmp_path / f"bad.{layout}"
    path.write_bytes(b"\n".join(lines) + b"\n")
    other = [_write_lines(tmp_path, "b.tsv", ["b\t2"])] if layout == "tsv" else []
    with pytest.raises(ValueError) as exc:
        load_count_files(str(path), *other)
    assert str(exc.value) == f"{path}:{3 if layout == 'tsv' else 2}: not UTF-8 text: byte 0xff"


# --- K, empty files, and nothing left behind -------------------------------------

def test_load_tsv_k_must_match_the_header(tmp_path):
    f1 = _write(tmp_path, "a.tsv", "0\t2\n")
    f2 = _write(tmp_path, "b.tsv", "#K=6\n0\t1\n")
    assert load_count_files(f1, f2, k=6).K == 6
    with pytest.raises(ValueError) as exc:
        load_count_files(f1, f2, k=7)
    assert str(exc.value) == f"{f2}: has #K=6 but --k=7"


@contextmanager
def _no_warning():
    """Record every warning, ResourceWarning included, and expect none."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
        gc.collect()
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("text", ["", "# only a comment\n", "\n  \n"],
                         ids=["empty", "comment only", "blank lines"])
def test_a_csv_without_rows_is_rejected_without_a_warning(tmp_path, text):
    f = _write(tmp_path, "j.csv", text)
    with _no_warning(), pytest.raises(ValueError) as exc:
        load_count_files(f)
    assert str(exc.value) == f"{f}: no count rows found"


def test_a_header_only_tsv_pair_is_all_unobserved(tmp_path):
    f1 = _write(tmp_path, "a.tsv", "#K=5\n")
    f2 = _write(tmp_path, "b.tsv", "")
    with _no_warning():
        table = load_count_files(f1, f2)
    assert (_rows(table), table.K, table.N, table.M) == ({(0, 0): 5}, 5, 0, 0)
