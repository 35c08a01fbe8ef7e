"""Multiplicity tables: compression, weighted sums, file ingestion."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
