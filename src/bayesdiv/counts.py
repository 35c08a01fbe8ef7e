"""Count-pair multiplicity tables and count-file ingestion.

Two samples over the same K categories are stored compressed: one row per
distinct (n, m) count pair with its multiplicity nu, rows sorted by (n, m).
Unobserved categories are carried explicitly through the (0, 0) row, so
sums over rows weighted by nu are sums over all K categories.  Each
sample's distinct counts (its levels) are kept too: a term that depends on
one sample only needs computing once per level, not once per row.
"""

import operator
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Levels",
    "MultiplicityTable",
    "build_table",
    "load_count_files",
]

_MAX_COUNT = int(np.iinfo(np.int64).max)   # of one count and of a sample's total


@dataclass(frozen=True)
class Levels:
    """One sample's distinct counts over the rows of a MultiplicityTable."""

    values: np.ndarray  # the distinct counts, ascending, shape (L,)
    nu: np.ndarray      # nu summed over the rows with each count, shape (L,)
    index: np.ndarray   # each row's position in values, shape (U,)


def _levels(counts, nu):
    values, index = np.unique(counts, return_inverse=True)
    level_nu = np.zeros(len(values), dtype=np.int64)
    np.add.at(level_nu, index, nu)
    for arr in (values, level_nu, index):
        arr.setflags(write=False)
    return Levels(values, level_nu, index)


@dataclass(frozen=True)
class MultiplicityTable:
    """Compressed two-sample count table over K categories.

    Rows are distinct (n, m) pairs sorted by n, then m, as build_table
    makes them, so the table depends only on the multiset of pairs;
    construction checks this, nu >= 1 summing to K, and exact N and M.
    ``n_levels`` and ``m_levels`` hold each sample's distinct counts,
    computed once when the table is made; row u has
    n[u] = n_levels.values[n_levels.index[u]], and likewise for m.
    """

    n: np.ndarray   # first-sample counts, shape (U,)
    m: np.ndarray   # matching second-sample counts, shape (U,)
    nu: np.ndarray  # multiplicity of each pair, shape (U,)
    K: int
    N: int
    M: int
    n_levels: Levels = field(init=False, repr=False, compare=False)
    m_levels: Levels = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, m, nu = self.n, self.m, self.nu
        if not all(isinstance(a, np.ndarray) and a.dtype == np.int64 and a.ndim == 1
                   and 0 < a.size == n.size for a in (n, m, nu)):
            raise ValueError("n, m and nu must be non-empty 1-D int64 arrays of one length")
        if n.min() < 0 or m.min() < 0 or nu.min() < 1:
            raise ValueError("counts must be non-negative and each nu at least 1")
        if np.any((n[1:] < n[:-1]) | ((n[1:] == n[:-1]) & (m[1:] <= m[:-1]))):
            raise ValueError("rows must be strictly sorted by (n, m)")
        if not sum(nu.tolist()) == self.K <= _MAX_COUNT:   # so no level's nu wraps
            raise ValueError(f"nu must sum to K, at most {_MAX_COUNT}")
        for name, total, counts in (("N", self.N, n), ("M", self.M, m)):
            levels = _levels(counts, nu)
            if total != sum(map(operator.mul, levels.values.tolist(), levels.nu.tolist())):
                raise ValueError(f"{name} must equal the sum of nu times the counts")
            object.__setattr__(self, f"{name.lower()}_levels", levels)

    def observed_categories(self, which_sample):
        """Number of categories with a positive count in one sample."""
        c = self.n if which_sample == 1 else self.m
        return int(self.nu[c > 0].sum())


def _as_count_vector(counts, name):
    arr = np.asarray(counts)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size:
        if not np.issubdtype(arr.dtype, np.integer):
            flt = np.asarray(arr, dtype=float)
            if np.any(flt != np.round(flt)):
                raise ValueError(f"{name} must hold integers")
        # the extremes as Python numbers, compared exactly before the cast
        lo, hi = arr[[arr.argmin(), arr.argmax()]].tolist()
        if not 0 <= lo <= hi <= _MAX_COUNT:
            raise ValueError(f"{name} must lie in 0..{_MAX_COUNT}")
    return arr.astype(np.int64)


def _total(counts, name):
    """Exact sum of a non-negative int64 vector, below 2^31 entries long.

    Its high and low 32-bit halves are summed apart, so neither sum wraps.
    """
    total = (int((counts >> 32).sum()) << 32) + int((counts & 0xFFFFFFFF).sum())
    if total > _MAX_COUNT:
        raise ValueError(f"{name} total {total} exceeds {_MAX_COUNT}")
    return total


def build_table(counts1, counts2, K):
    """Compress two aligned count vectors into a MultiplicityTable.

    The vectors list per-category counts for the categories that appear;
    the remaining K - len categories implicitly have (0, 0).
    """
    c1 = _as_count_vector(counts1, "counts1")
    c2 = _as_count_vector(counts2, "counts2")
    if c1.shape != c2.shape:
        raise ValueError("count vectors must have equal length")
    if not isinstance(K, (int, np.integer)) or not 1 <= K <= _MAX_COUNT:
        raise ValueError(f"K must be an integer in 1..{_MAX_COUNT}")
    K = int(K)
    if len(c1) > K:
        raise ValueError(f"{len(c1)} categories listed but K={K}")
    # one (0, 0) entry stands for the K - len unlisted categories; counts
    # are non-negative, so its row sorts first
    n_values, n_rank = np.unique(np.append(c1, 0), return_inverse=True)
    m_values, m_rank = np.unique(np.append(c2, 0), return_inverse=True)
    # one int64 key per category orders the (n, m) pairs; it packs the two
    # ranks, not the counts, which reach 2^63 - 1: a rank is below the
    # vector length, itself below 2^31 (as _total assumes)
    width = len(m_values)
    key = np.sort(n_rank * width + m_rank)
    start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    n, m = n_values[key[start] // width], m_values[key[start] % width]
    nu = np.diff(np.append(start, len(key)))
    nu[0] += K - len(c1) - 1
    if nu[0] == 0:
        n, m, nu = n[1:], m[1:], nu[1:]
    for arr in (n, m, nu):
        arr.setflags(write=False)
    return MultiplicityTable(n=n, m=m, nu=nu, K=K, N=_total(c1, "counts1"),
                             M=_total(c2, "counts2"))


# --- file ingestion -------------------------------------------------------
#
# Format A: per-sample TSV, lines "category_id<TAB>count", optional header
#           line "#K=<int>", other "#" lines are comments.  Two files make
#           a pair; categories missing from a file count zero.
# Format B: single two-column CSV "n,m", one row per category (K = rows).
#
# The line walker (_walk) defines the grammar of both and is the only
# source of error text, which names path:line.  _bulk_read parses a file
# with numpy's C reader and returns what the walker would return; where it
# cannot vouch for that, it returns None and the walker reads the file.

def _read_lines(path):
    # surrogateescape keeps a byte that is not UTF-8 as U+DC80..U+DCFF; its line is named
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if bad := re.search("[\udc80-\udcff]", raw):
                raise ValueError(f"{path}:{lineno}: not UTF-8 text: "
                                 f"byte 0x{ord(bad.group()) - 0xDC00:02x}")
            line = raw.strip()
            if not line:
                continue
            yield lineno, line


def _parse_count(text, path, lineno):
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: not an integer count: {text!r}")
    if not 0 <= value <= _MAX_COUNT:
        raise ValueError(f"{path}:{lineno}: count {value} outside 0..{_MAX_COUNT}")
    return value


def _header_k(comment):
    """K from a "#K=" comment line, None from any other comment line."""
    body = comment[1:].strip()
    if not body.upper().startswith("K="):
        return None
    try:
        k = int(body[2:])
    except ValueError:
        raise ValueError("bad #K= header") from None
    if k < 1:
        raise ValueError("K must be positive")
    return k


def _walk(path, tsv):
    """Read a count file line by line -> (keys, counts, header_k).

    keys are a TSV's category ids (an object array, which keeps each id
    exactly) or a CSV's n counts; counts is the other column; header_k is
    a TSV's last "#K=" header, or None.
    """
    keys, counts, header_k = [], [], None
    seen = set()
    for lineno, line in _read_lines(path):
        if line.startswith("#"):
            try:
                k = _header_k(line) if tsv else None
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            header_k = header_k if k is None else k
            continue
        fields = line.split("\t" if tsv else ",")
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected " + (
                "category<TAB>count" if tsv else "two columns n,m (one file is read as an n,m CSV)"))
        key = fields[0].strip()   # a TSV id is not empty: the line starts with no tab
        if tsv:
            if key in seen:
                raise ValueError(f"{path}:{lineno}: duplicate category {key!r}")
            seen.add(key)
        else:
            key = _parse_count(key, path, lineno)
        keys.append(key)
        counts.append(_parse_count(fields[1].strip(), path, lineno))
    if not tsv and not keys:
        raise ValueError(f"{path}: no count rows found")
    return (np.array(keys, dtype=object if tsv else np.int64),
            np.array(counts, dtype=np.int64), header_k)


def _comment_lines(text):
    """The comment lines of a file's text, each from its "#" on; None if a
    "#" follows other text on its line, where numpy would cut the line and
    the walker reads on."""
    comments = []
    start = text.find("#")
    while start >= 0:
        if text[text.rfind("\n", 0, start) + 1:start].strip():
            return None
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        comments.append(text[start:end])
        start = text.find("#", end)
    return comments


def _bulk_read(path, tsv):
    """Read a count file with numpy's C reader -> what _walk returns, or
    None where only the walker can decide."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
        comments = _comment_lines(text)
        if comments is None or "\0" in text:   # a str array drops trailing NULs
            return None
        header_k = None
        for comment in comments if tsv else ():
            k = _header_k(comment)
            header_k = header_k if k is None else k
        with warnings.catch_warnings():
            # as errors, loadtxt's warnings (no data rows; in numpy 1.x, a
            # count read through a float) leave the file to the walker
            warnings.simplefilter("error")
            rows = np.loadtxt(path, dtype=object if tsv else np.int64,
                              delimiter="\t" if tsv else ",", comments="#",
                              ndmin=2, encoding="utf-8-sig")
        if rows.shape[1] != 2 or (not tsv and rows.min() < 0):
            return None
        keys, counts = rows[:, 0], rows[:, 1]
        if tsv:
            keys = np.char.strip(keys.astype(str))
            counts = counts.astype(np.int64)   # int() of each field
            ordered = np.sort(keys, kind="stable")   # an empty id sorts first
            if counts.min() < 0 or not ordered[0] or np.any(ordered[1:] == ordered[:-1]):
                return None
    except (ValueError, OverflowError, Warning):
        return None
    return keys, counts, header_k


def _read(path, tsv):
    parsed = _bulk_read(path, tsv)
    return _walk(path, tsv) if parsed is None else parsed


def load_count_files(path1, path2=None, k=None):
    """Build a MultiplicityTable from count files.

    One path: joint CSV (K = number of rows; ``k`` must match if given).
    Two paths: per-sample TSVs joined on category id; K comes from ``k``
    or from the #K= headers, which must agree with each other and ``k``.
    """
    if path2 is None:
        n, m, _ = _read(path1, tsv=False)
        if k is not None and int(k) != len(n):
            raise ValueError(f"{path1}: has {len(n)} rows but --k={k}")
        return build_table(n, m, len(n))
    (ids1, n, k1), (ids2, m, k2) = _read(path1, tsv=True), _read(path2, tsv=True)
    if k1 is not None and k2 is not None and k1 != k2:
        raise ValueError(f"#K= headers disagree: {k1} vs {k2}")
    header_k = k1 if k1 is not None else k2
    if k is None and header_k is None:
        raise ValueError("K not given: pass --k or add a #K= header line")
    if k is not None and header_k is not None and int(k) != header_k:
        raise ValueError(f"{path1 if k1 is not None else path2}: "
                         f"has #K={header_k} but --k={k}")
    # each file's ids are distinct; its counts land at their ids' columns.
    # The id arrays are dropped once copied: at K=1e5 that lowers the peak
    # memory of `bayesdiv estimate` by about 6 MB.  return_index makes
    # np.unique sort stably, which merges the ordered runs that file ids
    # often come in (timsort).
    split = len(ids1)
    ids = np.concatenate((ids1, ids2))
    del ids1, ids2
    keys, _, index = np.unique(ids, return_index=True, return_inverse=True)
    del ids
    counts = np.zeros((2, len(keys)), dtype=np.int64)
    counts[0, index[:split]] = n
    counts[1, index[split:]] = m
    return build_table(counts[0], counts[1], header_k if k is None else int(k))
