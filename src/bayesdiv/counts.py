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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class MultiplicityTable:
    """Compressed two-sample count table over K categories.

    Rows are distinct (n, m) pairs sorted by n, then m, as build_table
    makes them, so the table depends only on the multiset of pairs;
    construction checks this, nu >= 1 summing to K, and exact N and M.
    ``n_levels`` and ``m_levels`` hold each sample's distinct counts,
    computed once when the table is made; row u has
    n[u] = n_levels.values[n_levels.index[u]], and likewise for m.
    Tables, like their levels, compare and hash by identity.
    """

    n: np.ndarray   # first-sample counts, shape (U,)
    m: np.ndarray   # matching second-sample counts, shape (U,)
    nu: np.ndarray  # multiplicity of each pair, shape (U,)
    K: int
    N: int
    M: int
    n_levels: Levels = field(init=False, repr=False)
    m_levels: Levels = field(init=False, repr=False)

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
    return arr.astype(np.int64, copy=False)


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
    # one (0, 0) entry, first in order, stands for the K - len unlisted
    # categories.  An int64 key per category orders the (n, m) pairs: it packs
    # the counts, or where they do not fit their ranks (below 2^31, as _total assumes)
    n, m = np.append(c1, 0), np.append(c2, 0)
    ranked = (int(n.max()) + 1) * (int(m.max()) + 1) > _MAX_COUNT
    if ranked:
        (n_values, n), (m_values, m) = (np.unique(c, return_inverse=True) for c in (n, m))
    width = int(m.max()) + 1
    key = n * width
    key += m
    key.sort()
    start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    n, m = np.divmod(key[start], width)
    if ranked:
        n, m = n_values[n], m_values[m]
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

    keys are a TSV's category ids, UTF-8 encoded (an object array, which
    keeps each id exactly) or a CSV's n counts; counts is the other column;
    header_k is a TSV's last "#K=" header, or None.
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
            key = key.encode()
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


def _id_dtype(text):
    """A bytes dtype for a TSV's ids, and whether the file holds a byte that
    ``_strips_as_text`` looks for: the dtype is as wide as the most UTF-8
    bytes between a line start or tab and the next tab, which no id
    exceeds.  A line with a w-byte id takes w + 3 bytes or more, so were all
    ids as wide as the widest, they would take under 1 array byte per byte
    of text.  Over 4 bytes a byte, the widest id is over four mean lines long
    (one long id, or a long comment holding a tab): the walker reads it.
    Only then is the width taken again without the comments, which numpy
    skips; each "#" here starts one, as ``_comment_lines`` has checked."""
    width, fits, odd = _id_width(text)
    if not fits:
        width, fits, _ = _id_width(re.sub(r"#[^\n]*", "", text))
    if not fits:
        raise ValueError("ids too wide for a fixed-width array")
    return f"S{width}", odd


def _id_width(text):
    # the widest span before a tab, whether it fits the budget, and any _unlike_ascii byte
    data = np.frombuffer(text.encode(), dtype=np.uint8)
    stops = np.flatnonzero((data == 9) | (data == 10))   # tabs and line ends
    tabs = data[stops] == 9
    width = int((np.diff(stops, prepend=-1) - 1)[tabs].max(initial=1))
    return width, width * np.count_nonzero(tabs) <= 4 * data.size, _unlike_ascii(data).any()


def _unlike_ascii(data):   # 0x1c-0x1f, or a byte of a non-ASCII character
    return (data - 0x1C < 4) | (data >= 0x80)


def _strips_as_text(ids):
    """Whether str.strip keeps each bytes.strip-ped UTF-8 id; only an id with an
    ``_unlike_ascii`` first or last byte is decoded."""
    data = ids.view(np.uint8).reshape(len(ids), -1)
    last = data[np.arange(len(ids)), np.char.str_len(ids) - 1]   # an empty id's is a pad, 0
    edged = ids[_unlike_ascii(data[:, 0]) | _unlike_ascii(last)].tolist()
    return all(key.decode() == key.decode().strip() for key in edged)


def _bulk_read(path, tsv):
    """Read a count file with numpy's C reader -> what _walk returns, or
    None where only the walker can decide.  The reader parses both layouts'
    counts as int64; a count that only int() reads ("1_0", non-ASCII digits)
    leaves the file to the walker, which reads it to the same table.  A
    TSV's ids come back as bytes, read as latin-1 text (a character a byte),
    sorted by id (UTF-8 sorts by code point), its counts alongside."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        bom = text.startswith("\ufeff")   # U+FEFF, 3 bytes that begin some UTF-8 files
        comments = _comment_lines(text[bom:])
        if comments is None or "\0" in text:   # a bytes array drops trailing NULs
            return None
        found = [k for k in map(_header_k, comments if tsv else ()) if k is not None]
        header_k = found[-1] if found else None   # the last "#K=" header counts
        key, odd = _id_dtype(text) if tsv else (np.int64, False)
        skip = int(tsv and bom and "#" in text[:text.find("\n")])   # a comment after the mark
        with warnings.catch_warnings():
            # as errors, loadtxt's warnings (no data rows; in numpy 1.x, a
            # count read through a float) leave the file to the walker
            warnings.simplefilter("error")
            rows = np.loadtxt(path, dtype=[("key", key), ("count", np.int64)],
                              delimiter="\t" if tsv else ",", comments="#", skiprows=skip,
                              ndmin=1, encoding="latin1" if tsv else "utf-8-sig")
        keys, counts = rows["key"], rows["count"].copy()   # a view keeps the rows alive
        if counts.min() < 0 or (not tsv and keys.min() < 0):
            return None
        if tsv:
            if bom and not skip:
                keys[0] = keys[0][3:]   # the mark stays with the first id
            keys = np.char.strip(keys)
            if odd and not _strips_as_text(keys):
                return None
            order = np.argsort(keys, kind="stable")
            keys, counts = keys[order], counts[order]   # an empty id sorts first
            if not keys[0] or np.any(keys[1:] == keys[:-1]):
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
    # each file's ids are distinct; its counts land at their ids' ranks.
    # Bulk-read ids come sorted, so the stable argsort (timsort) merges two
    # runs.  Dropping the id arrays early lowers the peak memory.
    split = len(ids1)
    ids = np.concatenate((ids1, ids2))
    del ids1, ids2
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    new = np.ones(len(ids), dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=new[1:])
    del ids
    rank = np.empty_like(order)
    rank[order] = np.cumsum(new) - 1
    counts = np.zeros((2, np.count_nonzero(new)), dtype=np.int64)
    counts[0, rank[:split]] = n
    counts[1, rank[split:]] = m
    del order, rank
    return build_table(counts[0], counts[1], header_k if k is None else int(k))
