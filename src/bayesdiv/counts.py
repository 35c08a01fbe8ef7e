"""Count-pair multiplicity tables and count-file ingestion.

Two samples over the same K categories are stored compressed: one row per
distinct (n, m) count pair with its multiplicity nu, rows sorted by (n, m).
Unobserved categories are carried explicitly through the (0, 0) row, so
sums over rows weighted by nu are sums over all K categories.  Each
sample's distinct counts (its levels) are kept too: a term that depends on
one sample only needs computing once per level, not once per row.
"""

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
    makes them, so the table depends only on the multiset of pairs.
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
        object.__setattr__(self, "n_levels", _levels(self.n, self.nu))
        object.__setattr__(self, "m_levels", _levels(self.m, self.nu))

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
    if not isinstance(K, (int, np.integer)) or K < 1:
        raise ValueError("K must be a positive integer")
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

def _read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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


def read_tsv_counts(path):
    """Parse a per-sample TSV file -> (dict category -> count, K or None)."""
    counts = {}
    header_k = None
    for lineno, line in _read_lines(path):
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
        if not cat:
            raise ValueError(f"{path}:{lineno}: empty category id")
        if cat in counts:
            raise ValueError(f"{path}:{lineno}: duplicate category {cat!r}")
        counts[cat] = _parse_count(fields[1].strip(), path, lineno)
    return counts, header_k


def read_pair_csv(path):
    """Parse a joint two-column CSV -> (n vector, m vector, K)."""
    n, m = [], []
    for lineno, line in _read_lines(path):
        if line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected two columns n,m "
                             "(one file is read as an n,m CSV)")
        n.append(_parse_count(fields[0].strip(), path, lineno))
        m.append(_parse_count(fields[1].strip(), path, lineno))
    if not n:
        raise ValueError(f"{path}: no count rows found")
    return np.array(n, dtype=np.int64), np.array(m, dtype=np.int64), len(n)


def load_count_files(path1, path2=None, k=None):
    """Build a MultiplicityTable from count files.

    One path: joint CSV (K = number of rows; ``k`` must match if given).
    Two paths: per-sample TSVs joined on category id; K comes from ``k``
    or from the #K= headers (which must agree).
    """
    if path2 is None:
        n, m, rows = read_pair_csv(path1)
        if k is not None and int(k) != rows:
            raise ValueError(f"{path1}: has {rows} rows but --k={k}")
        return build_table(n, m, rows)
    first, first_k = read_tsv_counts(path1)
    second, second_k = read_tsv_counts(path2)
    if first_k is not None and second_k is not None and first_k != second_k:
        raise ValueError(f"#K= headers disagree: {first_k} vs {second_k}")
    header_k = first_k if first_k is not None else second_k
    if k is not None:
        K = int(k)
    elif header_k is not None:
        K = header_k
    else:
        raise ValueError("K not given: pass --k or add a #K= header line")
    # the first file's categories, then those only in the second; the
    # order does not matter, as build_table sorts the rows
    n, m = list(first.values()), [second.get(c, 0) for c in first]
    for c, count in second.items():
        if c not in first:
            n.append(0)
            m.append(count)
    return build_table(np.array(n, dtype=np.int64), np.array(m, dtype=np.int64), K)
