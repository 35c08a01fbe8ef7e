"""Count-pair multiplicity tables and count-file ingestion.

Two samples over the same K categories are stored compressed: one row per
distinct (n, m) count pair with its multiplicity nu.  Unobserved categories
are carried explicitly through the (0, 0) row, so sums over rows weighted
by nu are sums over all K categories.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MultiplicityTable",
    "build_table",
    "load_count_files",
]


@dataclass(frozen=True)
class MultiplicityTable:
    """Compressed two-sample count table over K categories."""

    n: np.ndarray   # distinct first-sample counts, shape (U,)
    m: np.ndarray   # matching second-sample counts, shape (U,)
    nu: np.ndarray  # multiplicity of each pair, shape (U,)
    K: int
    N: int
    M: int

    def observed_categories(self, which_sample):
        """Number of categories with a positive count in one sample."""
        c = self.n if which_sample == 1 else self.m
        return int(self.nu[c > 0].sum())


def _as_count_vector(counts, name):
    arr = np.asarray(counts)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        flt = np.asarray(arr, dtype=float)
        if np.any(flt != np.round(flt)):
            raise ValueError(f"{name} must hold integers")
        arr = flt.astype(np.int64)
    arr = arr.astype(np.int64)
    if np.any(arr < 0):
        raise ValueError(f"{name} must be non-negative")
    return arr


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
    if len(c1):
        pairs, mult = np.unique(np.stack([c1, c2], axis=1), axis=0,
                                return_counts=True)
        n, m, nu = pairs[:, 0], pairs[:, 1], mult.astype(np.int64)
    else:
        n = m = np.zeros(0, dtype=np.int64)
        nu = np.zeros(0, dtype=np.int64)
    pad = K - len(c1)
    if pad:
        if len(n) and n[0] == 0 and m[0] == 0:
            nu = nu.copy()
            nu[0] += pad
        else:
            n = np.concatenate([[0], n])
            m = np.concatenate([[0], m])
            nu = np.concatenate([[pad], nu])
    for arr in (n, m, nu):
        arr.setflags(write=False)
    return MultiplicityTable(n=n, m=m, nu=nu, K=K,
                             N=int(c1.sum()), M=int(c2.sum()))


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
    if value < 0:
        raise ValueError(f"{path}:{lineno}: negative count")
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
            raise ValueError(f"{path}:{lineno}: expected two columns n,m")
        n.append(_parse_count(fields[0].strip(), path, lineno))
        m.append(_parse_count(fields[1].strip(), path, lineno))
    if not n:
        raise ValueError(f"{path}: no count rows found")
    return np.array(n, dtype=np.int64), np.array(m, dtype=np.int64), len(n)


def _sniff_format(path):
    for _, line in _read_lines(path):
        if line.startswith("#"):
            continue
        if "\t" in line:
            return "tsv"
        if "," in line:
            return "csv"
        raise ValueError(f"{path}: cannot tell TSV from CSV (no tab/comma)")
    raise ValueError(f"{path}: no data lines")


def load_count_files(path1, path2=None, k=None):
    """Build a MultiplicityTable from count files.

    One path: joint CSV (K = number of rows; ``k`` must match if given).
    Two paths: per-sample TSVs joined on category id; K comes from ``k``
    or from the #K= headers (which must agree).
    """
    if path2 is None:
        if _sniff_format(path1) != "csv":
            raise ValueError(f"{path1}: single-file input must be n,m CSV")
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
    cats = sorted(set(first) | set(second))
    if len(cats) > K:
        raise ValueError(f"{len(cats)} categories seen but K={K}")
    n = np.array([first.get(c, 0) for c in cats], dtype=np.int64)
    m = np.array([second.get(c, 0) for c in cats], dtype=np.int64)
    return build_table(n, m, K)
