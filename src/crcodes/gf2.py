"""Bitset linear algebra over GF(2). Rows are ints, bit j = column j."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Tuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "gf2_rref",
    "gf2_rank",
    "gf2_nullspace",
    "gf2_span",
    "gf2_linear_map",
    "gf2_wht",
]


def gf2_rref(rows: Iterable[int], n_cols: int) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    reduced: List[int] = []
    pivots: List[int] = []
    for row in rows:
        for r, p in zip(reduced, pivots):
            if (row >> p) & 1:
                row ^= r
        if row == 0:
            continue
        p = (row & -row).bit_length() - 1
        # clear the new pivot column in existing rows
        for k, r in enumerate(reduced):
            if (r >> p) & 1:
                reduced[k] = r ^ row
        reduced.append(row)
        pivots.append(p)
    order = sorted(range(len(pivots)), key=lambda k: pivots[k])
    return [reduced[k] for k in order], [pivots[k] for k in order]


def gf2_rank(rows: Iterable[int], n_cols: int) -> int:
    return len(gf2_rref(rows, n_cols)[0])


def gf2_nullspace(rows: Iterable[int], n_cols: int) -> List[int]:
    """Basis of {x : parity(row & x) = 0 for every row}, deterministic order."""
    reduced, pivots = gf2_rref(rows, n_cols)
    pivot_set = set(pivots)
    basis: List[int] = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        x = 1 << free
        for r, p in zip(reduced, pivots):
            if (r >> free) & 1:
                x |= 1 << p
        basis.append(x)
    return basis


def gf2_span(basis: List[int]) -> Iterator[int]:
    """All 2^k combinations of the basis rows in Gray-code order."""
    word = 0
    yield 0
    for t in range(1, 1 << len(basis)):
        word ^= basis[(t & -t).bit_length() - 1]
        yield word


def gf2_linear_map(
    pairs: Iterable[Tuple[int, int]], width: int, out_width: int
) -> Optional[np.ndarray]:
    """Table over all 2^width inputs of the linear map L with L(x) = y for
    every pair (x, y); None when the xs do not span or no such L exists.

    The rows x | y << width reduce to e_k | L(e_k) << width exactly when L
    exists, and the table doubles by L(x ^ e_k) = L(x) ^ L(e_k).
    """
    import numpy as np

    rows, pivots = gf2_rref((x | y << width for x, y in pairs), width + out_width)
    if pivots != list(range(width)):
        return None
    table = np.zeros(1 << width, dtype=np.int64)
    for k, row in enumerate(rows):
        table[1 << k:2 << k] = table[:1 << k] ^ (row >> width)
    return table


def gf2_wht(values: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform in place: values[t] becomes the sum over s
    of (-1)^(s . t) values[s].  values is a contiguous int64 array whose
    length is a power of two."""
    h = 1
    while h < len(values):
        pairs = values.reshape(-1, 2, h)
        low = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        pairs[:, 1] = low - pairs[:, 1]
        h *= 2
    return values
