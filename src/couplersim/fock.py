"""Excitation blocks of a multimode Fock space and one-body operators on them.

Every operator the coupler forms is a one-body operator: the image
sum_ij m[i, j] a_i^dag a_j of an M x M mode matrix m, which conserves the
total excitation K = n_0 + ... + n_{M-1}.  Such an operator is block diagonal
in K, so it is built one block at a time: one_body(m, k) is its block K, a
dense square on the C(K + M - 1, M - 1) occupation tuples of total K, ordered
lexicographically.  A one-body operator maps each block into itself, so a
block, and every sum and product of blocks, is exact: no matrix element is
dropped.  A layout holds the blocks K = 0..n_max; the coupler reads only its
n_max.  Mode 0 is the central waveguide mode; the outer modes follow in order.
As in engine, the inputs are package-built: the coupler's square mode
matrices, at least two modes, and K from a loop over range; only a layout's
n_max, which the command line sets, is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["ModeLayout", "one_body", "block_occupations"]


@dataclass(frozen=True)
class ModeLayout:
    """``mode_count`` modes holding at most ``n_max`` excitations in total."""

    mode_count: int
    n_max: int

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError(f"need n_max >= 1, got {self.n_max}")

    @property
    def dim(self) -> int:
        """Number of states in the blocks K = 0..n_max, C(n_max + mode_count, mode_count)."""
        return math.comb(self.n_max + self.mode_count, self.mode_count)


def _compositions(total: int, parts: int):
    """Tuples of ``parts`` non-negative integers summing to ``total``, ascending."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


@lru_cache(maxsize=None)
def _block(mode_count: int, k: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Occupation table of block K and its one-quantum moves (dst, src, i, j, element).

    For i != j, a_i^dag a_j takes basis state src, occupations n, to dst with
    element sqrt((n_i + 1) n_j).
    """
    rows = list(_compositions(k, mode_count))
    index = {occ: s for s, occ in enumerate(rows)}
    table = np.array(rows, dtype=np.int64)
    i, j = np.nonzero(~np.eye(mode_count, dtype=bool))  # every mode pair i != j
    src, pair = np.nonzero(table[:, j] > 0)
    i, j = i[pair], j[pair]
    unit = np.eye(mode_count, dtype=np.int64)
    moved = table[src] + unit[i] - unit[j]
    dst = np.array([index[tuple(occ)] for occ in moved.tolist()], dtype=np.intp)
    moves = (dst, src, i, j, np.sqrt((table[src, i] + 1) * table[src, j]))
    for a in (table, *moves):
        a.setflags(write=False)
    return table, moves


def block_occupations(mode_count: int, k: int) -> np.ndarray:
    """Occupations of the basis states of block K, one row each, in lexicographic order."""
    return _block(mode_count, k)[0]


def one_body(m, k: int) -> np.ndarray:
    """Block K of sum_ij m[i, j] a_i^dag a_j, the Fock-space image of a mode matrix.

    m must be a square M x M mode matrix and k >= 0; neither is checked.  The
    result is a dense complex square on the basis block_occupations(M, k).
    a_i^dag a_i is n_i, on the diagonal; each move of a quantum fills its own
    entry, so every entry is one coefficient times one element.
    """
    m = np.asarray(m)
    table, (dst, src, i, j, element) = _block(len(m), k)
    out = np.zeros((len(table), len(table)), dtype=complex)
    out[np.diag_indices(len(table))] = table @ np.diag(m)
    out[dst, src] = m[i, j] * element
    return out
