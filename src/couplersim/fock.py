"""Excitation blocks of a multimode Fock space and one-body operators on them.

Every operator the coupler forms is a one-body operator: the image
sum_ij m[i, j] a_i^dag a_j of an M x M mode matrix m, which conserves the
total excitation K = n_0 + ... + n_{M-1}.  Such an operator is block diagonal
in K, so it is built one block at a time: one_body(m, k) is its block K, a
dense square on the C(K + M - 1, M - 1) occupation tuples of total K, ordered
lexicographically.  A one-body operator maps each block into itself, so a
block, and every sum and product of blocks, is exact: no matrix element is
dropped.  The exponential of one_body(m) is the image Gamma(exp(m)) of an
M x M matrix, and image(u, n_max) builds the blocks K = 0..n_max of Gamma(u),
each from the one below.  The index tables of both depend on M and K alone:
they are built on first use, cached per block and read-only.  A layout
holds the blocks K = 0..n_max; the coupler reads only its n_max.  Mode 0 is
the central waveguide mode; the outer modes follow in order.  As in engine,
the inputs are package-built: the coupler's square mode matrices, at least
two modes, and K from a loop over range; only a layout's n_max, which the
command line sets, is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["ModeLayout", "one_body", "image", "block_occupations"]


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


@lru_cache(maxsize=None)
def _block(mode_count: int, k: int) -> tuple[np.ndarray, tuple, tuple]:
    """Occupation table of block K, one_body's moves in it, and image's lift into it.

    up[q, i] is the index in block K of state q of block K - 1 with one more
    quantum in mode i; the element of a_i^dag there is sqrt(q_i + 1).  Block
    K is every such state, once, and np.unique sorts the rows
    lexicographically.  The moves (dst, src, i, j, element) of a_i^dag a_j,
    i != j, come from the same table: a_j takes src down to q and a_i^dag
    takes q up to dst, with element sqrt((q_i + 1) (q_j + 1)), the root of
    the integer product, so that a move and its reverse agree to the bit.
    image's lift (up.T, root, q, j, root[q, j]) does not depend on u: root
    holds sqrt(q_i + 1), and the pairs (q, j) with modes < j empty in q are
    one per state T = q + e_j of block K, sorted by T.  All are read-only.
    """
    if k == 0:
        below = np.zeros((0, mode_count), dtype=np.int64)
        table = np.zeros((1, mode_count), dtype=np.int64)
        up = np.zeros((0, mode_count), dtype=np.intp)
    else:
        below = _block(mode_count, k - 1)[0]
        raised = below[:, None, :] + np.eye(mode_count, dtype=np.int64)
        table, up = np.unique(raised.reshape(-1, mode_count), axis=0, return_inverse=True)
        up = up.reshape(len(below), mode_count)
    pairs = ~np.eye(mode_count, dtype=bool)  # every mode pair i != j
    q, i, j = np.nonzero(np.broadcast_to(pairs, (len(below), *pairs.shape)))
    moves = (up[q, i], up[q, j], i, j, np.sqrt((below[q, i] + 1) * (below[q, j] + 1)))
    root = np.sqrt(below + 1.0)
    q, j = np.nonzero(np.cumsum(below, axis=1) == below)
    order = np.argsort(up[q, j])
    lift = (up.T, root, q[order], j[order], root[q[order], j[order]])
    for a in (table, *moves, *lift):
        a.setflags(write=False)
    return table, moves, lift


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
    table, (dst, src, i, j, element), _ = _block(len(m), k)
    out = np.zeros((len(table), len(table)), dtype=complex)
    out[np.diag_indices(len(table))] = table @ np.diag(m)
    out[dst, src] = m[i, j] * element
    return out


def image(u, n_max: int) -> list[np.ndarray]:
    """Blocks K = 0..n_max of Gamma(u), the Fock-space image of a mode matrix u.

    u must be a square M x M matrix, any complex one; it is not checked.
    Gamma(u) takes a_j^dag to sum_i u[i, j] a_i^dag and leaves the vacuum
    fixed, so Gamma(u v) = Gamma(u) Gamma(v), and the exponential of
    one_body(m, k) is block K of the image of exp(m).  Column T of block K is
    built from block K - 1:
    Gamma(u)|T> = sum_i u[i, j] a_i^dag Gamma(u)|T - e_j> / sqrt(t_j), with j
    the first occupied mode of T.  The element sqrt(q_i + 1) of a_i^dag is
    divided by sqrt(t_j) before anything multiplies it; for a permutation
    matrix the two roots are equal, so it maps to the permutation of the
    occupations exactly.  The states, roots and pairs (q, j) are the cached
    lift of _block, sorted by T, so a call only gathers the columns q of
    block K - 1, multiplies and scatter-adds the rows up[:, i].
    """
    u = np.asarray(u, dtype=complex)
    blocks = [np.ones((1, 1), dtype=complex)]
    for k in range(1, n_max + 1):
        up_t, root, q, j, root_qj = _block(len(u), k)[2]
        lowered, coefficients = blocks[-1][:, q], u[:, j]
        raised = np.zeros((len(q), len(q)), dtype=complex)
        for i, rows in enumerate(up_t):
            raised[rows] += coefficients[i] * (root[:, i, None] / root_qj) * lowered
        blocks.append(raised)
    return blocks
