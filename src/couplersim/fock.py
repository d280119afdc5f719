"""Excitation-bounded multimode Fock space: indexing, one-body operators, blocks.

Every operator the coupler forms is a one-body operator: the image
sum_ij m[i, j] a_i^dag a_j of an M x M mode matrix m, which conserves the
total excitation K = n_0 + ... + n_{M-1}.  The basis is therefore the set of
occupation tuples with K <= n_max, ordered by K and, inside one K,
lexicographically.  A one-body operator maps this space into itself, so its
matrix, and every sum and product of such matrices, is exact: no matrix
element is dropped.  Mode 0 is the central waveguide mode; the outer modes
follow in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "FockError",
    "OccupationOutOfRange",
    "LengthMismatch",
    "LayoutMismatch",
    "ModeLayout",
    "one_body",
    "excitation_blocks",
]


class FockError(ValueError):
    """Base class for Fock-space contract violations."""


class OccupationOutOfRange(FockError):
    """An occupation tuple has a negative entry or a total above n_max."""


class LengthMismatch(FockError):
    """A mode matrix or occupation list does not match the layout."""


class LayoutMismatch(FockError):
    """Operands were built over different mode layouts."""


@dataclass(frozen=True)
class ModeLayout:
    """``mode_count`` modes holding at most ``n_max`` excitations in total."""

    mode_count: int
    n_max: int

    def __post_init__(self) -> None:
        if self.mode_count < 2:
            raise FockError(f"need at least two modes, got {self.mode_count}")
        if self.n_max < 1:
            raise FockError(f"need n_max >= 1, got {self.n_max}")

    @property
    def dim(self) -> int:
        """Number of basis states, C(n_max + mode_count, mode_count)."""
        return math.comb(self.n_max + self.mode_count, self.mode_count)

    def flat_index(self, occupations) -> int:
        """Basis index of an occupation tuple."""
        occ = tuple(int(n) for n in occupations)
        if len(occ) != self.mode_count:
            raise LengthMismatch(
                f"expected {self.mode_count} occupations, got {len(occ)}"
            )
        try:
            return _basis(self.mode_count, self.n_max)[1][occ]
        except KeyError:
            raise OccupationOutOfRange(
                f"occupations {occ} are outside the basis: need every n >= 0 "
                f"and a total <= n_max = {self.n_max}"
            ) from None

    def occupations(self, index: int) -> tuple[int, ...]:
        """Occupation tuple of a basis index."""
        if not 0 <= index < self.dim:
            raise FockError(f"index {index} outside 0..{self.dim - 1}")
        return tuple(int(n) for n in self.occupation_table()[index])

    def occupation_table(self) -> np.ndarray:
        """(dim, mode_count) integer array; row i holds the occupations of index i."""
        return _basis(self.mode_count, self.n_max)[0]


def _compositions(total: int, parts: int):
    """Tuples of ``parts`` non-negative integers summing to ``total``, ascending."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


@lru_cache(maxsize=None)
def _basis(mode_count: int, n_max: int) -> tuple[np.ndarray, dict]:
    """Occupation table and its inverse lookup {occupations: index}."""
    rows = [occ for k in range(n_max + 1) for occ in _compositions(k, mode_count)]
    table = np.array(rows, dtype=np.int64)
    table.setflags(write=False)
    return table, {occ: i for i, occ in enumerate(rows)}


def one_body(layout: ModeLayout, m) -> np.ndarray:
    """sum_ij m[i, j] a_i^dag a_j, the Fock-space image of a mode matrix.

    m is a mode_count x mode_count matrix; the result is a dense complex
    (dim, dim) matrix.  a_i^dag a_j moves one quantum from mode j to mode i,
    with element sqrt((n_i + 1) n_j) from |n> to |n - e_j + e_i> (n_i read
    after the quantum has left mode j), and a_i^dag a_i is n_i.  Each
    unordered pair of modes is walked once: a_j^dag a_i is the transpose of
    a_i^dag a_j.  Distinct terms fill distinct entries, so every entry is one
    coefficient times one element.
    """
    m = np.asarray(m)
    shape = (layout.mode_count, layout.mode_count)
    if m.shape != shape:
        raise LengthMismatch(f"mode matrix of shape {m.shape}, expected {shape}")
    table, index = _basis(layout.mode_count, layout.n_max)
    out = np.zeros((layout.dim, layout.dim), dtype=complex)
    out[np.diag_indices(layout.dim)] = table @ np.diag(m)
    for i in range(layout.mode_count):
        for j in range(i + 1, layout.mode_count):
            if m[i, j] == 0 and m[j, i] == 0:
                continue
            src = np.flatnonzero(table[:, j] > 0)
            moved = table[src].copy()
            moved[:, j] -= 1
            values = np.sqrt((moved[:, i] + 1) * table[src, j])
            moved[:, i] += 1
            dst = [index[tuple(occ)] for occ in moved.tolist()]
            out[dst, src] = m[i, j] * values
            out[src, dst] = m[j, i] * values
    return out


def excitation_blocks(layout: ModeLayout) -> list[tuple[int, np.ndarray]]:
    """Index ranges of the blocks K = 0..n_max, ascending in K.

    Every one_body operator is block diagonal with respect to this partition.
    """
    totals = layout.occupation_table().sum(axis=1)
    return [(k, np.flatnonzero(totals == k)) for k in range(layout.n_max + 1)]
