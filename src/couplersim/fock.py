"""Excitation-bounded multimode Fock space: indexing, hopping operators, blocks.

Every operator the coupler forms is a sum of hopping terms a_i^dag a_j, which
conserve the total excitation K = n_0 + ... + n_{M-1}.  The basis is therefore
the set of occupation tuples with K <= n_max, ordered by K and, inside one K,
lexicographically.  Every hopping operator maps this space into itself, so
its matrix, and every sum and product of such matrices, is exact: no matrix
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
    "ModeOutOfRange",
    "LayoutMismatch",
    "ModeLayout",
    "DenseOperator",
    "hopping",
    "number_operator",
    "total_number",
    "excitation_blocks",
]


class FockError(ValueError):
    """Base class for Fock-space contract violations."""


class OccupationOutOfRange(FockError):
    """An occupation tuple has a negative entry or a total above n_max."""


class LengthMismatch(FockError):
    """A matrix or occupation list does not match the layout dimension."""


class ModeOutOfRange(FockError):
    """A mode index is outside 0..mode_count-1."""


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


@dataclass(frozen=True)
class DenseOperator:
    """Dense complex matrix acting on the excitation-bounded basis."""

    entries: np.ndarray
    layout: ModeLayout

    def __post_init__(self) -> None:
        mat = np.asarray(self.entries, dtype=complex)
        if mat.shape != (self.layout.dim, self.layout.dim):
            raise LengthMismatch(
                f"operator of shape {mat.shape} does not match dimension {self.layout.dim}"
            )
        object.__setattr__(self, "entries", mat)


def _check_mode(layout: ModeLayout, mode: int) -> None:
    if not 0 <= mode < layout.mode_count:
        raise ModeOutOfRange(f"mode {mode} outside 0..{layout.mode_count - 1}")


def hopping(layout: ModeLayout, i: int, j: int) -> DenseOperator:
    """a_i^dag a_j: moves one quantum from mode j to mode i.

    The element from |n> to |n - e_j + e_i> is sqrt((n_i + 1) n_j) with n_i
    read after the quantum has left mode j, so hopping(i, i) is n_i.
    """
    _check_mode(layout, i)
    _check_mode(layout, j)
    table, index = _basis(layout.mode_count, layout.n_max)
    src = np.flatnonzero(table[:, j] > 0)
    moved = table[src].copy()
    moved[:, j] -= 1
    values = np.sqrt((moved[:, i] + 1) * table[src, j])
    moved[:, i] += 1
    dst = [index[tuple(occ)] for occ in moved.tolist()]
    mat = np.zeros((layout.dim, layout.dim), dtype=complex)
    mat[dst, src] = values
    return DenseOperator(mat, layout)


def number_operator(layout: ModeLayout, mode: int) -> DenseOperator:
    """Diagonal occupation-number operator of one mode."""
    _check_mode(layout, mode)
    occ = layout.occupation_table()[:, mode]
    return DenseOperator(np.diag(occ.astype(complex)), layout)


def total_number(layout: ModeLayout) -> DenseOperator:
    """Sum of the number operators of all modes."""
    total = layout.occupation_table().sum(axis=1)
    return DenseOperator(np.diag(total.astype(complex)), layout)


def excitation_blocks(layout: ModeLayout) -> list[tuple[int, np.ndarray]]:
    """Index ranges of the blocks K = 0..n_max, ascending in K.

    Every operator built from hopping terms is block diagonal with respect to
    this partition.
    """
    totals = layout.occupation_table().sum(axis=1)
    return [(k, np.flatnonzero(totals == k)) for k in range(layout.n_max + 1)]
