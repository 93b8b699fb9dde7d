"""Finite abelian groups, their characters, and the axes of their discrete Fourier transform.

A group is a product of cyclic factors Z_{n_1} x ... x Z_{n_k}.  Elements
and characters are integer indices into one enumeration of exponent tuples,
lexicographic with the leftmost coordinate most significant, so the dual
group shares the group's enumeration (self-duality of finite abelian groups);
every matrix in this package uses that index order.  The group law on
indices is `add_indices`.  Exponent tuples appear only where a character is
read (`character`) and in error messages (`Character.exponents`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SIZE_CAP = 4096


class GroupError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteAbelianGroup:
    orders: tuple[int, ...]

    def __post_init__(self):
        if len(self.orders) == 0:
            raise GroupError("group needs at least one cyclic factor")
        if any(n < 1 for n in self.orders):
            raise GroupError(f"cyclic orders must be >= 1, got {self.orders}")

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    def _strides(self):
        """(order, stride) of each cyclic factor: an index is the sum of its
        exponents times their strides."""
        stride = self.size
        for n in self.orders:
            stride //= n
            yield n, stride

    def _factor_strides(self):
        """(order, stride) of each nontrivial cyclic factor: a factor of
        order 1 adds nothing to a group sum, so a group-law pass skips it."""
        return ((n, stride) for n, stride in self._strides() if n > 1)

    def add_indices(self, i, j) -> np.ndarray:
        """Index of the sum of the elements at indices i and j, for
        broadcastable arrays, one array pass per nontrivial factor."""
        i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
        out = np.zeros(np.broadcast_shapes(i.shape, j.shape), dtype=np.intp)
        for n, stride in self._factor_strides():
            # i // stride is coordinate + n * (higher coordinates), so mod n leaves the sum
            out += (i // stride + j // stride) % n * stride
        return out

    def character(self, exponents) -> "Character":
        """The character with these exponents, one per cyclic factor."""
        exponents = tuple(int(m) for m in exponents)
        if len(exponents) != len(self.orders) or not all(
            0 <= m < n for m, n in zip(exponents, self.orders)
        ):
            raise GroupError(f"{exponents} is not an element of {self}")
        return Character(self, sum(m * s for m, (_, s) in zip(exponents, self._strides())))

    @property
    def trivial_character(self) -> "Character":
        return Character(self, 0)

    def characters(self) -> list["Character"]:
        return [Character(self, i) for i in range(self.size)]


@dataclass(frozen=True)
class Character:
    """The character u -> exp(2 pi i sum_j m_j u_j / n_j) at `index`, the
    index of its exponent tuple m."""

    group: FiniteAbelianGroup
    index: int

    def __post_init__(self):
        if not 0 <= self.index < self.group.size:
            raise GroupError(f"character index {self.index} is out of range for {self.group}")

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(self.index // stride % n for n, stride in self.group._strides())


def make_group(orders) -> FiniteAbelianGroup:
    g = FiniteAbelianGroup(tuple(int(n) for n in orders))
    if g.size > DEFAULT_SIZE_CAP:
        raise GroupError(f"group size {g.size} exceeds cap {DEFAULT_SIZE_CAP}")
    return g


def canonical_groups(max_size: int) -> list[FiniteAbelianGroup]:
    """All products of cyclic factors (orders nondecreasing, >= 2) with
    size <= max_size, plus the trivial group."""
    found: list[tuple[int, ...]] = [(1,)]

    def extend(prefix: tuple[int, ...], size: int, min_order: int):
        for n in range(min_order, max_size // size + 1):
            if size * n > max_size:
                break
            found.append(prefix + (n,))
            extend(prefix + (n,), size * n, n)

    extend((), 1, 2)
    return [FiniteAbelianGroup(o) for o in sorted(found, key=lambda o: (int(np.prod(o)), o))]


def _fft_shape(group: FiniteAbelianGroup) -> tuple[int, ...]:
    """The group's cyclic orders without its trivial factors, which a DFT
    leaves alone: the axes over which numpy's fftn with norm="ortho" is the
    group's unitary DFT, F[gamma, u] = conj(gamma(u)) / sqrt(|G|), in index order.  numpy
    arrays have at most 32 axes (64 from numpy 2), and a group under the
    size cap has at most 12 nontrivial factors."""
    return tuple(n for n in group.orders if n > 1) or (1,)

