"""Finite abelian groups, their characters, and the axes of their discrete Fourier transform.

A group is a product of cyclic factors Z_{n_1} x ... x Z_{n_k}.  Elements
and characters are integer indices into one enumeration of exponent tuples,
lexicographic with the leftmost coordinate most significant, so the dual
group shares the group's enumeration (self-duality of finite abelian groups);
every matrix in this package uses that index order.  The group law on
indices is `add_indices`.  A character is its index: the character
u -> exp(2 pi i sum_j m_j u_j / n_j) is the index of its exponent tuple m,
and index 0 is the trivial character.  Exponent tuples appear only where a
character is read (`character`) and in error messages (`exponents`).
Orders and exponents are integers (`is_integer`): a float or a bool is
refused, not truncated.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

DEFAULT_SIZE_CAP = 4096


class GroupError(ValueError):
    pass


def is_integer(value) -> bool:
    """Whether `value` is an int or a numpy integer, and not a bool: an order,
    an exponent, a character index or a number of probe copies."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _integers(values) -> tuple[int, ...]:
    """`values` as a tuple of ints; a float, a bool or any other value that
    `is_integer` refuses is refused, not truncated."""
    values = tuple(values)
    if not all(is_integer(v) for v in values):
        raise GroupError(f"expected integers, got {values}")
    return tuple(int(v) for v in values)


@dataclass(frozen=True)
class FiniteAbelianGroup:
    orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "orders", _integers(self.orders))
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

    def character(self, exponents) -> int:
        """Index of the character with these exponents, one per cyclic factor:
        a tuple names a character when it is that index's `exponents`."""
        exponents = _integers(exponents)
        index = sum(m * s for m, (_, s) in zip(exponents, self._strides()))
        if self.exponents(index) != exponents:
            raise GroupError(f"{exponents} is not an element of {self}")
        return index

    def exponents(self, index: int) -> tuple[int, ...]:
        """Exponent tuple of the character at `index`."""
        return tuple(index // stride % n for n, stride in self._strides())


def make_group(orders) -> FiniteAbelianGroup:
    g = FiniteAbelianGroup(orders)
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

