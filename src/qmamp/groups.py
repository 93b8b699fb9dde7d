"""Finite abelian groups, their characters, and the discrete Fourier transform.

A group is a product of cyclic factors Z_{n_1} x ... x Z_{n_k}.  Elements are
integer tuples with componentwise addition mod n_i.  Characters are indexed by
exponent tuples of the same shape, so the dual group shares the element
enumeration with the group itself (self-duality of finite abelian groups).

Enumeration is lexicographic with the leftmost coordinate most significant;
every matrix in this package uses that index order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

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

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(n) for n in self.orders)))

    def contains(self, a) -> bool:
        return (
            len(a) == len(self.orders)
            and all(0 <= x < n for x, n in zip(a, self.orders))
        )

    def _check(self, a) -> tuple[int, ...]:
        a = tuple(int(x) for x in a)
        if not self.contains(a):
            raise GroupError(f"{a} is not an element of {self}")
        return a

    def index(self, a) -> int:
        a = self._check(a)
        i = 0
        for x, n in zip(a, self.orders):
            i = i * n + x
        return i

    def element(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.size:
            raise GroupError(f"index {i} out of range for group of size {self.size}")
        out = []
        for n in reversed(self.orders):
            out.append(i % n)
            i //= n
        return tuple(reversed(out))

    def add(self, a, b) -> tuple[int, ...]:
        a, b = self._check(a), self._check(b)
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def add_indices(self, i, j) -> np.ndarray:
        """Index of element(i) + element(j) for broadcastable arrays of indices."""
        i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
        out = np.zeros(np.broadcast_shapes(i.shape, j.shape), dtype=np.intp)
        stride = self.size
        for n in self.orders:
            stride //= n
            # i // stride is coordinate + n * (higher coordinates), so mod n leaves the sum
            out += (i // stride + j // stride) % n * stride
        return out

    def negate(self, a) -> tuple[int, ...]:
        a = self._check(a)
        return tuple((-x) % n for x, n in zip(a, self.orders))

    def character(self, exponents) -> "Character":
        return Character(self, self._check(exponents))

    @property
    def trivial_character(self) -> "Character":
        return Character(self, self.identity)

    def characters(self) -> list["Character"]:
        return [Character(self, e) for e in self.elements()]


@dataclass(frozen=True)
class Character:
    """Group character u -> exp(2*pi*i * sum_j m_j a_j / n_j)."""

    group: FiniteAbelianGroup
    exponents: tuple[int, ...]

    def value(self, u) -> complex:
        u = self.group._check(u)
        phase = sum(m * a / n for m, a, n in zip(self.exponents, u, self.group.orders))
        return complex(np.exp(2j * np.pi * phase))

    def __mul__(self, other: "Character") -> "Character":
        if other.group != self.group:
            raise GroupError("characters belong to different groups")
        return Character(self.group, self.group.add(self.exponents, other.exponents))

    @property
    def inverse(self) -> "Character":
        return Character(self.group, self.group.negate(self.exponents))

    @property
    def index(self) -> int:
        return self.group.index(self.exponents)


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
    leaves alone: numpy arrays have at most 64 axes, and a group under the
    size cap has at most 12 nontrivial factors."""
    return tuple(n for n in group.orders if n > 1) or (1,)


@lru_cache(maxsize=4)
def fourier_matrix(group: FiniteAbelianGroup) -> np.ndarray:
    """Unitary DFT matrix F[gamma, u] = conj(gamma(u)) / sqrt(|G|)."""
    n = group.size
    shape = _fft_shape(group)
    eye = np.eye(n, dtype=complex).reshape(shape + (n,))
    f = np.fft.fftn(eye, axes=tuple(range(len(shape))), norm="ortho").reshape(n, n)
    f.setflags(write=False)
    return f


def _check_vector(group: FiniteAbelianGroup, xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (group.size,):
        raise GroupError(f"vector has shape {xi.shape}, expected ({group.size},)")
    return xi.reshape(_fft_shape(group))


def fourier_transform(group: FiniteAbelianGroup, xi: np.ndarray) -> np.ndarray:
    return np.fft.fftn(_check_vector(group, xi), norm="ortho").reshape(-1)


def inverse_fourier_transform(group: FiniteAbelianGroup, xi_hat: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(_check_vector(group, xi_hat), norm="ortho").reshape(-1)


def _perm_matrix(p: np.ndarray) -> np.ndarray:
    """0/1 matrix of the basis map e_j -> e_{p[j]}."""
    n = len(p)
    m = np.zeros((n, n), dtype=complex)
    m[p, np.arange(n)] = 1.0
    return m


def regular_representation(gamma: Character) -> np.ndarray:
    """Translation lambda_gamma |chi> = |gamma * chi> on l2 of the dual group.

    The dual group shares the group's enumeration, so this is the permutation
    matrix of translation by the exponent tuple of gamma.
    """
    group = gamma.group
    return _perm_matrix(group.add_indices(gamma.index, np.arange(group.size)))
