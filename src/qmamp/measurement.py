"""Spectral families, the perfect-correlation coupling, and the instrument.

A `SpectralRepresentation` assigns an orthogonal projection on the system
space to each character of the measured group; the group unitaries it
represents, U_u = sum_chi conj(chi(u)) E(chi), are a dense test oracle
(`tests/dense_oracle.py`).  The instrument is the projective
operation-valued measure
I(Delta)(B) = sum_{chi in Delta} <xi| E(chi) B E(chi) |xi>, summed over the
characters of Delta in index order.  `instrument` returns its two values
that the amplification theorem equates: the outcome probability, its
value at the identity, and the unnormalized conditional expectation of B;
it forms no post-measurement state, so an outcome costs matrix-vector
products only.  The coupled picture reads the same
instrument off the probe of `couple`'s output, B x 1_Delta, through
`amplification.amplified_instrument` at N = 1; with B = E(chi1) and Delta =
{chi2} that reading is the joint probability of system sector chi1 and
probe label chi2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import Character, FiniteAbelianGroup, make_group


class MeasurementError(ValueError):
    pass


# Frobenius-norm tolerance of the spectral-family checks in make_spectral_rep.
PROJECTION_TOL = 1e-10


@dataclass(frozen=True)
class SpectralRepresentation:
    group: FiniteAbelianGroup
    system_dim: int
    projections: dict[Character, np.ndarray]

    def projection(self, chi: Character) -> np.ndarray:
        p = self.projections.get(chi)
        if p is None:
            return np.zeros((self.system_dim, self.system_dim), dtype=complex)
        return p


def check_projection(chi: Character, mat: np.ndarray) -> None:
    """Refuse the square matrix `mat` assigned to `chi` unless it is a
    hermitian idempotent to within PROJECTION_TOL.  A residual that overflows
    to inf or NaN is refused, with no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.linalg.norm(mat - mat.conj().T) <= PROJECTION_TOL:
            raise MeasurementError(f"assignment for {chi.exponents} is not hermitian")
        if not np.linalg.norm(mat @ mat - mat) <= PROJECTION_TOL:
            raise MeasurementError(f"assignment for {chi.exponents} is not idempotent")


def make_spectral_rep(group, system_dim, assignments) -> SpectralRepresentation:
    """Validate (character, projection) assignments into a spectral family.

    Requires: each matrix a system_dim x system_dim hermitian idempotent
    (`check_projection`), then what `_spectral_family` checks.  Characters
    not listed get the zero projection.
    """
    assignments = [(chi, np.array(mat, dtype=complex)) for chi, mat in assignments]
    for chi, mat in assignments:
        if mat.shape != (system_dim, system_dim):
            raise MeasurementError(
                f"projection shape {mat.shape} does not match system dim {system_dim}"
            )
        check_projection(chi, mat)
    return _spectral_family(group, system_dim, assignments)


def _spectral_family(group, system_dim, assignments) -> SpectralRepresentation:
    """The spectral family of (character, matrix) assignments whose matrices
    `check_projection` has passed: requires distinct characters of `group`,
    pairwise orthogonality and completeness sum E(chi) = I, each to within
    PROJECTION_TOL.  The family keeps the matrices, made read-only."""
    projections: dict[Character, np.ndarray] = {}
    for chi, mat in assignments:
        if chi.group != group:
            raise MeasurementError("character belongs to a different group")
        if chi in projections:
            raise MeasurementError(f"duplicate assignment for {chi.exponents}")
        mat = np.asarray(mat, dtype=complex)
        mat.setflags(write=False)
        projections[chi] = mat

    items = list(projections.items())
    for i, (chi1, p1) in enumerate(items):
        for chi2, p2 in items[i + 1 :]:
            if np.linalg.norm(p1 @ p2) > PROJECTION_TOL:
                raise MeasurementError(
                    f"projections for {chi1.exponents} and {chi2.exponents} overlap"
                )
    total = sum((p for _, p in items), np.zeros((system_dim, system_dim), dtype=complex))
    if np.linalg.norm(total - np.eye(system_dim)) > PROJECTION_TOL:
        raise MeasurementError("projections do not sum to the identity")
    return SpectralRepresentation(group, system_dim, projections)


@dataclass(frozen=True)
class Outcome:
    """A set Delta of characters, held distinct and in index order: the order
    in which the instrument sums them, so its rounding does not depend on
    how the set was given."""

    characters: tuple[Character, ...]


def outcome(chars) -> Outcome:
    return Outcome(tuple(sorted(set(chars), key=lambda chi: chi.index)))


@dataclass(frozen=True)
class InstrumentResult:
    probability: float  # 0.0 for an outcome of probability at most 1e-300
    conditional_expectation: complex


def _check_state(rep: SpectralRepresentation, xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (rep.system_dim,):
        raise MeasurementError(f"state shape {xi.shape} vs system dim {rep.system_dim}")
    with np.errstate(over="ignore"):  # an overflowing norm is inf, and refused
        if not abs(np.linalg.norm(xi) - 1.0) <= 1e-9:
            raise MeasurementError("state is not normalized")
    return xi


def couple(rep: SpectralRepresentation, xi) -> np.ndarray:
    """The (system, probe) tensor of the coupling unitary applied to xi x |trivial>.

    The output is sum_chi E(chi) xi x |chi>: perfect correlation between
    system sectors and probe labels.  It is read off the trivial label
    columns of UtildeV, E(chi) at label chi: column chi is E(chi) xi, filled
    for the assigned characters only, so neither the dense coupling
    (`ktops.build_UtildeV`, which selftest criterion 3 checks this against)
    nor any array larger than the output is built.
    """
    xi = _check_state(rep, xi)
    out = np.zeros((rep.system_dim, rep.group.size), dtype=complex)
    for chi, proj in rep.projections.items():
        # einsum, not a BLAS product, so the amplitudes equal those of the
        # dense stage-one contraction bit for bit
        out[:, chi.index] = np.einsum("rs,s->r", proj, xi)
    return out


def instrument(rep: SpectralRepresentation, delta: Outcome, xi, b: np.ndarray) -> InstrumentResult:
    """Projective instrument I(Delta) at the identity and at B: the sums over
    chi in Delta, in index order, of ||E(chi) xi||^2 and <E(chi) xi, B E(chi) xi>,
    two matrix-vector products per character.  A character the rep does not
    assign has E(chi) = 0 and adds nothing, so it is skipped."""
    xi = _check_state(rep, xi)
    b = np.asarray(b, dtype=complex)
    if b.shape != (rep.system_dim, rep.system_dim):
        raise MeasurementError(f"observable shape {b.shape} vs system dim {rep.system_dim}")

    prob = 0.0
    cond = 0.0 + 0.0j
    for proj in (rep.projections[chi] for chi in delta.characters if chi in rep.projections):
        pxi = proj @ xi
        prob += float(np.vdot(pxi, pxi).real)
        cond += complex(np.vdot(pxi, b @ pxi))
    return InstrumentResult(prob if prob > 1e-300 else 0.0, cond)


def _diagonal_rep(group: FiniteAbelianGroup) -> SpectralRepresentation:
    """E(chi) = |k><k| on a system of dimension |G|, for chi at index k."""
    eye = np.eye(group.size, dtype=complex)
    assignments = [(chi, np.diag(eye[chi.index])) for chi in group.characters()]
    return make_spectral_rep(group, group.size, assignments)


def sigma_z_rep() -> SpectralRepresentation:
    """Two-level preset over Z_2: trivial character -> |0><0|, the other ->
    |1><1|, so the reconstructed U at the generator is diag(1, -1)."""
    return _diagonal_rep(make_group([2]))


def clock_rep(n: int = 3) -> SpectralRepresentation:
    """n-level preset over Z_n: E(chi_k) = |k><k|; U at the generator is the
    conjugate clock matrix diag(1, w^-1, ..., w^-(n-1))."""
    return _diagonal_rep(make_group([n]))
