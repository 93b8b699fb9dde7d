"""Spectral families, the perfect-correlation coupling, and the instrument.

A `SpectralRepresentation` assigns an orthogonal projection on the system
space to characters of the measured group, each given by its index
(`groups`); the group unitaries it represents,
U_u = sum_chi conj(chi(u)) E(chi), are a dense test oracle
(`tests/dense_oracle.py`).  The instrument is the projective
operation-valued measure
I(Delta)(B) = sum_{chi in Delta} <xi| E(chi) B E(chi) |xi>, for an outcome
Delta that is a sorted tuple of distinct character indices (`outcome`), so
its characters are summed in index order.  `instrument` returns its two values
that the amplification theorem equates: the outcome probability, its
value at the identity, and the unnormalized conditional expectation of B;
it forms no post-measurement state, so an outcome costs matrix-vector
products only.  The coupled picture reads the same
instrument off the probe of `couple`'s output, B x 1_Delta, through
`amplification.amplified_instrument` at N = 1; with B = E(chi1) and Delta =
(chi2,) that reading is the joint probability of system sector chi1 and
probe label chi2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteAbelianGroup, is_integer, make_group


class MeasurementError(ValueError):
    pass


# Frobenius-norm tolerance of the spectral-family checks in make_spectral_rep.
PROJECTION_TOL = 1e-10


@dataclass(frozen=True)
class SpectralRepresentation:
    group: FiniteAbelianGroup
    system_dim: int
    projections: dict[int, np.ndarray]


def check_projection(group: FiniteAbelianGroup, chi: int, mat: np.ndarray) -> None:
    """Refuse the square matrix `mat` assigned to the character at index
    `chi` of `group` unless it is a hermitian idempotent to within
    PROJECTION_TOL.  A residual that overflows to inf or NaN is refused, with
    no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.linalg.norm(mat - mat.conj().T) <= PROJECTION_TOL:
            raise MeasurementError(f"assignment for {group.exponents(chi)} is not hermitian")
        if not np.linalg.norm(mat @ mat - mat) <= PROJECTION_TOL:
            raise MeasurementError(f"assignment for {group.exponents(chi)} is not idempotent")


def make_spectral_rep(group, system_dim, assignments) -> SpectralRepresentation:
    """Validate (character index, projection) assignments into a spectral family.

    Requires: each character an integer index in [0, |G|) (`is_integer`),
    each matrix a system_dim x system_dim hermitian idempotent
    (`check_projection`), then what `_spectral_family` checks.  A character
    not listed is absent from `projections`, and `couple` and `instrument`
    skip it.
    """
    assignments = [(chi, np.array(mat, dtype=complex)) for chi, mat in assignments]
    for chi, mat in assignments:
        if not (is_integer(chi) and 0 <= chi < group.size):
            raise MeasurementError(f"character {chi!r} is not an index in [0, {group.size})")
        if mat.shape != (system_dim, system_dim):
            raise MeasurementError(
                f"projection shape {mat.shape} does not match system dim {system_dim}"
            )
        check_projection(group, chi, mat)
    return _spectral_family(group, system_dim, assignments)


def _spectral_family(group, system_dim, assignments) -> SpectralRepresentation:
    """The spectral family of (character index, matrix) assignments whose
    indices and matrices are checked: requires distinct characters,
    pairwise orthogonality and completeness sum E(chi) = I, each to within
    PROJECTION_TOL.  The family keeps the matrices, made read-only."""
    projections: dict[int, np.ndarray] = {}
    for chi, mat in assignments:
        if chi in projections:
            raise MeasurementError(f"duplicate assignment for {group.exponents(chi)}")
        mat = np.asarray(mat, dtype=complex)
        mat.setflags(write=False)
        projections[int(chi)] = mat

    items = list(projections.items())
    for i, (chi1, p1) in enumerate(items):
        for chi2, p2 in items[i + 1 :]:
            if np.linalg.norm(p1 @ p2) > PROJECTION_TOL:
                raise MeasurementError(
                    f"projections for {group.exponents(chi1)} and {group.exponents(chi2)} overlap"
                )
    total = sum((p for _, p in items), np.zeros((system_dim, system_dim), dtype=complex))
    if np.linalg.norm(total - np.eye(system_dim)) > PROJECTION_TOL:
        raise MeasurementError("projections do not sum to the identity")
    return SpectralRepresentation(group, system_dim, projections)


def outcome(chars) -> tuple[int, ...]:
    """The outcome Delta of the character indices `chars`: distinct and in
    index order, the order in which the instrument sums them, so its
    rounding does not depend on how the set was given."""
    return tuple(sorted(set(chars)))


def check_outcome(group: FiniteAbelianGroup, delta) -> None:
    """Refuse an outcome holding an index outside [0, |G|): the instrument
    would skip it, and the amplified instrument's indicator would wrap it
    to another character."""
    if not all(0 <= chi < group.size for chi in delta):
        raise MeasurementError(f"outcome {delta} holds an index outside [0, {group.size})")


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
        out[:, chi] = np.einsum("rs,s->r", proj, xi)
    return out


def instrument(rep: SpectralRepresentation, delta, xi, b: np.ndarray) -> InstrumentResult:
    """Projective instrument I(Delta) at the identity and at B: the sums over
    chi in Delta, in index order, of ||E(chi) xi||^2 and <E(chi) xi, B E(chi) xi>,
    two matrix-vector products per character.  A character the rep does not
    assign has E(chi) = 0 and adds nothing, so it is skipped."""
    xi = _check_state(rep, xi)
    check_outcome(rep.group, delta)
    b = np.asarray(b, dtype=complex)
    if b.shape != (rep.system_dim, rep.system_dim):
        raise MeasurementError(f"observable shape {b.shape} vs system dim {rep.system_dim}")

    prob = 0.0
    cond = 0.0 + 0.0j
    for proj in (rep.projections[chi] for chi in delta if chi in rep.projections):
        pxi = proj @ xi
        prob += float(np.vdot(pxi, pxi).real)
        cond += complex(np.vdot(pxi, b @ pxi))
    return InstrumentResult(prob if prob > 1e-300 else 0.0, cond)


def clock_rep(n: int) -> SpectralRepresentation:
    """n-level preset over Z_n: E(k) = |k><k| for the character at index k;
    U at the generator is the conjugate clock matrix
    diag(1, w^-1, ..., w^-(n-1)), which is sigma_z, diag(1, -1), at n = 2."""
    eye = np.eye(n, dtype=complex)
    return make_spectral_rep(make_group([n]), n, [(k, np.diag(eye[k])) for k in range(n)])
