"""Universal forms, their representation pi_D, fluctuations, and pushforwards.

Forms are kept symbolic as finite term lists (a^0, ..., a^n) standing for
a^0 dU a^1 ... dU a^n, never reduced modulo ker pi_D.  The represented
operator is pi_D = sum pi(a^0) [D, pi(a^1)] ... [D, pi(a^n)], the
fluctuated Dirac operator is D_omega = D + pi_D(omega) + eps' J pi_D(omega)
J^-1, and a non-unital homomorphism phi pushes a^0 dU a^1 forward to
phi(a^0) dU phi(a^1) - phi(a^0 a^1) dU p_phi with p_phi = phi(1).

No dense pi(a) is built.  `_pi_D` is the one reader of a form: it reads D's
split (`RealSpectralTriple._split`) and returns pi_D(omega), or its left
factor where D splits, with the Hermitian check of a gauge potential.  When K
is monomial and D splits as L (x) 1 + 1 (x) R on its vertex blocks, as the
first-order condition makes every realized D do, pi(a) commutes with each
1 (x) R block, so pi_D(omega) = iota_L(sum pi_L(a0) [L, pi_L(a1)]) is summed
on a left space of n_a slots per vertex.  `represent` writes it into one dense
buffer, and `fluctuate` writes it with J pi_D(omega) J^-1 beside it
(`VertexLayout.lift_left`); the B_mu writer `_gauge_field` returns the left
factor and J's tables, for `lift_left` to write B_mu when it is read.  Any other triple takes the
sandwich route: one `VertexLayout.sandwich` of D per degree-one sum, one GEMM
per pair of algebra blocks, O(sum_{i,k} n_i^2 n_k^2 m_i m_k) for m_i legs of
block i; `fluctuate` writes D_omega into the buffer of pi_D(omega), and
`_gauge_field` writes B_mu into that of J pi_D(omega) J^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import DEFAULT_TOL, AlgebraElement, AlgebraProfile, ProfileMismatch, frob
from .bratteli import BratteliArrow, _apply_phi
from .krajewski import RealSpectralTriple
from .reports import Report


@dataclass(frozen=True)
class UniversalOneForm:
    """omega = sum over terms (a0, a1) of a0 dU a1."""

    profile: AlgebraProfile
    terms: tuple = ()

    def __post_init__(self):
        terms = tuple(tuple(t) for t in self.terms)
        for k, term in enumerate(terms):
            if len(term) != 2:
                raise ValueError(f"one-form term {k} has {len(term)} elements, not a pair (a0, a1)")
            if term[0].profile != self.profile or term[1].profile != self.profile:
                raise ProfileMismatch("form term over the wrong profile")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def zero(cls, profile):
        return cls(profile, ())

    def __add__(self, other):
        if self.profile != other.profile:
            raise ProfileMismatch("cannot add forms over different profiles")
        return UniversalOneForm(self.profile, self.terms + other.terms)

    def adjoint(self):
        """omega* for omega = sum a0 dU a1: sum a1* dU a0* - dU(a1* a0*).

        Satisfies pi_D(omega*) = pi_D(omega)^dagger for any triple.
        """
        one = AlgebraElement.identity(self.profile)
        out = []
        for a0, a1 in self.terms:
            out.append((a1.adjoint(), a0.adjoint()))
            out.append((-1.0 * one, a1.adjoint() @ a0.adjoint()))
        return UniversalOneForm(self.profile, tuple(out))


@dataclass(frozen=True)
class UniversalNForm:
    """Finite sum of terms (a0, ..., an), standing for a0 dU a1 ... dU an."""

    profile: AlgebraProfile
    terms: tuple = ()

    def __post_init__(self):
        terms = tuple(tuple(t) for t in self.terms)
        if any(len(t) < 2 for t in terms):
            raise ValueError("n-form terms need degree n >= 1")
        for t in terms:
            for a in t:
                if a.profile != self.profile:
                    raise ProfileMismatch("form term over the wrong profile")
        object.__setattr__(self, "terms", terms)


def represent(omega, t: RealSpectralTriple) -> np.ndarray:
    """pi_D(omega) = sum pi(a0) [D, pi(a1)] ... [D, pi(an)] as an n x n array (_pi_D)."""
    X, split = _pi_D(omega, t)
    return X if split is None else t.layout.lift_left(X)


def _pi_D(omega, t: RealSpectralTriple, tol=None):
    """(X, split) for split = t._split(): X is pi_D(omega) where split is None, else its left factor M, with
    pi_D(omega) = iota_L(M).  With tol, omega is a gauge potential: a one-form, refused (never symmetrized) unless
    pi_D(omega) is Hermitian within tol sum ||D||_F^n ||a0||_F ... ||an||_F.

    A degree-one sum is sum pi(a0) D pi(a1) - pi(a0 a1) D, one VertexLayout.sandwich of D; where D = iota_L(L) +
    iota_R(R), pi(a) commutes with every 1 (x) R block, so [D, pi(a)] = iota_L([L, pi_L(a)]), and the sum is taken on
    the padded left space (VertexLayout._left_commutators).  A term of degree n > 1 is the product of the sums of its
    factors (a0, a1), (1, a2), ..., (1, an).
    """
    if tol is not None and not isinstance(omega, UniversalOneForm):
        raise TypeError("gauge potentials are one-forms")
    if omega.profile != t.profile:
        raise ProfileMismatch("form and triple live over different profiles")
    one, split = AlgebraElement.identity(t.profile), t._split()
    if split is None:
        d = lambda terms: t.layout.sandwich([p for a0, a1 in terms for p in ((a0, a1), (-1.0 * (a0 @ a1), one))], t.D)
    else:
        d = lambda terms: t.layout._left_commutators(terms, split[0])
    X = d([term for term in omega.terms if len(term) == 2])
    for term in omega.terms:
        if len(term) > 2:
            acc = d([term[:2]])
            for a in term[2:]:
                acc = acc @ d([(one, a)])
            X += acc
    if tol is not None:
        herm = frob(X - X.conj().T) if split is None else t.layout._left_hermiticity(X)
        size = frob(t.D)
        if herm > tol * sum(size ** (len(term) - 1) * math.prod(a.norm() for a in term) for term in omega.terms):
            raise ValueError(f"pi_D(omega) is not Hermitian (residual {herm:.3e})")
    return X, split


def fluctuate(t: RealSpectralTriple, omega: UniversalOneForm, tol: float = DEFAULT_TOL) -> np.ndarray:
    """D_omega = D + pi_D(omega) + eps' J pi_D(omega) J^-1 for a gauge potential omega (_pi_D).

    Where D splits, both terms are written from the left factor into a copy of D (VertexLayout.lift_left)."""
    X, split = _pi_D(omega, t, tol)
    if split is not None:
        return t.layout.lift_left(X, t.D, split[1], t.ko.eps_p)
    Y = t.conjugate_by_J(X)
    np.multiply(t.ko.eps_p, Y, out=Y)  # the product eps' * Y, which keeps zeros signed as a skip or negation would not
    return np.add(np.add(t.D, X, out=X), Y, out=X)


def _gauge_field(t: RealSpectralTriple, omega: UniversalOneForm, tol: float):
    """B = A - J A J^-1 for A = pi_D(omega) of a gauge potential omega (_pi_D), as (M, J) where D splits: A's left
    factor M and the split's tables J, with B = t.layout.lift_left(M, None, J, -1.0); else as (B, None), B written
    by a subtraction into the buffer of J A J^-1, not fluctuate's product by eps'."""
    X, split = _pi_D(omega, t, tol)
    if split is not None:
        return X, split[1]
    Y = t.conjugate_by_J(X)
    return np.subtract(X, Y, out=Y), None


def gauge_transform(omega: UniversalOneForm, u: AlgebraElement, tol: float = DEFAULT_TOL) -> UniversalOneForm:
    """omega^u = u omega u* + u dU u*.

    Term expansion: (a0, a1) -> (u a0, a1 u*), (-u a0 a1, u*); the
    inhomogeneous term (u, u*) is appended.
    """
    if not u.is_unitary(tol):
        raise ValueError("gauge transformations need a unitary u")
    us = u.adjoint()
    out = []
    for a0, a1 in omega.terms:
        out.append((u @ a0, a1 @ us))
        out.append((-1.0 * (u @ a0 @ a1), us))
    out.append((u, us))
    return UniversalOneForm(omega.profile, tuple(out))


def gauge_covariance_check(t: RealSpectralTriple, omega: UniversalOneForm, u: AlgebraElement,
                           tol: float = DEFAULT_TOL) -> Report:
    """Check D_{omega^u} against the gauge-transformed fluctuation.

    The transformed operator is D + pi(u) X pi(u)* + pi(u)[D, pi(u)*] plus
    eps' J(...)J^-1, with X = pi_D(omega); it also equals U D_omega U* for
    U = pi(u) J pi(u) J^-1.
    """
    rep = Report("gauge covariance")
    X = represent(omega, t)
    us = u.adjoint()
    inner = t.layout.sandwich([(u, us)], X) + represent(UniversalOneForm(u.profile, ((u, us),)), t)
    expansion = t.D + inner + t.ko.eps_p * t.conjugate_by_J(inner)
    lhs = fluctuate(t, gauge_transform(omega, u, tol), tol)
    rep.add("D_{omega^u} = (D_omega)^u expansion", frob(lhs - expansion), tol)
    ubar = AlgebraElement(u.profile, [np.conj(b) for b in u.blocks])  # pi(ubar) = conj(pi(u))
    U = t.layout.sandwich([(u, ubar)], t.K) @ t.K.conj().T
    rep.add("D_{omega^u} = U D_omega U*", frob(lhs - U @ fluctuate(t, omega, tol) @ U.conj().T), tol)
    return rep


def pushforward(omega: UniversalOneForm, arrow: BratteliArrow) -> UniversalOneForm:
    """phi(a0 dU a1) = phi(a0) dU phi(a1) - phi(a0 a1) dU p_phi.

    For a unital arrow (all defects zero) p_phi = 1 and the correction
    terms are omitted.
    """
    if omega.profile != arrow.source:
        raise ProfileMismatch("form does not live over the arrow's source")
    unital, offsets = all(x == 0 for x in arrow.n0), arrow._band_offsets()
    p_phi = None if unital else _apply_phi(arrow, AlgebraElement.identity(arrow.source), offsets)
    out = []
    for a0, a1 in omega.terms:
        out.append((_apply_phi(arrow, a0, offsets), _apply_phi(arrow, a1, offsets)))
        if not unital:
            out.append((-1.0 * _apply_phi(arrow, a0 @ a1, offsets), p_phi))
    return UniversalOneForm(arrow.target, tuple(out))
