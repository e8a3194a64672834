"""Universal forms, their representation pi_D, fluctuations, and pushforwards.

Forms are kept symbolic as finite term lists (a^0, ..., a^n) standing for
a^0 dU a^1 ... dU a^n, never reduced modulo ker pi_D.  The represented
operator is pi_D = sum pi(a^0) [D, pi(a^1)] ... [D, pi(a^n)], the
fluctuated Dirac operator is D_omega = D + pi_D(omega) + eps' J pi_D(omega)
J^-1, and a non-unital homomorphism phi pushes a^0 dU a^1 forward to
phi(a^0) dU phi(a^1) - phi(a^0 a^1) dU p_phi with p_phi = phi(1).

No dense pi(a) is built.  When K is monomial and D splits as L (x) 1 + 1 (x) R
on its vertex blocks, as the first-order condition makes every realized D do,
pi(a) commutes with each 1 (x) R block, so pi_D(omega) = iota_L(sum pi_L(a0)
[L, pi_L(a1)]) is summed on a left space of n_a slots per vertex and written
into a dense buffer once (`VertexLayout.lift_left`), J pi_D(omega) J^-1
beside it; `fluctuate` writes both into a copy of D.  Any other triple takes
the sandwich path: one `VertexLayout.sandwich` of D per degree-one sum, one
GEMM per pair of algebra blocks, O(sum_{i,k} n_i^2 n_k^2 m_i m_k) for m_i legs
of block i, and `fluctuate` writes D_omega into the buffer of pi_D(omega) and
one n x n array J pi_D(omega) J^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import DEFAULT_TOL, AlgebraElement, AlgebraProfile, ProfileMismatch, frob
from .bratteli import BratteliArrow, apply_phi
from .krajewski import RealSpectralTriple
from .reports import Report


@dataclass(frozen=True)
class UniversalOneForm:
    """omega = sum over terms (a0, a1) of a0 dU a1."""

    profile: AlgebraProfile
    terms: tuple = ()

    def __post_init__(self):
        terms = tuple((t[0], t[1]) for t in self.terms)
        for a0, a1 in terms:
            if a0.profile != self.profile or a1.profile != self.profile:
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
    """pi_D(omega) = sum pi(a0) [D, pi(a1)] ... [D, pi(an)].

    Where D splits (RealSpectralTriple._split) this is iota_L of _left_representation; else
    _sandwich_representation.
    """
    if (split := _split_of(omega, t)) is None:
        return _sandwich_representation(omega, t)
    return t.layout.lift_left(_left_representation(omega, t, split[0]))


def _split_of(omega, t: RealSpectralTriple):
    if omega.profile != t.profile:
        raise ProfileMismatch("form and triple live over different profiles")
    return t._split()


def _terms(d, omega, one):
    """sum over terms of d's degree-one sums: the degree-one part in one call, and a term of degree n > 1 as the
    product of its factors (a0, a1), (1, a2), ..., (1, an)."""
    out = d([term for term in omega.terms if len(term) == 2])
    for term in omega.terms:
        if len(term) > 2:
            acc = d([term[:2]])
            for a in term[2:]:
                acc = acc @ d([(one, a)])
            out += acc
    return out


def _sandwich_representation(omega, t: RealSpectralTriple) -> np.ndarray:
    """pi_D(omega) for any D: the degree-one part is sum pi(a0) D pi(a1) - pi(a0 a1) D, one VertexLayout.sandwich."""
    one = AlgebraElement.identity(t.profile)
    return _terms(lambda terms: t.layout._sandwich([p for a0, a1 in terms for p in (  # -1.0 * (a0 @ a1) forms -a0 a1
        (a0.blocks, a1.blocks), (tuple(-1.0 * (x @ y) for x, y in zip(a0.blocks, a1.blocks)), one.blocks))], t.D),
        omega, one)


def _left_representation(omega, t: RealSpectralTriple, L) -> np.ndarray:
    """The left factor of pi_D(omega) for D = iota_L(L) + iota_R(R): pi(a) commutes with every 1 (x) R block, so
    [D, pi(a)] = iota_L([L, pi_L(a)]), and the sum is taken on the padded left space (_left_commutators)."""
    one = AlgebraElement.identity(t.profile)
    return _terms(lambda terms: t.layout._left_commutators([(a0.blocks, a1.blocks) for a0, a1 in terms], L),
                  omega, one)


def _hermitian_representation(omega, t: RealSpectralTriple, tol: float):
    """(pi_D(omega), None), or (its left factor, t._split()) where D splits, refused (never symmetrized) unless
    Hermitian within tol sum ||D||_F^n ||a0||_F ... ||an||_F."""
    if (split := _split_of(omega, t)) is None:
        X = _sandwich_representation(omega, t)
        herm = frob(X - X.conj().T)
    else:
        X = _left_representation(omega, t, split[0])
        herm = t.layout._left_hermiticity(X)
    size = frob(t.D)
    if herm > tol * sum(size ** (len(term) - 1) * math.prod(a.norm() for a in term) for term in omega.terms):
        raise ValueError(f"pi_D(omega) is not Hermitian (residual {herm:.3e})")
    return X, split


def fluctuate(t: RealSpectralTriple, omega: UniversalOneForm, tol: float = DEFAULT_TOL) -> np.ndarray:
    """D_omega = D + pi_D(omega) + eps' J pi_D(omega) J^-1, with pi_D(omega) Hermitian (_hermitian_representation).

    Where D splits, both terms are written from the left factor into a copy of D (VertexLayout.lift_left)."""
    if not isinstance(omega, UniversalOneForm):
        raise TypeError("gauge potentials are one-forms")
    X, split = _hermitian_representation(omega, t, tol)
    if split is not None:
        return t.layout.lift_left(X, t.D, split[1], t.ko.eps_p)
    Y = t.conjugate_by_J(X)
    np.multiply(t.ko.eps_p, Y, out=Y)  # the product eps' * Y, which keeps zeros signed as a skip or negation would not
    return np.add(np.add(t.D, X, out=X), Y, out=X)


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
    unital = all(x == 0 for x in arrow.n0)
    p_phi = apply_phi(arrow, AlgebraElement.identity(arrow.source))
    out = []
    for a0, a1 in omega.terms:
        out.append((apply_phi(arrow, a0), apply_phi(arrow, a1)))
        if not unital:
            out.append((-1.0 * apply_phi(arrow, a0 @ a1), p_phi))
    return UniversalOneForm(arrow.target, tuple(out))
