"""Universal forms, their representation pi_D, fluctuations, and pushforwards.

Forms are kept symbolic as finite term lists (a^0, ..., a^n) standing for
a^0 dU a^1 ... dU a^n, never reduced modulo ker pi_D.  The represented
operator is pi_D = sum pi(a^0) [D, pi(a^1)] ... [D, pi(a^n)], the
fluctuated Dirac operator is D_omega = D + pi_D(omega) + eps' J pi_D(omega)
J^-1, and a non-unital homomorphism phi pushes a^0 dU a^1 forward to
phi(a^0) dU phi(a^1) - phi(a^0 a^1) dU p_phi with p_phi = phi(1).
"""

from __future__ import annotations

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
    """pi_D(omega) = sum pi(a0) [D, pi(a1)] ... [D, pi(an)]."""
    if omega.profile != t.profile:
        raise ProfileMismatch("form and triple live over different profiles")
    n = t.dim
    out = np.zeros((n, n), dtype=complex)
    for term in omega.terms:
        acc = t.pi(term[0])
        for a in term[1:]:
            pa = t.pi(a)
            acc = acc @ (t.D @ pa - pa @ t.D)
        out += acc
    return out


def fluctuate(t: RealSpectralTriple, omega: UniversalOneForm, tol: float = DEFAULT_TOL) -> np.ndarray:
    """D_omega = D + pi_D(omega) + eps' J pi_D(omega) J^-1 (Hermitian).

    Rejects forms whose representation is not Hermitian within tol; no
    silent symmetrization.
    """
    if not isinstance(omega, UniversalOneForm):
        raise TypeError("gauge potentials are one-forms")
    X = represent(omega, t)
    herm = frob(X - X.conj().T)
    if herm > tol:
        raise ValueError(f"pi_D(omega) is not Hermitian (residual {herm:.3e})")
    return t.D + X + t.ko.eps_p * t.conjugate_by_J(X)


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
    pu = t.pi(u)
    inner = pu @ X @ pu.conj().T + pu @ (t.D @ pu.conj().T - pu.conj().T @ t.D)
    expansion = t.D + inner + t.ko.eps_p * t.conjugate_by_J(inner)
    lhs = fluctuate(t, gauge_transform(omega, u, tol), tol)
    rep.add("D_{omega^u} = (D_omega)^u expansion", frob(lhs - expansion), tol)
    U = pu @ t.conjugate_by_J(pu)
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
