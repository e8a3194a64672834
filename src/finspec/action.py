"""Finite spectral action, flat-background bosonic Lagrangian, fermionic pairing.

Everything here is the algebraic remnant of an almost-commutative geometry
on a flat four-manifold with constant fields: four Hermitian flavor-space
fields B_mu and one Phi, with

    F_{mu nu} = i [B_mu, B_nu],        D_mu Phi = i [B_mu, Phi],

    L_B   = f(0)/(24 pi^2) tr(F_{mu nu} F^{mu nu}),
    L_phi = -2 f_2 Lambda^2/(4 pi^2) tr(Phi^2)
            + f(0)/(8 pi^2) tr(Phi^4)
            + f(0)/(8 pi^2) tr((D_mu Phi)(D^mu Phi)),

per unit volume.  Across a normalized lift each trace of phi-compatible
factors splits into an inherited part, equal to the corresponding source
trace, plus terms with non-inherited components (TNIC).

`GaugeConfiguration.from_forms` keeps each B_mu as the left factor it is
written from where D splits, a V n_a x V n_a array against n x n, until B is
first read; `compare_actions` writes such fields for the length of its call.
from_forms also records what its Phi = fluctuate(t, higgs_form, tol) was read
from (weak references to the triple, its D, its reading of K and Phi, which
it marks read-only, with the form and tol), and `compare_actions` takes that
Phi as D_omega on an exact match instead of fluctuating again.

Where J swaps the two gamma eigenspaces (eps'' = -1, KO-dimensions 2 and 6)
and K is a phased permutation, J X J^-1 = sigma X (sigma = -1 for B_mu, eps'
for Phi) makes the Q-block product X[Q, P] Y[P, Q] of each field pair equal
sigma_X sigma_Y k2 conj(X[P, Q] Y[Q, P]) k2^dagger, k2 = K[Q, P], with the same
squared commutator and the same real traces.  `compare_actions` forms only the
P-block product on the target side there, once each field is checked
J-symmetric within rounding and the blocks are large enough for that to be
faster (`_paired`); otherwise it forms both, as `bosonic_lagrangian` does.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .algebra import DEFAULT_TOL, ShapeMismatch, as_matrix, frob
from .differential import UniversalOneForm, _gauge_field, fluctuate
from .krajewski import RealSpectralTriple
from .lifting import DiagramLift, LiftError, _pullback, build_phiH, compat_check

# relative residual of J X J^-1 = sigma X below which a field counts as J-symmetric on its gamma blocks (_paired)
_PAIRING_ROUNDING = 1e-14
# the fewest indices of a gamma block at which one block product per field pair measures faster than two (_paired):
# slower at 25, faster from 45 on (one BLAS thread, 2-CPU Xeon, numpy 2.4.6)
_PAIRING_MIN_BLOCK = 40


@dataclass(frozen=True)
class CutoffFunction:
    """Even positive cutoff f with moments f(0) and f_2 = int_0^inf f(x) x dx.

    The gaussian preset is f(x) = exp(-x^2 / width^2), with f(0) = 1 and
    f_2 = width^2 / 2 in closed form.  For the polynomial kind
    f(x) = sum c_k x^{2k} the moment integral diverges, so f_2 must be
    supplied explicitly; this kind exists to make polynomial spectral
    actions exact.
    """

    kind: str
    coeffs: tuple = ()
    width: float = 1.0
    f2_explicit: float | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "polynomial"):
            raise ValueError(f"unknown cutoff kind {self.kind!r}")
        if self.kind == "polynomial" and self.f2_explicit is None:
            raise ValueError("polynomial cutoffs need an explicit f2")
        if self.kind == "gaussian" and self.width <= 0:
            raise ValueError("gaussian width must be positive")

    @classmethod
    def gaussian(cls, width: float = 1.0):
        return cls("gaussian", (), width, None)

    @classmethod
    def polynomial(cls, coeffs, f2: float):
        return cls("polynomial", tuple(float(c) for c in coeffs), 1.0, float(f2))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "gaussian":
            return np.exp(-((x / self.width) ** 2))
        out = np.zeros_like(x)
        for k, c in enumerate(self.coeffs):
            out = out + c * x ** (2 * k)
        return out

    @property
    def f0(self) -> float:
        return float(self(0.0))

    @property
    def f2(self) -> float:
        if self.kind == "gaussian":
            return self.width**2 / 2.0
        return float(self.f2_explicit)


class GaugeConfiguration:
    """Four constant Hermitian fields B_mu and a Hermitian Phi on H, copied from what the caller hands over.

    A configuration of from_forms may hold its B_mu as left factors instead: then the first read of B writes them
    (VertexLayout.lift_left) and keeps them, and assigning B drops the factors.  Its Phi is read-only, and _made
    records what it was fluctuated from (_fluctuated).
    """

    def __init__(self, B, Phi):
        B = tuple(as_matrix(b) for b in B)
        if len(B) != 4:
            raise ValueError("expected four B_mu fields")
        Phi = as_matrix(Phi)
        shapes = [X.shape for X in B + (Phi,)]
        if len(set(shapes)) != 1 or shapes[0][0] != shapes[0][1]:
            raise ShapeMismatch(f"B_mu and Phi must be square and of one size, got shapes {shapes}")
        self._B, self._left, self.Phi, self._made = B, None, Phi, None

    @classmethod
    def _own(cls, B, Phi, left=None):
        """A configuration of arrays it owns, taken as they are: B, or B = None and left = (layout, J, factors), the
        four B_mu as layout.lift_left(M, None, J, -1.0) for M in factors (differential._gauge_field)."""
        cfg = cls.__new__(cls)
        cfg._B, cfg._left, cfg.Phi, cfg._made = B, left, Phi, None
        return cfg

    @property
    def B(self) -> tuple:
        if self._B is None:
            self._B, self._left = self._dense()._B, None
        return self._B

    @B.setter
    def B(self, B):
        self._B, self._left = B, None

    def _dense(self) -> GaugeConfiguration:
        """self once B is written, else the same fields with B written for the caller alone: self keeps its factors."""
        if self._B is not None:
            return self
        layout, J, factors = self._left
        return GaugeConfiguration._own(tuple(layout.lift_left(M, None, J, -1.0) for M in factors), self.Phi)

    def hermiticity_residual(self) -> float:
        return max(frob(X - X.conj().T) for X in self.B + (self.Phi,))

    @classmethod
    def from_forms(cls, t: RealSpectralTriple, vector_forms, higgs_form: UniversalOneForm,
                   tol: float = DEFAULT_TOL):
        """B_mu = A_mu - J A_mu J^-1 for A_mu = pi_D(vector form), and Phi = fluctuate(t, higgs_form).

        Every form is a gauge potential, a one-form with Hermitian pi_D, as fluctuate refuses.  Where D splits, the
        configuration keeps each B_mu as A_mu's left factor, on V n_a slots, and writes the n x n arrays on the first
        read of B (differential._gauge_field); else each B_mu is one n x n array beyond A_mu, one A_mu held at a time.
        No field is copied.  Non-finite entries are refused here: |B_mu| <= 2 max |M_mu| for a left factor M_mu.
        Phi is marked read-only, and the configuration records weak references to t, t.D, t's reading of K and Phi,
        with higgs_form and tol, for compare_actions to take Phi as D_omega (_fluctuated).
        """
        if len(vector_forms) != 4:
            raise ValueError("expected four vector one-forms")
        fields, Phi = [_gauge_field(t, w, tol) for w in vector_forms], fluctuate(t, higgs_form, tol)
        if not all(np.isfinite(X).all() for X, _J in fields) or not np.isfinite(Phi).all():
            raise ValueError("matrix entries must be finite")
        Xs, J = tuple(X for X, _J in fields), fields[0][1]
        cfg = cls._own(Xs, Phi) if J is None else cls._own(None, Phi, (t.layout, J, Xs))
        Phi.flags.writeable = False
        cfg._made = (*(weakref.ref(x) for x in (t, t.D, t._K_key(), Phi)), higgs_form, tol)
        return cfg


def _fluctuated(cfg: GaugeConfiguration, t: RealSpectralTriple, omega: UniversalOneForm, tol: float) -> np.ndarray:
    """fluctuate(t, omega, tol): cfg.Phi itself when from_forms made it so, from this triple, its present D and
    reading of K, the same form object and tol (GaugeConfiguration._made), else fluctuated again."""
    if (made := cfg._made) is not None and made[4] is omega and made[5] == tol \
            and all(ref() is x for ref, x in zip(made[:4], (t, t.D, t._K_key(), cfg.Phi))):
        return cfg.Phi
    return fluctuate(t, omega, tol)


@dataclass
class ActionTerm:
    name: str
    full: float
    inherited: float | None = None
    tnic: float | None = None
    a_value: float | None = None

    def as_dict(self):
        return {
            "term": self.name,
            "full": self.full,
            "inherited": self.inherited,
            "tnic": self.tnic,
            "a_value": self.a_value,
        }


@dataclass
class ActionReport:
    terms: list = field(default_factory=list)
    spectral: dict = field(default_factory=dict)
    compat: dict = field(default_factory=dict)

    def term(self, name) -> ActionTerm:
        for t in self.terms:
            if t.name == name:
                return t
        raise KeyError(name)

    def as_dict(self):
        return {
            "terms": [t.as_dict() for t in self.terms],
            "spectral": dict(self.spectral),
            "compat": {k: v.as_dict() for k, v in self.compat.items()},
        }

    def __str__(self):
        lines = [f"{'term':<10} {'full':>14} {'inherited':>14} {'tnic':>14} {'A-side':>14}"]
        for t in self.terms:
            fmt = lambda x: f"{x:>14.6e}" if x is not None else " " * 14
            lines.append(f"{t.name:<10} {t.full:>14.6e} {fmt(t.inherited)} {fmt(t.tnic)} {fmt(t.a_value)}")
        for k, v in self.spectral.items():
            lines.append(f"spectral action [{k}] = {v:.6e}")
        return "\n".join(lines)


def _bipartition(ops):
    """Index sets (P, Q) with every operator in ops exactly zero on P x P and Q x Q, or None.

    A breadth-first 2-colouring of the joint support; an index with no entry goes to P, and a diagonal entry or
    an odd cycle gives None.  In even KO-dimension the gamma eigenspaces are such a pair for D, B_mu, Phi and
    their pullbacks, which anticommute with gamma.
    """
    S = np.logical_or.reduce([X != 0 for X in ops])
    S |= S.T
    colour = np.where(S.any(axis=1), -1, 0)
    while (todo := np.flatnonzero(colour < 0)).size:
        frontier, c = todo[:1], 0
        while frontier.size:
            colour[frontier] = c
            frontier, c = np.flatnonzero(S[frontier].any(axis=0) & (colour < 0)), 1 - c
    P, Q = np.flatnonzero(colour == 0), np.flatnonzero(colour == 1)
    if S[np.ix_(P, P)].any() or S[np.ix_(Q, Q)].any():
        return None
    return P, Q


def _spectral_sum(D, f: CutoffFunction, Lambda: float) -> float:
    """Tr f(D / Lambda) for a Hermitian D and Lambda > 0.

    When D is zero on P x P and Q x Q (`_bipartition`), its spectrum is +-sigma_i(D[P, Q]) plus ||P| - |Q||
    zeros, else `eigvalsh` of D.  For D Hermitian within h = ||D - D^dagger||_F the two read Hermitian matrices
    within h of each other (the lower triangle, and D[P, Q]), so by Weyl each eigenvalue moves by at most h.
    """
    if not Lambda > 0:  # refuses NaN as well
        raise ValueError("Lambda must be positive")
    if (split := _bipartition((D,))) is None:
        spectrum = np.linalg.eigvalsh(D)
    else:
        s = np.linalg.svd(D[np.ix_(*split)], compute_uv=False)
        spectrum = np.concatenate((s, -s, np.zeros(abs(len(split[0]) - len(split[1])))))
    return float(np.sum(f(spectrum / Lambda)))


def _pairing(t: RealSpectralTriple, D, psi, psi_p) -> complex:
    """<J psi, D psi'>."""
    return complex(np.vdot(t.apply_J(psi), D @ psi_p))


def _even(t: RealSpectralTriple, v, name, tol) -> np.ndarray:
    """v as a complex vector; in the even case it must lie in ker(gamma - 1), within tol ||v||, with gamma v read
    through the triple (_gamma_products: the signs of a realized gamma)."""
    v = np.asarray(v, dtype=complex)
    if (g := t._gamma_products()) is not None and np.linalg.norm(g[0](v) - v) > tol * np.linalg.norm(v):
        raise ValueError(f"{name} is not in the even subspace ker(gamma - 1)")
    return v


def spectral_action(t: RealSpectralTriple, omega: UniversalOneForm, f: CutoffFunction,
                    Lambda: float, tol: float = DEFAULT_TOL) -> float:
    """Tr f(D_omega / Lambda), exact at finite dimension; in even KO-dimension from the singular values of
    one off-diagonal block of D_omega (`_spectral_sum`), each eigenvalue within ||D_omega - D_omega^dagger||_F."""
    return _spectral_sum(fluctuate(t, omega, tol), f, Lambda)


def _products(x, y, paired=False):
    """The nonzero blocks of X Y: (X Y,) from (X,), or (X[P, Q] Y[Q, P], X[Q, P] Y[P, Q]) from (X[P, Q], X[Q, P]);
    paired, X[P, Q] Y[Q, P] alone."""
    return [a @ b for a, b in zip(x[:1] if paired else x, y[::-1])]


def _squared_commutator(x, y, paired=False) -> float:
    """tr((i [X, Y])^2) = ||P - P^dagger||_F^2 with P = X Y, for Hermitian X and Y in blocks: real by construction.
    Paired, the one block counts twice (_paired)."""
    Cs = [P - P.conj().T for P in _products(x, y, paired)]
    return (1 + paired) * sum(float(np.vdot(C, C).real) for C in Cs)


def bosonic_lagrangian(cfg: GaugeConfiguration, f: CutoffFunction, Lambda: float,
                       tol: float = DEFAULT_TOL) -> ActionReport:
    """Per-term values of the flat constant-field Lagrangian, of fields Hermitian within tol max(1, s), in 11 products.

    With h the largest ||X - X^dagger||_F and s the largest ||X||_F, each squared commutator is within 8 h s^3
    of its two-product value, since ||[X, Y] - (P - P^dagger)|| <= ||Y - Y^dagger|| ||X|| + ||Y|| ||X - X^dagger||.
    tr Phi^2 and tr Phi^4 are taken as real parts: |Im tr Phi^2| <= h s and |Im tr Phi^4| <= 2 h s^3, since
    2i Im tr X^2 = tr((X - X^dagger)(X + X^dagger)) for X = Phi and X = Phi^2.
    When every field is zero on P x P and Q x Q (`_bipartition`, as in even KO-dimension), each product is
    formed as its diagonal blocks X[P, Q] Y[Q, P] and X[Q, P] Y[P, Q], a quarter of the flops at |P| = |Q|.
    Only products of zero blocks are skipped: values and bounds are the dense ones, up to summation order.
    h and s are read off those blocks too, as sqrt(2) ||X[P, Q] - X[Q, P]^dagger||_F and their hypot.
    """
    return _lagrangian(cfg, f, Lambda, tol)


def _lagrangian(cfg, f, Lambda, tol, t=None) -> ActionReport:
    """bosonic_lagrangian, and with t the triple the fields live on, where _paired holds, one product per field pair:
    the P block, counted twice."""
    B, Phi = cfg.B, cfg.Phi
    if (split := _bipartition(B + (Phi,))) is None:
        *b, phi = [(X,) for X in B + (Phi,)]
        res, size = cfg.hermiticity_residual(), max(frob(X) for X in B + (Phi,))
    else:  # X - X^dagger is X[P, Q] - X[Q, P]^dagger on P x Q, and minus its adjoint on Q x P
        *b, phi = fields = [(X[np.ix_(*split)], X[np.ix_(*split[::-1])]) for X in B + (Phi,)]
        res = max(math.sqrt(2) * frob(pq - qp.conj().T) for pq, qp in fields)
        size = max(sizes := [math.hypot(frob(pq), frob(qp)) for pq, qp in fields])
    if res > tol * max(1.0, size):
        raise ValueError(f"configuration is not Hermitian (residual {res:.3e})")
    f0, f2 = f.f0, f.f2
    paired = t is not None and split is not None and _paired(t, split, fields, sizes)

    Phi2 = _products(phi, phi, paired)
    trPhi2 = (1 + paired) * sum(float(np.trace(M).real) for M in Phi2)
    trPhi4 = (1 + paired) * sum(float(np.sum(M * M.T).real) for M in Phi2)

    trF2 = trDPhi2 = 0.0  # no products for B = 0, the configuration compare_actions builds without cfgs
    if any(x.any() for bx in b for x in bx):  # F_{mu mu} = 0, F_{nu mu} = -F_{mu nu}: each mu < nu counts twice
        trF2 = 2 * sum(_squared_commutator(b[mu], b[nu], paired) for nu in range(4) for mu in range(nu))
        trDPhi2 = sum(_squared_commutator(x, phi, paired) for x in b)

    return ActionReport([
        ActionTerm("trF2", f0 / (24 * math.pi**2) * trF2),
        ActionTerm("trPhi2", -2 * f2 * Lambda**2 / (4 * math.pi**2) * trPhi2),
        ActionTerm("trPhi4", f0 / (8 * math.pi**2) * trPhi4),
        ActionTerm("trDPhi2", f0 / (8 * math.pi**2) * trDPhi2),
    ])


def _paired(t: RealSpectralTriple, split, fields, sizes) -> bool:
    """Whether one block product per field pair gives the Lagrangian of the fields (X[P, Q], X[Q, P]) of split on t.

    It holds when J swaps the gamma eigenspaces (eps'' = -1), K is read as a phased permutation (perm, phase) that
    maps P onto Q, P has at least _PAIRING_MIN_BLOCK indices, and each field satisfies J X J^-1 = sigma X on its
    blocks, X[Q, P] = sigma k2 conj(X[P, Q]) k1^dagger with k1 = K[P, Q] and k2 = K[Q, P], within _PAIRING_ROUNDING
    of its size (sizes, the hypot of the blocks' norms); sigma is -1 for the B_mu and eps' for Phi.  Then
    X[Q, P] Y[P, Q] = sigma_X sigma_Y k2 conj(X[P, Q] Y[Q, P]) k2^dagger: the same ||C - C^dagger||_F and the
    conjugate trace.  Every image is gathered, conjugated and phased in one buffer.
    """
    (P, Q), mono = split, t._K_products()[0] if t.ko.eps_pp == -1 else None
    if mono is None or len(P) < _PAIRING_MIN_BLOCK or not np.array_equal(np.sort(mono[0][P]), Q):
        return False
    (perm, phase), eps_p = mono, t.ko.eps_p
    at = np.empty(len(perm), dtype=np.intp)
    at[P], at[Q] = np.arange(len(P)), np.arange(len(Q))  # the place of each index in P or in Q
    flat = at[perm[Q]][:, None] * len(Q) + at[perm[P]]  # X[P, Q][perm[b], perm[a]] at [b, a], in flat indices
    phases, image = phase[Q][:, None] * np.conj(phase[P]), np.empty(flat.shape, dtype=complex)
    for (pq, qp), sigma, size in zip(fields, (-1, -1, -1, -1, eps_p), sizes):
        np.take(pq, flat, out=image)
        np.multiply(np.conj(image, out=image), phases, out=image)  # k2 conj(X[P, Q]) k1^dagger
        diff = np.subtract(qp, image, out=image) if sigma == 1 else np.add(qp, image, out=image)
        if np.vdot(diff, diff).real > (_PAIRING_ROUNDING * size) ** 2:
            return False
    return True


def fermionic_pairing(t: RealSpectralTriple, omega: UniversalOneForm, psi, psi_p,
                      tol: float = DEFAULT_TOL) -> complex:
    """The bilinear value <J psi, D_omega psi'>.

    In the even case both arguments must lie in ker(gamma - 1).  Grassmann
    statistics are not modelled: the value is the raw bilinear form.
    """
    psi, psi_p = _even(t, psi, "psi", tol), _even(t, psi_p, "psi'", tol)
    return _pairing(t, fluctuate(t, omega, tol), psi, psi_p)


def compare_actions(lift: DiagramLift, tA: RealSpectralTriple, tB: RealSpectralTriple,
                    omega_A: UniversalOneForm, omega_B: UniversalOneForm,
                    f: CutoffFunction, Lambda: float, cfgs=None, fermions=None,
                    tol: float = DEFAULT_TOL) -> ActionReport:
    """Split every Lagrangian term of the target side into inherited + TNIC.

    The lift must be normalized, with ||phi_H* phi_H - 1||_F <= tol sqrt(nA).  The inherited value of each
    traced monomial is computed with every factor replaced by its pullback phi_H* X phi_H and must equal the
    source-side value within tol; TNIC = full - inherited by definition.  Operator pairs must be weakly
    phi-compatible, and fermions phi-compatible (psi_B - phi_H psi_A orthogonal to the range, within
    tol max(||psi_A||, ||psi_B||)).  Each side's D_omega is built at most once: it is the Phi of a from_forms
    configuration made from the same triple, form and tol (_fluctuated).  B_mu still held as left factors
    (GaugeConfiguration.from_forms) are written for this call alone: the configurations keep their factors.  The
    target Lagrangian forms one block product per field pair where J pairs the gamma blocks (_paired).
    """
    if not lift.normalized:
        raise LiftError("compare_actions needs a normalized lift")
    phiH = build_phiH(lift)
    M = phiH.matrix
    if (iso := frob(M.conj().T @ M - np.eye(M.shape[1]))) > tol * math.sqrt(M.shape[1]):
        raise LiftError(f"lift is marked normalized, but phi_H is not an isometry (residual {iso:.3e})")

    diracs = None
    if cfgs is None:
        diracs = fluctuate(tA, omega_A, tol), fluctuate(tB, omega_B, tol)
        cfgs = [GaugeConfiguration(tuple(np.zeros_like(t.D) for _ in range(4)), D)
                for t, D in zip((tA, tB), diracs)]
    given_A, given_B = cfgs
    cfg_A, cfg_B = given_A._dense(), given_B._dense()

    rep = ActionReport()
    names = [f"B_{mu}" for mu in range(4)] + ["Phi"]
    for name, XA, XB in zip(names, cfg_A.B + (cfg_A.Phi,), cfg_B.B + (cfg_B.Phi,)):
        rep.compat[name] = compat_check(XA, XB, phiH, tol)
    failures = [name for name, c in rep.compat.items() if not c.weak]
    if failures:
        raise LiftError(f"operators not phi-compatible: {', '.join(failures)}")

    cfg_inh = GaugeConfiguration(tuple(_pullback(M, b) for b in cfg_B.B), _pullback(M, cfg_B.Phi))

    lagrangians = [_lagrangian(c, f, Lambda, tol, t).terms for c, t in ((cfg_B, tB), (cfg_inh, None), (cfg_A, None))]
    for tf, ti, ta in zip(*lagrangians):
        rep.terms.append(ActionTerm(tf.name, tf.full, ti.full, tf.full - ti.full, ta.full))
        if abs(ti.full - ta.full) > max(tol, tol * abs(ta.full)):
            raise LiftError(
                f"inherited trace mismatch on {tf.name}: {ti.full} vs source {ta.full}"
            )

    DA, DB = diracs or (_fluctuated(given_A, tA, omega_A, tol), _fluctuated(given_B, tB, omega_B, tol))
    rep.spectral["A"] = _spectral_sum(DA, f, Lambda)
    rep.spectral["B"] = _spectral_sum(DB, f, Lambda)

    if fermions is not None:
        psi_A, psi_B = (np.asarray(v, dtype=complex) for v in fermions)
        mismatch = np.linalg.norm(M.conj().T @ (psi_B - M @ psi_A))  # ||P x|| = ||M* x|| for P = M M*
        if mismatch > tol * max(np.linalg.norm(psi_A), np.linalg.norm(psi_B)):
            raise LiftError(f"fermion pair is not phi-compatible (residual {mismatch:.3e})")
        chi = M @ psi_A
        full_f = _pairing(tB, DB, _even(tB, psi_B, "psi", tol), psi_B)
        inh_f = complex(np.vdot(M.conj().T @ tB.apply_J(chi), M.conj().T @ (DB @ chi)))  # <J chi, P D_B P chi>
        a_f = _pairing(tA, DA, _even(tA, psi_A, "psi", tol), psi_A)
        rep.terms.append(ActionTerm("fermionic", full_f.real, inh_f.real,
                                    (full_f - inh_f).real, a_f.real))
        rep.spectral["fermionic_full"] = full_f
        rep.spectral["fermionic_inherited"] = inh_f
        rep.spectral["fermionic_A"] = a_f
        if abs(inh_f - a_f) > max(tol, tol * abs(a_f)):
            raise LiftError(f"fermionic comparison violated: {inh_f} vs {a_f}")
    return rep
