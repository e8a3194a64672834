"""One step of an AF-algebra inclusion in normal form.

An arrow A = sum M_{n_i} -> B = sum M_{m_k} is stored by its multiplicity
matrix alpha (s x r) and the defect sizes n_{0,k}, with
m_k = n_{0,k} + sum_i alpha_{ki} n_i.  The homomorphism places alpha_{ki}
diagonal copies of a_i in block k and leaves an n_{0,k} corner of zeros.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, AlgebraProfile, ProfileMismatch, DEFAULT_TOL, as_matrix


@dataclass(frozen=True)
class BratteliArrow:
    source: AlgebraProfile
    target: AlgebraProfile
    alpha: tuple      # s rows of r nonnegative ints
    n0: tuple         # s nonnegative ints

    def __post_init__(self):
        alpha = tuple(tuple(int(x) for x in row) for row in self.alpha)
        n0 = tuple(int(x) for x in self.n0)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "n0", n0)
        r, s = self.source.r, self.target.r
        if len(alpha) != s or any(len(row) != r for row in alpha):
            raise ValueError(f"alpha must be {s}x{r}")
        if len(n0) != s:
            raise ValueError(f"n0 must have {s} entries")
        if any(x < 0 for row in alpha for x in row) or any(x < 0 for x in n0):
            raise ValueError("alpha and n0 must be nonnegative")
        for k in range(s):
            m_k = n0[k] + sum(alpha[k][i] * self.source.dims[i] for i in range(r))
            if m_k != self.target.dims[k]:
                raise ValueError(
                    f"block {k + 1}: n0 + sum alpha*n = {m_k} != m_k = {self.target.dims[k]}"
                )
        for i in range(r):
            if all(alpha[k][i] == 0 for k in range(s)):
                raise ValueError(f"not one-to-one: source block {i + 1} has no image")

    def mult(self, k: int, i: int) -> int:
        """Multiplicity alpha_{ki}, k and i counted from 1."""
        return self.alpha[k - 1][i - 1]

    def band_offset(self, k: int, i: int) -> int:
        """Row offset of the i-band inside target block k."""
        return sum(self.mult(k, ii) * self.source.dim(ii) for ii in range(1, i))

    def _band_offsets(self) -> list:
        """Every band offset at once: [k - 1][i - 1] is band_offset(k, i), for i = 1, ..., r + 1."""
        return [list(itertools.accumulate((a * n for a, n in zip(row, self.source.dims)), initial=0))
                for row in self.alpha]


def apply_phi(arrow: BratteliArrow, a: AlgebraElement) -> AlgebraElement:
    """The normal-form homomorphism phi(a): one zero block per target block, with a_i written at its slots."""
    if a.profile != arrow.source:
        raise ProfileMismatch("element does not live over the arrow's source")
    return _apply_phi(arrow, a, arrow._band_offsets())


def _apply_phi(arrow, a, offsets):
    """apply_phi(arrow, a) with the arrow's band offsets read beforehand (BratteliArrow._band_offsets)."""
    blocks = [np.zeros((m_k, m_k), dtype=complex) for m_k in arrow.target.dims]
    for out, bands in zip(blocks, offsets):
        for a_i, start, stop in zip(a.blocks, bands, bands[1:]):
            n = len(a_i)
            for off in range(start, stop, n):  # the alpha_ki slots
                out[off:off + n, off:off + n] = a_i
        out += 0.0  # -0.0 entries come out as 0.0, as in a sum of the components
    return AlgebraElement(arrow.target, blocks)


def phi_component(arrow: BratteliArrow, k: int, i: int, alpha_index=None, a_i=None) -> np.ndarray:
    """Component phi_{k,alpha}^i(a_i), or the slot sum phi_k^i(a_i) when alpha_index is None.

    Places a_i at the alpha-th diagonal slot of the i-band of target block k
    (alpha_index counted from 1).  Components over distinct i are mutually
    orthogonal: phi_k^i(a) phi_k^j(a') = 0 for i != j.
    """
    a_i = as_matrix(a_i)
    n_i = arrow.source.dim(i)
    if a_i.shape != (n_i, n_i):
        raise ValueError(f"a_i must be {n_i}x{n_i}")
    m_k = arrow.target.dim(k)
    alpha_ki = arrow.mult(k, i)
    out = np.zeros((m_k, m_k), dtype=complex)
    if alpha_index is None:
        slots = range(1, alpha_ki + 1)
    else:
        if alpha_ki == 0:
            raise ValueError(f"alpha_{{{k}{i}}} = 0: no slot to address")
        if not 1 <= alpha_index <= alpha_ki:
            raise ValueError(f"alpha_index {alpha_index} out of range 1..{alpha_ki}")
        slots = (alpha_index,)
    base = arrow.band_offset(k, i)
    for slot in slots:
        off = base + (slot - 1) * n_i
        out[off:off + n_i, off:off + n_i] = a_i
    return out


def unit_defect(arrow: BratteliArrow) -> AlgebraElement:
    """The projection p_{n0} = 1_B - phi(1_A); ones in the trailing n_{0,k} slots."""
    blocks = []
    for k in range(1, arrow.target.r + 1):
        m_k, n0_k = arrow.target.dim(k), arrow.n0[k - 1]
        d = np.zeros(m_k)
        if n0_k:
            d[m_k - n0_k:] = 1.0
        blocks.append(np.diag(d).astype(complex))
    return AlgebraElement(arrow.target, blocks)


def lift_unitary(arrow: BratteliArrow, uA: AlgebraElement, tol: float = DEFAULT_TOL) -> AlgebraElement:
    """uB = phi(uA) + p_{n0}, unitary over the target."""
    if not uA.is_unitary(tol):
        raise ValueError("uA is not unitary at the given tolerance")
    return apply_phi(arrow, uA) + unit_defect(arrow)


def compose(second: BratteliArrow, first: BratteliArrow) -> BratteliArrow:
    """Arrow of the composite inclusion; alpha multiplies, defects accumulate."""
    if first.target != second.source:
        raise ProfileMismatch("arrows are not composable")
    a2 = np.array(second.alpha, dtype=int)
    a1 = np.array(first.alpha, dtype=int)
    alpha = a2 @ a1
    n = np.array(first.source.dims, dtype=int)
    n0 = [
        second.target.dims[q] - int(alpha[q] @ n)
        for q in range(second.target.r)
    ]
    if any(x < 0 for x in n0):
        raise ValueError("composite defect would be negative")
    return BratteliArrow(first.source, second.target, tuple(map(tuple, alpha)), tuple(n0))
