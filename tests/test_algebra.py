import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finspec.algebra import (
    AlgebraElement,
    AlgebraProfile,
    ProfileMismatch,
    VertexLayout,
    right_action,
)
from finspec.sampling import random_element, random_hermitian, rng_from_seed

profiles = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
    lambda dims: AlgebraProfile(tuple(dims))
)


def brute_matmul(a, b):
    """Triple-loop product, the independent oracle for mul."""
    n = a.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i, j] += a[i, k] * b[k, j]
    return out


def brute_adjoint(a):
    n, m = a.shape
    out = np.zeros((m, n), dtype=complex)
    for i in range(n):
        for j in range(m):
            out[j, i] = a[i, j].conjugate()
    return out


def test_mul_identity():
    prof = AlgebraProfile((2, 1))
    rng = rng_from_seed(0)
    b = random_element(rng, prof)
    one = AlgebraElement.identity(prof)
    assert (one @ b).allclose(b, 1e-15)
    assert (b @ one).allclose(b, 1e-15)


def test_mul_scalar_blocks():
    prof = AlgebraProfile((1, 1))
    a = AlgebraElement(prof, [[[2.0]], [[3.0]]])
    b = AlgebraElement(prof, [[[5.0]], [[7.0]]])
    c = a @ b
    assert c.block(1)[0, 0] == 10.0
    assert c.block(2)[0, 0] == 21.0


def test_mul_matches_brute_force():
    rng = rng_from_seed(11)
    prof = AlgebraProfile((2, 2))
    a, b = random_element(rng, prof), random_element(rng, prof)
    c = a @ b
    for i in (1, 2):
        assert np.allclose(c.block(i), brute_matmul(a.block(i), b.block(i)), atol=1e-13)


def test_mul_profile_mismatch():
    a = AlgebraElement(AlgebraProfile((1,)), [[[1.0]]])
    b = AlgebraElement(AlgebraProfile((2,)), [np.eye(2)])
    with pytest.raises(ProfileMismatch):
        a @ b


def test_adjoint_examples():
    prof = AlgebraProfile((1,))
    one = AlgebraElement.identity(prof)
    assert one.adjoint().allclose(one, 0 + 1e-16)
    a = AlgebraElement(prof, [[[1j]]])
    assert a.adjoint().block(1)[0, 0] == -1j
    rng = rng_from_seed(3)
    b = random_element(rng, AlgebraProfile((3,)))
    assert np.allclose(b.adjoint().block(1), brute_adjoint(b.block(1)), atol=0)
    assert b.adjoint().adjoint().allclose(b, 1e-15)


def test_is_unitary_examples():
    prof = AlgebraProfile((2,))
    assert AlgebraElement.identity(prof).is_unitary(1e-12)
    assert not AlgebraElement(prof, [2 * np.eye(2)]).is_unitary(1e-10)
    # exp(iH) built through the spectral theorem
    rng = rng_from_seed(5)
    h = random_hermitian(rng, 3)
    w, v = np.linalg.eigh(h)
    u = v @ np.diag(np.exp(1j * w)) @ v.conj().T
    assert AlgebraElement(AlgebraProfile((3,)), [u]).is_unitary(1e-12)


@settings(max_examples=30, deadline=None)
@given(profiles, st.integers(0, 2**31 - 1))
def test_mul_associative(prof, seed):
    rng = rng_from_seed(seed)
    a, b, c = (random_element(rng, prof) for _ in range(3))
    assert ((a @ b) @ c - a @ (b @ c)).norm() <= 1e-13


@settings(max_examples=30, deadline=None)
@given(profiles, st.integers(0, 2**31 - 1))
def test_adjoint_antihomomorphism(prof, seed):
    rng = rng_from_seed(seed)
    a, b = random_element(rng, prof), random_element(rng, prof)
    assert ((a @ b).adjoint() - b.adjoint() @ a.adjoint()).norm() <= 1e-13


def _single_vertex_layout(prof, i=1, j=1):
    return VertexLayout(prof, [(i, 1, j)])


def test_layout_tables_are_built_once_and_read_only():
    """legs(v) and unit_maps(i) return the same read-only array on every call: legs(v)[x, y] = offset + x n_j + y
    (row-major), and unit_maps(i) the legs of block i's vertices side by side, with no columns where it has none."""
    prof = AlgebraProfile((2, 1, 3, 2))
    layout = VertexLayout(prof, [(3, 1, 1), (1, 1, 3), (2, 1, 2), (1, 2, 3), (3, 1, 4)])
    rows = {}
    for b in layout.blocks:
        legs = layout.legs(b.vid)
        assert legs is layout.legs(b.vid) and not legs.flags.writeable and not legs.T.flags.writeable
        assert np.array_equal(legs, b.offset + np.arange(b.n_i)[:, None] * b.n_j + np.arange(b.n_j))
        assert layout.index(b.vid, b.n_i - 1, b.n_j - 1) == b.offset + b.length - 1
        rows.setdefault(b.i, []).append(legs)
    for i, n in enumerate(prof.dims, start=1):
        L = layout.unit_maps(i)
        assert L is layout.unit_maps(i) and not L.flags.writeable and not L.ravel().flags.writeable
        assert np.array_equal(L, np.hstack(rows[i]) if i in rows else np.zeros((n, 0), dtype=int))
    assert layout.unit_maps(4).shape == (2, 0)
    with pytest.raises(ValueError):
        layout.legs((1, 1, 3))[0, 0] = 0
    with pytest.raises(KeyError):  # blocks count from 1: no unit map 0 or r + 1
        layout.unit_maps(0)
    with pytest.raises(KeyError):
        layout.unit_maps(5)


def test_right_action_identity_and_scalar():
    prof = AlgebraProfile((1,))
    layout = _single_vertex_layout(prof)
    psi = np.array([1.5 + 0.5j])
    one = AlgebraElement.identity(prof)
    assert np.allclose(right_action(one, psi, layout), psi)
    beta = AlgebraElement(prof, [[[2.0 - 1.0j]]])
    assert np.allclose(right_action(beta, psi, layout), (2.0 - 1.0j) * psi)


def test_right_action_kronecker_oracle():
    # n=(2), one vertex (1,1): b acts as (xi (x) (eta^T b)^T), i.e. 1 (x) b^T
    prof = AlgebraProfile((2,))
    layout = _single_vertex_layout(prof)
    rng = rng_from_seed(8)
    b = random_element(rng, prof)
    xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi = np.kron(xi, eta)
    expected = np.kron(xi, (eta @ b.block(1)))
    assert np.allclose(right_action(b, psi, layout), expected, atol=1e-13)


def test_right_action_dimension_mismatch():
    prof = AlgebraProfile((2,))
    layout = _single_vertex_layout(prof)
    b = AlgebraElement.identity(prof)
    with pytest.raises(Exception):
        right_action(b, np.ones(3), layout)


@settings(max_examples=25, deadline=None)
@given(profiles, st.integers(0, 2**31 - 1))
def test_right_action_opposite_product_law(prof, seed):
    rng = rng_from_seed(seed)
    vids = [(i, 1, j) for i in range(1, prof.r + 1) for j in range(1, prof.r + 1)]
    layout = VertexLayout(prof, vids)
    b, bp = random_element(rng, prof), random_element(rng, prof)
    psi = rng.standard_normal(layout.total_dim) + 1j * rng.standard_normal(layout.total_dim)
    lhs = right_action(bp, right_action(b, psi, layout), layout)
    rhs = right_action(b @ bp, psi, layout)
    assert np.linalg.norm(lhs - rhs) <= 1e-12
