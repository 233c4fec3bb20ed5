import dataclasses

import numpy as np
import pytest
from conftest import eckart_young, fd_gradient_error

from slra import structured as st
from slra import systems as sy
from slra.polyarith import Poly


def test_poly_det_matches_numpy():
    rng = np.random.default_rng(0)
    for n in range(2, 6):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        grid = [[Poly.const(0, A[i, j]) for j in range(n)] for i in range(n)]
        det = sy.poly_det(grid).eval([])
        assert abs(det - np.linalg.det(A)) < 1e-9 * max(1.0, abs(np.linalg.det(A)))


def test_cpoly_basics():
    p = Poly.var(2, 0) * Poly.var(2, 1) + 2.0
    assert p.eval([3.0, 4.0]) == pytest.approx(14.0)
    assert p.diff(0).eval([3.0, 4.0]) == pytest.approx(4.0)
    assert p.degree() == 2
    assert p.degree_on([0]) == 1


# -- formulations ------------------------------------------------------------

def test_primal_corank1_shape_and_gradient():
    inst = st.dense_instance(3, 3, 2, seed=11, s=1)
    system = sy.primal_corank1(inst)
    assert len(system.variables) == 9 + 1 + 1   # n^2 + s + 1
    assert len(system.equations) == len(system.variables)
    assert fd_gradient_error(system) < 1e-6


def test_primal_corank1_rejects_bad_rank():
    inst = st.dense_instance(3, 3, 1, seed=11)
    with pytest.raises(ValueError):
        sy.primal_corank1(inst)


def test_dual_rank1_shape_and_gradient():
    rey = st.load_dataset("rey").with_rank(2)
    system = sy.dual_rank1(rey)
    assert system.instance is rey
    assert len(system.variables) == 2 * 3 - 1
    assert all(eq.degree() == 3 for eq in system.equations)
    assert fd_gradient_error(system) < 1e-6


def test_rank_one_charts_check_their_rank():
    rey = st.load_dataset("rey")
    with pytest.raises(ValueError, match="corank one"):
        sy.dual_rank1(rey)
    with pytest.raises(ValueError, match="rank one"):
        sy.rank1_direct(rey.with_rank(2))


def test_dual_rank1_maps_to_the_data_space():
    # the chart values are Y = Lam * (U - X); the chart map returns X, and
    # the cone point Y = 0 (X = U) is degenerate
    inst = st.dense_instance(2, 3, 1, seed=3)
    U, Lam = inst.data_array(), inst.weights.as_array()
    system = sy.dual_rank1(inst)
    coords = np.array([0.5, -1.5, 2.0, 0.25])
    Y = np.outer(coords[:2], [1.0, *coords[2:]])
    assert np.allclose(system.reconstruct(coords), U - Y / Lam)
    assert system.degenerate(np.zeros(4), U, 1e-8)
    assert not system.degenerate(coords, U - Y / Lam, 1e-8)


def test_rank1_direct_is_dual_of_transferred_data():
    rey = st.load_dataset("rey")
    Lam = rey.weights.as_array()
    dual = st.Instance(
        m=3, n=3, r=2, family="dense",
        U=tuple(map(tuple, (Lam * rey.data_array()).tolist())),
        weights=st.WeightMatrix.from_rows((1.0 / Lam).tolist()))
    direct = sy.rank1_direct(rey)
    relabeled = sy.dual_rank1(dual)
    for a, b in zip(direct.equations, relabeled.equations):
        assert a.terms.keys() == b.terms.keys()
        for e in a.terms:
            assert a.terms[e] == pytest.approx(b.terms[e])


def test_normal_space_shape_and_gradient():
    e36 = st.load_dataset("example36")
    system = sy.normal_space(e36)
    m, n, r, s = 3, 4, 2, 2
    a, b = m - r, n - r
    assert len(system.variables) == m * n + r * a + r * b + a * b + s
    assert len(system.equations) == a * n + m * b + s + m * n
    assert system.overdetermined
    assert system.merge_block == tuple(range(a * n + m * b))
    assert fd_gradient_error(system, npts=6) < 1e-6


def test_hankel_rank1_gradient_and_predicate():
    h5 = st.load_dataset("hankel33")
    system = sy.hankel_rank1(h5.with_weights(st.hankel_weights(5, "theta")))
    assert system.variables == ("s", "t")
    assert fd_gradient_error(system) < 1e-6
    X0 = system.reconstruct(np.array([2.0, 0.5]))
    assert X0[0, 0] == pytest.approx(2.0)
    assert X0[2, 2] == pytest.approx(2.0 * 0.5 ** 4)
    assert system.degenerate(np.array([2.0, 1e-12]), X0, 1e-8)
    assert system.degenerate(np.array([1e-12, 2.0]), X0, 1e-8)
    assert not system.degenerate(np.array([2.0, 0.5]), X0, 1e-8)


def test_catalecticant_chart_and_symmetry():
    sc = st.load_dataset("schultz")
    system = sy.catalecticant_rank2(sc)
    assert fd_gradient_error(system, npts=6) < 1e-6
    p = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    # the symmetry is an involution
    assert np.array_equal(system.symmetry(system.symmetry(p)), p)
    X = system.reconstruct(p)
    # x_400 = a + d, x_310 = ab + de, x_022 = a b^2 c^2 + d e^2 f^2
    assert X[0, 0] == pytest.approx(1 + 4)
    assert X[0, 1] == pytest.approx(1 * 2 + 4 * 5)
    assert X[3, 5] == pytest.approx(1 * 4 * 9 + 4 * 25 * 36)
    swapped = system.symmetry(p)
    assert np.allclose(system.reconstruct(swapped), X)
    assert system.degenerate(np.array([0.0, 2, 3, 4, 5, 6]), X, 1e-8)
    assert system.degenerate(np.array([1.0, 2, 3, 4, 2, 3]), X, 1e-8)
    assert not system.degenerate(p, X, 1e-8)


def _with_constraint(instance):
    section = st.random_section(instance.m, instance.n, 1, "linear", seed=5)
    return dataclasses.replace(instance, constraints=section)


def test_structured_charts_reject_constraints():
    # the charts parametrize the whole structured locus, so a constraint
    # would be dropped silently instead of cutting the locus
    hankel = _with_constraint(st.load_dataset("hankel33").with_rank(1))
    with pytest.raises(ValueError, match="extra constraints"):
        sy.hankel_rank1(hankel)
    with pytest.raises(ValueError, match="extra constraints"):
        sy.catalecticant_rank2(_with_constraint(st.load_dataset("schultz")))


# -- transfers, objective, oracles --------------------------------------------

def test_dual_transfer_roundtrip():
    rng = np.random.default_rng(1)
    U = rng.normal(size=(3, 4))
    Lam = rng.uniform(1, 20, size=(3, 4))
    X = rng.normal(size=(3, 4))
    Y = sy.dual_transfer(X, Lam, U)
    assert np.allclose(sy.inverse_transfer(Y, Lam, U), X, atol=1e-12)
    assert np.allclose(sy.dual_transfer(U, Lam, U), 0.0)


def test_objective_values():
    U = np.diag([3.0, 1.0])
    assert sy.objective(U, U, np.ones((2, 2))) == 0
    X = np.zeros((2, 2))
    assert sy.objective(X, U, np.ones((2, 2))).real == pytest.approx(10.0)


def test_eckart_young():
    U = np.diag([3.0, 2.0, 1.0])
    assert np.allclose(eckart_young(U, 2), np.diag([3.0, 2.0, 0.0]))
    assert np.allclose(eckart_young(U, 3), U)
    rng = np.random.default_rng(2)
    M = rng.normal(size=(3, 4))
    best = eckart_young(M, 2)
    assert np.linalg.matrix_rank(best, tol=1e-9) == 2


def test_unit_weight_critical_counts():
    assert sy.unit_weight_critical_count(3, 3, 2) == 3
    assert sy.unit_weight_critical_count(4, 4, 3) == 4
    assert sy.unit_weight_critical_count(3, 4, 1) == 3


def test_structured_primal_uses_coordinates():
    h5 = st.load_dataset("hankel33")
    system = sy.primal_corank1(h5.with_rank(2))
    # 5 structural coordinates plus one multiplier
    assert len(system.variables) == 6
    assert len(system.equations) == 6
    assert fd_gradient_error(system) < 1e-6
