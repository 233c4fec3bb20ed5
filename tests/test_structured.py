import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from slra import structured as st


def constraint_value(c: st.LinearConstraint, X: np.ndarray) -> float:
    """sum coeffs * X + constant."""
    return float(np.sum(c.coeff_array() * X)) + float(c.constant)


def test_hankel_structure_shapes():
    h5 = st.hankel_structure(5)
    assert h5.shape == (3, 3)
    assert [[c + 1 for c in row] for row in h5.grid] == \
        [[1, 2, 3], [2, 3, 4], [3, 4, 5]]
    h6 = st.hankel_structure(6)
    assert h6.shape == (3, 4)
    assert [[c + 1 for c in row] for row in h6.grid] == \
        [[1, 2, 3, 4], [2, 3, 4, 5], [3, 4, 5, 6]]
    h3 = st.hankel_structure(3)
    assert [[c + 1 for c in row] for row in h3.grid] == [[1, 2], [2, 3]]


def test_hankel_weight_matrices():
    f = Fraction
    omega6 = st.hankel_weights(6, "omega")
    assert omega6.rows == (
        (f(1), f(1, 2), f(1, 3), f(1, 3)),
        (f(1, 2), f(1, 3), f(1, 3), f(1, 2)),
        (f(1, 3), f(1, 3), f(1, 2), f(1)),
    )
    theta6 = st.hankel_weights(6, "theta")
    assert theta6.rows == (
        (f(1), f(5, 2), f(10, 3), f(10, 3)),
        (f(5, 2), f(10, 3), f(10, 3), f(5, 2)),
        (f(10, 3), f(10, 3), f(5, 2), f(1)),
    )
    theta5 = st.hankel_weights(5, "theta")
    assert theta5.rows == (
        (f(1), f(2), f(2)),
        (f(2), f(2), f(2)),
        (f(2), f(2), f(1)),
    )


def test_hankel_weights_reversal_symmetry():
    # both weight formulas are invariant under (i, j) -> (p+1-i, q+1-j)
    for n in range(3, 10):
        for kind in ("omega", "theta"):
            w = st.hankel_weights(n, kind)
            p, q = w.shape
            for i in range(p):
                for j in range(q):
                    assert w.entry(i, j) == w.entry(p - 1 - i, q - 1 - j)


@pytest.mark.parametrize("n", range(3, 10))
def test_omega_gives_plain_euclidean_objective(n):
    # summed position weights per coordinate are all 1
    struct = st.hankel_structure(n)
    weights = struct.coordinate_weights(st.hankel_weights(n, "omega"))
    assert weights == [Fraction(1)] * n


def test_unit_weights_give_antidiagonal_multiplicities():
    # order 5: the matrix objective expands with multiplicities (1,2,3,2,1)
    struct = st.hankel_structure(5)
    mults = struct.coordinate_weights(st.WeightMatrix.ones(3, 3))
    assert mults == [Fraction(k) for k in (1, 2, 3, 2, 1)]
    thetas = struct.coordinate_weights(st.hankel_weights(5, "theta"))
    assert thetas == [Fraction(k) for k in (1, 4, 6, 4, 1)]


def test_sylvester_structure():
    s222 = st.sylvester_structure(2, 2, 2)
    assert s222.shape == (4, 4)
    # first two columns shifted copies of a, last two of b
    names = s222.coord_names
    assert [names[s222.grid[i][0]] if s222.grid[i][0] is not None else "."
            for i in range(4)] == ["a0", "a1", "a2", "."]
    assert [names[s222.grid[i][3]] if s222.grid[i][3] is not None else "."
            for i in range(4)] == [".", "b0", "b1", "b2"]
    assert st.sylvester_structure(3, 5, 1).shape == (6, 4)
    for (m, n, k) in [(2, 2, 1), (3, 4, 2), (4, 5, 3)]:
        shape = st.sylvester_structure(m, n, k).shape
        assert shape[0] - shape[1] == m - k


def test_sylvester_weights():
    f = Fraction
    w = st.sylvester_weights(2, 2, 2, "omega")
    struct = st.sylvester_structure(2, 2, 2)
    cw = struct.coordinate_weights(w)
    # every a and b coordinate carries weight 1/2 at each of its positions
    assert all(w.entry(i, j) == f(1, 2) for i in range(4) for j in range(4)
               if struct.grid[i][j] is not None)
    theta = st.sylvester_weights(2, 2, 2, "theta")
    a1_positions = struct.positions(1)
    assert all(theta.entry(i, j) == f(1, 4) for (i, j) in a1_positions)


def test_catalecticant_structure_and_theta():
    struct = st.catalecticant_structure()
    theta = st.catalecticant_theta()
    assert theta.rows[0] == tuple(Fraction(v) for v in (1, 2, 2, 2, 3, 2))
    # summed weights reproduce the tensor multiplicities 1/6/4/12
    cw = struct.coordinate_weights(theta)
    expected = {"400": 1, "040": 1, "004": 1, "220": 6, "202": 6, "022": 6,
                "310": 4, "301": 4, "130": 4, "103": 4, "031": 4, "013": 4,
                "211": 12, "121": 12, "112": 12}
    for name, value in expected.items():
        assert cw[struct.coord_names.index(name)] == Fraction(value)


def test_catalecticant_instance():
    data = {name: 0.0 for name in st.CATALECTICANT_COORDS}
    inst = st.catalecticant_instance(data)
    assert np.allclose(inst.data_array(), 0.0)
    assert np.linalg.matrix_rank(inst.data_array()) == 0
    with pytest.raises(ValueError, match="missing coefficient"):
        st.catalecticant_instance({"400": 1.0})


def test_schultz_dataset_values():
    inst = st.load_dataset("schultz")
    struct = st.catalecticant_structure()
    coords = struct.coords_from_matrix(inst.data_array())
    named = dict(zip(struct.coord_names, coords))
    assert named["400"] == pytest.approx(0.1023)
    assert named["004"] == pytest.approx(0.1869)
    assert named["211"] == pytest.approx(-0.00032569)


def test_example36_dataset():
    inst = st.load_dataset("example36")
    assert (inst.m, inst.n, inst.r) == (3, 4, 2)
    L1 = inst.constraints[0]
    assert L1.coeffs[0][0] == Fraction(-10)
    assert L1.constant == Fraction(-1)
    assert L1.coeffs[1][3] == 0      # no x24 term in the first constraint
    L2 = inst.constraints[1]
    assert L2.coeffs[2][0] == Fraction(8)
    assert inst.section_kind() == "affine"
    # the data matrix does not satisfy the constraints (allowed; diagnostics only)
    assert abs(constraint_value(L1, inst.data_array())) > 1


def test_random_section_determinism():
    a = st.random_section(3, 3, 2, "linear", seed=9)
    b = st.random_section(3, 3, 2, "linear", seed=9)
    assert a == b
    c = st.random_section(3, 3, 2, "affine", seed=9)
    assert all(x.constant != 0 for x in c)
    assert all(x.constant == 0 for x in a)
    for cons in a:
        vals = [int(v) for row in cons.coeffs for v in row]
        assert all(-10 <= v <= 10 for v in vals)
    with pytest.raises(ValueError):
        st.random_section(2, 2, 1, "linear", seed=None)


def test_dense_instance_ranges():
    inst = st.dense_instance(4, 4, 3, seed=7)
    U = inst.data_array()
    W = inst.weights.as_array()
    assert np.all((U >= -100) & (U <= 100))
    assert np.all((W >= 1) & (W <= 20))
    unit = st.dense_instance(3, 3, 1, seed=7, weights="unit")
    assert np.all(unit.weights.as_array() == 1)


def test_dense_instance_projection():
    inst = st.dense_instance(3, 3, 2, seed=11, s=2, section="affine",
                             project_data=True)
    U = inst.data_array()
    for c in inst.constraints:
        assert abs(constraint_value(c, U)) < 1e-8


def test_instance_json_roundtrip_exact():
    inst = st.hankel_instance(6, [1, -2, Fraction(1, 3), 4, 5, Fraction(7, 2)])
    d = inst.to_dict()
    assert set(d) == {"m", "n", "r", "family", "U", "weights", "constraints",
                      "params"}
    back = st.Instance.from_dict(json.loads(json.dumps(d)))
    assert back == inst


def test_instance_validation():
    with pytest.raises(ValueError):
        st.Instance(m=2, n=2, r=2, family="dense", U=((1, 2), (3, 4)),
                    weights=st.WeightMatrix.ones(2, 2))
    with pytest.raises(ValueError):
        st.Instance(m=2, n=2, r=1, family="nope", U=((1, 2), (3, 4)),
                    weights=st.WeightMatrix.ones(2, 2))
    with pytest.raises(ValueError, match="malformed"):
        st.Instance.from_dict({"m": 2})


def test_load_instance_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="malformed"):
        st.load_instance(bad)


def test_weight_matrix_positivity():
    with pytest.raises(ValueError):
        st.WeightMatrix.from_rows([[1, 0], [1, 1]])


rationals = st_.fractions(min_value=-1000, max_value=1000,
                          max_denominator=60).filter(lambda x: x != 0)


@settings(max_examples=40, deadline=None)
@given(st_.lists(rationals, min_size=5, max_size=5))
def test_hankel_roundtrip_random_rationals(data):
    inst = st.hankel_instance(5, data)
    back = st.Instance.from_dict(json.loads(json.dumps(inst.to_dict())))
    assert back == inst
    coords = st.hankel_structure(5).coords_from_matrix(
        [[x for x in row] for row in back.U])
    assert coords == [Fraction(x) for x in data]


def test_sylvester_instance_roundtrip():
    inst = st.sylvester_instance(2, 3, 1, [1, -2, 3], [4, 0, -1, 2])
    assert inst.params["sylvester"] == {"m": 2, "n": 3, "k": 1}
    assert inst.r == inst.n - 1
    back = st.Instance.from_dict(json.loads(json.dumps(inst.to_dict())))
    assert back == inst
    assert back.structure().shape == (4, 3)


@pytest.mark.parametrize("inst", [
    st.hankel_instance(5, [1, 2, 3, 4, 5]),
    st.hankel_instance(6, [1, 2, 3, 4, 5, 6], r=2),
    st.sylvester_instance(1, 2, 1, [3, -2], [1, 4, -5]),
    st.sylvester_instance(2, 3, 2, [1, 2, 3], [4, 5, 6, 7]),
    st.catalecticant_instance({k: i for i, k in enumerate(st.CATALECTICANT_COORDS)}),
], ids=["hankel5", "hankel6", "sylvester121", "sylvester232", "catalecticant"])
def test_linear_rows_cut_out_the_structured_space(inst):
    structure = inst.structure()
    rows = inst.section()[0]
    X = structure.matrix_from_coords(
        np.random.default_rng(0).normal(size=structure.n_coords))
    assert np.max(np.abs(rows @ X.ravel())) < 1e-12
    assert np.linalg.matrix_rank(rows) == inst.m * inst.n - structure.n_coords


def test_linear_rows_of_dense_sections():
    assert st.dense_instance(2, 3, 1, seed=4).section()[0].shape == (0, 6)
    inst = st.dense_instance(2, 3, 1, seed=4, s=2, section="affine")
    assert np.array_equal(inst.section()[0],
                          [c.coeff_array().ravel() for c in inst.constraints])
    assert inst.section()[1].tolist() == [float(c.constant) for c in inst.constraints]
    # dense is the identity structure
    structure = inst.structure()
    assert structure.grid == ((0, 1, 2), (3, 4, 5))
    assert structure.coord_names == ("x11", "x12", "x13", "x21", "x22", "x23")


@pytest.mark.parametrize("inst", [
    st.hankel_instance(5, [1, 2, 3, 4, 5]),
    st.sylvester_instance(1, 2, 1, [3, -2], [1, 4, -5]),
], ids=["hankel5", "sylvester121"])
def test_section_lists_constraints_then_structure(inst):
    grid = np.arange(inst.m * inst.n).reshape(inst.m, inst.n) - 4
    inst = dataclasses.replace(
        inst, constraints=(st.LinearConstraint.from_rows(grid.tolist(), 7),))
    C, c = inst.section()
    assert C[0].tolist() == grid.ravel().tolist() and c[0] == 7.0
    assert c[1:].tolist() == [0.0] * (len(C) - 1)
    structure = inst.structure()
    X = structure.matrix_from_coords(
        np.random.default_rng(0).normal(size=structure.n_coords))
    assert np.max(np.abs(C[1:] @ X.ravel())) < 1e-12
    assert len(C) - 1 == inst.m * inst.n - structure.n_coords
    # a structurally zero position is its own row
    for p, coord in enumerate(x for row in structure.grid for x in row):
        if coord is None:
            assert np.eye(inst.m * inst.n)[p].tolist() in C[1:].tolist()
