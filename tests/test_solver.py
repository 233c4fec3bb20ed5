import dataclasses
import os

import numpy as np
import pytest
from conftest import eckart_young

from slra import eddegree
from slra import solver as sv
from slra import structured as st
from slra import systems as sy
from slra.polyarith import Poly
from slra.systems import PolySystem


def scalar_system(terms):
    return PolySystem(variables=("x",), equations=[Poly(1, terms)],
                      var_labels=("x",),
                      reconstruct=lambda c: np.array([[c[0]]]))


def test_track_univariate_shift():
    # {x^2 - 4} from the start {x^2 - 1}: endpoints 2 and -2
    target = sv.CompiledSystem([Poly(1, {(2,): 1.0, (0,): -4.0})], 1)
    start = sv.PowerStart([2], np.array([1.0 + 0j]))
    hom = sv.Homotopy(target, start, sv.TrackerConfig(seed=1).gamma())
    x0 = np.array([[1.0 + 0j], [-1.0 + 0j]])
    status, endp = sv.track_batch(hom, x0)
    assert list(status) == [sv.CONVERGED, sv.CONVERGED]
    assert sorted(np.round(endp[:, 0].real, 8)) == [-2.0, 2.0]


def test_track_identity_homotopy():
    # F = G: endpoints equal start points
    eqs = [Poly(1, {(2,): 1.0, (0,): -1.0})]
    target = sv.CompiledSystem(eqs, 1)
    start = sv.PowerStart([2], np.array([1.0 + 0j]))
    hom = sv.Homotopy(target, start, sv.TrackerConfig(seed=1).gamma())
    x0 = np.array([[1.0 + 0j], [-1.0 + 0j]])
    status, endp = sv.track_batch(hom, x0)
    assert np.allclose(endp, x0, atol=1e-8)


def test_track_linear_system_oracle():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 4))
    b = rng.normal(size=4)
    eqs = []
    for i in range(4):
        terms = {tuple(1 if k == j else 0 for k in range(4)): A[i, j] for j in range(4)}
        terms[(0,) * 4] = -b[i]
        eqs.append(Poly(4, terms))
    system = PolySystem(variables=tuple("abcd"), equations=eqs,
                        var_labels=("v",) * 4,
                        reconstruct=lambda c: c.reshape(1, 4))
    pts = sv.solve_system(system, sv.TrackerConfig(seed=2, charts=1))
    assert len(pts) == 1
    assert np.max(np.abs(pts[0][0] - np.linalg.solve(A, b))) < 1e-10


def test_total_degree_budget_guard(monkeypatch):
    eqs = [Poly(2, {(9, 0): 1.0, (0, 0): -1.0}),
           Poly(2, {(0, 9): 1.0, (0, 0): -1.0})]
    monkeypatch.setattr(sv, "MAX_PATHS", 10)
    with pytest.raises(ValueError, match="max_paths"):
        sv.total_degree_start(eqs, np.random.default_rng(0))


def test_total_degree_rejects_constant_equation():
    eqs = [Poly(1, {(0,): 1.0})]
    with pytest.raises(ValueError, match="zero-degree"):
        sv.total_degree_start(eqs, np.random.default_rng(0))


def test_mh_bezout_counts():
    # dual rank-one chart for n = 3: groups {t}, {z}
    assert sv.mh_bezout([[1, 2]] * 3 + [[2, 1]] * 2, [3, 2]) == 73
    # single group reduces to the total-degree count
    assert sv.mh_bezout([[3]] * 5, [5]) == 3 ** 5
    assert sv.mh_bezout([[1, 0], [1, 0], [0, 1]], [2, 1]) == 1


def test_set_partitions():
    assert len(sv.set_partitions(list("ab"))) == 2
    assert len(sv.set_partitions(list("abcd"))) == 15


def _monomial(nvars, exps, coeff=1.0):
    return Poly(nvars, {tuple(exps): coeff})


@pytest.mark.parametrize("batch", [1, 500])
def test_multihomog_start_matches_factor_products(batch):
    # equations with 1, 2, 3 and 4 factors over the groups {x0, x1}, {x2, x3}
    eqs = [_monomial(4, e) for e in
           ((1, 0, 0, 0), (1, 0, 1, 0), (2, 0, 1, 0), (2, 0, 0, 2))]
    groups = [[0, 1], [2, 3]]
    start = sv.MultihomogStart(eqs, groups, 4, np.random.default_rng(3))
    rng = np.random.default_rng(batch)
    x = rng.normal(size=(batch, 4)) + 1j * rng.normal(size=(batch, 4))

    def expanded(xs):
        # factor k of equation i is rows[k*ne + i] . x + consts[k, i]
        ne = len(eqs)
        out = np.ones((xs.shape[0], ne), dtype=complex)
        for kn, row in enumerate(start.rows):
            out[:, kn % ne] *= xs @ row + start.consts[kn // ne, kn % ne, 0]
        return out

    vals, jac = start.eval_and_jac(x)
    ref = expanded(x)
    assert np.max(np.abs(vals - ref) / (1.0 + np.abs(ref))) < 1e-12
    h = 1e-6
    for v in range(4):
        step = np.zeros(4)
        step[v] = h
        fd = (expanded(x + step) - expanded(x - step)) / (2 * h)
        assert np.max(np.abs(jac[:, :, v] - fd) / (1.0 + np.abs(fd))) < 1e-7


def _monomial_values_by_variable(compiled, x):
    # per-variable reference: multiply in x_v^e for v = 0, 1, ... in turn
    v = np.ones((compiled.nm, x.shape[0]), dtype=x.dtype)
    for var in range(compiled.nvars):
        cols = np.nonzero(compiled.exps[:, var])[0]
        pows = np.empty((compiled.exps[:, var].max() + 1, x.shape[0]), dtype=x.dtype)
        pows[0] = 1
        for k in range(1, pows.shape[0]):
            np.multiply(pows[k - 1], x[:, var], out=pows[k])
        v[cols] *= pows[compiled.exps[cols, var]]
    return v


@pytest.mark.parametrize("dtype", [complex, np.clongdouble])
def test_monomial_values_match_power_products(dtype):
    eqs = [Poly(3, {(0, 0, 0): 2.0, (3, 1, 0): 1.0, (0, 2, 2): -1.5}),
           Poly(3, {(1, 1, 1): 0.5, (0, 0, 4): 1.0, (2, 0, 0): 3.0})]
    compiled = sv.CompiledSystem(eqs, 3)
    assert not compiled.exps[0].any()      # the constant monomial is kept
    rng = np.random.default_rng(11)
    x = (rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))).astype(dtype)
    mv = compiled.monomial_values(x)
    assert mv.dtype == dtype
    ref = np.prod(x[:, None, :] ** compiled.exps, axis=2).T
    assert np.max(np.abs(mv - ref) / (1.0 + np.abs(ref))) < 1e-13
    assert np.array_equal(mv, _monomial_values_by_variable(compiled, x))


def test_compiled_system_on_an_empty_batch():
    eqs = [Poly(2, {(2, 1): 1.0, (0, 0): -3.0}), Poly(2, {(0, 1): 2.0})]
    compiled = sv.CompiledSystem(eqs, 2)
    x = np.zeros((0, 2), dtype=complex)
    assert compiled.monomial_values(x).shape == (compiled.nm, 0)
    assert compiled.eval(x).shape == (0, 2)
    assert compiled.jac(x).shape == (0, 2, 2)
    fv, fj = compiled.eval_and_jac(x)
    assert fv.shape == (0, 2) and fj.shape == (0, 2, 2)
    hom = sv.Homotopy(compiled, sv.PowerStart([3, 1], np.ones(2)), 1j)
    status, endp = sv.track_batch(hom, x)
    assert status.shape == (0,) and endp.shape == (0, 2)


def _polish_by_coefficient_loop(system, compiled, points):
    # reference: the extended-precision residual summed one coefficient at a time
    xc = points.astype(np.clongdouble)
    for _ in range(3):
        mv = compiled.monomial_values(xc)
        fv = np.zeros((xc.shape[0], compiled.neqs), dtype=np.clongdouble)
        cf = compiled._cf.tocoo()
        for r, c, v in zip(cf.row, cf.col, cf.data):
            fv[:, c] += v * mv[r]
        fj = compiled.jac(xc.astype(complex))
        jh = np.conj(np.transpose(fj, (0, 2, 1)))
        delta, _ = sv._batched_solve(jh @ fj, -(jh @ fv.astype(complex)[..., None])[..., 0])
        xc = xc + np.where(np.isfinite(delta), delta, 0.0).astype(np.clongdouble)
    return xc.astype(complex)


def test_polish_extended_matches_the_coefficient_loop():
    inst = st.dense_instance(2, 3, 1, seed=6, s=2)
    system = sy.normal_space(inst)
    assert system.overdetermined
    compiled = sv.CompiledSystem(system.equations, system.n_vars)
    ss = sv.solve(inst, "normal", sv.TrackerConfig(seed=6, charts=1))
    rng = np.random.default_rng(4)
    pts = np.array([p.coords for p in ss.points])
    pts = pts + 1e-7 * (rng.normal(size=pts.shape) + 1j * rng.normal(size=pts.shape))
    assert np.array_equal(sv._polish_extended(compiled, pts),
                          _polish_by_coefficient_loop(system, compiled, pts))


def test_start_point_count_matches_bound():
    rey = st.load_dataset("rey")
    system = sy.rank1_direct(rey)
    cfg = sv.TrackerConfig(seed=1, charts=1)
    stats = sv.PathStats()
    sv.solve_system(system, cfg, stats=stats)
    assert stats.n_paths == 73          # the multihomogeneous bound, exactly
    squared = sv.square_up(system, np.random.default_rng(1))
    # the Bezout bound, exactly
    assert len(sv.total_degree_start(squared, np.random.default_rng(1))[1]) == 3 ** 5


def _pairwise_distinct(points: np.ndarray, tol: float) -> bool:
    # two points within tol (max norm) project on w within tol * |w|_1, so
    # only neighbours in projection order need the full comparison
    w = np.random.default_rng(0).normal(size=points.shape[1])
    order = np.argsort((points @ w).real)
    proj = (points[order] @ w).real
    reach = np.searchsorted(proj, proj + tol * np.abs(w).sum(), side="right")
    return all(np.max(np.abs(points[order[i + 1:reach[i]]] - points[order[i]]),
                      axis=1).min(initial=np.inf) >= tol
               for i in range(len(order)))


def _start_example():
    eqs = [_monomial(4, e) for e in
           ((1, 0, 0, 0), (1, 0, 1, 0), (2, 0, 1, 0), (2, 0, 0, 2))]
    start = sv.MultihomogStart(eqs, [[0, 1], [2, 3]], 4, np.random.default_rng(3))
    return start, start.points(), start.count


def _chosen_start(system):
    rng = np.random.default_rng(1)
    squared = sv.normalize_equations(sv.square_up(system, rng))
    start, points, _ = sv.choose_start(squared, system.label_indices(),
                                       system.n_vars, rng)
    return start, points, start.count


def _total_degree_rey():
    squared = sv.square_up(sy.rank1_direct(st.load_dataset("rey")),
                           np.random.default_rng(1))
    start, points = sv.total_degree_start(squared, np.random.default_rng(1))
    return start, points, int(np.prod([eq.degree() for eq in squared]))


@pytest.mark.parametrize("make, count", [
    (_start_example, 8),
    (lambda: _chosen_start(sy.rank1_direct(st.load_dataset("rey"))), 73),
    (lambda: _chosen_start(sy.normal_space(st.dense_instance(3, 4, 1, 2, s=3))), 8008),
    (_total_degree_rey, 3 ** 5),
], ids=["multihomog", "rank1_direct rey", "normal 3x4 r=1 s=3", "total-degree rey"])
def test_start_points_solve_their_start_system(make, count):
    start, points, bound = make()
    assert len(points) == bound == count
    vals, _ = start.eval_and_jac(points)
    assert np.max(np.abs(vals)) < 1e-10
    assert _pairwise_distinct(points, 1e-8)


def test_batched_solve_resolves_a_bad_stack_item_by_item():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    b = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    a[1, 2] = 0.0          # singular: the stacked solve raises
    a[3, 0, 0] = np.nan    # non-finite: its solution is not finite
    sol, ok = sv._batched_solve(a, b)
    assert ok.tolist() == [True, False, True, False, True]
    for i in (0, 2, 4):
        assert np.array_equal(sol[i], np.linalg.solve(a[i], b[i]))


def test_overdetermined_system_needs_a_merge_block():
    x = Poly(1, {(1,): 1.0})
    system = PolySystem(variables=("x",), equations=[x, x * 2.0],
                        var_labels=("x",),
                        reconstruct=lambda c: np.array([[c[0]]]))
    assert system.overdetermined and system.merge_block is None
    with pytest.raises(ValueError, match="merge_block"):
        sv.square_up(system, np.random.default_rng(0))


def test_path_outcomes_are_pinned():
    # every path's outcome on two small solves, one per start route: a
    # tolerance or step limit that drifts changes these counts
    rey = st.load_dataset("rey")
    ss = sv.solve(rey, "dual-rank1", sv.TrackerConfig(seed=1, charts=1))
    assert vars(ss.stats) == dict(
        n_paths=73, n_converged=43, n_diverged=0, n_singular=30, n_failed=0,
        n_filtered=28, n_raw_points=45, start_kind="mh:t|z",
        generic_count=0, n_lost=0)
    assert (ss.n_complex, ss.n_real, ss.n_local_min) == (39, 19, 7)
    inst = st.dense_instance(2, 3, 1, seed=6, s=2)
    ss = sv.solve(inst, "normal", sv.TrackerConfig(seed=6, charts=1))
    assert vars(ss.stats) == dict(
        n_paths=14, n_converged=14, n_diverged=0, n_singular=0, n_failed=0,
        n_filtered=0, n_raw_points=7, start_kind="seeded",
        generic_count=0, n_lost=0)
    assert ss.n_complex == 7


def test_gamma_unit_modulus_and_seeded():
    g1 = sv.TrackerConfig(seed=5).gamma()
    g2 = sv.TrackerConfig(seed=5).gamma()
    assert g1 == g2
    assert abs(abs(g1) - 1.0) < 1e-12
    assert g1 != sv.TrackerConfig(seed=6).gamma()


# -- end-to-end small instances -----------------------------------------------

def test_unit_diag_2x2_eckart_young_case():
    U = np.diag([3, 1])
    inst = st.Instance(m=2, n=2, r=1, family="dense",
                       U=((3, 0), (0, 1)), weights=st.WeightMatrix.ones(2, 2))
    ss = sv.solve(inst, "primal", sv.TrackerConfig(seed=4))
    assert ss.n_complex == 2
    mats = sorted(np.round(np.real(p.X), 6).tolist() for p in ss.points)
    assert mats == [[[0.0, 0.0], [0.0, 1.0]], [[3.0, 0.0], [0.0, 0.0]]]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("diag", [(3, 2, 1), (5, 3, 2)], ids=["321", "532"])
@pytest.mark.parametrize("formulation", ["auto", "dual-rank1"])
def test_unit_diag_3x3_truncations_and_classification(formulation, diag, seed):
    # the critical points of diagonal data have kernels on coordinate axes,
    # which the plain charts mostly miss: one mixed chart holds all three
    inst = st.Instance(m=3, n=3, r=2, family="dense",
                       U=tuple(map(tuple, np.diag(diag).tolist())),
                       weights=st.WeightMatrix.ones(3, 3))
    ss = sv.solve(inst, formulation, sv.TrackerConfig(seed=seed))
    assert ss.n_complex == 3 == ss.n_real
    assert ss.predicted == 3 and ss.agreement
    if formulation == "auto":
        assert ss.stats.start_kind == "seeded"
    best = ss.closest()
    assert np.allclose(np.real(best.X), np.diag([diag[0], diag[1], 0.0]), atol=1e-8)
    assert best.classification == "local_min"
    assert np.allclose(np.real(best.X), eckart_young(inst.data_array(), 2),
                       atol=1e-8)


def test_determinism_across_reruns():
    inst = st.dense_instance(2, 2, 1, seed=8, s=1)

    def run():
        ss = sv.solve(inst, "primal", sv.TrackerConfig(seed=9))
        return [(np.round(p.X, 8).tolist(), p.is_real, p.classification)
                for p in ss.points]

    assert run() == run() == run()


def test_conjugate_closure_and_residual_bounds():
    rey = st.load_dataset("rey")
    ss = sv.solve(rey, "dual-rank1", sv.TrackerConfig(seed=1))
    assert not [w for w in ss.warnings if "conjugate" in w]
    nonreal = [p for p in ss.points if not p.is_real]
    assert len(nonreal) % 2 == 0
    system = sy.rank1_direct(rey)
    scale = sv.CompiledSystem(system.equations, system.n_vars).coeff_scale
    for p in ss.points:
        assert p.residual < 1e-8 * (1.0 + scale)


def test_critical_points_orthogonal_to_tangent_space():
    # the weighted residual at every accepted point is orthogonal (complex
    # bilinear pairing) to the tangent space of the rank variety
    rey = st.load_dataset("rey")
    U, Lam = rey.data_array(), rey.weights.as_array()
    ss = sv.solve(rey, "dual-rank1", sv.TrackerConfig(seed=1))
    for p in ss.points:
        X = p.X
        G = Lam * (X - U)
        u_, s_, vt_ = np.linalg.svd(X)
        col = u_[:, :1]
        row = vt_[:1, :]
        # tangent directions: col * anything + anything * row
        for k in range(3):
            T1 = np.outer(col[:, 0], np.eye(3)[k])
            T2 = np.outer(np.eye(3)[k], row[0])
            for T in (T1, T2):
                num = abs(np.sum(G * T))
                den = np.linalg.norm(G.ravel()) * np.linalg.norm(T.ravel())
                assert num < 1e-6 * max(den, 1.0)


def test_duality_bijection_small():
    inst = st.dense_instance(3, 3, 2, seed=77)
    cfg = sv.TrackerConfig(seed=6, charts=1)
    U, Lam = inst.data_array(), inst.weights.as_array()
    dual_points = sv._dedup(sv.solve_system(sy.dual_rank1(inst), cfg), sv.DEDUP_TOL)
    # the chart returns corank-one points X whose transfers Y = Lam * (U - X)
    # have rank one
    assert len(dual_points) == 39
    for coords, X, res, flag in dual_points[:5]:
        Y = sy.dual_transfer(X, Lam, U)
        assert np.linalg.matrix_rank(np.asarray(Y, dtype=complex), tol=1e-6) == 1
        assert abs(np.linalg.det(X)) < 1e-6 * (1.0 + np.max(np.abs(X))) ** 3


def test_reconcile_report():
    inst = st.dense_instance(2, 2, 1, seed=8)
    ss = sv.solve(inst, "primal", sv.TrackerConfig(seed=9))
    report = sv.reconcile(ss)
    assert report["predicted"] == 6
    assert report["found"] == ss.n_complex
    assert report["agreement"] == (ss.n_complex == 6)
    assert "generic_count" not in report
    mismatch = sv.reconcile(ss, predicted=7)
    assert mismatch["agreement"] is False
    assert "seed" in mismatch["suggestion"]


def _without_count(monkeypatch):
    # no exact count: the solve tracks the start system, the seeded route's oracle
    monkeypatch.setattr(sv, "_predict", lambda instance: (None, "no count"))


@pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "start-system"])
def test_normal_space_excludes_the_cone_point(seeded, monkeypatch):
    # X = 0 lies on every linear section and on the rank <= 1 cone; for r = 1
    # the singular-value ratio cannot see it, so the filter needs a scale
    inst = st.dense_instance(2, 3, 1, seed=877150602, s=2)
    system = sy.normal_space(inst)
    assert system.degenerate(None, np.zeros((2, 3)), 1e-8)
    assert sv._predict(inst)[0] == 7
    if not seeded:
        _without_count(monkeypatch)
    ss = sv.solve(inst, "normal", sv.TrackerConfig(seed=877150602, charts=1))
    assert ss.stats.start_kind.startswith("seeded" if seeded else "mh:")
    assert ss.n_complex == 7
    assert all(np.max(np.abs(p.X)) > 1e-3 for p in ss.points)


@pytest.mark.parametrize("weights, data, seed", [
    (((16, 4), (4, 1)), ((73, -79), (41, -57)), 415788341),
    (((14, 3), (14, 3)), ((86, -33), (-79, -51)), 2976883023),
])
def test_rank_one_weights_predict_the_unit_weight_count(weights, data, seed):
    # Lam = a b^T rescales to the unweighted problem: C(2, 1) points, not 6
    inst = st.Instance(m=2, n=2, r=1, family="dense", U=data,
                       weights=st.WeightMatrix.from_rows(weights))
    assert inst.weights.is_rank_one()
    ss = sv.solve(inst, "auto", sv.TrackerConfig(seed=seed))
    assert ss.predicted == 2 == ss.n_complex
    assert not st.WeightMatrix.from_rows([[1, 2], [3, 4]]).is_rank_one()


def test_rank_one_weights_with_a_section_predict_like_unit_weights():
    # Lam = a b^T rescales to unit weights on a section of the same kind and
    # codimension: the conjectured corank-one value, square or not
    square = st.dense_instance(3, 3, 2, seed=1, s=1).with_weights(
        st.WeightMatrix.from_rows([[6, 2, 4], [3, 1, 2], [9, 3, 6]]))
    assert sv._predict(square) == (15, "conjectured unit-weight value")
    wide = st.dense_instance(2, 3, 1, seed=1, s=2).with_weights(
        st.WeightMatrix.from_rows([[1, 2, 3], [2, 4, 6]]))
    assert wide.weights.is_rank_one()
    assert sv._predict(wide) == (7, "conjectured unit-weight value")


def test_auto_seeds_square_corank_one_sections():
    inst = st.dense_instance(3, 3, 2, seed=1, s=1)
    assert sv.default_formulation(inst) == "normal"
    ss = sv.solve(inst, "auto", sv.TrackerConfig(seed=1))
    assert ss.stats.start_kind == "seeded"
    assert ss.n_complex == ss.predicted == 39


def test_auto_sends_non_square_structured_instances_to_normal():
    # the corank-one primal chart needs a square matrix; normal takes any family
    hankel = st.hankel_instance(6, [3, 1, 4, 1, 5, 9], r=2)
    assert (hankel.m, hankel.n) == (3, 4)
    assert sv.default_formulation(hankel) == "normal"
    sylvester = st.sylvester_instance(2, 3, 1, [1, 2, 3], [1, -1, 2, 5])
    assert sv.default_formulation(sylvester) == "normal"
    ss = sv.solve(hankel, "auto", sv.TrackerConfig(seed=1))
    assert ss.stats.start_kind == "seeded"
    assert ss.n_complex == ss.predicted == 34


def test_normal_space_solves_a_structured_section():
    # the Hankel structure enters as the section's linear rows; the seeded
    # normal chart returns the primal chart's points, in far fewer paths
    hankel = st.load_dataset("hankel33").with_weights(
        st.hankel_weights(5, "omega")).with_rank(2)
    cfg = sv.TrackerConfig(seed=1)
    normal = sv.solve(hankel, "normal", cfg)
    primal = sv.solve(hankel, "primal", cfg)
    assert normal.stats.start_kind == "seeded"
    assert normal.stats.n_paths <= 40
    assert normal.n_complex == primal.n_complex == normal.predicted == 13
    assert normal.n_real == primal.n_real
    assert normal.n_local_min == primal.n_local_min
    for p in normal.points:
        assert min(np.max(np.abs(p.X - q.X)) for q in primal.points) < 1e-6


def test_structured_instance_with_constraints_has_no_prediction():
    # the generic Hankel ED degree counts the unsectioned locus only
    hankel = st.load_dataset("hankel33").with_rank(1)
    assert sv._predict(hankel)[0] == 10
    cut = dataclasses.replace(hankel, constraints=st.random_section(3, 3, 1, seed=5))
    assert sv._predict(cut)[0] is None
    with pytest.raises(ValueError, match="extra constraints"):
        sv.solve(cut, "auto", sv.TrackerConfig(seed=1))


def test_dedup_prefers_clean_representatives():
    a = (np.array([1.0 + 0j]), np.array([[1.0 + 0j]]), 1e-12, True)
    b = (np.array([1.0 + 1e-9j]), np.array([[1.0 + 1e-9j]]), 1e-10, False)
    kept = sv._dedup([a, b], 1e-6)
    assert len(kept) == 1
    assert kept[0][3] is False


def test_solve_rejects_sectioned_dual_chart():
    inst = st.dense_instance(3, 3, 2, seed=5, s=1)
    with pytest.raises(ValueError, match="linear sections"):
        sv.solve(inst, "dual-rank1", sv.TrackerConfig(seed=5))
    # a structure is a section too
    with pytest.raises(ValueError, match="linear sections"):
        sv.solve(st.load_dataset("hankel33").with_rank(1), "dual-rank1")


def test_cross_formulation_agreement():
    # the X-sets from the determinant, kernel-chart and dual-chart routes
    # coincide on a seeded corank-one instance
    inst = st.dense_instance(3, 3, 2, seed=55)
    cfg = sv.TrackerConfig(seed=7, charts=1)
    primal = sv.solve(inst, "primal", cfg)
    normal = sv.solve(inst, "normal", cfg)
    dual = sv.solve(inst, "dual-rank1", cfg)
    assert primal.n_complex == normal.n_complex == dual.n_complex == 39

    def as_set(points):
        return [p.X for p in points]

    for other in (normal, dual):
        for X in as_set(primal.points):
            dist = min(np.max(np.abs(X - X2)) / (1.0 + np.max(np.abs(X)))
                       for X2 in as_set(other.points))
            assert dist < 1e-6


# -- seeded normal-space solves ------------------------------------------------

def test_lift_inverts_the_chart():
    # a seed (X, N) lifts to coordinates that solve the system at the data
    # X + N / Lam: the data enter only the Lagrange rows, as Lam (U - V)
    inst = st.dense_instance(3, 4, 2, seed=5, s=2, section="affine")
    U, Lam = inst.data_array(), inst.weights.as_array()
    X, N = sy.normal_space_seeds(inst, 4, np.random.default_rng(1))
    assert (np.linalg.matrix_rank(X, tol=1e-8) == 2).all()
    for mix in (None, np.roll(np.eye(3), 1, axis=0) * 1j):
        system = sy.normal_space(inst, left_mix=mix,
                                 right_mix=None if mix is None else np.eye(4)[::-1])
        x0 = system.lift(X, N)
        fv = sv.CompiledSystem(system.equations, system.n_vars).eval(x0)
        fv[:, -12:] -= (Lam * (X + N / Lam - U)).reshape(4, 12)
        assert np.max(np.abs(fv)) < 1e-9 * (1.0 + np.max(np.abs(x0)))
        assert np.allclose(system.reconstruct(x0[0]), X[0])


def _same_points(a, b):
    return a.n_complex == b.n_complex and all(
        min(np.max(np.abs(p.X - q.X)) / (1.0 + np.max(np.abs(p.X))) for q in b.points) < 1e-6
        for p in a.points)


# the multihomogeneous oracle for 3x4 r=1 s=3 tracks 8008 paths (minutes)
SLOW_ORACLE = [pytest.mark.slow, pytest.mark.skipif(
    os.environ.get("ED_SLRA_ALLOW_SLOW", "") != "1",
    reason="gated behind ED_SLRA_ALLOW_SLOW=1")]


@pytest.mark.parametrize("m, n, r, s, seed, charts", [
    (3, 3, 2, 0, 55, 1), (2, 3, 1, 2, 6, 1), (2, 3, 1, 1, 3, 2),
    pytest.param(3, 4, 1, 3, 5, 1, marks=SLOW_ORACLE),
])
def test_seeded_points_equal_the_start_system_points(m, n, r, s, seed, charts,
                                                     monkeypatch):
    inst = st.dense_instance(m, n, r, seed=seed, s=s)
    cfg = sv.TrackerConfig(seed=seed, charts=charts)
    seeded = sv.solve(inst, "normal", cfg)
    _without_count(monkeypatch)
    mh = sv.solve(inst, "normal", cfg)
    assert seeded.stats.start_kind == "seeded"
    assert mh.stats.start_kind.startswith("mh:")
    assert seeded.n_complex == seeded.predicted == mh.n_complex
    assert _same_points(seeded, mh)
    assert seeded.stats.n_paths < mh.stats.n_paths
    assert [p.classification for p in seeded.points] == \
        [p.classification for p in mh.points]


def test_seeded_solve_falls_back_to_the_start_system(monkeypatch):
    # a count the fibre cannot reach stalls the loops; the start system then
    # finds what there is
    inst = st.dense_instance(2, 3, 1, seed=6, s=2)
    cfg = sv.TrackerConfig(seed=6, charts=1)
    predict = sv._predict
    _without_count(monkeypatch)
    mh = sv.solve(inst, "normal", cfg)
    monkeypatch.setattr(sv, "_predict",
                        lambda instance: (predict(instance)[0] + 1, "generic ED degree"))
    ss = sv.solve(inst, "normal", cfg)
    assert mh.stats.start_kind.startswith("mh:")
    assert ss.stats.start_kind == "seeded>" + mh.stats.start_kind
    assert ss.n_complex == mh.n_complex == 7 and ss.predicted == 8
    assert ss.stats.n_paths > mh.stats.n_paths
    assert ss.stats.consistent()
    assert _same_points(ss, mh)


@pytest.mark.parametrize("m, n, s, seed", [(2, 2, 2, 3), (2, 3, 3, 3), (3, 3, 3, 3),
                                           (3, 4, 4, 2)])
def test_linear_sections_with_s_equal_to_rn_are_seeded(m, n, s, seed):
    # a least-norm correction of B would give B = 0 here; the seeds come from
    # the pencil of a random line of A instead, rank one and on the section
    inst = st.dense_instance(m, n, 1, seed=seed, s=s)
    X, _ = sy.normal_space_seeds(inst, 2 * s + 1, np.random.default_rng(seed))
    assert len(X) == 2 * s + 1
    assert (np.linalg.matrix_rank(X, tol=1e-8) == 1).all()
    C = inst.section()[0]
    assert np.max(np.abs(X.reshape(len(X), -1) @ C.T)) < 1e-9 * np.max(np.abs(X))
    ss = sv.solve(inst, "normal", sv.TrackerConfig(seed=seed, charts=2))
    assert ss.stats.start_kind == "seeded"
    assert ss.n_complex == ss.predicted


def test_seeding_declines_where_no_seed_lies_on_the_section(monkeypatch):
    # s = 4 > r n = 3: no X = A B with a random A meets the section
    inst = st.dense_instance(3, 3, 1, seed=3, s=4)
    X, N = sy.normal_space_seeds(inst, 12, np.random.default_rng(0))
    assert X.shape == N.shape == (0, 3, 3)
    monkeypatch.setattr(sv, "track_batch", lambda *a: pytest.fail("tracked a path"))
    system = sy.normal_space(inst)
    mixed = sv.square_up(system, np.random.default_rng(0))
    stats = sv.PathStats()
    assert sv._fill_fibre(system, mixed, sv.normalize_equations(mixed), None, 6,
                          sv.TrackerConfig(seed=3), None, stats) == []
    assert stats.n_paths == 0


def test_seeded_solve_repeats_exactly():
    inst = st.dense_instance(3, 3, 1, seed=12345, s=1)

    def run():
        ss = sv.solve(inst, "normal", sv.TrackerConfig(seed=3, charts=1))
        return vars(ss.stats), [np.round(p.X, 8).tolist() for p in ss.points]

    assert run() == run()


def test_seeded_solve_tracks_no_chart_past_the_count():
    # one seeded chart fills the fibre on its own, and TrackerConfig.charts
    # asks for no second one: its value changes nothing
    inst = st.dense_instance(3, 3, 1, seed=3, s=1)
    one = sv.solve(inst, "normal", sv.TrackerConfig(seed=3, charts=1))
    two = sv.solve(inst, "normal", sv.TrackerConfig(seed=3, charts=2))
    assert one.stats.start_kind == "seeded" and one.n_complex == one.predicted
    assert vars(two.stats) == vars(one.stats)
    assert [p.X.tolist() for p in two.points] == [p.X.tolist() for p in one.points]


# -- the weight route ------------------------------------------------------------

@pytest.mark.parametrize("r", [1, 2])
def test_weights_with_a_vanishing_minor_take_the_weight_route(r):
    # the 2x2 minor of rows 0, 2 and columns 0, 1 vanishes: 4 of the 39
    # critical points at generic weights go to infinity on the way here
    inst = st.dense_instance(3, 3, r, seed=3)
    assert inst.weights.has_vanishing_minor()
    assert sv._predict(inst) == (39, "upper bound: generic ED degree")
    assert sv.default_formulation(inst) == "normal"
    ss = sv.solve(inst, "auto", sv.TrackerConfig(seed=1))
    assert ss.stats.start_kind == "weights"
    assert ss.stats.n_paths <= 400
    assert ss.n_complex == 35 and ss.predicted == 39 and ss.agreement is False
    assert (ss.generic_count, ss.stats.n_lost) == (39, 4)
    # the shortfall reads as points lost to infinity, not a tracking failure
    report = sv.reconcile(ss)
    assert (report["generic_count"], report["lost_to_infinity"]) == (39, 4)
    assert "lost to infinity" in report["suggestion"]
    assert "seed" not in report["suggestion"]


@pytest.mark.parametrize("weights, inst, found", [
    ([[6, 2, 4], [3, 1, 2], [9, 3, 6]], st.dense_instance(3, 3, 2, seed=1, s=1), 15),
    # solve-section seed 6, pass 1, position 5
    ([[19, 19, 19], [16, 16, 16]], st.dense_instance(2, 3, 1, seed=965412111, s=2), 7),
])
def test_rank_one_weights_with_a_section_take_the_weight_route(weights, inst, found):
    inst = inst.with_weights(st.WeightMatrix.from_rows(weights))
    ss = sv.solve(inst, "auto", sv.TrackerConfig(seed=1))
    assert ss.stats.start_kind == "weights"
    assert ss.n_complex == found == ss.predicted
    assert ss.generic_count - ss.stats.n_lost == found


@pytest.mark.parametrize("s", range(1, 7))
def test_weight_route_reaches_the_conjectured_unit_values(s):
    # the conjectured value is what the solve tests, not where it stops
    inst = st.dense_instance(3, 3, 2, seed=1, s=s, weights="unit")
    ss = sv.solve(inst, "auto", sv.TrackerConfig(seed=1))
    assert ss.stats.start_kind == "weights"
    assert ss.n_complex == ss.predicted == eddegree.conjectured_corank1_unit(3, 3, s)


def test_a_stalled_fill_takes_the_weight_route(monkeypatch):
    # a count the fibre at these weights cannot reach stalls the loops; the
    # fibre at generic weights, deformed here, has every point
    inst = st.dense_instance(2, 3, 1, seed=6, s=2)
    cfg = sv.TrackerConfig(seed=6, charts=2)
    plain = sv.solve(inst, "normal", cfg)
    predict = sv._predict
    monkeypatch.setattr(sv, "_predict", lambda instance: (
        predict(instance)[0] + (instance == inst), "generic ED degree"))
    ss = sv.solve(inst, "normal", cfg)
    assert ss.stats.start_kind == "seeded>weights"
    assert ss.stats.consistent()
    assert (ss.generic_count, ss.stats.n_lost, ss.predicted) == (7, 0, 8)
    assert _same_points(ss, plain)


def test_a_fill_whose_seeds_all_fail_tracks_no_loop(monkeypatch):
    # no seed path reaches the data: the fill stops at once instead of
    # tracking loops of zero rows, and the weight route finds every point
    inst = st.dense_instance(2, 3, 1, seed=6, s=2)
    track, rows = sv.track_batch, []

    def seed_batch_fails(hom, x0):
        rows.append(len(x0))
        if len(rows) == 1:
            return np.full(len(x0), sv.FAILED, dtype=np.int8), np.zeros_like(x0)
        return track(hom, x0)

    monkeypatch.setattr(sv, "track_batch", seed_batch_fails)
    ss = sv.solve(inst, "normal", sv.TrackerConfig(seed=6, charts=1))
    assert 0 not in rows
    assert ss.stats.start_kind == "seeded>weights" and ss.stats.consistent()
    assert ss.n_complex == ss.predicted == 7


@pytest.mark.parametrize("m, n, r, s", [
    (2, 2, 1, 0), (3, 3, 1, 0), (3, 3, 2, 0), (2, 4, 1, 0), (3, 4, 2, 0),
    (3, 3, 2, 1), (2, 3, 1, 2), (4, 4, 2, 0),
])
def test_auto_sends_every_dense_instance_to_normal(m, n, r, s):
    assert sv.default_formulation(st.dense_instance(m, n, r, seed=1, s=s)) == "normal"


def test_auto_solves_rey_through_normal():
    rey = st.load_dataset("rey")
    auto = sv.solve(rey, "auto", sv.TrackerConfig(seed=1))
    dual = sv.solve(rey, "dual-rank1", sv.TrackerConfig(seed=1))
    assert auto.stats.start_kind == "seeded"
    assert (auto.n_complex, auto.n_real, auto.n_local_min) == (39, 19, 7)
    assert auto.stats.n_converged == auto.stats.n_paths
    for p in auto.points:
        assert min(np.max(np.abs(p.X - q.X)) for q in dual.points) < 1e-6


# -- second-order classification ----------------------------------------------

def test_sectioned_rank_one_minima_respect_the_section():
    # the second-order test runs on rank one intersected with the section;
    # the Hessian of the unconstrained rank-one chart called these saddles
    inst = st.dense_instance(2, 2, 1, seed=12, s=1)
    ss = sv.solve(inst, "primal", sv.TrackerConfig(seed=12))
    assert (ss.n_real, ss.n_local_min) == (2, 2)
    inst = st.dense_instance(2, 3, 1, seed=6, s=2)
    ss = sv.solve(inst, "normal", sv.TrackerConfig(seed=6, charts=1))
    assert (ss.n_real, ss.n_local_min) == (3, 3)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hankel33_omega_in_the_mixed_normal_chart(seed):
    # the structured section in the generic kernel chart: the seeded fill
    # reaches the generic Hankel count
    inst = st.load_dataset("hankel33").with_weights(
        st.hankel_weights(5, "omega")).with_rank(2)
    ss = sv.solve(inst, "normal", sv.TrackerConfig(seed=seed))
    assert ss.stats.start_kind == "seeded"
    assert ss.n_complex == ss.predicted == 13


@pytest.mark.parametrize("kind, r, n_real, n_min", [
    ("ones", 1, 2, 1), ("omega", 1, 2, 1), ("theta", 1, 2, 2),
    ("ones", 2, 3, 2), ("omega", 2, 3, 2), ("theta", 2, 3, 2),
])
def test_hankel33_classes(kind, r, n_real, n_min):
    inst = st.load_dataset("hankel33").with_weights(
        st.hankel_weights(5, kind)).with_rank(r)
    ss = sv.solve(inst, "hankel-rank1" if r == 1 else "primal",
                  sv.TrackerConfig(seed=2))
    assert (ss.n_real, ss.n_local_min) == (n_real, n_min)


def test_sylvester_classes():
    inst = st.sylvester_instance(1, 2, 1, [3, -2], [1, 4, -5])
    ss = sv.solve(inst, "primal", sv.TrackerConfig(seed=1))
    assert (ss.n_real, ss.n_local_min) == (2, 1)


@pytest.mark.parametrize("seed, n_real, n_min", [(21, 3, 1), (22, 5, 2)])
def test_dense_corank_one_classes(seed, n_real, n_min):
    inst = st.dense_instance(3, 3, 2, seed=seed)
    ss = sv.solve(inst, "dual-rank1", sv.TrackerConfig(seed=seed, charts=1))
    assert (ss.n_real, ss.n_local_min) == (n_real, n_min)


# -- matchers -----------------------------------------------------------------

def test_matchers_on_planted_points():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))

    # each point, a near copy flagged singular (dropped) and a far copy (kept)
    entries = [(X.ravel(), X, 1e-12, flag)
               for M in base
               for X, flag in ((M, False), (M + 1e-9, True), (M + 1e-3, False))]
    kept = sv._dedup(entries, 1e-6)
    assert len(kept) == 8
    assert not any(e[3] for e in kept)

    # two conjugate pairs, one lone point, and a second copy of a conjugate
    # whose partner is already taken
    mats = [base[0], base[1], np.conj(base[0]) + 1e-9, base[2],
            np.conj(base[1]), np.conj(base[0])]
    nonreal = [sv.CriticalPoint(coords=X.ravel(), X=X, residual=0.0,
                                is_real=False) for X in mats]
    assert sv._conjugate_mismatch(nonreal, 1e-6) == 2

    # involution x <-> y: one orbit, one fixed point (no warning) and one
    # point whose partner is missing (one warning)
    system = PolySystem(variables=("x", "y"),
                        equations=[Poly.var(2, 0), Poly.var(2, 1)],
                        var_labels=("x", "y"),
                        reconstruct=lambda c: np.array([c]),
                        symmetry=lambda c: c[::-1])
    coords = [np.array([1.0, 2.0]), np.array([3.0, 3.0]),
              np.array([2.0, 1.0 + 1e-7]), np.array([4.0, 5.0])]
    points = [(c, np.array([c]), 0.0, False) for c in coords]
    warnings: list[str] = []
    folded = sv._fold_symmetry(points, system, 1e-6, warnings)
    assert [p[0].tolist() for p in folded] == [[1.0, 2.0], [3.0, 3.0], [4.0, 5.0]]
    assert warnings == ["unmatched symmetry partner; counting once"]


def test_matchers_match_the_pairwise_loops():
    # reference: the scalar comparison, applied pair by pair in a Python loop
    def close(a, b, tol):
        scale = 1.0 + max(np.max(np.abs(a)), np.max(np.abs(b)))
        return np.max(np.abs(a - b)) < tol * scale

    def dedup_loop(points, tol):
        kept = []
        for i in sorted(range(len(points)),
                        key=lambda i: (points[i][3], points[i][2], i)):
            if not any(close(points[i][1], k[1], tol) for k in kept):
                kept.append(points[i])
        return kept

    def unmatched_loop(mats, tol):
        used, unmatched = [False] * len(mats), 0
        for i in range(len(mats)):
            if used[i]:
                continue
            used[i] = True
            j = next((j for j in range(i + 1, len(mats)) if not used[j]
                      and close(mats[j], np.conj(mats[i]), tol)), None)
            if j is None:
                unmatched += 1
            else:
                used[j] = True
        return unmatched

    rng = np.random.default_rng(11)
    centers = 50 * (rng.normal(size=(6, 2, 3)) + 1j * rng.normal(size=(6, 2, 3)))
    mats = []
    for _ in range(60):
        M = centers[rng.integers(6)]
        M = np.conj(M) if rng.random() < 0.5 else M
        mats.append(M + 10.0 ** rng.uniform(-8, -3) * rng.normal(size=M.shape))
    points = [(X.ravel(), X, float(rng.random()), bool(rng.random() < 0.3))
              for X in mats]
    for tol in (1e-6, 1e-5):
        assert [id(p) for p in sv._dedup(points, tol)] == \
            [id(p) for p in dedup_loop(points, tol)]
        nonreal = [sv.CriticalPoint(coords=X.ravel(), X=X, residual=0.0,
                                    is_real=False) for X in mats]
        assert sv._conjugate_mismatch(nonreal, tol) == unmatched_loop(mats, tol)
