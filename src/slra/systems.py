"""Critical-point polynomial systems for weighted low-rank approximation.

Each builder returns a PolySystem: sparse complex-coefficient equations
(``polyarith.Poly``) over named variables, plus the metadata the solver
needs (variable group labels for multihomogeneous starts, the chart map back
to a matrix and, for the normal-space charts, its inverse ``lift``,
degenerate-locus predicates, a symmetry fold, and the scalar potential whose
gradient the equations realize, used by the finite-difference tests).

Formulations:

  primal_corank1    determinant + Lagrange rows, square matrices of corank 1
                    (dense matrix coordinates or a square structured family)
  normal_space      kernel charts + multipliers for any rank, family and
                    linear section (the x block holds the m n matrix entries)

and the parametrised charts, each the gradient of sum_k w_k (phi_k - u_k)^2
over chart polynomials phi (``_chart_system``):

  dual_rank1        rank-one chart of the Hadamard-dual problem, for corank one
                    (rank1_direct: the same chart for rank one)
  hankel_rank1      the two-variable chart x_k = s t^k of rank-one Hankels
  catalecticant_rank2  six-parameter chart of rank-2 ternary-quartic tensors

Every builder takes an Instance first, reads everything from it and checks
its own rank, family and section rules: the coordinates of
``instance.structure()`` (dense is the identity structure, one coordinate
per matrix position), each carrying the summed weight of the positions it
fills, and the linear space of ``instance.section()``.  Every chart map
returns the instance's matrix X.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable

import numpy as np

from .polyarith import Poly
from .structured import Instance, catalecticant_structure


def poly_det(entries: list[list[Poly]]) -> Poly:
    """Determinant of a square grid of polynomials (subset DP over columns)."""
    n = len(entries)
    nvars = entries[0][0].n
    state: dict[int, Poly] = {0: Poly.const(nvars, 1.0)}
    for row in range(n):
        nxt: dict[int, Poly] = {}
        for mask, acc in state.items():
            # sign of placing this row at `col`: parity of used columns > col
            sign = -1.0 if row % 2 else 1.0
            for col in range(n):
                bit = 1 << col
                if mask & bit:
                    sign = -sign
                    continue
                p = entries[row][col]
                if p.is_zero():
                    continue
                key = mask | bit
                term = acc * p * sign if sign < 0 else acc * p
                if key in nxt:
                    nxt[key] = nxt[key] + term
                else:
                    nxt[key] = term
        state = nxt
    return state.get((1 << n) - 1, Poly.const(nvars, 0.0))


@dataclass
class PolySystem:
    """A square or overdetermined system plus solver-facing metadata."""

    variables: tuple[str, ...]
    equations: list[Poly]
    var_labels: tuple[str, ...]                 # one group label per variable
    reconstruct: Callable[[np.ndarray], np.ndarray]
    instance: Instance | None = None
    degenerate: Callable[[np.ndarray, np.ndarray, float], bool] | None = None
    symmetry: Callable[[np.ndarray], np.ndarray] | None = None  # an involution
    potential: Poly | None = None
    grad_map: tuple[int | None, ...] | None = None  # var index -> equation index
    chart_tag: str = "default"
    # equations whose block carries the overdeterminacy (polynomial syzygies);
    # squaring-up must randomize inside this block, or the squared Jacobian
    # degenerates at every solution
    merge_block: tuple[int, ...] | None = None
    # inverse chart map of the normal-space charts: batches (X, N) of rank-r
    # matrices and normal vectors -> chart coordinates
    lift: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if len(self.equations) < len(self.variables):
            raise ValueError("system has fewer equations than variables")
        if len(self.var_labels) != len(self.variables):
            raise ValueError("one group label per variable is required")

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def overdetermined(self) -> bool:
        return len(self.equations) > len(self.variables)

    def label_indices(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for i, lab in enumerate(self.var_labels):
            out.setdefault(lab, []).append(i)
        return out



# ---------------------------------------------------------------------------
# Weighted objective helpers
# ---------------------------------------------------------------------------

def objective(X: np.ndarray, U: np.ndarray, Lam: np.ndarray) -> complex:
    """The weighted squared distance sum lambda_ij (x_ij - u_ij)^2 (algebraic,
    no conjugation: real for real X, the quantity whose critical points are
    being counted)."""
    D = np.asarray(X) - np.asarray(U)
    return complex(np.sum(np.asarray(Lam) * D * D))


def unit_weight_critical_count(m: int, n: int, r: int) -> int:
    """Critical points of the unit-weight unconstrained problem: one per
    choice of r singular values to keep."""
    return comb(min(m, n), r)


def dual_transfer(X: np.ndarray, Lam: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Hadamard transfer to the dual problem: Y = Lam * U - Lam * X."""
    return np.asarray(Lam) * (np.asarray(U) - np.asarray(X))


def inverse_transfer(Y: np.ndarray, Lam: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Inverse of dual_transfer: X = U - Y / Lam (entrywise)."""
    return np.asarray(U) - np.asarray(Y) / np.asarray(Lam)


def _linear(p: Poly, terms) -> Poly:
    """p + sum cf * x_idx over the (cf, idx) pairs whose cf is nonzero."""
    for cf, idx in terms:
        if cf:
            p = p + cf * Poly.var(p.n, idx)
    return p


def _affine_polys(C: np.ndarray, c: np.ndarray, nvars: int) -> list[Poly]:
    """The rows of C x + c as polynomials in the first C.shape[1] variables."""
    return [_linear(Poly.const(nvars, const), zip(row, range(nvars)))
            for row, const in zip(C.tolist(), c.tolist())]


def _squares(polys: list[Poly], weights: list[float], data: list[float],
             nvars: int) -> Poly:
    """sum_k w_k (p_k - u_k)^2, added up in order."""
    total = Poly.const(nvars, 0.0)
    for p, w, u in zip(polys, weights, data):
        d = p - u
        total = total + w * (d * d)
    return total


def _coordinates(instance: Instance) -> tuple[list[float], list[float]]:
    """Each structure coordinate's summed weight and its data value."""
    st = instance.structure()
    return ([float(x) for x in st.coordinate_weights(instance.weights)],
            [float(x) for x in st.coords_from_matrix(instance.data_array())])


def _chart_system(instance: Instance, variables: tuple[str, ...],
                  labels: tuple[str, ...], chart: list[Poly], weights: list[float],
                  data: list[float], to_matrix: Callable[[np.ndarray], np.ndarray],
                  degenerate: Callable[[np.ndarray, np.ndarray, float], bool],
                  symmetry: Callable[[np.ndarray], np.ndarray] | None = None,
                  chart_tag: str = "default") -> PolySystem:
    """Gradient system of g = sum_k w_k (phi_k - u_k)^2 over the chart
    polynomials phi; to_matrix takes their values to the instance's X."""
    nvars = len(variables)
    g = _squares(chart, weights, data, nvars)

    def rec(coords: np.ndarray) -> np.ndarray:
        return to_matrix(np.array([phi.eval(coords) for phi in chart]))

    return PolySystem(
        variables=variables, equations=[g.diff(i) for i in range(nvars)],
        var_labels=labels, reconstruct=rec, instance=instance,
        degenerate=degenerate, symmetry=symmetry, potential=g,
        grad_map=tuple(range(nvars)), chart_tag=chart_tag,
    )


# ---------------------------------------------------------------------------
# Formulation builders
# ---------------------------------------------------------------------------

def primal_corank1(instance: Instance) -> PolySystem:
    """Determinant formulation for square corank-one problems.

    Variables: the instance coordinates plus multipliers z_0..z_s.  Equations:
    det X = 0, the constraints, and for every coordinate the Lagrange row
    z_0 d(det)/dx + sum_k z_k dL_k/dx + weight * (x - u) = 0.  All equations
    together are the gradient of
      Phi = z_0 det X + sum_k z_k L_k + (1/2) sum weight (x - u)^2.
    """
    if instance.m != instance.n:
        raise ValueError("corank-one formulation needs a square matrix")
    if instance.r != instance.n - 1:
        raise ValueError("corank-one formulation needs rank = n - 1")
    if instance.constraints and instance.family != "dense":
        raise ValueError("structured families do not take extra constraints")

    st = instance.structure()
    names = st.coord_names
    weights, data = _coordinates(instance)
    ncoords = len(names)
    s = len(instance.constraints)
    nvars = ncoords + s + 1
    variables = names + tuple(f"z{k}" for k in range(s + 1))
    labels = ("x",) * ncoords + ("z",) * (s + 1)

    det = poly_det([[Poly.const(nvars, 0.0) if c is None else Poly.var(nvars, c)
                     for c in row] for row in st.grid])
    # a dense section: its rows over vec(X) are rows over the coordinates
    C, const = instance.section()
    constraint_polys = _affine_polys(C[:s], const[:s], nvars)

    equations = [det] + list(constraint_polys)
    for c in range(ncoords):
        eq = Poly.var(nvars, ncoords) * det.diff(c)
        for k, cp in enumerate(constraint_polys):
            eq = eq + Poly.var(nvars, ncoords + 1 + k) * cp.diff(c)
        eq = eq + weights[c] * (Poly.var(nvars, c) - data[c])
        equations.append(eq)

    half = _squares([Poly.var(nvars, c) for c in range(ncoords)],
                    [0.5 * w for w in weights], data, nvars)
    potential = Poly.var(nvars, ncoords) * det + half
    for k, cp in enumerate(constraint_polys):
        potential = potential + Poly.var(nvars, ncoords + 1 + k) * cp
    grad_map = tuple([1 + s + c for c in range(ncoords)] + [0]
                     + [1 + k for k in range(s)])

    return PolySystem(
        variables=variables, equations=equations, var_labels=labels,
        reconstruct=st.matrix_from_coords,
        instance=instance, potential=potential, grad_map=grad_map,
    )


def _rank_one_chart(instance: Instance, U: np.ndarray, Lam: np.ndarray,
                    col_mix: np.ndarray | None,
                    to_matrix: Callable[[np.ndarray], np.ndarray]) -> PolySystem:
    """Gradient system of sum (y_ij - lambda_ij u_ij)^2 / lambda_ij on the
    rank-one chart y_ij = t_i v_j, v = col_mix @ (1, z_1, .., z_{n-1}).

    col_mix defaults to the identity (the plain chart v = (1, z)); a random
    invertible mix gives a second chart that covers rank-one matrices whose
    first column vanishes.  The cone point y = 0 is degenerate.
    """
    if instance.section()[1].size:
        raise ValueError("the rank-one chart does not support linear sections "
                         "(constraints or a structured family)")
    m, n = U.shape
    nvars = m + n - 1
    variables = tuple(f"t{i+1}" for i in range(m)) + tuple(f"z{j}" for j in range(1, n))
    labels = ("t",) * m + ("z",) * (n - 1)
    C = np.eye(n, dtype=complex) if col_mix is None else np.asarray(col_mix, dtype=complex)

    # v_j as affine-linear polys in z, coefficients as Python numbers
    v = [_linear(Poly.const(nvars, row[0]), zip(row[1:], range(m, nvars)))
         for row in C.tolist()]
    chart = [Poly.var(nvars, i) * v[j] for i in range(m) for j in range(n)]
    scale = float(np.max(np.abs(Lam * U))) + 1.0

    def degen(coords, X, tol):
        Y = np.array([phi.eval(coords) for phi in chart])
        return bool(np.max(np.abs(Y)) < tol * scale)

    return _chart_system(
        instance, variables, labels, chart, (1.0 / Lam).ravel().tolist(),
        (Lam * U).ravel().tolist(), lambda vec: to_matrix(vec.reshape(m, n)),
        degen, chart_tag="default" if col_mix is None else "mixed")


def dual_rank1(instance: Instance, col_mix: np.ndarray | None = None) -> PolySystem:
    """The corank-one problem through its Hadamard dual: X is critical for
    the data U and weights Lam exactly when Y = Lam * (U - X) is critical for
    the rank-one problem with data Lam * U and weights 1 / Lam, so the chart
    is the rank-one chart in Y and its map returns X = U - Y / Lam.
    """
    if instance.r != min(instance.m, instance.n) - 1:
        raise ValueError("the dual rank-one chart needs corank one")
    U, Lam = instance.data_array(), instance.weights.as_array()
    return _rank_one_chart(instance, U, Lam, col_mix,
                           lambda Y: inverse_transfer(Y, Lam, U))


def rank1_direct(instance: Instance, col_mix: np.ndarray | None = None) -> PolySystem:
    """Gradient system for min sum lambda (x - u)^2 over rank-one matrices:
    the dual objective for the data (Lam * U, 1 / Lam) is exactly this one,
    so the chart is the same and its values are X.
    """
    if instance.r != 1:
        raise ValueError("the direct rank-one chart needs rank one")
    U, Lam = instance.data_array(), instance.weights.as_array()
    return _rank_one_chart(instance, Lam * U, 1.0 / Lam, col_mix, lambda X: X)


def _kernel_columns(mix: np.ndarray, k: int, offset: int, nvars: int) -> list[list[Poly]]:
    """The k columns of mix @ [[I_k], [v]] as polys, v the block of variables
    from ``offset`` on (row-major, k per row)."""
    r = len(mix) - k
    return [[_linear(Poly.const(nvars, row[col]),
                     ((row[k + vi], offset + vi * k + col) for vi in range(r)))
             for row in mix.tolist()] for col in range(k)]


def normal_space(instance: Instance, left_mix: np.ndarray | None = None,
                 right_mix: np.ndarray | None = None) -> PolySystem:
    """Kernel-chart formulation for rank <= r on the instance's section.

    Y (m x (m-r), identity block on top) spans the left kernel and
    Z (n x (n-r), identity block on top) the right kernel; the products of
    their columns span the normal space of the rank-r manifold.  Equations:
    Y^t X = 0, X Z = 0, the constraints, and the mn Lagrange rows
    [w 1] . [N; dL; lambda (x - u)] = 0.  Overdetermined by (m-r)(n-r).

    Any family: x holds the m n matrix entries, and ``instance.section()``
    adds the family's own linear conditions to the constraints.

    Optional left/right mixes replace the identity blocks by a generic chart;
    solving in a second chart recovers points whose kernels are not graded
    compatibly with the plain one.
    """
    m, n, r = instance.m, instance.n, instance.r
    C, const = instance.section()
    s = len(const)
    a, b = m - r, n - r
    n_x, n_y, n_z, n_w = m * n, r * a, r * b, a * b + s
    nvars = n_x + n_y + n_z + n_w
    variables = (tuple(f"x{i+1}{j+1}" for i in range(m) for j in range(n))
                 + tuple(f"y{i+1}{j+1}" for i in range(r) for j in range(a))
                 + tuple(f"z{i+1}{j+1}" for i in range(r) for j in range(b))
                 + tuple(f"w{k+1}" for k in range(n_w)))
    labels = ("x",) * n_x + ("y",) * n_y + ("z",) * n_z + ("w",) * n_w

    def xv(i, j):
        return Poly.var(nvars, i * n + j)

    ML = np.eye(m, dtype=complex) if left_mix is None else np.asarray(left_mix, dtype=complex)
    MR = np.eye(n, dtype=complex) if right_mix is None else np.asarray(right_mix, dtype=complex)
    lam = instance.weights.as_array().ravel().tolist()
    u = instance.data_array().ravel().tolist()
    # Y = ML @ [[I_a], [y]] and Z = MR @ [[I_b], [z]]
    ycols = _kernel_columns(ML, a, n_x, nvars)
    zcols = _kernel_columns(MR, b, n_x + n_y, nvars)
    zero = Poly.const(nvars, 0.0)

    # Y^t X = 0 (a x n), then X Z = 0 (m x b)
    equations = [sum((ycols[k][i] * xv(i, j) for i in range(m)), zero)
                 for k in range(a) for j in range(n)]
    equations += [sum((xv(i, j) * zcols[k][j] for j in range(n)), zero)
                  for i in range(m) for k in range(b)]
    # the section
    constraint_polys = _affine_polys(C, const, nvars)
    equations.extend(constraint_polys)

    # Lagrange rows: one per matrix position
    w_off = n_x + n_y + n_z
    lagrange_start = len(equations)
    for p in range(n_x):
        i, j = divmod(p, n)
        eq = lam[p] * (xv(i, j) - u[p])
        for kz in range(b):
            for ky in range(a):
                widx = w_off + kz * a + ky
                eq = eq + Poly.var(nvars, widx) * (ycols[ky][i] * zcols[kz][j])
        equations.append(_linear(eq, zip(C[:, p].tolist(), range(w_off + a * b, nvars))))

    potential = _squares([Poly.var(nvars, p) for p in range(n_x)],
                         [0.5 * x for x in lam], u, nvars)
    for kz in range(b):
        for ky in range(a):
            inner = sum(((ycols[ky][i] * zcols[kz][j]) * xv(i, j)
                         for i in range(m) for j in range(n)), zero)
            potential = potential + Poly.var(nvars, w_off + kz * a + ky) * inner
    for q, cp in enumerate(constraint_polys):
        potential = potential + Poly.var(nvars, w_off + a * b + q) * cp
    grad_map = tuple(
        [lagrange_start + k for k in range(m * n)]
        + [None] * (n_y + n_z + n_w))

    # absolute scale: for r = 1 the ratio sv[r-1] / sv[0] is always 1, which
    # would let the cone point X = 0 (on every linear section) through
    data_scale = 1.0 + float(np.max(np.abs(instance.data_array())))

    def degen(coords, X, tol):
        sv = np.linalg.svd(X, compute_uv=False)
        return bool(sv[r - 1] < tol * max(sv[0], data_scale))

    ML_inv, MR_inv = np.linalg.inv(ML), np.linalg.inv(MR)

    def lift(X, N):
        # the kernels of X, normalised to this chart: ML^-1 Y = [I; y] and
        # MR^-1 Z = [I; z]; then the multipliers of N = Y W Z^t + sum w_q C_q
        k = X.shape[0]
        Y = _kernel(np.swapaxes(X, 1, 2), a)
        Z = _kernel(X, b)
        Y = Y @ np.linalg.inv((ML_inv @ Y)[:, :a])
        Z = Z @ np.linalg.inv((MR_inv @ Z)[:, :b])
        G = np.einsum("kiy,kjz->kijzy", Y, Z).reshape(k, m * n, a * b)
        G = np.concatenate([G, np.broadcast_to(C.T, (k, m * n, s))], axis=2)
        w = (np.linalg.pinv(G) @ N.reshape(k, m * n, 1))[..., 0]
        return np.concatenate([X.reshape(k, -1), (ML_inv @ Y)[:, a:].reshape(k, -1),
                               (MR_inv @ Z)[:, b:].reshape(k, -1), w], axis=1)

    # (Y^t X) Z = Y^t (X Z) identically: the a*b syzygies live in the
    # bilinear block, whose equations must absorb the squaring reduction
    bilinear = tuple(range(a * n + m * b))

    return PolySystem(
        variables=variables, equations=equations, var_labels=labels,
        reconstruct=lambda coords: np.array(coords[:n_x]).reshape(m, n),
        instance=instance, degenerate=degen,
        potential=potential, grad_map=grad_map,
        chart_tag="default" if left_mix is None and right_mix is None else "mixed",
        merge_block=bilinear, lift=lift,
    )


def _kernel(M: np.ndarray, k: int) -> np.ndarray:
    """(K, q, k) bases of the right null spaces of a stack of rank-deficient
    (K, p, q) matrices: v with M v = 0, no conjugation."""
    return np.swapaxes(np.linalg.svd(M)[2][:, M.shape[2] - k:].conj(), 1, 2)


def normal_space_seeds(instance: Instance, k: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Up to k random critical pairs (X, N) for the linear inverse of the problem.

    X = A B of rank r lies on the section: A random and B corrected by least
    norms, or, where that solves a square M(A) B = 0 (linear, s = r n), A on
    random lines A0 + tau A1 with tau and B the eigenpairs of the pencil
    (M(A0), -M(A1)).  With s > r n no pairs exist.  N = Y W Z^t + sum w_q C_q
    is a random normal vector at X.  X is then a critical point for the data
    X + N / Lam, with multipliers read off N by the chart's ``lift``.  Both
    are scaled to the mean |U|.
    """
    m, n, r = instance.m, instance.n, instance.r
    C, const = instance.section()
    s = len(const)
    C = C.reshape(s, m, n)
    Lam = instance.weights.as_array()
    scale = float(np.mean(np.abs(instance.data_array()))) or 1.0

    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def M(A):
        # sum_ij C_qij (A B)_ij = sum_lj (A^t C_q)_lj B_lj is linear in B
        return np.einsum("kil,qij->kqlj", A, C).reshape(len(A), s, r * n)

    if s > r * n:
        none = np.zeros((0, m, n), dtype=complex)
        return none, none
    if s == r * n and not const.any():
        from scipy.linalg import eig

        lines = -(-k // s)
        A0, A1 = cnormal(lines, m, r), cnormal(lines, m, r)
        A, B = [], []
        for a0, a1, m0, m1 in zip(A0, A1, M(A0), M(A1)):
            tau, vec = eig(m0, -m1)
            for t, v in zip(tau, vec.T):
                if np.isfinite(t):
                    A.append(a0 + t * a1)
                    B.append(v.reshape(r, n))
        X = np.array(A[:k]) @ np.array(B[:k])
        X *= scale / np.mean(np.abs(X), axis=(1, 2), keepdims=True)
    else:
        A = cnormal(k, m, r)
        B = cnormal(k, r, n) * (scale / np.sqrt(2.0 * r))
        if s:
            MA = M(A)
            gap = -const[None, :, None] - MA @ B.reshape(k, r * n, 1)
            B = B + (np.linalg.pinv(MA) @ gap).reshape(k, r, n)
        X = A @ B
    k = len(X)
    Y = _kernel(np.swapaxes(X, 1, 2), m - r)
    Z = _kernel(X, n - r)
    N = (Y @ cnormal(k, m - r, n - r) @ np.swapaxes(Z, 1, 2)
         + np.einsum("kq,qij->kij", cnormal(k, s), C))
    N *= scale / np.mean(np.abs(N / Lam), axis=(1, 2), keepdims=True)
    return X, N


def hankel_rank1(instance: Instance) -> PolySystem:
    """Gradient system in (s, t) for rank-one Hankel approximation.

    The chart x_k = s t^k parametrizes rank-one Hankel matrices of the
    instance's order n; critical points with t = 0 are excluded by the
    degenerate predicate.
    """
    if instance.family != "hankel":
        raise ValueError("the rank-one Hankel chart needs a Hankel instance")
    if instance.constraints:
        raise ValueError("structured families do not take extra constraints")
    st = instance.structure()
    sv, tv = Poly.var(2, 0), Poly.var(2, 1)
    tpow = [Poly.const(2, 1.0)]
    for _ in range(st.n_coords - 1):
        tpow.append(tpow[-1] * tv)

    def degen(coords, X, tol):
        # t = 0 hits the chart boundary; s = 0 collapses to the cone point
        # (X = 0, a singular point of the variety): both are excluded
        scale = 1.0 + float(np.max(np.abs(coords)))
        return bool(abs(coords[1]) < tol * scale or abs(coords[0]) < tol * scale)

    return _chart_system(instance, ("s", "t"), ("s", "t"), [sv * tp for tp in tpow],
                         *_coordinates(instance), st.matrix_from_coords, degen)


# Catalecticant chart: each coordinate as a polynomial in (a, b, c, d, e, f).
# Monomials of the quartic (s + b t + c u)^4 contribute b^i c^j to "4-i-j".
def _catalecticant_chart_polys() -> list[Poly]:
    av, bv, cv, dv, ev, fv = (Poly.var(6, i) for i in range(6))
    out: list[Poly] = []
    for name in catalecticant_structure().coord_names:
        _, i, j = (int(ch) for ch in name)
        term1 = av
        term2 = dv
        for _ in range(i):
            term1 = term1 * bv
            term2 = term2 * ev
        for _ in range(j):
            term1 = term1 * cv
            term2 = term2 * fv
        out.append(term1 + term2)
    return out


def catalecticant_rank2(instance: Instance) -> PolySystem:
    """Gradient system of the rank-2 tensor objective in the 2-to-1 chart
    a (s + b t + c u)^4 + d (s + e t + f u)^4.

    Each coefficient's objective weight is its summed weight in the
    instance's weight matrix (the tensor metric gives the 1/6/4/12 pattern).
    The chart double-covers the rank-2 locus via (a,b,c) <-> (d,e,f), so
    reported counts are half the filtered solution count; the degenerate
    locus is ad = 0 or (b,c) = (e,f).
    """
    if instance.family != "catalecticant":
        raise ValueError("the rank-2 catalecticant chart needs a catalecticant instance")
    if instance.constraints:
        raise ValueError("structured families do not take extra constraints")

    def degen(coords, X, tol):
        a, b, c, d, e, f = coords
        scale = 1.0 + float(np.max(np.abs(coords)))
        on_ad = abs(a * d) < tol * scale * scale
        on_diag = max(abs(b - e), abs(c - f)) < tol * scale
        return bool(on_ad or on_diag)

    def swap(coords: np.ndarray) -> np.ndarray:
        a, b, c, d, e, f = coords
        return np.array([d, e, f, a, b, c])

    return _chart_system(instance, ("a", "b", "c", "d", "e", "f"),
                         ("a", "b", "c", "a", "b", "c"),
                         _catalecticant_chart_polys(), *_coordinates(instance),
                         instance.structure().matrix_from_coords, degen, swap)
