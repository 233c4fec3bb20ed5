"""Homotopy continuation solver for the critical-point systems.

Total-degree and multihomogeneous start systems, gamma-trick path tracking
(RK4 predictor on the Davidenko ODE + Newton corrector with adaptive steps),
endpoint refinement on the original (unsquared) system, residual and
degenerate-locus filtering, symmetry folding, deduplication, realness, and
count reconciliation against the exact ED-degree engine.  Every real point
is classified by one projected Lagrangian Hessian in a rank-factor chart of
the rank-r matrices, whatever the family or formulation.

Every solve tracks one chart.  The normal-space chart is mixed by random
unitary matrices, so it holds every critical point, also those whose
kernels a coordinate chart misses (diagonal data put them there).  Its
seed batch, loop legs and weight route are one parameter homotopy of its
one compiled squared system (`_correction`: the data U and weights Lam enter
only the Lagrange rows, as a per-row diagonal term and constant).  Given
the exact count d, 2d seeds, exact critical points of their own data from
the linear inverse of the problem, are carried to U, and monodromy loops
through random complex data permute the fibre until d points are known
(Morgan & Sommese's coefficient-parameter theorem: no instance has more
nonsingular isolated critical points than d, so stopping there hides
none).  Dense charts whose count is only an upper bound, or unknown, take
the weight route: the fibre filled at random generic weights is carried to
Lam, and the paths that diverge are critical points lost to infinity
(``PathStats.start_kind`` reads ``weights``, or ``seeded>weights`` after a
fill that stalled STALL_LOOPS loops in a row without a new point).  A
multihomogeneous or total-degree start runs only where the fill at generic
weights stalls too (``seeded>mh:...``, in the plain normal-space chart,
whose sparser equations need fewer start paths) and for charts without a
lift, CHUNK start points at a time.  The start system, the seed batch and
the weight route keep their endpoints (converged or singular) through one
step, ``_endpoints``.

Paths are tracked in vectorized batches: the per-path adaptive state lives in
flat numpy arrays and every predictor/corrector stage is a batched polynomial
evaluation plus a batched linear solve; results are canonically sorted at
the end.

Tolerances and step limits are module constants (TRACK_TOL ... DIV_THRESHOLD
below); a ``TrackerConfig`` carries only the seed.  A path ends DIVERGED
past DIV_THRESHOLD, FAILED below MIN_STEP or at MAX_STEPS, and one end step
per batch (`_endgame`) runs Newton at t = 1 on the paths that reached it:
CONVERGED, else SINGULAR, or DIVERGED past a norm of 1e5 (1e4 for a FAILED
path).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from functools import partial
from itertools import product as iter_product
from typing import Callable, Iterator, Sequence

import numpy as np

from . import eddegree, systems
from .structured import Instance, WeightMatrix, hankel_weights
from .polyarith import Poly
from .systems import PolySystem

ACTIVE, CONVERGED, DIVERGED, SINGULAR, FAILED = 0, 1, 2, 3, 4


# Tolerances and step limits of every solve
TRACK_TOL = 1e-8         # mid-path corrector; endpoints are re-polished
NEWTON_TOL = 1e-12       # endpoint Newton and refinement step size
DEDUP_TOL = 1e-6         # matrix-space distance of one point
REAL_TOL = 1e-8          # imaginary part of a real point
MIN_STEP = 1e-14
MAX_STEP = 0.1
MAX_STEPS = 10_000
CHUNK = 6000             # start points per tracked batch
MAX_PATHS = 500_000
DIV_THRESHOLD = 1e8      # coordinate norm of a diverging path
DRAW_KEY = zlib.crc32(b"default")  # rng key of every chart's square-up and fill


@dataclass(frozen=True)
class TrackerConfig:
    """The settings of one solver run; the seed fixes every random choice.

    ``charts`` is read by nothing, since every solve tracks one chart; it
    stays because the benchmark's workloads still pass it.
    """

    seed: int = 0
    charts: int = 2

    def gamma(self) -> complex:
        u = float(np.random.default_rng(self.seed ^ 0x5EED).uniform(0.05, 0.95))
        if abs(u - 0.5) < 0.03:  # keep gamma safely off the real axis
            u += 0.06
        return complex(np.exp(2j * np.pi * u))


# ---------------------------------------------------------------------------
# Compilation: batched evaluation of a polynomial system and its Jacobian
# ---------------------------------------------------------------------------

class CompiledSystem:
    """Shared-monomial-basis evaluator for F and dF over path batches.

    Each monomial is stored as its nonzero factors x_v^e in ascending
    variable order, front-padded with the factor 1 to the largest support,
    as flat indices into a (maxdeg+1, nvars) power table.  One evaluation
    costs maxdeg multiplications to fill the table and one gather-multiply
    per factor slot, whatever the number of variables and monomials.
    """

    def __init__(self, equations: Sequence[Poly], nvars: int):
        self.nvars = nvars
        self.neqs = len(equations)
        derivs = [[eq.diff(v) for v in range(nvars)] for eq in equations]
        monomials: dict[tuple[int, ...], int] = {}

        def touch(p: Poly):
            for e in p.terms:
                if e not in monomials:
                    monomials[e] = len(monomials)

        for eq in equations:
            touch(eq)
        for row in derivs:
            for p in row:
                touch(p)
        self.nm = len(monomials)
        self.exps = np.zeros((self.nm, nvars), dtype=np.int64)
        for e, idx in monomials.items():
            self.exps[idx] = e
        self.maxdeg = int(self.exps.max()) if self.exps.size else 0
        # _factor_idx[j, m] = e * nvars + v; padding first (index 0, x_0^0 = 1)
        # keeps the products in per-variable order, hence bitwise the same
        support = [np.nonzero(row)[0] for row in self.exps]
        width = max((len(s) for s in support), default=0)
        self._factor_idx = np.zeros((width, self.nm), dtype=np.intp)
        for mono, vars_ in enumerate(support):
            self._factor_idx[width - len(vars_):, mono] = \
                self.exps[mono, vars_] * nvars + vars_

        from scipy.sparse import csr_matrix

        def pack(polys: list[Poly], width: int) -> csr_matrix:
            rows, cols, vals = [], [], []
            for j, p in enumerate(polys):
                for e, c in p.terms.items():
                    rows.append(monomials[e])
                    cols.append(j)
                    vals.append(c)
            return csr_matrix((np.array(vals, dtype=complex),
                               (np.array(rows, dtype=np.int64),
                                np.array(cols, dtype=np.int64))),
                              shape=(self.nm, width))

        self._cf = pack(list(equations), self.neqs)
        flat = [derivs[i][v] for i in range(self.neqs) for v in range(nvars)]
        self._cj = pack(flat, self.neqs * nvars)
        self._cft = self._cf.T.tocsr()
        self._cjt = self._cj.T.tocsr()
        self.coeff_scale = max((abs(c) for eq in equations
                                for c in eq.terms.values()), default=1.0)

    def monomial_values(self, x: np.ndarray) -> np.ndarray:
        """(nm, N) values of every monomial at each batch point (transposed
        layout keeps the gather-multiply passes contiguous)."""
        n = x.shape[0]
        pows = np.empty((self.maxdeg + 1, self.nvars, n), dtype=x.dtype)
        pows[0] = 1
        xt = x.T
        for k in range(1, self.maxdeg + 1):
            np.multiply(pows[k - 1], xt, out=pows[k])
        table = pows.reshape((self.maxdeg + 1) * self.nvars, n)
        v = np.ones((self.nm, n), dtype=x.dtype)
        for idx in self._factor_idx:
            v *= table[idx]
        return v

    def eval(self, x: np.ndarray, mv: np.ndarray | None = None) -> np.ndarray:
        if mv is None:
            mv = self.monomial_values(x)
        return np.asarray(self._cft.dot(mv.astype(complex, copy=False))).T

    def jac(self, x: np.ndarray, mv: np.ndarray | None = None) -> np.ndarray:
        if mv is None:
            mv = self.monomial_values(x)
        flat = np.asarray(self._cjt.dot(mv.astype(complex, copy=False))).T
        return np.ascontiguousarray(flat).reshape(x.shape[0], self.neqs, self.nvars)

    def eval_and_jac(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mv = self.monomial_values(x)
        return self.eval(x, mv), self.jac(x, mv)


# ---------------------------------------------------------------------------
# Start systems
# ---------------------------------------------------------------------------

class PowerStart:
    """Start system x_i^{d_i} - c_i, evaluated in closed form."""

    def __init__(self, degrees: Sequence[int], constants: np.ndarray):
        self.degrees = np.array(degrees, dtype=np.int64)
        self.constants = np.asarray(constants)
        self.nvars = len(degrees)

    def eval_and_jac(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = x.shape[0]
        powm1 = x ** (self.degrees - 1)[None, :]
        vals = powm1 * x - self.constants[None, :]
        jac = np.zeros((n, self.nvars, self.nvars), dtype=x.dtype)
        idx = np.arange(self.nvars)
        jac[:, idx, idx] = self.degrees[None, :] * powm1
        return vals, jac


def total_degree_start(equations: Sequence[Poly], rng: np.random.Generator):
    """x_i^{d_i} - c_i with random unit-modulus c_i, and its roots."""
    nvars = len(equations)
    degrees = [eq.degree() for eq in equations]
    if any(d <= 0 for d in degrees):
        raise ValueError("zero-degree equation in start system")
    total = math.prod(degrees)
    if total > MAX_PATHS:
        raise ValueError(f"total-degree start needs {total} paths "
                         f"(> max_paths {MAX_PATHS})")
    phases = rng.uniform(0.0, 1.0, size=nvars)
    c = np.exp(2j * np.pi * phases)
    roots = [c[i] ** (1.0 / degrees[i])
             * np.exp(2j * np.pi * np.arange(degrees[i]) / degrees[i])
             for i in range(nvars)]
    return PowerStart(degrees, c), np.array(list(iter_product(*roots)), dtype=complex)


def mh_bezout(degree_matrix: Sequence[Sequence[int]], sizes: Sequence[int]) -> int:
    """Multihomogeneous root count: coefficient of prod zeta_g^{sizes_g} in
    prod_i (sum_g D[i][g] zeta_g), via dynamic programming."""
    sizes = tuple(int(s) for s in sizes)
    state: dict[tuple[int, ...], int] = {tuple(0 for _ in sizes): 1}
    for row in degree_matrix:
        nxt: dict[tuple[int, ...], int] = {}
        for used, ways in state.items():
            for g, d in enumerate(row):
                if d <= 0 or used[g] >= sizes[g]:
                    continue
                key = tuple(u + (1 if i == g else 0) for i, u in enumerate(used))
                nxt[key] = nxt.get(key, 0) + ways * d
        state = nxt
        if not state:
            return 0
    return state.get(sizes, 0)


def set_partitions(items: Sequence) -> list[list[list]]:
    items = list(items)
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for part in set_partitions(rest):
        out.append([[first]] + [list(b) for b in part])
        for i in range(len(part)):
            blocks = [list(b) for b in part]
            blocks[i] = [first] + blocks[i]
            out.append(blocks)
    return out


class MultihomogStart:
    """Products of random affine-linear group factors, with start points
    obtained from block linear solves.

    Evaluation uses the product structure directly (prefix/suffix products
    for the Jacobian), never the expanded polynomials.  Every equation's
    factor list is padded to the longest one, F factors, with the factor
    0 . x + 1; the factors are stored factor-major as (F*ne, nvars) full-width
    rows, so factor k of every equation is one contiguous (ne, N) slice and
    one evaluation costs O(F) array operations, whatever ne and nvars are.
    """

    def __init__(self, equations: Sequence[Poly], groups: list[list[int]],
                 nvars: int, rng: np.random.Generator):
        self.nvars = nvars
        self.groups = groups
        self.deg = [[eq.degree_on(g) for g in groups] for eq in equations]
        self.count = mh_bezout(self.deg, [len(g) for g in groups])
        ne = len(equations)
        nfactors = max((sum(row) for row in self.deg), default=0)
        # rows[k*ne + i] and consts[k, i] hold factor k of equation i as a
        # full-width affine form, padding factors have a zero row and
        # constant 1; equation i's factors in group g start at first[i, g]
        rows = np.zeros((nfactors, ne, nvars), dtype=complex)
        self.consts = np.ones((nfactors, ne, 1), dtype=complex)
        self.first = np.zeros((ne, len(groups)), dtype=np.intp)
        for i in range(ne):
            k = 0
            for g, gvars in enumerate(groups):
                self.first[i, g] = k
                for _ in range(self.deg[i][g]):
                    rows[k, i, gvars] = (rng.normal(size=len(gvars))
                                         + 1j * rng.normal(size=len(gvars)))
                    self.consts[k, i, 0] = complex(rng.normal() + 1j * rng.normal())
                    k += 1
        self.rows = rows.reshape(nfactors * ne, nvars)
        # equation-major copy for the batched Jacobian product
        self._rows_by_eq = np.ascontiguousarray(rows.transpose(1, 0, 2))

    def eval_and_jac(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = x.shape[0]
        nf, ne, _ = self.consts.shape
        lv = (self.rows @ x.T).reshape(nf, ne, n)
        lv += self.consts
        pre = np.empty((nf + 1, ne, n), dtype=lv.dtype)
        suf = np.empty_like(pre)
        pre[0] = 1
        suf[nf] = 1
        for k in range(nf):
            np.multiply(pre[k], lv[k], out=pre[k + 1])
        for k in range(nf - 1, -1, -1):
            np.multiply(suf[k + 1], lv[k], out=suf[k])
        # d(prod_k l_k)/dx = sum_k (prod_{j != k} l_j) row_k
        coef = np.multiply(pre[:nf], suf[1:], out=lv)
        jac = np.empty((n, ne, self.nvars), dtype=lv.dtype)
        np.matmul(coef.transpose(1, 2, 0), self._rows_by_eq,
                  out=jac.transpose(1, 0, 2))
        return pre[nf].T, jac

    def _assignments(self) -> Iterator[tuple[int, ...]]:
        """Which group each equation serves, respecting group capacities."""
        ne = len(self.deg)
        caps = [len(g) for g in self.groups]

        def rec(i: int, remaining: list[int], chosen: list[int]):
            if i == ne:
                if all(r == 0 for r in remaining):
                    yield tuple(chosen)
                return
            if sum(remaining) != ne - i:
                return
            for g, cap in enumerate(remaining):
                if cap > 0 and self.deg[i][g] > 0:
                    remaining[g] -= 1
                    chosen.append(g)
                    yield from rec(i + 1, remaining, chosen)
                    chosen.pop()
                    remaining[g] += 1

        yield from rec(0, [c for c in caps], [])

    def points(self) -> np.ndarray:
        """Every start point in deterministic order: each (assignment,
        choice of factors) pick zeroes the chosen factors, one batched block
        solve per group."""
        ne = len(self.deg)
        picks = [(assign, choices) for assign in self._assignments()
                 for choices in iter_product(*[range(self.deg[i][g])
                                               for i, g in enumerate(assign)])]
        assign = np.array([a for a, _ in picks], dtype=np.intp).reshape(-1, ne)
        factor = (self.first[np.arange(ne), assign]
                  + np.array([c for _, c in picks], dtype=np.intp).reshape(-1, ne))
        x = np.zeros((len(picks), self.nvars), dtype=complex)
        for g, gvars in enumerate(self.groups):
            # the equations serving g, pick-major, each pick's in order
            p, i = np.nonzero(assign == g)
            k = factor[p, i]
            a = self.rows[(k * ne + i)[:, None], gvars].reshape(
                len(picks), len(gvars), len(gvars))
            b = -self.consts[k, i, 0].reshape(len(picks), len(gvars))
            sol, ok = _batched_solve(a, b)
            if not ok.all():
                raise np.linalg.LinAlgError("degenerate start factors; retry "
                                            "with a different seed")
            x[:, gvars] = sol
        return x


def choose_start(squared: Sequence[Poly], label_indices: dict[str, list[int]],
                 nvars: int, rng: np.random.Generator):
    """Pick the best multihomogeneous grouping, or total-degree when no
    grouping needs fewer paths.

    Returns (start equations, start points, description).
    """
    degrees = [eq.degree() for eq in squared]
    td_count = math.prod(degrees)
    best = None
    if len(label_indices) > 1:
        labels = sorted(label_indices)
        for blocks in set_partitions(labels):
            if len(blocks) == 1:
                continue
            groups = [sorted(i for lab in block for i in label_indices[lab])
                      for block in blocks]
            deg_matrix = [[eq.degree_on(g) for g in groups] for eq in squared]
            count = mh_bezout(deg_matrix, [len(g) for g in groups])
            if count <= 0:
                continue
            key = (count, len(blocks))
            if best is None or key < best[0]:
                best = (key, groups, blocks)
    if best is not None and best[0][0] < td_count:
        groups = best[1]
        start = MultihomogStart(squared, groups, nvars, rng)
        if start.count > MAX_PATHS:
            raise ValueError(f"multihomogeneous start needs {start.count} paths "
                             f"(> max_paths {MAX_PATHS})")
        desc = "mh:" + "|".join(",".join(b) for b in best[2])
        return start, start.points(), desc
    return (*total_degree_start(squared, rng), "total-degree")


def normalize_equations(equations: Sequence[Poly]) -> list[Poly]:
    """Scale each equation to unit max coefficient.

    The critical systems mix O(1) bilinear rows with weight-times-data rows
    several orders larger; tracking tolerances are scale-relative, so
    normalizing keeps the corrector honest across rows.
    """
    out = []
    for eq in equations:
        scale = max((abs(c) for c in eq.terms.values()), default=1.0)
        out.append(eq * (1.0 / scale) if scale > 0 else eq)
    return out


def square_up(system: PolySystem, rng: np.random.Generator) -> list[Poly]:
    """Random combinations reducing an overdetermined system to a square one.

    An overdetermined system declares a merge block (the equations carrying
    its polynomial syzygies), and the reduction randomizes inside that block:
    keeping the block intact would leave the squared Jacobian singular at
    every solution.  Spurious solutions introduced by randomization are
    removed later by the residual filter on the full system.
    """
    if not system.overdetermined:
        return list(system.equations)
    if system.merge_block is None:
        raise ValueError("an overdetermined system must declare its merge_block")
    block = list(system.merge_block)
    target = len(block) - (len(system.equations) - system.n_vars)
    if target < 1:
        raise ValueError("merge block too small to absorb the excess")
    mix = rng.normal(size=(target, len(block))) \
        + 1j * rng.normal(size=(target, len(block)))
    out = []
    for row in mix:
        eq = Poly.const(system.n_vars, 0.0)
        for c, i in zip(row.tolist(), block):
            eq = eq + c * system.equations[i]
        out.append(eq)
    out.extend(eq for i, eq in enumerate(system.equations) if i not in set(block))
    return out


# ---------------------------------------------------------------------------
# Path tracking
# ---------------------------------------------------------------------------

@dataclass
class PathStats:
    n_paths: int = 0
    n_converged: int = 0
    n_diverged: int = 0
    n_singular: int = 0
    n_failed: int = 0
    n_filtered: int = 0
    n_raw_points: int = 0
    start_kind: str = ""
    # the weight route: the generic count its fibre held (0: not taken) and
    # its paths that diverged, critical points lost to infinity at the weights
    generic_count: int = 0
    n_lost: int = 0

    def consistent(self) -> bool:
        return (self.n_converged + self.n_diverged + self.n_singular
                + self.n_failed == self.n_paths)


def _batched_solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve stacked systems; returns (solutions, ok mask).  Singular or
    non-finite batches are resolved per item instead of aborting the batch."""
    try:
        sol = np.linalg.solve(a, b[..., None])[..., 0]
        bad = ~np.isfinite(sol).all(axis=1)
    except np.linalg.LinAlgError:
        sol = np.zeros_like(b)
        bad = np.zeros(a.shape[0], dtype=bool)
        for i in range(a.shape[0]):
            try:
                sol[i] = np.linalg.solve(a[i], b[i])
                if not np.isfinite(sol[i]).all():
                    bad[i] = True
            except np.linalg.LinAlgError:
                bad[i] = True
    return sol, ~bad


class Homotopy:
    """Paths of H(x, t) = 0 from t = 0 to t = 1 on a compiled target F.

    With a start system G (closed form), H = gamma (1-t) G(x) + t F(x).
    Without one, H is F plus a correction affine in
    phi(t) = t / (t + gamma (1-t)) (t for gamma = 1) between the paths'
    corrections at their start and end parameters, the two `_correction`s
    of ``move`` (both with d or both without).
    """

    def __init__(self, target: CompiledSystem, start=None, gamma: complex = 1.0,
                 move: tuple | None = None):
        self.f = target
        self.start = start
        self.gamma = gamma
        self.move = move

    def eval_jac(self, x: np.ndarray, t: np.ndarray, paths=None):
        fv, fj = self.f.eval_and_jac(x)
        if self.start is None:
            (rows, d0, k0), (_, d1, k1) = self.move
            phi = t[:, None]
            if self.gamma != 1:
                s = phi + self.gamma * (1 - phi)
                phi, dphi = phi / s, self.gamma / s ** 2
            k0 = k0[paths]
            ht = k1[paths] - k0
            d = None if d0 is None else d0 + phi * (d1 - d0)
            h = _shift(fv, fj, x, (rows, d, k0))[0] + phi * ht
            if d is not None:
                ht[:, rows] += (d1 - d0) * x[:, :d.shape[1]]
            if self.gamma != 1:
                ht *= dphi
            return h, fj, ht
        gv, gj = self.start.eval_and_jac(x)
        wf = t[:, None]
        wg = self.gamma * (1 - t)[:, None]
        h = wf * fv + wg * gv
        ht = fv - self.gamma * gv
        # fj and gj are freshly allocated; combine in place
        fj *= wf[..., None]
        gj *= wg[..., None]
        fj += gj
        return h, fj, ht

    def tangent(self, x: np.ndarray, t: np.ndarray, paths=None):
        _, hx, ht = self.eval_jac(x, t, paths)
        sol, ok = _batched_solve(hx, -ht)
        return sol, ok

    def end_eval(self, x: np.ndarray, paths, jac: bool = False):
        """The system at t = 1 at the paths ``paths``, with its Jacobian if
        ``jac``."""
        fv, fj = self.f.eval_and_jac(x) if jac else (self.f.eval(x), None)
        if self.start is None:
            rows, d, k = self.move[1]
            _shift(fv, fj, x, (rows, d, k[paths]))
        return (fv, fj) if jac else fv


def _shift(fv: np.ndarray, fj: np.ndarray | None, x: np.ndarray,
           shift: tuple | None) -> tuple:
    """Move a chart's values and Jacobian (or None) in place by ``shift`` =
    (rows, d, k): they gain k, and x_v's row, rows.start + v, gains d_v x_v
    (unless d is None; one row d serves every path)."""
    if shift is not None:
        rows, d, k = shift
        fv += k
        if d is not None:
            m = d.shape[-1]
            fv[:, rows] += d * x[:, :m]
            if fj is not None:
                diagonal = np.einsum("nii->ni", fj[:, rows, :m])  # a view
                diagonal += d
    return fv, fj


def _correction(system: PolySystem, n: int, lam: np.ndarray | None, v: np.ndarray,
                squared: bool = True) -> tuple:
    """A normal-space chart at other parameters, as the ``shift`` (rows, d, k)
    of `_shift` for n paths: x_v's row, rows.start + v, is c_v Lam_v (x_v - U_v)
    plus terms free of (U, Lam), c_v its normaliser in the squared system
    (1 in the full one) at the instance's own parameters, so at the flat
    weights ``lam`` (None: Lam, and d None) and the data ``v`` (one matrix
    or one per path) it gains c_v [(lam_v - Lam_v) x_v - (lam_v v_v -
    Lam_v U_v)]."""
    inst, eqs = system.instance, system.equations
    lagrange = system.grad_map[:inst.m * inst.n]
    neqs = system.n_vars if squared else len(eqs)
    # normal_space puts these rows last, in order, and square_up folds the
    # merge block before them into fewer rows
    first = lagrange[0] - (len(eqs) - neqs)
    rows = slice(first, first + len(lagrange))
    c = np.array([1.0 / max(map(abs, eqs[k].terms.values())) if squared else 1.0
                  for k in lagrange])
    Lam, U = inst.weights.as_array().ravel(), inst.data_array().ravel()
    v = v.reshape(v.shape[:-2] + (len(lagrange),))
    k = np.zeros(v.shape[:-1] + (neqs,), dtype=complex)
    k[..., rows] = c * Lam * (U - v)
    if lam is None:
        return rows, None, np.broadcast_to(k, (n, neqs))
    k[..., rows] += c * (Lam - lam) * v
    return rows, c * (lam - Lam), np.broadcast_to(k, (n, neqs))


def track_batch(hom: Homotopy, x0: np.ndarray):
    """Track one batch of paths from t=0 to t=1.

    Returns (status array, endpoint array); endpoints are meaningful for
    CONVERGED and SINGULAR paths, those that reached t = 1 (`_endgame`).
    """
    with np.errstate(all="ignore"):
        return _track_batch_impl(hom, x0)


def _track_batch_impl(hom: Homotopy, x0: np.ndarray):
    n = x0.shape[0]
    x = x0.astype(complex).copy()
    t = np.zeros(n)
    h = np.full(n, min(0.05, MAX_STEP))
    status = np.full(n, ACTIVE, dtype=np.int8)
    streak = np.zeros(n, dtype=np.int32)
    steps = np.zeros(n, dtype=np.int64)

    def rk4(xa, ta, ha, ra):
        k1, ok1 = hom.tangent(xa, ta, ra)
        k2, ok2 = hom.tangent(xa + 0.5 * ha[:, None] * k1, ta + 0.5 * ha, ra)
        k3, ok3 = hom.tangent(xa + 0.5 * ha[:, None] * k2, ta + 0.5 * ha, ra)
        k4, ok4 = hom.tangent(xa + ha[:, None] * k3, ta + ha, ra)
        pred = xa + (ha[:, None] / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return pred, ok1 & ok2 & ok3 & ok4

    while True:
        act = np.nonzero(status == ACTIVE)[0]
        if act.size == 0:
            break
        xa, ta = x[act], t[act]
        # approach t=1 geometrically: the remaining gap halves per step, so
        # paths drifting to infinity cross the divergence threshold in a
        # bounded number of steps instead of stalling at the boundary
        ha = np.minimum(h[act], np.maximum(0.5 * (1.0 - ta), 1e-10))

        pred, pok = rk4(xa, ta, ha, act)
        tn = ta + ha
        xc, cok, _ = _newton(lambda i, z: hom.eval_jac(z, tn[i], act[i])[:2],
                             pred, 3, TRACK_TOL)
        accept = pok & cok & np.isfinite(xc).all(axis=1)

        ia = act[accept]
        x[ia] = xc[accept]
        t[ia] = ta[accept] + ha[accept]
        streak[ia] += 1
        grow = ia[streak[ia] >= 2]
        h[grow] = np.minimum(h[grow] * 1.5, MAX_STEP)
        # rejected paths halve the step (from at most MAX_STEP, so 44 rejects
        # in a row take it below MIN_STEP)
        ir = act[~accept]
        h[ir] *= 0.5
        streak[ir] = 0
        steps[act] += 1

        norms = np.max(np.abs(x[act]), axis=1)
        diverged = act[~np.isfinite(norms) | (norms > DIV_THRESHOLD)]
        status[diverged] = DIVERGED
        stalled = act[((h[act] < MIN_STEP) | (steps[act] >= MAX_STEPS))
                      & (status[act] == ACTIVE)]
        status[stalled] = FAILED
        # paths at t = 1 wait for the end step
        status[act[(status[act] == ACTIVE) & (t[act] >= 1.0 - 2e-10)]] = SINGULAR

    return _endgame(hom, x, status)


def _newton(eval_and_jac, x: np.ndarray, iters: int, tol: float):
    """Newton's method on a batch of systems, the Gauss-Newton step where
    the Jacobian is tall.  eval_and_jac(idx, x[idx]) gives the values and
    Jacobians at the rows idx still iterating; a row stops once its step is
    below tol (1 + |x|) or a solve fails.  Returns the iterates, the
    converged rows and the rows whose every solve succeeded."""
    xc = x.copy()
    conv = np.zeros(x.shape[0], dtype=bool)
    ok = np.ones(x.shape[0], dtype=bool)
    idx = np.arange(x.shape[0])
    for _ in range(iters):
        if idx.size == 0:
            break
        fv, fj = eval_and_jac(idx, xc[idx])
        if fj.shape[1] > fj.shape[2]:
            jh = np.conj(np.swapaxes(fj, 1, 2))
            fj, fv = jh @ fj, (jh @ fv[..., None])[..., 0]
        delta, solved = _batched_solve(fj, -fv)
        moved = xc[idx] + np.where(solved[:, None], delta, 0.0)
        xc[idx] = moved
        hit = solved & (np.max(np.abs(delta), axis=1)
                        < tol * (1.0 + np.max(np.abs(moved), axis=1)))
        conv[idx[hit]] = True
        ok[idx[~solved]] = False
        idx = idx[solved & ~hit]
    return xc, conv, ok


def newton_target(hom: Homotopy, x: np.ndarray, rows: np.ndarray, iters: int = 12):
    """Newton on the system at t = 1 alone (square systems) for the paths
    ``rows``."""
    xc, _, ok = _newton(lambda i, z: hom.end_eval(z, rows[i], jac=True), x,
                        iters, NEWTON_TOL)
    res = np.max(np.abs(hom.end_eval(xc, rows)), axis=1)
    conv = ok & np.isfinite(res) & (res < 1e-6 * (1.0 + hom.f.coeff_scale)) \
        & np.isfinite(xc).all(axis=1)
    return xc, conv


def _endgame(hom: Homotopy, x: np.ndarray, status: np.ndarray):
    """The end step of a tracked batch, given its last points and statuses.

    One Newton run on the system at t = 1 (`newton_target`) takes the paths
    that reached t = 1 (SINGULAR) to CONVERGED where it converges.  A path
    still unconverged is at infinity (DIVERGED) where its last point is past
    1e5, or past 1e4 for one that stopped short (FAILED); every other path
    stays SINGULAR or FAILED.  Returns (status, endpoints).
    """
    endpoint = np.zeros_like(x)
    reached = np.nonzero(status == SINGULAR)[0]
    if reached.size:
        endpoint[reached], conv = newton_target(hom, x[reached], reached)
        status[reached[conv]] = CONVERGED
    bound = np.where(status == SINGULAR, 1e5, 1e4)
    far = ((status == SINGULAR) | (status == FAILED)) \
        & (np.max(np.abs(x), axis=1) > bound)
    status[far] = DIVERGED
    return status, endpoint


def refine_full(compiled_full: CompiledSystem, points: np.ndarray,
                shift: tuple | None = None) -> np.ndarray:
    """Gauss-Newton refinement on the original (possibly overdetermined)
    system, moved to other parameters by ``shift`` (see `_shift`), with a
    mixed-precision ultimate pass for the survivors."""
    if points.size == 0:
        return points
    xc, _, _ = _newton(lambda i, z: _shift(*compiled_full.eval_and_jac(z), z, shift),
                       points.astype(complex), 12, NEWTON_TOL)
    if xc.shape[0] <= 2000:
        xc = _polish_extended(compiled_full, xc, shift)
    return xc


def _polish_extended(compiled: CompiledSystem, points: np.ndarray,
                     shift: tuple | None = None) -> np.ndarray:
    """Iterative refinement with extended-precision residuals: the correction
    is solved in double precision but the residual (moved by ``shift`` as
    in `refine_full`) is evaluated in complex long double, which resolves
    algebraic coordinates well below double-precision Newton stagnation.
    Three steps: tol = 0 stops none."""
    cf = compiled._cf.tocoo()

    def eval_and_jac(idx, x):
        mv = compiled.monomial_values(x)  # (nm, N) in extended precision
        fv = np.zeros((compiled.neqs, x.shape[0]), dtype=np.clongdouble)
        np.add.at(fv, cf.col, cf.data[:, None] * mv[cf.row])
        fv, fj = _shift(fv.T, compiled.jac(x.astype(complex)), x, shift)
        return fv.astype(complex, order="C"), fj

    xc, _, _ = _newton(eval_and_jac, points.astype(np.clongdouble), 3, 0.0)
    return xc.astype(complex)


# ---------------------------------------------------------------------------
# Solution sets
# ---------------------------------------------------------------------------

@dataclass
class CriticalPoint:
    coords: np.ndarray
    X: np.ndarray
    residual: float
    is_real: bool
    classification: str | None = None   # local_min | saddle_or_max | ambiguous
    objective: float | None = None
    multiplicity_flag: bool = False

    def sort_key(self):
        flat = np.asarray(self.X).ravel()
        return tuple(v for z in flat
                     for v in (round(z.real / 1e-8), round(z.imag / 1e-8)))


@dataclass
class SolutionSet:
    points: list[CriticalPoint]
    stats: PathStats
    predicted: int | None = None
    predicted_basis: str = ""
    agreement: bool | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def n_complex(self) -> int:
        return len(self.points)

    @property
    def generic_count(self) -> int | None:
        """The generic count the weight route deformed from, if it ran."""
        return self.stats.generic_count or None

    @property
    def n_real(self) -> int:
        return sum(1 for p in self.points if p.is_real)

    @property
    def n_local_min(self) -> int:
        return sum(1 for p in self.points if p.classification == "local_min")

    def real_points(self) -> list[CriticalPoint]:
        return [p for p in self.points if p.is_real]

    def closest(self) -> CriticalPoint | None:
        reals = [p for p in self.real_points() if p.objective is not None]
        return min(reals, key=lambda p: p.objective) if reals else None


def _close(target: np.ndarray, candidates: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the candidates (stacked along axis 0) that match target:
    max|c - target| < tol * (1 + max(max|c|, max|target|))."""
    t = np.ravel(target)
    c = candidates.reshape(len(candidates), t.size)
    scale = 1.0 + np.maximum(np.max(np.abs(t)), np.max(np.abs(c), axis=1))
    return np.max(np.abs(c - t), axis=1) < tol * scale


def _dedup(points: list[tuple], tol: float) -> list[tuple]:
    """Cluster by matrix-space distance; prefer cleanly converged
    representatives, then the smallest residual."""
    if not points:
        return []
    order = sorted(range(len(points)),
                   key=lambda i: (points[i][3], points[i][2], i))
    mats = np.array([points[i][1] for i in order])
    kept: list[int] = []
    for i in range(len(order)):
        if not _close(mats[i], mats[kept], tol).any():
            kept.append(i)
    return [points[order[i]] for i in kept]


def _pair_up(targets: np.ndarray, candidates: np.ndarray,
             tol: float) -> list[tuple[int, int | None]]:
    """Greedy pairing in index order: every index not yet taken leads and
    takes the first later untaken index whose candidate matches its target."""
    taken = np.zeros(len(targets), dtype=bool)
    pairs: list[tuple[int, int | None]] = []
    for i in range(len(targets)):
        if taken[i]:
            continue
        hits = np.flatnonzero(_close(targets[i], candidates[i + 1:], tol)
                              & ~taken[i + 1:])
        j = i + 1 + int(hits[0]) if hits.size else None
        if j is not None:
            taken[j] = True
        pairs.append((i, j))
    return pairs


def _fold_symmetry(points: list[tuple], system: PolySystem, tol: float,
                   warnings: list[str]) -> list[tuple]:
    """Quotient by the chart symmetry: keep one representative per orbit,
    matching partners by nearest neighbor under the involution."""
    if system.symmetry is None or not points:
        return points
    coords = np.array([p[0] for p in points])
    images = np.array([system.symmetry(c) for c in coords])
    tol = max(tol, 1e-4)
    kept = []
    for i, j in _pair_up(images, coords, tol):
        if j is None:
            # fixed points of the involution sit on the degenerate locus and
            # are filtered earlier; anything else deserves a diagnostic
            scale = 1.0 + np.max(np.abs(coords[i]))
            if np.max(np.abs(images[i] - coords[i])) > tol * scale:
                warnings.append("unmatched symmetry partner; counting once")
        kept.append(points[i])
    return kept


# ---------------------------------------------------------------------------
# Classification (second-order test at real critical points)
# ---------------------------------------------------------------------------

def _eig_classify(hessian: np.ndarray, constraint_jac: np.ndarray | None = None) -> str:
    h = np.real(hessian)
    h = 0.5 * (h + h.T)
    if constraint_jac is not None and constraint_jac.size:
        _, sv, vt = np.linalg.svd(constraint_jac)
        rank = int(np.sum(sv > 1e-9 * max(1.0, sv[0] if sv.size else 1.0)))
        basis = vt[rank:].T
        if basis.shape[1] == 0:
            return "ambiguous"
        h = basis.T @ h @ basis
    eig = np.linalg.eigvalsh(h)
    scale = max(np.max(np.abs(eig)), 1e-300)
    if np.all(eig > 1e-7 * scale):
        return "local_min"
    if np.any(eig < -1e-7 * scale):
        return "saddle_or_max"
    return "ambiguous"


def _rank_factor_chart(X: np.ndarray, r: int):
    """Differential and pivot split of a rank-r product chart around X.

    Pivot rows (greedy volume choice) hold the free factor B = X[rows]; the
    other rows are combinations A of them, X_i = sum_k a_ik B_k.  Returns
    D = dvec(X)/d(vec A, vec B) as an (mn, P) array, the non-pivot rows, and
    the parameter indices of A (m-r, r) and B (r, n).
    """
    m, n = X.shape
    rows: list[int] = []
    residual = X.copy()
    for _ in range(r):
        norms = np.linalg.norm(residual, axis=1)
        pick = int(np.argmax(norms))
        rows.append(pick)
        v = residual[pick]
        nv = np.linalg.norm(v)
        if nv < 1e-14:
            break
        v = v / nv
        residual = residual - np.outer(residual @ v, v)
        residual[pick] = 0.0
    rows = sorted(set(rows))
    while len(rows) < r:
        rows.append(next(i for i in range(m) if i not in rows))
        rows = sorted(rows)
    others = np.array([i for i in range(m) if i not in rows], dtype=np.intp)
    b0 = X[rows, :]
    a0 = np.linalg.lstsq(b0.T, X[others, :].T, rcond=None)[0].T  # (m-r, r)
    a_idx = np.arange((m - r) * r).reshape(m - r, r)
    b_idx = (m - r) * r + np.arange(r * n).reshape(r, n)
    cols = np.arange(n)
    D = np.zeros((m, n, (m - r) * r + r * n))
    D[np.array(rows)[:, None], cols, b_idx] = 1.0
    D[others[:, None, None], cols[:, None], a_idx[:, None, :]] = b0.T
    D[others[:, None, None], cols[:, None], b_idx.T] = a0[:, None, :]
    return D.reshape(m * n, -1), others, a_idx, b_idx


def classify_point(instance: Instance, point: CriticalPoint) -> str:
    """Second-order classification of a real critical point.

    One projected Lagrangian Hessian for every family: the objective
    sum Lam_ij (X_ij - U_ij)^2 in a rank-factor chart of the rank-r matrices,
    constrained by the rows of ``instance.section()`` (constraints and
    structure), tested on the tangent space of their intersection.
    """
    if point.multiplicity_flag:
        return "ambiguous"
    X = np.real(point.X)
    D, others, a_idx, b_idx = _rank_factor_chart(X, instance.r)
    lam2 = 2.0 * instance.weights.as_array().ravel()
    g = lam2 * (X - instance.data_array()).ravel()
    C = instance.section()[0]
    J = C @ D
    mu = np.linalg.lstsq(J.T, -(D.T @ g), rcond=None)[0]
    G = (g + C.T @ mu).reshape(X.shape)
    # the chart's only second derivatives: d2 X_ij / da_ik db_kj = 1
    S = np.zeros((D.shape[1], D.shape[1]))
    S[a_idx[:, :, None], b_idx[None, :, :]] = G[others][:, None, :]
    H = D.T @ (lam2[:, None] * D) + S + S.T
    return _eig_classify(H, J)


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

def solve_system(system: PolySystem, cfg: TrackerConfig | None = None,
                 stats: PathStats | None = None,
                 count: int | None = None) -> list[tuple]:
    """Track one chart system; returns accepted (coords, matrix, residual,
    singular_flag) tuples after residual and degenerate filtering, and adds
    its path counts and start kind to ``stats``.

    Given the exact number of critical points and a chart that lifts
    critical pairs (``system.lift``), the fibre over the data is filled from
    seeds (`_fill_fibre`, deduplicated).  A dense chart whose fill stalls
    short of the count, or that has no count, takes the weight route
    (`_deform_weights`) instead.  The start system runs only where the
    route's own fill at generic weights stalls, and for charts without a
    lift; its paths are not deduplicated here.  A chart with a lift starts
    in the plain normal-space chart of its instance: a mixed chart's denser
    equations raise the multihomogeneous count (1,966 -> 6,006 paths on
    3x3 r=2).
    """
    cfg = cfg or TrackerConfig()
    stats = stats or PathStats()
    rng, squared, compiled_full, compiled_sq = _squared(system, cfg)
    accept = partial(_accept, system, compiled_full, stats=stats)
    seeded = bool(count) and system.lift is not None
    accepted: list[tuple] = []
    kind = ""
    if seeded:
        accepted = _fill_fibre(system, compiled_sq, count, cfg, accept, stats)
        kind = "seeded"
    filled = seeded and len(accepted) >= count
    deformed = None
    if not filled and system.lift is not None and system.instance.family == "dense":
        deformed = _deform_weights(system, compiled_sq, cfg, accept, stats)
        if deformed is not None:
            accepted = _dedup(accepted + deformed, DEDUP_TOL)
            kind = "seeded>weights" if seeded else "weights"
    if not filled and deformed is None:
        if system.lift is not None:
            system = systems.normal_space(system.instance)
            rng, squared, compiled_full, compiled_sq = _squared(system, cfg)
        start, points, desc = choose_start(
            squared, system.label_indices(), system.n_vars, rng)
        hom = Homotopy(compiled_sq, start, cfg.gamma())
        pts, flags = zip(*[_endpoints(hom, points[i:i + CHUNK], stats)
                           for i in range(0, len(points), CHUNK)])
        accepted += _accept(system, compiled_full, np.concatenate(pts),
                            np.concatenate(flags), stats)
        kind = "seeded>" + desc if seeded else desc
    stats.n_raw_points += len(accepted)
    stats.start_kind = kind
    return accepted


def _squared(system: PolySystem, cfg: TrackerConfig):
    """The chart's draws, its normalised squared equations, and the full and
    squared systems compiled."""
    rng = np.random.default_rng((cfg.seed, DRAW_KEY))
    squared = normalize_equations(square_up(system, rng))
    return (rng, squared, CompiledSystem(system.equations, system.n_vars),
            CompiledSystem(squared, system.n_vars))


def _endpoints(hom: Homotopy, x: np.ndarray, stats: PathStats):
    """Track the paths from x, tally their outcomes in ``stats``, and return
    the endpoints kept (converged or singular) with their singular flags."""
    status, endp = track_batch(hom, x)
    _tally(stats, status)
    good = (status == CONVERGED) | (status == SINGULAR)
    return endp[good], status[good] == SINGULAR


def _tally(stats: PathStats, status: np.ndarray) -> None:
    stats.n_paths += status.size
    stats.n_converged += int(np.sum(status == CONVERGED))
    stats.n_diverged += int(np.sum(status == DIVERGED))
    stats.n_singular += int(np.sum(status == SINGULAR))
    stats.n_failed += int(np.sum(status == FAILED))


def _accept(system: PolySystem, compiled_full: CompiledSystem, pts: np.ndarray,
            flags: np.ndarray, stats: PathStats,
            shift: tuple | None = None) -> list[tuple]:
    """Refine endpoints on the full system (moved by ``shift`` as in
    `refine_full`); keep those that pass the residual and degenerate-locus
    filters."""
    with np.errstate(all="ignore"):
        pts = refine_full(compiled_full, pts, shift)
        fv = _shift(compiled_full.eval(pts), None, pts, shift)[0]
    res = np.max(np.abs(fv), axis=1)
    threshold = 1e-8 * (1.0 + compiled_full.coeff_scale)
    accepted: list[tuple] = []
    for i in range(pts.shape[0]):
        if not np.isfinite(res[i]) or res[i] >= threshold:
            stats.n_filtered += 1
            continue
        coords = pts[i]
        mat = system.reconstruct(coords)
        degen_tol = 1e-4 if flags[i] else 1e-8
        if system.degenerate is not None and system.degenerate(coords, mat, degen_tol):
            stats.n_filtered += 1
            continue
        accepted.append((coords, mat, float(res[i]), bool(flags[i])))
    return accepted


# loops in a row that find nothing new before the fill gives up: a fibre of
# a few points can need several loops to show a new one
STALL_LOOPS = 8


def _fill_fibre(system: PolySystem, compiled_sq: CompiledSystem, count: int,
                cfg: TrackerConfig,
                accept: Callable[[np.ndarray, np.ndarray], list[tuple]],
                stats: PathStats, weights: WeightMatrix | None = None) -> list[tuple]:
    """Critical points over the data U by parameter homotopy from exact seeds.

    2 * count seeds (X, N) are critical for their own data X + N / Lam; one
    batch carries them to U.  Then, while fewer than ``count`` distinct points
    are known, every known point goes around the loop U -> P -> Q -> U (P, Q
    random complex data), whose monodromy permutes the fibre.  Every endpoint
    comes with its conjugate (the data are real) and all are refined,
    filtered and deduplicated.  Stops at ``count`` (a surplus is kept) or
    after STALL_LOOPS loops in a row that add nothing; the caller then takes
    the weight route or the start system.  Where the section admits no seeds
    (s > r n), nothing is tracked, and where no seed reaches the data, no
    loop is.  Lam is the instance's weights, or ``weights`` (the chart moved
    there by `_correction`; ``accept`` then filters at them).
    """
    inst = system.instance if weights is None else system.instance.with_weights(weights)
    U, Lam = inst.data_array(), inst.weights.as_array()
    m, n = U.shape
    rng = np.random.default_rng((cfg.seed, DRAW_KEY, 1))
    scale = float(np.mean(np.abs(U))) or 1.0
    lam = None if weights is None else Lam.ravel()

    def segment(x, v0, v1) -> Homotopy:
        return Homotopy(compiled_sq, move=[_correction(system, len(x), lam, v)
                                           for v in (v0, v1)])

    found: list[tuple] = []

    def add(pts, flags) -> bool:
        if not len(pts):
            return False
        X = np.conj([system.reconstruct(p) for p in pts])
        pts = np.concatenate([pts, system.lift(X, Lam * (U - X))])
        flags = np.concatenate([flags, flags])
        before = len(found)
        found[:] = _dedup(found + accept(pts, flags), DEDUP_TOL)
        return len(found) > before

    X, N = systems.normal_space_seeds(inst, 2 * count, rng)
    if not len(X):
        return found
    x = system.lift(X, N)
    add(*_endpoints(segment(x, X + N / Lam, U), x, stats))

    stall = 0
    while found and len(found) < count and stall < STALL_LOOPS:
        P, Q = scale * (rng.normal(size=(2, m, n)) + 1j * rng.normal(size=(2, m, n)))
        x = np.array([p[0] for p in found]).reshape(len(found), system.n_vars)
        status = np.full(len(x), CONVERGED, dtype=np.int8)
        alive = np.arange(len(x))
        for leg, (v0, v1) in enumerate(((U, P), (P, Q), (Q, U))):
            leg_status, x = track_batch(segment(x, v0, v1), x)
            status[alive] = leg_status
            keep = (leg_status == CONVERGED) | ((leg_status == SINGULAR) & (leg == 2))
            alive, x = alive[keep], x[keep]
        _tally(stats, status)
        stall = 0 if add(x, status[alive] == SINGULAR) else stall + 1
    return found


def _deform_weights(system: PolySystem, compiled_sq: CompiledSystem,
                    cfg: TrackerConfig, accept: Callable[..., list[tuple]],
                    stats: PathStats) -> list[tuple] | None:
    """Critical points at the instance's weights Lam from the fibre at
    generic weights Lam_g.

    The chart moved to Lam_g (random, seeded by ``cfg.seed``, so no minor
    vanishes) is filled to its generic count d, and one parameter homotopy
    moves the d points from Lam_g to Lam along
    phi(t) = t / (t + gamma (1-t)), gamma = ``cfg.gamma()``.  The weights
    enter only the Lagrange rows, so its endpoints include every isolated
    critical point at Lam (Morgan & Sommese's coefficient-parameter
    theorem); paths that diverge are points lost to infinity.  Returns the
    accepted endpoints, or None where no generic count applies or the fill
    at Lam_g stalls short of it; ``accept`` filters at Lam_g given its shift.
    """
    inst = system.instance
    Lam = inst.weights.as_array()
    rng = np.random.default_rng((cfg.seed, 0x3E16))
    weights = WeightMatrix.from_rows(
        (np.mean(Lam) * rng.uniform(0.5, 2.0, size=Lam.shape)).tolist())
    d = _predict(inst.with_weights(weights))[0]
    if not d:
        return None
    U, lam = inst.data_array(), weights.as_array().ravel()
    fibre = _fill_fibre(system, compiled_sq, d, cfg,
                        partial(accept, shift=_correction(system, 1, lam, U, False)),
                        stats, weights)
    if len(fibre) < d:
        return None
    hom = Homotopy(compiled_sq, None, cfg.gamma(),
                   [_correction(system, len(fibre), w, U) for w in (lam, Lam.ravel())])
    diverged = stats.n_diverged
    pts, flags = _endpoints(hom, np.array([p[0] for p in fibre]), stats)
    stats.generic_count = d
    stats.n_lost += stats.n_diverged - diverged
    return accept(pts, flags)


def _predict(instance: Instance) -> tuple[int | None, str]:
    """Expected count from the exact engine, when a formula applies; a
    basis that starts "conjectured" or "upper bound" is no exact count."""
    m, n, r = instance.m, instance.n, instance.r
    s = instance.codimension()
    section = instance.section_kind()
    if instance.family == "dense":
        if instance.weights.is_rank_one():
            # Lam = a b^T: X -> D_a^{1/2} X D_b^{1/2} turns the problem into
            # a unit-weight one on a section of the same kind and codimension
            if s == 0:  # unweighted Eckart-Young: one point per kept subset
                return (systems.unit_weight_critical_count(m, n, r),
                        "rank-one weight subset count")
            if r == min(m, n) - 1 and section == "linear":
                return (eddegree.conjectured_corank1_unit(m, n, s),
                        "conjectured unit-weight value")
            return None, "no formula for rank-one weights with this section"
        q = eddegree.EDDegreeQuery(m, n, r, s, section, "generic")
        if s == 0 and instance.weights.has_vanishing_minor():
            # such weights can lose critical points to infinity (3x3 with one
            # vanishing minor: 35 of 39); on the random sections tried
            # (3x3 r=1, s = 1 and 3) they kept the generic count
            return eddegree.ed_degree(q), "upper bound: generic ED degree"
        return eddegree.ed_degree(q), "generic ED degree"
    if instance.constraints:
        return None, "no formula for a structured family with constraints"
    if instance.family == "hankel":
        order = int(instance.params["hankel_order"])
        if instance.weights == hankel_weights(order, "omega"):
            if 2 * r <= order - 1:
                return eddegree.hankel_ed_generic(order - 1, r), "generic Hankel ED degree"
        return None, "Hankel weights without a closed form (numeric target)"
    return None, "no closed form for this family"


# every formulation `solve` takes by name (besides "auto")
FORMULATIONS = ("primal", "normal", "dual-rank1", "hankel-rank1", "catalecticant")


def _build_charts(instance: Instance, formulation: str,
                  cfg: TrackerConfig) -> PolySystem:
    """The one chart system to track, built from the instance.

    The ``normal`` kernel chart and the ``dual-rank1`` rank-one chart are
    mixed by random unitary matrices drawn from the tracker seed: a plain
    chart misses every point whose kernel (or rank-one column factor) has a
    vanishing leading block, as on diagonal data, and a generic one holds
    them all.
    """
    if formulation not in FORMULATIONS:
        raise ValueError(f"unknown formulation {formulation!r}")
    rng = np.random.default_rng((cfg.seed, 0xC4A7))

    def random_unitary(k):
        a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        q, _ = np.linalg.qr(a)
        return q

    if formulation == "normal":
        return systems.normal_space(instance, left_mix=random_unitary(instance.m),
                                    right_mix=random_unitary(instance.n))
    if formulation == "dual-rank1":
        # the rank-one chart at rank one, its Hadamard dual at corank one
        builder = systems.rank1_direct if instance.r == 1 else systems.dual_rank1
        return builder(instance, random_unitary(instance.n))
    return {"primal": systems.primal_corank1, "hankel-rank1": systems.hankel_rank1,
            "catalecticant": systems.catalecticant_rank2}[formulation](instance)


def default_formulation(instance: Instance) -> str:
    if instance.family == "hankel" and instance.r == 1:
        return "hankel-rank1"
    if instance.family == "catalecticant":
        return "catalecticant"
    square_corank1 = instance.m == instance.n and instance.r == instance.n - 1
    return "primal" if instance.family != "dense" and square_corank1 else "normal"


def solve(instance: Instance, formulation: str = "auto",
          config: TrackerConfig | None = None,
          expected: int | None = None) -> SolutionSet:
    """Find all complex critical points of the instance.

    Tracks the one chart of the requested formulation, deduplicates its
    endpoints in matrix space, folds the chart symmetry, classifies real
    points, and reconciles the count against the exact engine when a
    formula applies.
    """
    cfg = config or TrackerConfig()
    if formulation == "auto":
        formulation = default_formulation(instance)
    system = _build_charts(instance, formulation, cfg)
    exact, basis = _predict(instance)
    # a conjectured count is what a solve tests and an upper bound may be
    # too high: neither may stop the search
    count = None if basis.startswith(("conjectured", "upper bound")) else exact
    stats = PathStats()
    warnings: list[str] = []
    raw = solve_system(system, cfg, stats, count)
    raw = _fold_symmetry(_dedup(raw, DEDUP_TOL), system, DEDUP_TOL, warnings)

    Lam = instance.weights.as_array()
    U = instance.data_array()
    points: list[CriticalPoint] = []
    for coords, mat, res, singular in raw:
        scale = 1.0 + float(np.max(np.abs(mat)))
        is_real = bool(np.max(np.abs(np.imag(mat))) < REAL_TOL * scale)
        cp = CriticalPoint(coords=coords, X=mat, residual=res, is_real=is_real,
                           multiplicity_flag=singular)
        if is_real:
            cp.objective = float(np.real(systems.objective(np.real(mat), U, Lam)))
            cp.classification = classify_point(instance, cp)
        points.append(cp)
    points.sort(key=lambda p: p.sort_key())

    # conjugation closure check
    nonreal = [p for p in points if not p.is_real]
    unmatched = _conjugate_mismatch(nonreal, DEDUP_TOL)
    if unmatched:
        warnings.append(f"{unmatched} non-real points without a conjugate partner")
    if not stats.consistent():
        warnings.append("inconsistent count: path statuses do not sum to the total")

    predicted, basis = (expected, "caller expectation") if expected is not None \
        else (exact, basis)
    agreement = None if predicted is None else (len(points) == predicted)
    return SolutionSet(points=points, stats=stats, predicted=predicted,
                       predicted_basis=basis, agreement=agreement,
                       warnings=warnings)


def _conjugate_mismatch(nonreal: list[CriticalPoint], tol: float) -> int:
    if not nonreal:
        return 0
    mats = np.array([p.X for p in nonreal])
    return sum(1 for _, j in _pair_up(np.conj(mats), mats, tol) if j is None)


def reconcile(solution_set: SolutionSet, predicted: int | None = None) -> dict:
    """Compare the found count with the exact prediction.  After the weight
    route, report the generic count it deformed from and its paths lost to
    infinity: a shortfall is then the points these weights lose.  Otherwise
    a mismatch may certify non-genericity or a tracking failure, and a rerun
    with a fresh gamma/seed tells them apart."""
    if predicted is None:
        predicted = solution_set.predicted
    found = solution_set.n_complex
    agree = None if predicted is None else (found == predicted)
    stats = solution_set.stats
    report = {
        "predicted": predicted,
        "found": found,
        "agreement": agree,
        "paths": vars(stats).copy(),
        "warnings": list(solution_set.warnings),
    }
    if solution_set.generic_count:
        report["generic_count"] = stats.generic_count
        report["lost_to_infinity"] = stats.n_lost
    if agree is False:
        if stats.generic_count and found + stats.n_lost == stats.generic_count:
            report["suggestion"] = (
                f"{stats.n_lost} of the {stats.generic_count} critical points "
                "at generic weights went to infinity on the way to these "
                "weights: the shortfall is points lost to infinity under these "
                "weights, which a rerun does not recover")
        else:
            report["suggestion"] = (
                "rerun with a different seed (fresh gamma and start system); "
                "a persistent mismatch indicates non-generic data or weights")
    return report
