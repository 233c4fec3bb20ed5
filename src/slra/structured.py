"""Structured matrix families, weight matrices, and problem instances.

A family (dense, Hankel, catalecticant, Sylvester) is described by a
StructureMap: a grid that tells which structural coordinate sits at each
matrix position; dense is the identity structure, x_ij alone at (i, j).
``Instance.section()`` gives an instance's admissible matrices as one linear
space: its constraints, then the structure's rows.  Weight matrices are
stored as exact rationals and only converted to floating point inside the
solver, so the displayed weight patterns can be compared exactly.

Instances serialize to a small JSON schema; the bundled datasets under
slra/data are reproduction inputs for the worked examples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Mapping, Sequence

import numpy as np

FAMILIES = ("dense", "hankel", "catalecticant", "sylvester")


def _fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float) and not x.is_integer():
        return Fraction(x).limit_denominator(10 ** 12)
    return Fraction(int(x)) if isinstance(x, (int, float)) else Fraction(x)


def _number(x):
    """Parse a JSON cell: int, float, or exact "p/q" string."""
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, bool):
        raise ValueError("boolean is not a matrix entry")
    if isinstance(x, int):
        return Fraction(x)
    return float(x)


def _encode(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, (int, np.integer)):
        return int(x)
    return float(x)


# ---------------------------------------------------------------------------
# Structure maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureMap:
    """Assignment of structural coordinates to matrix positions.

    grid[i][j] is the 0-based coordinate index at position (i, j), or None
    for a structurally zero position (Sylvester bands).
    """

    shape: tuple[int, int]
    grid: tuple[tuple[int | None, ...], ...]
    coord_names: tuple[str, ...]

    @property
    def n_coords(self) -> int:
        return len(self.coord_names)

    def positions(self, coord: int) -> list[tuple[int, int]]:
        return [(i, j) for i, row in enumerate(self.grid)
                for j, c in enumerate(row) if c == coord]

    def matrix_from_coords(self, coords: Sequence) -> np.ndarray:
        p, q = self.shape
        out = np.zeros((p, q), dtype=np.asarray(coords).dtype)
        for i in range(p):
            for j in range(q):
                c = self.grid[i][j]
                if c is not None:
                    out[i, j] = coords[c]
        return out

    def coords_from_matrix(self, M) -> list:
        vals: list = [None] * self.n_coords
        for i, row in enumerate(self.grid):
            for j, c in enumerate(row):
                if c is not None and vals[c] is None:
                    vals[c] = M[i][j] if not isinstance(M, np.ndarray) else M[i, j]
        return vals

    def coordinate_weights(self, weights: "WeightMatrix") -> list[Fraction]:
        """Effective objective weight of each coordinate: the sum of the
        weight-matrix entries over the positions holding that coordinate."""
        out = [Fraction(0)] * self.n_coords
        for i, row in enumerate(self.grid):
            for j, c in enumerate(row):
                if c is not None:
                    out[c] += weights.entry(i, j)
        return out


def hankel_structure(n: int) -> StructureMap:
    """Order-n Hankel structure: coordinate i+j-1 at position (i, j) (1-based).

    The format is (n+1)/2 square for odd n and n/2 x (n+2)/2 for even n.
    """
    if n < 3:
        raise ValueError("Hankel order must be at least 3")
    p = (n + 1) // 2 if n % 2 else n // 2
    q = n + 1 - p
    grid = tuple(tuple(i + j for j in range(q)) for i in range(p))
    return StructureMap((p, q), grid, tuple(f"x{k}" for k in range(n)))


def hankel_weights(n: int, kind: str) -> "WeightMatrix":
    """The three natural Hankel weight patterns.

    omega: 1/min(i+j-1, n-i-j+2), turning the matrix objective into the plain
           Euclidean objective on the n coordinates;
    ones:  the all-one matrix (ambient Frobenius distance);
    theta: binom(n-1, i+j-2)/min(i+j-1, n-i-j+2), the metric inherited from
           symmetric 2 x ... x 2 tensors.
    """
    st = hankel_structure(n)
    p, q = st.shape
    rows = []
    for i in range(1, p + 1):
        row = []
        for j in range(1, q + 1):
            mult = min(i + j - 1, n - i - j + 2)
            if kind == "omega":
                row.append(Fraction(1, mult))
            elif kind == "ones":
                row.append(Fraction(1))
            elif kind == "theta":
                row.append(Fraction(comb(n - 1, i + j - 2), mult))
            else:
                raise ValueError(f"unknown Hankel weight kind {kind!r}")
        rows.append(row)
    return WeightMatrix.from_rows(rows)


def sylvester_structure(m: int, n: int, k: int) -> StructureMap:
    """Band structure of the k-th resultant-type matrix of degree-(m, n) pairs.

    (n+k) rows, (n-m+2k) columns: n-m+k shifted copies of the degree-m
    coefficients a_0..a_m on the left, then k shifted copies of the degree-n
    coefficients b_0..b_n.  Each a_i occurs n-m+k times and each b_j occurs
    k times, matching the 1/(n-m+k) and 1/k weight rules.
    """
    if not 1 <= k <= m <= n:
        raise ValueError("need 1 <= k <= m <= n")
    rows, cols = n + k, n - m + 2 * k
    names = tuple(f"a{i}" for i in range(m + 1)) + tuple(f"b{j}" for j in range(n + 1))
    grid = [[None] * cols for _ in range(rows)]
    for c in range(n - m + k):
        for i in range(m + 1):
            grid[c + i][c] = i
    for c in range(k):
        for j in range(n + 1):
            grid[c + j][n - m + k + c] = m + 1 + j
    return StructureMap((rows, cols), tuple(tuple(r) for r in grid), names)


def sylvester_weights(m: int, n: int, k: int, kind: str) -> "WeightMatrix":
    """Weight matrices on the Sylvester band (positions off the band get 1;
    they carry no coordinate and never enter an objective)."""
    st = sylvester_structure(m, n, k)
    p, q = st.shape
    if kind == "omega":
        coord_w = [Fraction(1, n - m + k)] * (m + 1) + [Fraction(1, k)] * (n + 1)
    elif kind == "theta":
        coord_w = ([Fraction(1, (n - m + k) * comb(m, i)) for i in range(m + 1)]
                   + [Fraction(1, k * comb(n, j)) for j in range(n + 1)])
    elif kind == "ones":
        coord_w = [Fraction(1)] * (m + n + 2)
    else:
        raise ValueError(f"unknown Sylvester weight kind {kind!r}")
    rows = [[coord_w[st.grid[i][j]] if st.grid[i][j] is not None else Fraction(1)
             for j in range(q)] for i in range(p)]
    return WeightMatrix.from_rows(rows)


# The 6 x 6 catalecticant of a ternary quartic: rows/columns indexed by the
# degree-2 monomials s^2, st, su, t^2, tu, u^2; entry = coefficient table cell.
_CATALECTICANT_KEYS = (
    ("400", "310", "301", "220", "211", "202"),
    ("310", "220", "211", "130", "121", "112"),
    ("301", "211", "202", "121", "112", "103"),
    ("220", "130", "121", "040", "031", "022"),
    ("211", "121", "112", "031", "022", "013"),
    ("202", "112", "103", "022", "013", "004"),
)

CATALECTICANT_COORDS = (
    "400", "310", "301", "220", "211", "202", "130", "121", "112", "103",
    "040", "031", "022", "013", "004",
)

_CATALECTICANT_THETA = (
    (1, 2, 2, 2, 3, 2),
    (2, 2, 3, 2, 3, 3),
    (2, 3, 2, 3, 3, 2),
    (2, 2, 3, 1, 2, 2),
    (3, 3, 3, 2, 2, 2),
    (2, 3, 2, 2, 2, 1),
)


def catalecticant_structure() -> StructureMap:
    index = {name: i for i, name in enumerate(CATALECTICANT_COORDS)}
    grid = tuple(tuple(index[key] for key in row) for row in _CATALECTICANT_KEYS)
    return StructureMap((6, 6), grid, CATALECTICANT_COORDS)


def catalecticant_theta() -> "WeightMatrix":
    """The tensor-metric weight matrix of the 6 x 6 catalecticant."""
    return WeightMatrix.from_rows([[Fraction(v) for v in row]
                                   for row in _CATALECTICANT_THETA])


def catalecticant_instance(data: Mapping) -> "Instance":
    """Build the rank-2 catalecticant approximation instance from 15 labeled
    values keyed by exponent triples ("400", (4,0,0), ...)."""
    normalized = {}
    for key, value in data.items():
        if isinstance(key, tuple):
            key = "".join(str(int(x)) for x in key)
        key = str(key)
        if key not in CATALECTICANT_COORDS:
            raise ValueError(f"unknown coefficient key {key!r}")
        normalized[key] = value
    missing = set(CATALECTICANT_COORDS) - set(normalized)
    if missing:
        raise ValueError(f"missing coefficient keys: {sorted(missing)}")
    st = catalecticant_structure()
    coords = [normalized[name] for name in st.coord_names]
    U = [[coords[st.grid[i][j]] for j in range(6)] for i in range(6)]
    return Instance(m=6, n=6, r=2, family="catalecticant", U=tuple(map(tuple, U)),
                    weights=catalecticant_theta(), constraints=(), params={})


# ---------------------------------------------------------------------------
# Weight matrices, constraints, instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightMatrix:
    """Positive weights, stored exactly."""

    rows: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "WeightMatrix":
        data = tuple(tuple(_fraction(x) for x in row) for row in rows)
        if not data or any(len(r) != len(data[0]) for r in data):
            raise ValueError("weight grid must be rectangular and nonempty")
        if any(x <= 0 for row in data for x in row):
            raise ValueError("weights must be positive")
        return cls(data)

    @classmethod
    def ones(cls, m: int, n: int) -> "WeightMatrix":
        return cls.from_rows([[1] * n for _ in range(m)])

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]))

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def as_array(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.rows])

    def is_rank_one(self) -> bool:
        """Exactly w_ij w_00 = w_i0 w_0j everywhere (weights are nonzero)."""
        w = self.rows
        return all(x * w[0][0] == w[i][0] * w[0][j]
                   for i, row in enumerate(w) for j, x in enumerate(row))

    def has_vanishing_minor(self) -> bool:
        """Exactly w_ij w_kl = w_il w_kj for some rows i < k, columns j < l."""
        w = self.rows
        return any(w[i][j] * w[k][l] == w[i][l] * w[k][j]
                   for i, k in combinations(range(len(w)), 2)
                   for j, l in combinations(range(len(w[0])), 2))


@dataclass(frozen=True)
class LinearConstraint:
    """An (in)homogeneous linear condition sum coeffs * X + constant = 0."""

    coeffs: tuple[tuple[Fraction, ...], ...]
    constant: Fraction = Fraction(0)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], constant=0) -> "LinearConstraint":
        data = tuple(tuple(_fraction(x) for x in row) for row in rows)
        if all(x == 0 for row in data for x in row):
            raise ValueError("constraint coefficients are identically zero")
        return cls(data, _fraction(constant))

    @property
    def is_affine(self) -> bool:
        return self.constant != 0

    def coeff_array(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.coeffs])


@dataclass(frozen=True)
class Instance:
    """One structured low-rank approximation problem."""

    m: int
    n: int
    r: int
    family: str
    U: tuple[tuple, ...]
    weights: WeightMatrix
    constraints: tuple[LinearConstraint, ...] = ()
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not 1 <= self.r < min(self.m, self.n):
            raise ValueError("rank bound must satisfy 1 <= r < min(m, n)")
        if len(self.U) != self.m or any(len(row) != self.n for row in self.U):
            raise ValueError("data matrix does not match the declared format")
        if self.weights.shape != (self.m, self.n):
            raise ValueError("weight matrix does not match the declared format")
        if self.structure().shape != (self.m, self.n):
            raise ValueError("structure parameters inconsistent with (m, n)")

    def structure(self) -> StructureMap:
        if self.family == "hankel":
            return hankel_structure(int(self.params["hankel_order"]))
        if self.family == "catalecticant":
            return catalecticant_structure()
        if self.family == "sylvester":
            p = self.params["sylvester"]
            return sylvester_structure(int(p["m"]), int(p["n"]), int(p["k"]))
        m, n = self.m, self.n  # dense: the identity structure
        return StructureMap((m, n), tuple(tuple(i * n + j for j in range(n)) for i in range(m)),
                            tuple(f"x{i+1}{j+1}" for i in range(m) for j in range(n)))

    def data_array(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.U])

    def section(self) -> tuple[np.ndarray, np.ndarray]:
        """The linear space of admissible X as C vec(X) + c = 0, vec
        row-major: first every constraint's coefficient grid and constant,
        then, with constant 0, X_p - X_q for each repeated coordinate and
        X_p for each structurally zero position (none for dense)."""
        mn = self.m * self.n
        rows = [c.coeff_array().ravel() for c in self.constraints]
        consts = [float(c.constant) for c in self.constraints]
        first: dict[int, int] = {}
        for p, c in enumerate(x for row in self.structure().grid for x in row):
            if c is not None and c not in first:
                first[c] = p
                continue
            row = np.zeros(mn)
            row[p] = 1.0
            if c is not None:
                row[first[c]] = -1.0
            rows.append(row)
            consts.append(0.0)
        return np.array(rows).reshape(len(rows), mn), np.array(consts)

    def codimension(self) -> int:
        return len(self.constraints)

    def section_kind(self) -> str:
        if not self.constraints:
            return "linear"
        return "affine" if any(c.is_affine for c in self.constraints) else "linear"

    def with_weights(self, weights: WeightMatrix) -> "Instance":
        return Instance(self.m, self.n, self.r, self.family, self.U, weights,
                        self.constraints, dict(self.params))

    def with_rank(self, r: int) -> "Instance":
        return Instance(self.m, self.n, r, self.family, self.U, self.weights,
                        self.constraints, dict(self.params))

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "m": self.m, "n": self.n, "r": self.r, "family": self.family,
            "U": [[_encode(x) for x in row] for row in self.U],
            "weights": [[_encode(x) for x in row] for row in self.weights.rows],
            "constraints": [
                {"coeffs": [[_encode(x) for x in row] for row in c.coeffs],
                 "constant": _encode(c.constant)}
                for c in self.constraints
            ],
            "params": dict(self.params),
        }
        return out

    @classmethod
    def from_dict(cls, d: Mapping) -> "Instance":
        try:
            U = tuple(tuple(_number(x) for x in row) for row in d["U"])
            weights = WeightMatrix.from_rows(
                [[_number(x) for x in row] for row in d["weights"]])
            constraints = tuple(
                LinearConstraint.from_rows(
                    [[_number(x) for x in row] for row in c["coeffs"]],
                    _number(c["constant"]))
                for c in d.get("constraints", ())
            )
            return cls(m=int(d["m"]), n=int(d["n"]), r=int(d["r"]),
                       family=str(d["family"]), U=U, weights=weights,
                       constraints=constraints, params=dict(d.get("params", {})))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed instance: {exc}") from exc


def save_instance(instance: Instance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> Instance:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed instance JSON in {path}: {exc}") from exc
    return Instance.from_dict(payload)


# ---------------------------------------------------------------------------
# Random sections and dense instances
# ---------------------------------------------------------------------------

def random_section(m: int, n: int, s: int, kind: str = "linear",
                   seed: int | None = None) -> tuple[LinearConstraint, ...]:
    """s generic constraints with integer coefficients in [-10, 10].

    Reproducible: the same seed yields identical constraints.  Affine
    constraints get a nonzero constant from the same range.  Coefficient
    grids with deficient rank are redrawn: small-integer sampling hits that
    non-generic class with noticeable probability, and sections through it
    genuinely change the critical-point counts.
    """
    if not 0 <= s <= m * n:
        raise ValueError("section codimension out of range")
    if kind not in ("linear", "affine"):
        raise ValueError("section kind must be linear or affine")
    if seed is None:
        raise ValueError("a seed is required for reproducibility")
    rng = np.random.default_rng(int(seed))
    out = []
    for _ in range(s):
        while True:
            grid = rng.integers(-10, 11, size=(m, n))
            if np.any(grid) and np.linalg.matrix_rank(grid) == min(m, n):
                break
        constant = 0
        if kind == "affine":
            while constant == 0:
                constant = int(rng.integers(-10, 11))
        out.append(LinearConstraint.from_rows(grid.tolist(), constant))
    return tuple(out)


def dense_instance(m: int, n: int, r: int, seed: int, weights: str = "random",
                   s: int = 0, section: str = "linear",
                   project_data: bool = False) -> Instance:
    """A random dense instance: integer data in [-100, 100], integer weights
    in [1, 20] (or all ones).  Optionally projects U onto the section."""
    rng = np.random.default_rng(int(seed))
    U = rng.integers(-100, 101, size=(m, n))
    if weights == "random":
        W = WeightMatrix.from_rows(rng.integers(1, 21, size=(m, n)).tolist())
    elif weights == "unit":
        W = WeightMatrix.ones(m, n)
    else:
        raise ValueError("dense weights must be 'random' or 'unit'")
    constraints = random_section(m, n, s, section, seed=int(seed) + 1) if s else ()
    inst = Instance(m=m, n=n, r=r, family="dense",
                    U=tuple(tuple(int(x) for x in row) for row in U), weights=W,
                    constraints=constraints, params={})
    if project_data and constraints:
        C, c = inst.section()
        u = U.astype(float).ravel()
        # least-norm correction onto the section
        corr = np.linalg.lstsq(C, -c - C @ u, rcond=None)[0]
        inst = replace(inst, U=tuple(tuple(float(x) for x in row)
                                     for row in (u + corr).reshape(m, n)))
    return inst


def hankel_instance(n: int, data: Sequence, weights: str = "omega",
                    r: int = 1) -> Instance:
    """Hankel instance of order n from a coordinate vector of length n."""
    st = hankel_structure(n)
    if len(data) != n:
        raise ValueError(f"need {n} coordinate values")
    coords = [_fraction(x) if not isinstance(x, float) else x for x in data]
    U = tuple(tuple(coords[st.grid[i][j]] for j in range(st.shape[1]))
              for i in range(st.shape[0]))
    return Instance(m=st.shape[0], n=st.shape[1], r=r, family="hankel", U=U,
                    weights=hankel_weights(n, weights),
                    params={"hankel_order": n})


def sylvester_instance(m: int, n: int, k: int, a: Sequence, b: Sequence,
                       weights: str = "omega") -> Instance:
    """Sylvester instance from coefficient vectors a (degree m) and b (degree n)."""
    st = sylvester_structure(m, n, k)
    coords = list(a) + list(b)
    if len(coords) != m + n + 2:
        raise ValueError("coefficient vectors have the wrong length")
    p, q = st.shape
    U = tuple(tuple(coords[st.grid[i][j]] if st.grid[i][j] is not None else 0
                    for j in range(q)) for i in range(p))
    rank = q - 1  # corank one of the band matrix
    return Instance(m=p, n=q, r=rank, family="sylvester", U=U,
                    weights=sylvester_weights(m, n, k, weights),
                    params={"sylvester": {"m": m, "n": n, "k": k}})


# ---------------------------------------------------------------------------
# Bundled datasets
# ---------------------------------------------------------------------------

def dataset_path(name: str):
    from importlib.resources import files

    if not name.endswith(".json"):
        name = name + ".json"
    return files("slra").joinpath("data", name)


def load_dataset(name: str) -> Instance:
    """Load one of the bundled instances: rey, hankel33, example36, schultz."""
    res = dataset_path(name)
    with res.open() as fh:
        return Instance.from_dict(json.load(fh))
