"""One cold start of the program, as a CLI call pays it: import `slra`, the
lazy `scipy.sparse` import inside `CompiledSystem`, and a warm-up solve.

Run by run.py in a fresh interpreter; exits non-zero if the warm-up solve
returns the wrong count.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from slra import solver, structured  # noqa: E402

WARM_UP_EXPECTED = 4


def warm_up() -> None:
    """A 2x2 rank-one instance with one linear section (12 paths); builds a
    system, compiles it (importing scipy.sparse), tracks, refines, predicts."""
    inst = structured.dense_instance(2, 2, 1, seed=1, s=1)
    ss = solver.solve(inst, "primal", solver.TrackerConfig(seed=1))
    if ss.n_complex != WARM_UP_EXPECTED:
        raise RuntimeError(f"warm-up solve found {ss.n_complex} points, "
                           f"expected {WARM_UP_EXPECTED}")


if __name__ == "__main__":
    warm_up()
