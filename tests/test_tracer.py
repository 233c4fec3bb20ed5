"""The benchmark's tracer wraps program names by lookup in their owner's
__dict__; a name it wraps that the program no longer defines breaks every
traced run.  Installing and restoring the tracer here keeps that contract
under the test suite."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_existing_names_and_restores_them(monkeypatch):
    # importing run.py pins the BLAS thread variables; monkeypatch puts the
    # old values (or their absence) back afterwards
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)

    tracer = run.install_tracer()
    patches = list(tracer._patches)
    assert patches
    for owner, attr, original in patches:
        assert owner.__dict__[attr].__wrapped__ is original, attr
    tracer.restore()
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, attr
