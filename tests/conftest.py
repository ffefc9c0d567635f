import numpy as np
import pytest

import rigidity as R

import fixtures as fx


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260816)


def _run(graph, target, **kw):
    cfg = R.PipelineConfig(**kw)
    return R.run_pipeline(graph, target, cfg)


@pytest.fixture(scope="session")
def battery_reports():
    """Pipeline reports for the property-suite graphs, both targets.

    Cached once per session; several test modules and the acceptance
    criteria all read from this dict.
    """
    out = {}
    for g in fx.battery():
        for target in (R.TargetKind.LOWER, R.TargetKind.UPPER):
            out[(g.name, target)] = _run(g, target)
    return out


@pytest.fixture(scope="session")
def z12_exact_report():
    """Z12 circulant under its rotation subgroup: the exact-cone showcase."""
    g = fx.z12()
    cfg = R.PipelineConfig(group=fx.rotation_gens(g, 12))
    return R.run_pipeline(g, R.TargetKind.LOWER, cfg)


@pytest.fixture(scope="session")
def tensegrity_report():
    return _run(fx.tensegrity20(), R.TargetKind.LOWER)


@pytest.fixture()
def eigensolve_fails_after_first_call(monkeypatch):
    """rigidity.certify.eig_sym solves once, then raises ConvergenceFailure."""
    import rigidity.certify as C

    real = C.eig_sym
    calls = 0

    def eig_sym(A):
        nonlocal calls
        calls += 1
        if calls > 1:
            raise R.ConvergenceFailure("eigensolve failure injected by the test")
        return real(A)

    monkeypatch.setattr(C, "eig_sym", eig_sym)
