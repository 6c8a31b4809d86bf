"""The benchmark's traced mode wraps library functions by attribute
(``pipebench/run.py``, ``install_pipeline``). These tests import the
runner without running it, and check that every attribute it wraps
exists and is put back."""

import importlib.util
import sys
from pathlib import Path

import pytest

from acecolor import discharging
from acecolor.embedding import planarize
from acecolor.generate import generate_instance

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def runner(monkeypatch):
    """pipebench/run.py as a module, imported without writing bytecode
    next to it; the modules it imports by bare name are dropped after."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for where in ("benchmarks", "pipebench"):
        monkeypatch.syspath_prepend(str(ROOT / where))
    spec = importlib.util.spec_from_file_location("pipebench_run", ROOT / "pipebench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in ("workloads", "spans", "bench_kernel"):
        sys.modules.pop(name, None)


def test_traced_pipeline_wraps_and_restores_every_attribute(runner):
    tracer = runner.Tracer()
    lib = runner.Lib()
    assert lib.discharging is discharging  # the modules the tests use
    try:
        runner.install_pipeline(tracer, lib)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, orig in patches:
            assert getattr(owner, attr).__wrapped__ is orig
        # the audit's blame reaches the conditions through the wrapped
        # public check_condition
        d = generate_instance("grid-with-crossings", 0)
        rep = discharging.discharge(planarize(d), d.base)
        assert rep.negative_elements
        names = [tracer.names[tracer.spans[4 * i]] for i in range(len(tracer))]
        assert "discharging.audit_final_charges" in names
        assert "conditions.check_condition" in names
    finally:
        tracer.uninstall()
    for owner, attr, orig in patches:
        assert getattr(owner, attr) is orig
