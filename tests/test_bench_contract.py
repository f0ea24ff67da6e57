"""The benchmark's contract with the package: `bench/` names engine functions
and runs engine calls, so a change that drops a traced name or breaks a
workload verdict fails here rather than only in a benchmark run.

Reads `bench/` and changes nothing there.  The tracer is installed on the
gradman modules this test session already imported, never on a fresh import,
so class identity stays the same for every other test.
"""

import importlib
import pathlib
import sys
from types import SimpleNamespace

import pytest

import gradman

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (bench/run.py)
from tracer import COUNTS, SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CASES_PER_WORKLOAD = 3


def engine():
    """The namespace `run.load_engine` builds, from the modules already imported."""
    mods = {name: importlib.import_module(f"gradman.{name}") for name in run.ENGINE_MODULES}
    return SimpleNamespace(modules=[gradman] + list(mods.values()), **mods)


def resolve(gm, module, path):
    obj = getattr(gm, module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_name_resolves():
    gm = engine()
    targets = [t for ts in SPANS.values() for t in ts] + list(COUNTS.values())
    for module, path in targets:
        assert callable(resolve(gm, module, path)), (module, path)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_workload_cases_pass(name):
    gm = engine()
    workload = WORKLOADS[name]
    pool = workload.make_pool(run.DEFAULT_SEEDS[name], gm)
    originals = {(m, p): resolve(gm, m, p) for ts in SPANS.values() for m, p in ts}
    tracer = Tracer(gm)
    tally = run.Run(workload, gm)
    tracer.install()
    try:
        for index, spec in enumerate(pool[:CASES_PER_WORKLOAD]):
            tally.case(index, spec, root=tracer.root)
    finally:
        tracer.uninstall()
    assert tally.failed == 0, tally.failures
    assert tracer.calls[run.ROOT_SPAN] == CASES_PER_WORKLOAD
    assert sum(tracer.calls.values()) > CASES_PER_WORKLOAD
    assert {(m, p): resolve(gm, m, p) for m, p in originals} == originals


def traced_pass(name):
    """Call counts of one traced pass over a workload's trace cases at its
    default seed."""
    gm = engine()
    workload = WORKLOADS[name]
    pool = workload.make_pool(run.DEFAULT_SEEDS[name], gm)
    tracer = Tracer(gm)
    tally = run.Run(workload, gm)
    tracer.install()
    try:
        for index, spec in enumerate(pool[:workload.trace_cases]):
            tally.case(index, spec, root=tracer.root)
    finally:
        tracer.uninstall()
    assert tally.failed == 0, tally.failures
    return tracer.calls


def test_split_tower_reads_constraint_spaces_off_the_splitting():
    # a constant bundle calls compute_K only at a degree -2 rank mismatch,
    # with n = 2, and past its splitting's first failure: 6 calls per traced
    # pass, 39 when every degree -2 kept compute_K, 50 when a mismatch degree
    # did too, 123 with one per degree
    assert traced_pass("split-tower")["coalgebra.compute_K"] == 6


def test_xdep_admissible_builds_no_constraint_kernel():
    # an x-dependent bundle counts dim K from the generators below each
    # degree and tests containment on its columns while every lower degree
    # is equal, which no pool case leaves: 51 compute_K and 6 kernel_basis
    # calls per traced pass when every degree built its constraint space
    calls = traced_pass("xdep-admissible")
    assert (calls["coalgebra.compute_K"], calls["exactnum.kernel_basis"]) == (0, 0)


def test_xdep_admissible_point_values_add_no_rank_call_or_product():
    # the sample-point ranks and the fiber read one table of monomial values
    # per point; evaluation multiplies numbers, never Polys, and each
    # `rank_at` stays one elimination, so the counts are the ones taken
    # before the table
    calls = traced_pass("xdep-admissible")
    assert (calls["exactnum.rat"], calls["exactnum.poly_mul"]) == (102, 216)


def test_frobenius_flatten_counts():
    # normal forms, field transports and polynomial products per traced
    # pass at seed 13: chart maps built without the constructor's check,
    # and the inverse of I and an aligned block returned without
    # elimination, skip no call that a traced name counts
    calls = traced_pass("frobenius-flatten")
    assert (calls["distrib.frobenius_normal_form"], calls["fields.transform_field"],
            calls["exactnum.poly_mul"]) == (30, 118, 920)
