import dataclasses
import math

import numpy as np
import pytest

from ngnopt import (
    OptimizerSpec,
    ProblemSpec,
    RunBudget,
    STATUS_DIVERGED,
    audit_fundamental_equality,
    audit_ima_equivalence,
    audit_reductions,
    audit_stepsize_bounds,
    audit_theorem_bound,
    audits_to_csv,
    build_problem,
    harness,
    multimodal_global_basin,
    run_default_audits,
    run_once,
    verify,
)


def quadratic(dim=4, n=8, seed=0, interpolating=False):
    return build_problem(ProblemSpec(kind="least_squares", dim=dim, n_samples=n,
                                     seed=seed, interpolating=interpolating))


# --- IMA equivalence ---------------------------------------------------------

def test_ima_equivalence_passes():
    p = quadratic()
    spec = OptimizerSpec(kind="ngn_m_v1", c=1.0, beta1=0.6)
    rep = audit_ima_equivalence(p, spec, steps=50, seed=1)
    assert rep.passed
    assert rep.max_violation <= rep.tolerance
    assert rep.name == "ima_equivalence"


def test_ima_equivalence_stochastic_passes():
    p = quadratic(n=16)
    spec = OptimizerSpec(kind="ngn_m_v1", c=0.5, beta1=0.9)
    rep = audit_ima_equivalence(p, spec, steps=80, seed=3, batch_size=4)
    assert rep.passed


def test_ima_equivalence_fails_on_perturbed_twin(monkeypatch):
    # negative control: a 1e-6 relative change to the twin's step size
    # must show up against run_once's trajectory
    exact = verify.ngn_gamma
    monkeypatch.setattr(verify, "ngn_gamma", lambda c, f, gs: exact(c, f, gs) * (1.0 + 1e-6))
    rep = audit_ima_equivalence(quadratic(), OptimizerSpec(kind="ngn_m_v1", c=1.0, beta1=0.6),
                                steps=50, seed=1)
    assert not rep.passed
    assert rep.max_violation > 100 * rep.tolerance


def test_audits_reject_diverged_runs():
    # (1e60, 0) gives a finite loss and an overflowing gradient, so run_once
    # stops at step 0 and the audit cannot check the trajectory it asked for
    p = dataclasses.replace(build_problem(ProblemSpec(kind="rosenbrock")),
                            x0_default=np.array([1e60, 0.0]))
    with pytest.raises(ValueError, match="diverged at step 0"):
        audit_ima_equivalence(p, OptimizerSpec(kind="ngn_m_v1", c=1.0, beta1=0.5))
    with pytest.raises(ValueError, match="diverged at step 0"):
        audit_reductions(p)


def test_ima_equivalence_rejects_other_rules():
    p = quadratic()
    with pytest.raises(ValueError):
        audit_ima_equivalence(p, OptimizerSpec(kind="ngn", c=1.0))


# --- step-size bounds ----------------------------------------------------------

def run_scalar(p, steps=60, **kw):
    spec = OptimizerSpec(kind="ngn", c=1.0)
    budget = RunBudget(max_steps=steps, success_loss=0.0)
    return run_once(p, spec, budget, seed=0, **kw)


def test_stepsize_bounds_scalar_passes():
    p = quadratic()
    run = run_scalar(p)
    rep = audit_stepsize_bounds(run, c=1.0, L=p.metadata.L)
    assert rep.passed


def test_stepsize_bounds_fails_when_smoothness_understated():
    # claiming a tiny L pushes the certified lower bound to ~c, which a
    # genuine run with nonzero gradients must violate
    p = quadratic()
    run = run_scalar(p)
    rep = audit_stepsize_bounds(run, c=1.0, L=1e-9)
    assert not rep.passed
    assert rep.max_violation > rep.tolerance


def test_stepsize_bounds_fails_on_tampered_report():
    p = quadratic()
    run = run_scalar(p)
    bad = dataclasses.replace(run.step_reports[10], gamma_scalar=1.5)
    run.step_reports[10] = bad
    rep = audit_stepsize_bounds(run, c=1.0, L=p.metadata.L)
    assert not rep.passed
    assert "step 10" in rep.location


def test_stepsize_bounds_coordinate_passes():
    p = quadratic(dim=3, n=12)
    c_coord = np.array([0.5, 1.0, 2.0])
    spec = OptimizerSpec(kind="ngn_d", c=1.0, c_coord=c_coord)
    budget = RunBudget(max_steps=60, success_loss=0.0, batch_size=3)
    run = run_once(p, spec, budget, seed=2)
    rep = audit_stepsize_bounds(run, c=c_coord, L=p.metadata.L_coord)
    assert rep.passed


def test_stepsize_bounds_coordinate_needs_coordinate_rule():
    # a scalar-rule run records no per-coordinate step sizes, so asking for
    # the coordinate audit is an error rather than a silent pass
    p = quadratic(dim=3, n=12)
    spec = OptimizerSpec(kind="ngn", c=1.0)
    budget = RunBudget(max_steps=10, success_loss=0.0)
    run = run_once(p, spec, budget, seed=0)
    with pytest.raises(ValueError):
        audit_stepsize_bounds(run, c=np.full(3, 1.0), L=p.metadata.L_coord)


# --- fundamental step-size equality -----------------------------------------------

def coordinate_run(p, steps=60):
    spec = OptimizerSpec(kind="ngn_d", c=1.0)
    budget = RunBudget(max_steps=steps, success_loss=0.0, batch_size=p.n_samples // 2)
    return run_once(p, spec, budget, seed=0)


def test_fundamental_equality_passes():
    p = quadratic(dim=3, n=12)
    rep = audit_fundamental_equality(coordinate_run(p))
    assert rep.passed
    assert rep.tolerance == 1e-12


def test_fundamental_equality_fails_on_tampered_gamma():
    p = quadratic(dim=3, n=12)
    run = coordinate_run(p)
    rep5 = run.step_reports[5]
    run.step_reports[5] = dataclasses.replace(rep5, gamma_coord=1.01 * rep5.gamma_coord)
    rep = audit_fundamental_equality(run)
    assert not rep.passed


def test_ngn_md_v2_run_passes_coordinate_audits():
    # NGN-MD V2 records its caps c/D_j and its batch gradient, so both
    # coordinate audits read its reports, the bounds one with c=None
    p = quadratic(dim=3, n=12)
    spec = OptimizerSpec(kind="ngn_md_v2", c=0.5, beta1=0.6)
    run = run_once(p, spec, RunBudget(max_steps=60, success_loss=0.0, batch_size=3), seed=1)
    assert len(run.step_reports) == 60
    assert audit_fundamental_equality(run).passed
    assert audit_stepsize_bounds(run, c=None, L=p.metadata.L_coord).passed


def test_fundamental_equality_needs_recording():
    # only the per-coordinate NGN rules record their gradient; a scalar-rule
    # run is an error rather than a silent pass
    p = quadratic(dim=3, n=12)
    spec = OptimizerSpec(kind="ngn", c=1.0)
    run = run_once(p, spec, RunBudget(max_steps=5, success_loss=0.0), seed=0)
    with pytest.raises(ValueError):
        audit_fundamental_equality(run)


# --- reduction identities -----------------------------------------------------------

def test_reductions_exact():
    p = quadratic(dim=4, n=8, seed=5)
    rep = audit_reductions(p, seed=1, steps=50, batch_size=4)
    assert rep.passed
    assert rep.max_violation == 0.0
    assert rep.tolerance == 0.0


def test_reductions_fail_on_perturbed_cap(monkeypatch):
    # negative control: ngn at c against ngn at c (1 + 1e-6) must differ
    # from the first update on
    pairs = verify._reduction_pairs()
    c = verify._REDUCTION_C
    perturbed = ("ngn[c] == ngn[c(1+1e-6)]", OptimizerSpec(kind="ngn", c=c),
                 OptimizerSpec(kind="ngn", c=c * (1.0 + 1e-6)))
    monkeypatch.setattr(verify, "_reduction_pairs", lambda: pairs + [perturbed])
    rep = audit_reductions(quadratic(dim=4, n=8, seed=5), seed=1, steps=50, batch_size=4)
    assert not rep.passed
    assert rep.location == "ngn[c] == ngn[c(1+1e-6)] at step 1"


def test_reductions_draw_one_batch_per_step(monkeypatch):
    # every run of every pair steps in one lockstep group
    calls = []
    original = harness.sample_batch

    def counted(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(harness, "sample_batch", counted)
    rep = audit_reductions(quadratic(dim=4, n=8, seed=5), seed=1, steps=50, batch_size=4)
    assert rep.passed
    assert calls == list(range(50))


@pytest.mark.parametrize("order", ["slow first", "fast first", "error first"])
def test_reductions_raise_for_the_first_bad_run_in_pair_order(monkeypatch, order):
    # the run first in pair order raises what its own run raises, even
    # when a later run diverges at an earlier step
    p = quadratic(dim=4, n=8, seed=5)
    ok = OptimizerSpec(kind="ngn", c=0.5)
    slow = OptimizerSpec(kind="sgdm", c=8.0)  # overflows at step 149
    fast = OptimizerSpec(kind="sgdm", c=1e200)  # overflows on the first step
    broken = OptimizerSpec(kind="ngn_d", c=0.5, c_coord=np.ones(3))  # wrong shape for d=4
    first, later = {"slow first": (slow, fast), "fast first": (fast, slow),
                    "error first": (broken, fast)}[order]
    pairs = [("ok", ok, ok), ("first", ok, first), ("later", later, ok)]
    monkeypatch.setattr(verify, "_reduction_pairs", lambda: pairs)
    budget = RunBudget(max_steps=300, success_loss=-1.0, diverge_loss=math.inf, batch_size=4)
    try:
        run = run_once(p, first, budget, seed=1)
    except ValueError as error:
        want = str(error)
    else:
        assert run.status == STATUS_DIVERGED
        want = f"audit run of {first.kind} diverged at step {run.stop_step}"
    with pytest.raises(ValueError) as got:
        audit_reductions(p, seed=1, steps=300, batch_size=4)
    assert str(got.value) == want


# --- convergence certificates --------------------------------------------------------

def test_theorem_bound_constant_passes():
    p = quadratic(dim=4, n=8, seed=0, interpolating=True)
    rep = audit_theorem_bound(p, K=200)
    assert rep.passed
    assert rep.max_violation == 0.0


def test_theorem_bound_decaying_passes():
    p = quadratic(dim=4, n=8, seed=0, interpolating=True)
    rep = audit_theorem_bound(p, K=200, decaying=True)
    assert rep.passed


def test_theorem_bound_requires_horizon():
    p = quadratic(interpolating=True)
    with pytest.raises(ValueError):
        audit_theorem_bound(p, K=5)


def test_theorem_bound_requires_interpolation():
    p = quadratic(interpolating=False)
    with pytest.raises(ValueError):
        audit_theorem_bound(p, K=100)


# --- basin finder --------------------------------------------------------------------

def test_multimodal_global_basin_brackets_origin():
    p = build_problem(ProblemSpec(kind="multimodal_1d", seed=0))
    left, right = multimodal_global_basin(p, n_grid=20001)
    assert left < 0.0 < right
    assert -6.0 < left < -3.0
    assert 0.05 < right < 1.0


# --- report plumbing -----------------------------------------------------------------

def test_report_invariant_and_csv_format(tmp_path):
    p = quadratic()
    reps = [
        audit_ima_equivalence(p, OptimizerSpec(kind="ngn_m_v1", c=1.0, beta1=0.5),
                              steps=20),
        audit_reductions(p, steps=20),
    ]
    for r in reps:
        assert r.passed == (r.max_violation <= r.tolerance)
    out = tmp_path / "audits.csv"
    audits_to_csv(reps, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "name,passed,max_violation,location"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 4  # commas in locations are replaced
        assert cells[1] in ("true", "false")
        float(cells[2])  # parses as a number
    assert lines[1].startswith("ima_equivalence,true,")


def test_run_default_audits_quick_all_pass():
    reports = run_default_audits(quick=True)
    assert len(reports) == 9
    names = [r.name for r in reports]
    assert len(set(names)) == 9
    for r in reports:
        assert r.passed, f"{r.name}: {r.max_violation} at {r.location}"
