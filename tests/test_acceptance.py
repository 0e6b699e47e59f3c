"""Acceptance gate: twelve checks, one printed verdict line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; each test prints its verdict before asserting, so the line appears
in the captured output on failure as well.
"""

import filecmp
import pathlib
import time

import numpy as np
import pytest

from ngnopt import (
    OptimizerSpec,
    ProblemSpec,
    RunBudget,
    apply_step,
    audit_fundamental_equality,
    audit_ima_equivalence,
    audit_reductions,
    audit_stepsize_bounds,
    audit_theorem_bound,
    build_problem,
    cli,
    evaluate,
    finite_diff_grad,
    init_state,
    least_squares_problem,
    multimodal_global_basin,
    parse_config,
    run_once,
    run_sweep,
)
from ngnopt.problems import PROBLEM_KINDS

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def verdict(capsys):
    """Report one pass/fail line per criterion, bypassing output capture."""

    def _verdict(num, label, ok, detail=""):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label}"
        if detail:
            line += f" -- {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _verdict


def quad(dim, n, seed, interpolating=False):
    return build_problem(ProblemSpec(kind="least_squares", dim=dim, n_samples=n,
                                     seed=seed, interpolating=interpolating))


def shipped(name):
    """A shipped config, parsed as `ngnopt sweep` parses it, set to write nothing."""
    sweep = parse_config(str(CONFIG_DIR / name))
    sweep.out_path = None
    return sweep


def test_criterion_01_stepsize_bounds(verdict):
    # every recorded scalar step size in [c/(1+cL), c] and every coordinate
    # step size in [c_j/(1+c_j L_j), c_j], within 1e-12 of the cap, over at
    # least 1e4 steps of each rule on random quadratics with d <= 100
    t0 = time.monotonic()
    reports = []
    scalar_steps = 0
    for dim, kind, c, beta, seed in [
        (20, "ngn", 1.0, 0.0, 0),
        (60, "ngn", 0.3, 0.0, 1),
        (100, "ngn", 2.0, 0.0, 2),
        (40, "ngn_m_v1", 0.5, 0.9, 3),
        (80, "ngn_m_v1", 1.0, 0.5, 4),
    ]:
        p = quad(dim, 2 * dim, seed)
        spec = OptimizerSpec(kind=kind, c=c, beta1=beta)
        budget = RunBudget(max_steps=2000, success_loss=0.0, batch_size=dim // 2)
        run = run_once(p, spec, budget, seed=seed)
        scalar_steps += len(run.step_reports)
        reports.append(audit_stepsize_bounds(run, c=c, L=p.metadata.L))
    coord_steps = 0
    for dim, use_vector, seed in [(30, False, 5), (100, True, 6),
                                  (50, True, 7), (80, False, 8)]:
        p = quad(dim, 2 * dim, seed)
        rng = np.random.default_rng(seed)
        # keep every c_j below the 1/(2 L_j) stability cap so the runs
        # survive the whole budget and record the full step count
        if use_vector:
            c_coord = rng.uniform(0.2, 0.45, size=dim) / p.metadata.L_coord
            c_scalar = 1.0
        else:
            c_coord = None
            c_scalar = float(0.45 / np.max(p.metadata.L_coord))
        spec = OptimizerSpec(kind="ngn_d", c=c_scalar, c_coord=c_coord)
        budget = RunBudget(max_steps=2500, success_loss=0.0, batch_size=dim // 2)
        run = run_once(p, spec, budget, seed=seed)
        coord_steps += len(run.step_reports)
        cs = c_coord if c_coord is not None else np.full(dim, c_scalar)
        reports.append(audit_stepsize_bounds(run, c=cs, L=p.metadata.L_coord))
    elapsed = time.monotonic() - t0
    worst = max(r.max_violation for r in reports)
    ok = (all(r.passed for r in reports) and scalar_steps >= 10 ** 4
          and coord_steps >= 10 ** 4 and elapsed < 10.0)
    verdict(1, "step-size bounds", ok,
            f"{scalar_steps} scalar + {coord_steps} coordinate steps, "
            f"worst relative violation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_fundamental_equality(verdict):
    # gamma_j g_j^2 == 2 ((c_j - gamma_j)/c_j) f_S at every step, 1e-12
    # relative, over a 1000-step stochastic coordinate-rule run
    p = quad(20, 40, 0)
    c_stable = float(0.45 / np.max(p.metadata.L_coord))
    spec = OptimizerSpec(kind="ngn_d", c=c_stable)
    budget = RunBudget(max_steps=1000, success_loss=0.0, batch_size=10)
    run = run_once(p, spec, budget, seed=0)
    rep = audit_fundamental_equality(run)
    ok = rep.passed and rep.tolerance == 1e-12 and len(run.step_reports) == 1000
    verdict(2, "fundamental step-size equality", ok,
            f"max relative residual {rep.max_violation:.2e} over 1000 steps")


def test_criterion_03_ima_equivalence(verdict):
    # the heavy-ball recursion and its two-sequence moving-average form
    # agree to 1e-10 over 100 steps for beta in {0.1, 0.5, 0.9}
    p = quad(10, 20, 1)
    reports = []
    for beta in (0.1, 0.5, 0.9):
        spec = OptimizerSpec(kind="ngn_m_v1", c=1.0, beta1=beta)
        reports.append(audit_ima_equivalence(p, spec, steps=100, seed=0))
    ok = all(r.passed and r.tolerance == 1e-10 for r in reports)
    worst = max(r.max_violation for r in reports)
    verdict(3, "moving-average equivalence", ok,
            f"worst deviation {worst:.2e} across beta in {{0.1, 0.5, 0.9}}")


def test_criterion_04_reduction_identities(verdict):
    # the four parameter collapses reproduce their reduced rules bit for bit
    p = quad(8, 16, 5)
    rep = audit_reductions(p, seed=1, steps=100, batch_size=4)
    ok = rep.passed and rep.max_violation == 0.0
    verdict(4, "reduction identities", ok,
            "four pairs bit-identical over 100 steps")


def test_criterion_05_convergence_bound_audits(verdict):
    # on interpolating full-batch quadratics the measured average
    # suboptimality stays below the certified bound, for the constant and
    # the decaying schedule, 10 seeds, d in {5, 20, 50}, K = 1e4
    t0 = time.monotonic()
    failures = []
    for dim in (5, 20, 50):
        for seed in range(10):
            p = quad(dim, 2 * dim, seed, interpolating=True)
            for decaying in (False, True):
                rep = audit_theorem_bound(p, K=10 ** 4, decaying=decaying)
                if not rep.passed:
                    failures.append((dim, seed, decaying, rep.max_violation))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    verdict(5, "convergence bound audits", ok,
            f"60 audits, {len(failures)} failures, {elapsed:.1f}s")


def test_criterion_06_rosenbrock_stability_grid(verdict):
    # NGN with momentum converges across six decades of c on the banana
    # function; the heavy-ball baseline survives only the smallest rate
    rows = run_sweep(shipped("rosenbrock_sweep.cfg")).rows
    status = {(r["optimizer"], r["c"]): r["status"] for r in rows}
    cs = sorted({r["c"] for r in rows})
    expected = {
        "ngn_m_v1": ["converged"] * 6,
        "sgdm": ["converged"] + ["diverged"] * 5,
    }
    got = {kind: [status.get((kind, c)) for c in cs] for kind in expected}
    ok = len(rows) == 12 and cs[0] == 1e-3 and got == expected
    verdict(6, "rosenbrock stability grid", ok,
            f"ngn_m_v1 {got['ngn_m_v1']}, sgdm {got['sgdm']}")


def test_criterion_07_polynomial_stability_grid(verdict):
    # on x^2 (1 + x^2): NGN with momentum reaches 1e-15 for every c across
    # eight decades; the momentum baseline converges somewhere, but only
    # below 1e-1, and diverges above; and the best NGN run beats the best
    # baseline run
    t0 = time.monotonic()
    rows = run_sweep(shipped("polynomial_sweep.cfg")).rows
    elapsed = time.monotonic() - t0
    ngn = [r for r in rows if r["optimizer"] == "ngn_m_v1"]
    gdm = [r for r in rows if r["optimizer"] == "sgdm"]
    converged = [r for r in gdm if r["status"] == "converged"]
    ngn_ok = all(r["status"] == "converged" for r in ngn)
    gdm_window = (bool(converged) and all(r["c"] <= 1e-2 for r in converged)
                  and all(r["status"] == "diverged" for r in gdm if r["c"] >= 1e-1))
    best_ngn = min((r["steps_to_success"] for r in ngn if r["status"] == "converged"),
                   default=float("inf"))
    best_gdm = min((r["steps_to_success"] for r in converged), default=float("inf"))
    ok = (len(rows) == 18 and ngn_ok and gdm_window and best_ngn < best_gdm
          and elapsed < 30.0)
    verdict(7, "polynomial stability grid", ok,
            f"best ngn_m {best_ngn} steps vs best baseline {best_gdm}, "
            f"baseline diverged above 1e-2, {elapsed:.1f}s")


def test_criterion_08_schedule_ordering(verdict):
    # after 1e4 steps on ridge quadratics, decaying c_k = c0/sqrt(k+1)
    # reaches a loss no worse than the horizon-tuned constant c0/sqrt(K),
    # which is no worse than a tiny safe constant
    steps = 10 ** 4
    violations = []
    for r in (1.0, 0.1, 0.01):
        for seed in (0, 1, 2):
            p = build_problem(ProblemSpec(kind="ridge_quadratic", dim=100,
                                          seed=seed, r=r))
            finals = {}
            for name, c0, sched in (
                ("decaying", 1.0, "inv_sqrt_step"),
                ("horizon", 1.0, "inv_sqrt_k"),
                ("tiny", 1e-4, "constant"),
            ):
                total = steps if sched == "inv_sqrt_k" else None
                spec = OptimizerSpec(kind="ngn", c=c0, schedule=sched,
                                     total_steps=total)
                rec = run_once(p, spec, RunBudget(max_steps=steps,
                                                  success_loss=0.0), seed=seed)
                finals[name] = rec.final_loss
            if not finals["decaying"] <= finals["horizon"] <= finals["tiny"]:
                violations.append((r, seed, finals))
    ok = not violations
    verdict(8, "schedule ordering on ridge quadratics", ok,
            f"ordering held in {9 - len(violations)}/9 problem instances")


def test_criterion_09_multimodal_basin_counts(verdict):
    # over the config's 301 starting points in [-20, 20], momentum NGN
    # lands in the global-minimum basin at least as often as the
    # heavy-ball baseline at the two largest step-size caps; basin edges
    # come from a dense scan
    sweep = shipped("multimodal_sweep.cfg")
    sweep.c_grid = [100.0, 1000.0]
    rows = run_sweep(sweep).rows
    left, right = multimodal_global_basin(build_problem(sweep.problem))
    hits = dict.fromkeys(((r["optimizer"], r["c"]) for r in rows), 0)
    for r in rows:
        xf = float(r["x_final"][0])
        if np.isfinite(xf) and left <= xf <= right:
            hits[r["optimizer"], r["c"]] += 1
    ok = (hits["ngn_m_v1", 100.0] >= hits["sgdm", 100.0]
          and hits["ngn_m_v1", 1000.0] >= hits["sgdm", 1000.0])
    verdict(9, "multimodal global-basin counts", ok,
            f"c=100: {hits['ngn_m_v1', 100.0]} vs {hits['sgdm', 100.0]}; "
            f"c=1000: {hits['ngn_m_v1', 1000.0]} vs {hits['sgdm', 1000.0]}")


def test_criterion_10_gradient_audits(verdict):
    # central finite differences confirm every analytic gradient at
    # relative error 1e-5 on 100 random points per problem family
    worst_by_kind = {}
    for kind in PROBLEM_KINDS:
        p = build_problem(ProblemSpec(kind=kind, dim=4, n_samples=9, seed=0))
        rng = np.random.default_rng(0)
        if kind == "multimodal_1d":
            points = rng.uniform(-20.0, 20.0, size=(100, 1))
        elif kind == "polynomial_1d":
            points = rng.uniform(-3.0, 3.0, size=(100, 1))
        else:
            points = rng.uniform(-3.0, 3.0, size=(100, p.dim))
        batch = p.full_batch()
        worst = 0.0
        for x in points:
            s = evaluate(p, x, batch)
            h = 1e-6 * max(1.0, float(np.max(np.abs(x))))
            fd = finite_diff_grad(p, x, batch, h)
            denom = max(float(np.linalg.norm(s.grad)), 1e-12)
            worst = max(worst, float(np.linalg.norm(fd - s.grad)) / denom)
        worst_by_kind[kind] = worst
    ok = all(v <= 1e-5 for v in worst_by_kind.values())
    overall = max(worst_by_kind.values())
    verdict(10, "finite-difference gradient audits", ok,
            f"worst relative error {overall:.2e} across "
            f"{len(PROBLEM_KINDS)} families x 100 points")


def test_criterion_11_weight_decay_sanity(verdict):
    # a negative bracket zeroes the gradient coefficient of the coupled
    # variant, and lambda = 0 collapses both variants onto the plain rule
    A = np.array([[1.0]])
    b = np.array([0.0])
    p = least_squares_problem(A, b)
    x0 = np.array([5.0])
    spec = OptimizerSpec(kind="ngn_mdv1w", c=2.0, beta1=0.4, wd_lambda=1.0)
    sample = evaluate(p, x0, p.full_batch())
    state = init_state(x0)
    gamma = apply_step(state, sample, spec)[0]
    bracket_ok = gamma == 0.0 and state.x[0] == 5.0 / 3.0

    p2 = quad(6, 12, 3)
    batch = p2.full_batch()
    collapse_ok = True
    for wd_kind in ("dec_ngn_mdv1", "ngn_mdv1w"):
        spec_wd = OptimizerSpec(kind=wd_kind, c=0.8, beta1=0.9, wd_lambda=0.0)
        spec_md = OptimizerSpec(kind="ngn_md_v1", c=0.8, beta1=0.9)
        sa = init_state(p2.x0_default + 1.0)
        sb = init_state(p2.x0_default + 1.0)
        for _ in range(100):
            apply_step(sa, evaluate(p2, sa.x, batch), spec_wd)
            apply_step(sb, evaluate(p2, sb.x, batch), spec_md)
            if not np.array_equal(sa.x, sb.x):
                collapse_ok = False
                break
    ok = bracket_ok and collapse_ok
    verdict(11, "weight-decay sanity", ok,
            "negative bracket clamps to zero; lambda=0 collapses bit-exactly")


def test_criterion_12_sweep_determinism(verdict, tmp_path):
    # the sweep command is a pure function of its config: repeated
    # invocations produce byte-identical summary files
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "[problem]\n"
        "kind = least_squares\n"
        "dim = 6\n"
        "n_samples = 12\n"
        "seed = 0\n"
        "\n"
        "[optimizers]\n"
        "kinds = ngn, ngn_m, sgdm\n"
        "\n"
        "[grid]\n"
        "c = 0.5, 1.0\n"
        "beta = 0.9\n"
        "seeds = 0, 1\n"
        "\n"
        "[budget]\n"
        "max_steps = 300\n"
        "batch_size = 3\n"
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    ok = (filecmp.cmp(out1, out2, shallow=False)
          and out1.read_bytes() == out2.read_bytes())
    verdict(12, "sweep determinism", ok,
            f"{out1.stat().st_size} bytes, identical across invocations")
