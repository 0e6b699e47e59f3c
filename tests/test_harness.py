import dataclasses
import errno
import filecmp
import functools
import math
import multiprocessing
import os
import subprocess
import sys
import time
import types

import numpy as np
import pytest

from ngnopt import (
    ConfigError,
    OptimizerSpec,
    ProblemSpec,
    RunBudget,
    SweepSpec,
    build_problem,
    cli,
    emit_csv,
    parse_config,
    parse_summary_csv,
    parse_trajectory_csv,
    resolve_out_path,
    run_once,
    run_sweep,
)
from ngnopt import harness, verify
from ngnopt.harness import make_optimizer_spec, split_kind
from ngnopt.optimizers import OPTIMIZER_KINDS
from ngnopt.problems import evaluate, sample_batch

QUAD = ProblemSpec(kind="least_squares", dim=3, n_samples=6, seed=0)
CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def small_sweep(tmp_path=None, **kw):
    defaults = dict(
        problem=QUAD,
        kinds=["ngn", "ngn_m_v1"],
        c_grid=[0.5, 1.0],
        beta_grid=[0.9],
        seeds=[0, 1],
        budget=RunBudget(max_steps=50),
    )
    defaults.update(kw)
    if tmp_path is not None:
        defaults["out_path"] = str(tmp_path / "summary.csv")
    return SweepSpec(**defaults)


# --- validation -----------------------------------------------------------------

def test_run_budget_validation():
    with pytest.raises(ValueError):
        RunBudget(max_steps=0)
    with pytest.raises(ValueError):
        RunBudget(max_steps=10, success_loss=2.0, diverge_loss=1.0)
    with pytest.raises(ValueError):
        RunBudget(max_steps=10, batch_size=0)
    with pytest.raises(ValueError, match=r"max_steps must be a whole number >= 1, got 2\.5"):
        RunBudget(max_steps=2.5)
    with pytest.raises(ValueError, match=r"batch_size must be a whole number >= 1, got 2\.5"):
        RunBudget(max_steps=10, batch_size=2.5)


@pytest.mark.parametrize("field", ["success_loss", "diverge_loss"])
def test_run_budget_names_a_nan_stop_threshold(field):
    with pytest.raises(ValueError, match=f"^{field} must not be NaN, got nan$"):
        RunBudget(max_steps=10, **{field: float("nan")})


@pytest.mark.parametrize("field", ["success_loss", "diverge_loss"])
def test_cli_names_a_nan_stop_threshold(tmp_path, capsys, field):
    flag = "--" + field.replace("_", "-")
    assert cli(["run", "--problem", "rosenbrock", "--optimizer", "ngn", "--c", "0.1",
                flag, "nan"]) == 1
    assert capsys.readouterr() == ("", f"error: {field} must not be NaN, got nan\n")
    cfg = write_config(tmp_path, GOOD_CONFIG.replace("[budget]\n", f"[budget]\n{field} = nan\n")
                       .replace("success_loss = 1e-10\n", ""))
    assert cli(["sweep", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr() == ("", f"error: {field} must not be NaN, got nan\n")
    assert not (tmp_path / "r.csv").exists()


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        small_sweep(kinds=[])
    with pytest.raises(ValueError):
        small_sweep(kinds=["nope"])
    with pytest.raises(ValueError):
        small_sweep(kinds=["ngn@bogus_schedule"])
    with pytest.raises(ValueError):
        small_sweep(c_grid=[])
    with pytest.raises(ValueError):
        small_sweep(seeds=[])
    with pytest.raises(ValueError, match=r"seeds must be whole numbers >= 0, got \[0, -1\]"):
        small_sweep(seeds=[0, -1])
    with pytest.raises(ValueError, match=r"seeds must be whole numbers >= 0, got \[1\.5\]"):
        small_sweep(seeds=[1.5])
    with pytest.raises(ValueError, match="x0_grid, when given, must be non-empty"):
        small_sweep(x0_grid=[])


@pytest.mark.parametrize("setting, match", [
    ({"schedule": "bogus"}, "unknown schedule 'bogus'"),
    ({"beta2": 1.5}, r"beta2 must lie in \[0, 1\)"),
    ({"eps": 0.0}, "eps must be positive and finite"),
], ids=["schedule", "beta2", "eps"])
def test_sweep_spec_rejects_bad_shared_settings_when_built(setting, match):
    # every cell shares them, so a bad one fails the spec, not each cell as an error row
    with pytest.raises(ValueError, match=match):
        small_sweep(**setting)


@pytest.mark.parametrize("field, value", [("c_grid", []), ("kinds", ["ngn_m"])],
                         ids=["empty_c_grid", "alias_kind"])
def test_run_sweep_rechecks_fields_assigned_after_construction(tmp_path, field, value):
    # demos and benchmarks adjust a parsed sweep by assignment; run_sweep
    # raises the construction-time error, not 0 rows or an error row
    sweep = parse_config(os.path.join(CONFIG_DIR, "rosenbrock_sweep.cfg"))
    with pytest.raises(ValueError) as built:
        dataclasses.replace(sweep, **{field: value})
    setattr(sweep, field, value)
    sweep.out_path = str(tmp_path / "summary.csv")
    with pytest.raises(ValueError) as ran:
        run_sweep(sweep)
    assert str(ran.value) == str(built.value)
    assert not os.path.exists(sweep.out_path)


def test_cli_sweep_rejects_a_bad_shared_setting_and_writes_no_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, GOOD_CONFIG.replace("beta2 = 0.99", "beta2 = 1.5"))
    out = tmp_path / "results.csv"
    assert cli(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: beta2 must lie in [0, 1)\n"
    assert not out.exists()


@pytest.mark.parametrize("x0", ["1,a,2", "1,,2", ""])
def test_cli_run_names_x0_in_its_error(x0, capsys):
    argv = ["run", "--problem", "least_squares", "--dim", "3", "--optimizer", "ngn",
            "--c", "0.5", "--steps", "5", "--x0", x0]
    assert cli(argv) == 1
    assert capsys.readouterr().err == f"error: --x0: expected comma-separated numbers, got {x0!r}\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_sweep_spec_rejects_non_finite_wd(value):
    with pytest.raises(ValueError, match="wd_lambda"):
        small_sweep(wd_lambda=value)


@pytest.mark.parametrize("flag", ["--wd", "--eps"])
def test_cli_run_rejects_non_finite_optimizer_settings(flag, capsys):
    argv = ["run", "--problem", "least_squares", "--dim", "3", "--optimizer", "ngn_md_v1",
            "--c", "0.5", "--steps", "5", flag, "nan"]
    assert cli(argv) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    (["--problem", "regression"], "argument --problem: invalid choice: 'regression'"),
    (["--problem", "least_squares", "--data", "data.csv"], "unrecognized arguments: --data"),
], ids=["problem-regression", "data-flag"])
def test_cli_run_rejects_the_removed_regression_flags(extra, message, capsys):
    argv = ["run", "--optimizer", "ngn", "--c", "0.5", "--steps", "5"] + extra
    assert cli(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and message in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_run_rejects_non_finite_r(value, capsys):
    argv = ["run", "--problem", "ridge", "--dim", "3", "--optimizer", "ngn", "--c", "1.0",
            "--steps", "5", "--r", value]
    assert cli(argv) == 1
    assert "r must be finite" in capsys.readouterr().err


def test_split_kind():
    assert split_kind("ngn") == ("ngn", None)
    assert split_kind("ngn@inv_sqrt_step") == ("ngn", "inv_sqrt_step")


# --- single runs ------------------------------------------------------------------

def test_run_once_converges_on_quadratic():
    p = build_problem(ProblemSpec(kind="least_squares", dim=3, n_samples=6,
                                  seed=0, interpolating=True))
    spec = OptimizerSpec(kind="ngn", c=1.0)
    budget = RunBudget(max_steps=2000, success_loss=1e-12)
    rec = run_once(p, spec, budget, seed=0, x0=np.ones(3))
    assert rec.status == "converged"
    assert rec.final_loss <= 1e-12
    assert rec.steps_to_success == rec.stop_step
    assert len(rec.losses) == len(rec.grad_norms) == rec.stop_step + 1
    assert len(rec.step_reports) == rec.stop_step


def test_run_once_divergence_detected_first():
    # an exploding baseline run must stop with diverged, not budget_exhausted
    p = build_problem(ProblemSpec(kind="rosenbrock"))
    spec = OptimizerSpec(kind="sgdm", c=1.0, beta1=0.9)
    budget = RunBudget(max_steps=10000, success_loss=1e-10)
    rec = run_once(p, spec, budget, seed=0)
    assert rec.status == "diverged"
    assert rec.stop_step < 10000


def test_run_once_nonfinite_gradient_is_divergence_for_every_kind():
    # the loss at (1e60, 0) is finite but ||g||^2 overflows; no kind may
    # step from there or raise
    p = build_problem(ProblemSpec(kind="rosenbrock"))
    budget = RunBudget(max_steps=10, diverge_loss=float("inf"))
    for kind in OPTIMIZER_KINDS:
        rec = run_once(p, OptimizerSpec(kind=kind, c=1.0), budget, seed=0,
                       x0=np.array([1e60, 0.0]))
        assert math.isfinite(rec.losses[0]), kind
        assert rec.status == "diverged", kind
        assert rec.stop_step == 0, kind


# (problem, batch size, beta2, c) at which c / D_j overflows on NGN-MD V2's
# first step, where D_j ~ |g_j| < 1
V2_OVERFLOW = [
    (ProblemSpec(kind="least_squares", dim=3), None, 0.999, 1e308),
    (ProblemSpec(kind="ridge_quadratic", dim=2), 2, 0.0, 1e307),
]


@pytest.mark.parametrize("problem, batch_size, beta2, c", V2_OVERFLOW)
def test_ngn_md_v2_ends_a_run_where_c_over_d_overflows(problem, batch_size, beta2, c):
    budget = RunBudget(max_steps=50, batch_size=batch_size)
    spec = OptimizerSpec(kind="ngn_md_v2", c=c, beta2=beta2)
    for seed in (0, 1, 2):
        rec = run_once(build_problem(problem), spec, budget, seed=seed)
        assert rec.status in ("converged", "diverged", "budget_exhausted")
        assert rec.stop_reason is not None
    rows = run_sweep(SweepSpec(problem, ["ngn_md_v2"], [c], [0.0, 0.9], [0, 1, 2], budget,
                               beta2=beta2)).rows
    assert [row["error"] for row in rows if row["status"] == "error"] == []


def test_cli_run_of_ngn_md_v2_where_c_over_d_overflows(capsys):
    assert cli(["run", "--problem", "least_squares", "--dim", "3", "--optimizer", "ngn_md_v2",
                "--c", "1e308", "--steps", "50"]) == 0
    assert capsys.readouterr().out.startswith("status=")


LSQ_INTERP = ProblemSpec(kind="least_squares", dim=3, n_samples=6, seed=0, interpolating=True)


@pytest.mark.parametrize("problem, spec, budget, status", [
    (LSQ_INTERP, OptimizerSpec(kind="ngn", c=1.0),
     RunBudget(max_steps=2000, success_loss=1e-12), "converged"),
    (ProblemSpec(kind="rosenbrock"), OptimizerSpec(kind="sgdm", c=1.0, beta1=0.9),
     RunBudget(max_steps=10000, success_loss=1e-10), "diverged"),
    (LSQ_INTERP, OptimizerSpec(kind="ngn_m_v1", c=1e-3),
     RunBudget(max_steps=7, success_loss=1e-20), "budget_exhausted"),
], ids=["converged", "diverged", "budget_exhausted"])
def test_run_once_iterates_invariant(problem, spec, budget, status):
    p = build_problem(problem)
    rec = run_once(p, spec, budget, seed=0)
    assert rec.status == status
    assert len(rec.iterates) == len(rec.step_reports) + 1
    assert np.array_equal(rec.iterates[0], p.x0_default)
    for x, loss in zip(rec.iterates, rec.losses):
        if np.all(np.isfinite(x)):
            assert evaluate(p, x, p.full_batch()).loss == loss


def test_run_once_budget_exhausted():
    p = build_problem(QUAD)
    spec = OptimizerSpec(kind="ngn", c=1e-6)
    budget = RunBudget(max_steps=5, success_loss=1e-20)
    rec = run_once(p, spec, budget, seed=0, x0=np.ones(3))
    assert rec.status == "budget_exhausted"
    assert len(rec.losses) == 5  # one evaluation per executed step
    assert len(rec.step_reports) == 5
    assert rec.stop_step is None
    assert rec.steps_to_success is None


def test_run_once_converges_at_a_loss_equal_to_success_loss():
    # success is loss <= success_loss: the polynomial's start x0 = 1 has a
    # loss of exactly 1 * 1 * (1 + 1) = 2.0, so the run stops before a step
    p = build_problem(ProblemSpec(kind="polynomial_1d", x0=(1.0,)))
    rec = run_once(p, OptimizerSpec(kind="ngn", c=1.0),
                   RunBudget(max_steps=10, success_loss=2.0), seed=0)
    assert rec.losses == [2.0]
    assert (rec.status, rec.stop_reason, rec.steps_to_success) == ("converged", "success", 0)
    assert rec.step_reports == []


def test_run_once_single_step():
    p = build_problem(QUAD)
    rec = run_once(p, OptimizerSpec(kind="ngn", c=1.0),
                   RunBudget(max_steps=1, success_loss=0.0), seed=0)
    assert len(rec.losses) == 1
    assert len(rec.step_reports) == 1
    assert math.isfinite(rec.final_loss)


def test_run_once_batch_size_exceeds_samples():
    p = build_problem(QUAD)
    with pytest.raises(ValueError):
        run_once(p, OptimizerSpec(kind="ngn", c=1.0),
                 RunBudget(max_steps=5, batch_size=7), seed=0)


def test_run_once_deterministic():
    p = build_problem(ProblemSpec(kind="least_squares", dim=4, n_samples=12, seed=3))
    spec = OptimizerSpec(kind="ngn_m_v1", c=0.5, beta1=0.9)
    budget = RunBudget(max_steps=100, batch_size=3)
    a = run_once(p, spec, budget, seed=7)
    b = run_once(p, spec, budget, seed=7)
    assert a.losses == b.losses
    assert np.array_equal(a.x_final, b.x_final)
    c = run_once(p, spec, budget, seed=8)
    assert a.losses != c.losses


# --- sweeps -----------------------------------------------------------------------

def test_run_sweep_cell_count_and_order():
    sweep = small_sweep()
    result = run_sweep(sweep)
    assert len(result.rows) == 2 * 2 * 1 * 2  # kinds x c x beta x seeds
    kinds = [row["optimizer"] for row in result.rows]
    assert kinds == ["ngn"] * 4 + ["ngn_m_v1"] * 4


def test_run_sweep_bad_cell_is_isolated():
    sweep = small_sweep(c_grid=[1.0, -1.0])
    result = run_sweep(sweep)
    statuses = {(row["optimizer"], row["c"]): row["status"] for row in result.rows}
    for kind in ("ngn", "ngn_m_v1"):
        assert statuses[(kind, 1.0)] in ("converged", "budget_exhausted")
        assert statuses[(kind, -1.0)] == "error"
    errs = [row for row in result.rows if row["status"] == "error"]
    assert all("c" in row["error"] or "positive" in row["error"] for row in errs)


def test_run_sweep_bad_cell_error_rows_match_in_pool():
    serial = run_sweep(small_sweep(c_grid=[1.0, -1.0]), workers=1).rows
    pooled = run_sweep(small_sweep(c_grid=[1.0, -1.0]), workers=2).rows
    assert [r["status"] for r in pooled] == [r["status"] for r in serial]
    assert [r.get("error") for r in pooled] == [r.get("error") for r in serial]
    assert sum(r["status"] == "error" for r in pooled) == 4


UNBUILDABLE = ProblemSpec(kind="polynomial_1d", scale=-1.0)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_sweep_unbuildable_problem_raises(tmp_path, workers):
    sweep = small_sweep(tmp_path, problem=UNBUILDABLE)
    with pytest.raises(ValueError, match="polynomial scale must be positive and finite"):
        run_sweep(sweep, workers=workers)
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_run_sweep_rejects_a_bad_start_before_any_cell(tmp_path, workers):
    for x0 in ((1.0, 2.0), (1.0, float("nan"), 0.0)):
        bad = ProblemSpec(kind="least_squares", dim=3, n_samples=6, seed=0, x0=x0)
        with pytest.raises(ValueError, match="x0"):
            run_sweep(small_sweep(tmp_path, problem=bad), workers=workers)
        assert not (tmp_path / "summary.csv").exists()


def test_pool_worker_builds_the_problem_once(monkeypatch):
    expected = run_sweep(small_sweep()).rows
    built = []

    def counting_build(spec):
        built.append(spec)
        return build_problem(spec)

    monkeypatch.setattr(harness, "build_problem", counting_build)
    sweep = small_sweep()
    conn, child_end = multiprocessing.Pipe(duplex=False)
    harness._pool_child(sweep, sweep.cells(), multiprocessing.Value("q", 0), child_end)
    assert len(built) == 1
    assert conn.recv() == list(enumerate(expected))  # each cell taken alone, in order


fork_only = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                               reason="patches that only forked children inherit")


@fork_only
def test_pool_builds_at_most_once_per_worker(tmp_path, monkeypatch):
    log = tmp_path / "builds.txt"

    def logging_build(spec):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return build_problem(spec)

    monkeypatch.setattr(harness, "build_problem", logging_build)
    sweep = small_sweep()
    run_sweep(sweep, workers=2)
    pids = log.read_text().split()
    # this process builds before it starts its one child, which builds once
    assert len(set(pids)) == len(pids) == 2 < len(sweep.cells())
    assert pids[0] == str(os.getpid())


@fork_only
def test_pool_child_that_dies_before_sending_fails_the_sweep(tmp_path, monkeypatch):
    parent = os.getpid()
    monkeypatch.setattr(harness, "build_problem",
                        lambda spec: build_problem(spec) if os.getpid() == parent else os._exit(3))
    with pytest.raises(RuntimeError, match="exited with code 3 before it sent its rows"):
        run_sweep(small_sweep(tmp_path), workers=2)
    assert not (tmp_path / "summary.csv").exists()
    assert multiprocessing.active_children() == []


@fork_only
def test_pool_share_of_this_process_raising_leaves_no_child(tmp_path, monkeypatch):
    parent, sweep_rows = os.getpid(), harness._sweep_rows

    def rows(sweep, cells, problem):
        if os.getpid() == parent:
            raise KeyError("this process's share")
        time.sleep(30)  # a child still running when this process raises
        return sweep_rows(sweep, cells, problem)

    monkeypatch.setattr(harness, "_sweep_rows", rows)
    begin = time.monotonic()
    with pytest.raises(KeyError, match="this process's share"):
        run_sweep(small_sweep(tmp_path), workers=3)
    assert time.monotonic() - begin < 15  # the children were stopped, not waited for
    assert not (tmp_path / "summary.csv").exists()
    assert multiprocessing.active_children() == []


def test_pooled_sweep_under_spawn_writes_the_serial_bytes(tmp_path, monkeypatch):
    run_sweep(small_sweep(tmp_path))
    serial = (tmp_path / "summary.csv").read_bytes()
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(multiprocessing, "get_context", lambda: spawn)
    handouts = harness._handouts

    def one_then_wait(counter, n):  # this process's: the spawned child runs the rest
        for i in handouts(counter, n):
            yield i
            deadline = time.monotonic() + 30
            while counter.value < n and time.monotonic() < deadline:
                time.sleep(0.01)

    monkeypatch.setattr(harness, "_handouts", one_then_wait)
    run_sweep(small_sweep(tmp_path), workers=2)
    assert (tmp_path / "summary.csv").read_bytes() == serial
    assert multiprocessing.active_children() == []


def in_daemonic_child(fn):
    """fn() run in a daemonic forked child, which may start no process of its own: its result."""
    fork = multiprocessing.get_context("fork")
    conn, child_end = fork.Pipe(duplex=False)

    def send():
        try:
            child_end.send(("returned", fn()))
        except Exception as exc:
            child_end.send(("raised", repr(exc)))

    child = fork.Process(target=send, daemon=True)
    child.start()
    child_end.close()
    try:
        assert conn.poll(60)
        return conn.recv()
    finally:
        child.join(30)
        assert not child.is_alive()


@fork_only
def test_pooled_sweep_in_a_daemonic_process_runs_there():
    serial = run_sweep(small_sweep()).rows
    assert in_daemonic_child(lambda: run_sweep(small_sweep(), workers=2).rows) == ("returned", serial)


@fork_only
def test_battery_in_a_daemonic_process_runs_there(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    expected = verify.run_default_audits(quick=True, seed=2)
    assert in_daemonic_child(lambda: verify.run_default_audits(quick=True, seed=2)) == (
        "returned", expected)


def test_run_sweep_three_processes_write_the_serial_bytes(tmp_path):
    run_sweep(small_sweep(tmp_path))
    serial = (tmp_path / "summary.csv").read_bytes()
    run_sweep(small_sweep(tmp_path), workers=3)
    assert (tmp_path / "summary.csv").read_bytes() == serial
    assert multiprocessing.active_children() == []


def recording_pool(monkeypatch) -> list:
    """Run the children of pooled sweeps in this process: each child
    started runs its whole loop when this process starts its first run,
    so this process keeps its first handout and the children take the
    rest. Returns, per pooled sweep, the number of processes it ran, this
    one included."""
    counts, started = [], []
    real = multiprocessing.get_context()

    class InlineProcess:
        exitcode = 0

        def __init__(self, target, args, daemon):
            self.run = functools.partial(target, *args)

        def start(self):
            counts[-1] += 1
            started.append(self.run)

        def join(self):
            pass

        terminate = join

    class InlineEnd:  # a child sends, this process receives
        def __init__(self):
            self.sent = []

        def send(self, obj):
            self.sent.append(obj)

        def recv(self):
            return self.sent.pop(0)

        def close(self):
            pass

    def pipe(duplex):
        end = InlineEnd()
        return end, end

    def get_context():
        counts.append(1)
        return types.SimpleNamespace(Value=real.Value, Pipe=pipe, Process=InlineProcess)

    sweep_rows = harness._sweep_rows

    def first_run_starts_the_children(*args):
        children = started[:]
        started.clear()
        for run in children:
            run()
        return sweep_rows(*args)

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    monkeypatch.setattr(harness, "_sweep_rows", first_run_starts_the_children)
    return counts


def test_run_sweep_starts_no_more_workers_than_cells(monkeypatch):
    expected = run_sweep(small_sweep()).rows
    counts = recording_pool(monkeypatch)
    assert run_sweep(small_sweep(), workers=5000).rows == expected
    assert run_sweep(small_sweep(), workers=3).rows == expected
    # processes, this one included: small_sweep has 8 cells, 4 distinct runs on its full batch
    assert counts == [4, 3]


@pytest.mark.parametrize("batch_size, tasks", [(None, 4), (6, 4), (3, 8)])
def test_pool_runs_each_distinct_run_once(tmp_path, monkeypatch, batch_size, tasks):
    # a batch of all 6 samples is a full batch: 2 seeds of 4 runs make 4 tasks
    sweep = small_sweep(tmp_path, budget=RunBudget(max_steps=50, batch_size=batch_size))
    run_sweep(sweep)
    serial = (tmp_path / "summary.csv").read_bytes()
    recording_pool(monkeypatch)
    ran = []
    sweep_rows = harness._sweep_rows  # this process's share and every child's run call it
    monkeypatch.setattr(harness, "_sweep_rows", lambda *a: ran.extend(a[1]) or sweep_rows(*a))
    rows = run_sweep(sweep, workers=2).rows
    assert len(ran) == len(set(ran)) == tasks and len(rows) == 8
    assert (tmp_path / "summary.csv").read_bytes() == serial


@pytest.mark.parametrize("cpus, pools", [(3, [3]), (None, [])])
def test_cli_sweep_caps_workers_at_the_cpu_count(tmp_path, monkeypatch, cpus, pools):
    counts = recording_pool(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cfg = write_config(tmp_path, GOOD_CONFIG)
    assert cli(["sweep", "--config", cfg, "--out", str(tmp_path / "r.csv"),
                "--workers", "5000"]) == 0
    assert counts == pools  # processes, this one included; no CPU count runs serially


def test_run_sweep_parallel_matches_serial(tmp_path):
    s1 = small_sweep(out_path=str(tmp_path / "serial.csv"))
    s2 = small_sweep(out_path=str(tmp_path / "parallel.csv"))
    run_sweep(s1, workers=1)
    run_sweep(s2, workers=2)
    assert filecmp.cmp(tmp_path / "serial.csv", tmp_path / "parallel.csv",
                       shallow=False)


def test_run_sweep_deterministic_output(tmp_path):
    s1 = small_sweep(out_path=str(tmp_path / "a.csv"))
    run_sweep(s1)
    s2 = small_sweep(out_path=str(tmp_path / "b.csv"))
    run_sweep(s2)
    assert filecmp.cmp(tmp_path / "a.csv", tmp_path / "b.csv", shallow=False)


def test_run_sweep_schedule_suffix_lands_in_summary(tmp_path):
    sweep = small_sweep(tmp_path, kinds=["ngn", "ngn@inv_sqrt_step"])
    result = run_sweep(sweep)
    names = {row["optimizer"] for row in result.rows}
    assert names == {"ngn", "ngn@inv_sqrt_step"}
    rows = parse_summary_csv(sweep.out_path)
    assert {r["optimizer"] for r in rows} == names


def test_run_sweep_x0_grid_records_endpoints(tmp_path):
    sweep = small_sweep(tmp_path, kinds=["ngn"], seeds=[0],
                        x0_grid=[np.zeros(3), np.ones(3)])
    result = run_sweep(sweep)
    assert len(result.rows) == 2 * 2  # c values x starting points
    rows = parse_summary_csv(sweep.out_path)
    assert np.allclose(rows[0]["x0"], np.zeros(3))
    assert np.allclose(rows[1]["x0"], np.ones(3))
    assert all(len(r["x_final"]) == 3 for r in rows)


# --- CSV round trips -----------------------------------------------------------------

def test_trajectory_csv_round_trip(tmp_path):
    p = build_problem(ProblemSpec(kind="least_squares", dim=3, n_samples=9,
                                  seed=1, interpolating=True))
    spec = OptimizerSpec(kind="ngn", c=1.0)
    budget = RunBudget(max_steps=4000, success_loss=1e-10, batch_size=3)
    rec = run_once(p, spec, budget, seed=0)
    assert rec.status == "converged"
    path = tmp_path / "traj.csv"
    emit_csv(rec, str(path))
    data = parse_trajectory_csv(str(path))
    assert data["step"] == list(range(len(rec.losses)))
    # every float survives the text round trip bit-exactly
    assert data["loss"] == rec.losses
    np.testing.assert_array_equal(np.array(data["grad_norm"]), rec.grad_norms)
    # the stopping row is evaluation only: no step report behind it
    assert data["gamma_scalar"][-1] is None
    assert data["update_norm"][-1] is None
    assert all(v is not None for v in data["update_norm"][:-1])
    # stochastic runs checkpoint the full-batch loss periodically
    logged = [(k, v) for k, v in zip(data["step"], data["full_loss"])
              if v is not None]
    assert logged == rec.full_losses


def test_summary_csv_round_trip(tmp_path):
    sweep = small_sweep(tmp_path)
    result = run_sweep(sweep)
    rows = parse_summary_csv(sweep.out_path)
    assert len(rows) == len(result.rows)
    for parsed, raw in zip(rows, result.rows):
        assert parsed["optimizer"] == raw["optimizer"]
        assert parsed["c"] == raw["c"]
        assert parsed["seed"] == raw["seed"]
        assert parsed["status"] == raw["status"]
        if isinstance(raw["final_loss"], float) and math.isfinite(raw["final_loss"]):
            assert parsed["final_loss"] == raw["final_loss"]


def test_emit_csv_rejects_unknown_payload(tmp_path):
    with pytest.raises(TypeError):
        emit_csv({"not": "supported"}, str(tmp_path / "x.csv"))


def test_emit_csv_creates_missing_directories(tmp_path):
    p = build_problem(QUAD)
    rec = run_once(p, OptimizerSpec(kind="ngn", c=1.0),
                   RunBudget(max_steps=3, success_loss=0.0), seed=0)
    nested = tmp_path / "runs" / "batch_a" / "traj.csv"
    emit_csv(rec, str(nested))
    assert nested.exists()
    assert len(parse_trajectory_csv(str(nested))["step"]) == 3


def test_parse_trajectory_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,columns\n1,2\n")
    with pytest.raises(ValueError):
        parse_trajectory_csv(str(path))


_BOOL = {"true": True, "false": False}.__getitem__


@pytest.mark.parametrize("value, cell, parse", [
    (None, "", float),
    ("", "", None),
    ("D=I, beta1=0", "D=I; beta1=0", None),
    (True, "true", _BOOL),
    (False, "false", _BOOL),
    (7, "7", int),
    (-0.0, "-0", float),
    (5e-324, "4.9406564584124654e-324", float),
    (math.inf, "inf", float),
    (-math.inf, "-inf", float),
    (math.nan, "nan", float),
    (np.array([1.5, -0.0, 5e-324]), "1.5;-0;4.9406564584124654e-324", harness._floats),
], ids=["none", "empty_string", "comma", "true", "false", "int", "negative_zero", "subnormal",
        "inf", "-inf", "nan", "vector"])
def test_csv_cell_round_trip(tmp_path, value, cell, parse):
    # one writer and one reader for every CSV: each cell's text, and its value
    # read back; a text cell keeps no ',' to split on
    path = str(tmp_path / "new_dir" / "cells.csv")
    harness._write_csv(path, ["value"], [[value]])
    with open(path, "rb") as fh:
        assert fh.read() == f"value\n{cell}\n".encode()
    rows = harness._read_csv(path, {} if parse is None else {"value": parse})
    assert next(rows) == ["value"]
    [[got]] = rows
    want = value.tolist() if isinstance(value, np.ndarray) else value
    assert repr(got) == repr(cell if isinstance(value, str) else want)


def test_read_csv_rejects_a_row_of_the_wrong_width(tmp_path):
    p = build_problem(QUAD)
    rec = run_once(p, OptimizerSpec(kind="ngn", c=1.0), RunBudget(max_steps=3), seed=0)
    path = tmp_path / "traj.csv"
    emit_csv(rec, str(path))
    path.write_text(path.read_text() + "3,0.5\n")
    with pytest.raises(ValueError, match="2 cells in a row of 9 columns"):
        parse_trajectory_csv(str(path))


# --- output path resolution ------------------------------------------------------------

def test_resolve_out_path_env(monkeypatch, tmp_path):
    monkeypatch.setenv("NGNOPT_OUT_DIR", str(tmp_path))
    assert resolve_out_path("runs/a.csv") == str(tmp_path / "runs" / "a.csv")
    assert resolve_out_path("/abs/b.csv") == "/abs/b.csv"
    monkeypatch.delenv("NGNOPT_OUT_DIR")
    assert resolve_out_path("runs/a.csv") == "runs/a.csv"


# --- config files -----------------------------------------------------------------------

GOOD_CONFIG = """
[problem]
kind = ridge           # alias for ridge_quadratic
dim = 8
seed = 3
r = 0.5

[optimizers]
kinds = ngn, ngn_m, sgdm@inv_sqrt_k
beta2 = 0.99

[grid]
c = 0.1, 1.0
beta = 0.0, 0.9
seeds = 0, 1, 2

[budget]
max_steps = 200
success_loss = 1e-10
batch_size = full

[output]
path = out.csv
"""


def write_config(tmp_path, text):
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    return str(path)


def test_parse_config_full(tmp_path):
    sweep = parse_config(write_config(tmp_path, GOOD_CONFIG))
    assert sweep.problem.kind == "ridge_quadratic"
    assert sweep.problem.dim == 8
    assert sweep.kinds == ["ngn", "ngn_m_v1", "sgdm@inv_sqrt_k"]
    assert sweep.c_grid == [0.1, 1.0]
    assert sweep.beta_grid == [0.0, 0.9]
    assert sweep.seeds == [0, 1, 2]
    assert sweep.beta2 == 0.99
    assert sweep.budget.max_steps == 200
    assert sweep.budget.success_loss == 1e-10
    assert sweep.budget.batch_size is None
    assert sweep.out_path == "out.csv"


def test_parse_config_unknown_key(tmp_path):
    bad = GOOD_CONFIG.replace("r = 0.5", "radius = 0.5")
    with pytest.raises(ConfigError, match="radius"):
        parse_config(write_config(tmp_path, bad))


def test_parse_config_unknown_section(tmp_path):
    with pytest.raises(ConfigError, match="extras"):
        parse_config(write_config(tmp_path, GOOD_CONFIG + "\n[extras]\nz = 1\n"))


def test_parse_config_missing_required(tmp_path):
    bad = GOOD_CONFIG.replace("[budget]\nmax_steps = 200\n", "[budget]\n")
    with pytest.raises(ConfigError, match="max_steps"):
        parse_config(write_config(tmp_path, bad))


X0_RANGE_CONFIG = """
[problem]
kind = multimodal_1d

[optimizers]
kinds = ngn_m

[grid]
c = 1.0
beta = 0.9
seeds = 0
x0_range = -2, 2, 5

[budget]
max_steps = 10
"""


def test_parse_config_x0_range(tmp_path):
    for count in ("5", "5.0"):
        text = X0_RANGE_CONFIG.replace("-2, 2, 5", f"-2, 2, {count}")
        sweep = parse_config(write_config(tmp_path, text))
        assert len(sweep.x0_grid) == 5
        assert np.allclose(sweep.x0_grid, np.linspace(-2, 2, 5))


@pytest.mark.parametrize("count", ["inf", "nan", "2.9"])
def test_cli_sweep_x0_range_count_must_be_a_whole_number(tmp_path, capsys, count):
    text = X0_RANGE_CONFIG.replace("-2, 2, 5", f"-2, 2, {count}")
    assert cli(["sweep", "--config", write_config(tmp_path, text),
                "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid.x0_range: ") and err.count("\n") == 1


def test_parse_config_x0_conflict(tmp_path):
    text = """
[problem]
kind = multimodal_1d

[optimizers]
kinds = ngn

[grid]
c = 1.0
beta = 0.0
seeds = 0
x0 = 1.0
x0_range = -2, 2, 5

[budget]
max_steps = 10
"""
    with pytest.raises(ConfigError, match="x0"):
        parse_config(write_config(tmp_path, text))


WD_CONFIG = """
[problem]
kind = least_squares
dim = 3
n_samples = 6
seed = 0

[optimizers]
kinds = ngn_md_v1
wd = 0.1
wd_mode = decoupled

[grid]
c = 1.0
beta = 0.9
seeds = 0

[budget]
max_steps = 10
"""


def test_parse_config_weight_decay_rewrites_kind(tmp_path):
    sweep = parse_config(write_config(tmp_path, WD_CONFIG))
    assert sweep.kinds == ["dec_ngn_mdv1"]
    assert sweep.wd_lambda == 0.1
    coupled = WD_CONFIG.replace("decoupled", "coupled")
    sweep = parse_config(write_config(tmp_path, coupled))
    assert sweep.kinds == ["ngn_mdv1w"]


def test_parse_config_wd_mode_defaults_to_decoupled(tmp_path):
    # wd > 0 must never be dropped silently: without wd_mode the
    # decoupled variant runs, and its spec carries the weight decay
    sweep = parse_config(write_config(tmp_path, WD_CONFIG.replace("wd_mode = decoupled\n", "")))
    assert sweep.kinds == ["dec_ngn_mdv1"]
    assert make_optimizer_spec(sweep, sweep.kinds[0], 1.0, 0.9).wd_lambda == 0.1


def test_sweep_spec_rejects_negative_weight_decay(tmp_path):
    with pytest.raises(ValueError):
        small_sweep(wd_lambda=-0.1)
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, WD_CONFIG.replace("wd = 0.1", "wd = -0.1")))
    assert cli(["run", "--problem", "least_squares", "--optimizer", "ngn", "--c", "1.0",
                "--wd", "-0.1", "--steps", "5"]) == 1


@pytest.mark.parametrize("old, new, message", [
    ("r = 0.5", "r = abc", "problem.r: expected a number, got 'abc'"),
    ("dim = 8", "dim = 8.5", "problem.dim: expected an integer, got '8.5'"),
    ("r = 0.5", "r = 0.5\ninterpolating = maybe",
     "problem.interpolating: expected a boolean, got 'maybe'"),
    ("kind = ridge ", "kind = bogus ", "problem.kind: expected one of "),
    ("kind = ridge ", "kind = regression ", "problem.kind: expected one of "),
    ("kind = ridge ", "kind = linear_regression_data ", "problem.kind: expected one of "),
    ("r = 0.5", "r = 0.5\ndata = data.csv", "unknown key problem.data"),
    ("beta2 = 0.99", "beta2 = 0.99\nschedule = hourly", "optimizers.schedule: expected one of "),
    ("c = 0.1, 1.0", "c = ,", "grid.c: must be a non-empty list"),
    ("seeds = 0, 1, 2", "seeds = 0, -1", "seeds must be whole numbers >= 0, got [0, -1]"),
    ("kinds = ngn, ngn_m,", "kinds = ngn, adamw,", "optimizers.kinds: unknown optimizer 'adamw'"),
    ("[problem]", "[problem", "cannot parse "),
    ("[grid]", "[problem]\n[grid]", "cannot parse "),
    ("[output]\npath = out.csv\n", "",
     "no output path: set output.path in the config or pass --out"),
])
def test_cli_sweep_names_what_is_wrong_with_its_config(tmp_path, monkeypatch, capsys,
                                                      old, new, message):
    assert old in GOOD_CONFIG
    monkeypatch.setenv("NGNOPT_OUT_DIR", str(tmp_path))
    assert cli(["sweep", "--config", write_config(tmp_path, GOOD_CONFIG.replace(old, new))]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")  # one line, the parse errors too
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_cli_sweep_rejects_workers_below_one(tmp_path, monkeypatch, capsys, workers):
    monkeypatch.setenv("NGNOPT_OUT_DIR", str(tmp_path))
    assert cli(["sweep", "--config", write_config(tmp_path, GOOD_CONFIG),
                "--workers", workers]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --workers must be a whole number >= 1, got {workers}\n"
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("workers", [0, -4])
def test_run_sweep_rejects_workers_below_one(tmp_path, monkeypatch, workers):
    # a direct caller is told too, before any cell runs or any CSV is written
    stepped = []
    monkeypatch.setattr(harness, "run_lockstep", lambda *args, **kw: stepped.append(args))
    sweep = SweepSpec(ProblemSpec(kind="polynomial_1d"), ["sgdm"], [1e-3], [0.9], [0],
                      RunBudget(max_steps=10), out_path=str(tmp_path / "out.csv"))
    with pytest.raises(ValueError, match=f"^workers must be a whole number >= 1, got {workers}$"):
        run_sweep(sweep, workers=workers)
    assert not stepped and not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("raw, value", [
    ("true", True), ("Yes", True), ("1", True), ("on", True),
    ("false", False), ("NO", False), ("0", False), ("off", False),
])
def test_parse_config_reads_booleans(tmp_path, raw, value):
    text = GOOD_CONFIG.replace("r = 0.5", f"r = 0.5\ninterpolating = {raw}")
    assert parse_config(write_config(tmp_path, text)).problem.interpolating is value


def test_parse_config_missing_file():
    with pytest.raises(OSError):
        parse_config("/nonexistent/sweep.cfg")


# --- command line -----------------------------------------------------------------------

def test_cli_run_writes_trajectory(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = cli(["run", "--problem", "least_squares", "--dim", "3",
                "--n-samples", "6", "--problem-seed", "0",
                "--optimizer", "ngn", "--c", "1.0", "--steps", "100",
                "--out", str(out)])
    assert code == 0
    msg = capsys.readouterr().out
    assert "status=" in msg and "final_loss=" in msg
    data = parse_trajectory_csv(str(out))
    assert len(data["step"]) >= 2


def test_cli_run_diverged_still_exits_zero(capsys):
    code = cli(["run", "--problem", "rosenbrock", "--optimizer", "sgdm",
                "--c", "1.0", "--beta", "0.9", "--steps", "200"])
    assert code == 0
    assert "status=diverged" in capsys.readouterr().out


# `ngnopt run` flags and the config of the same one-cell sweep, every optional flag given a
# value other than its default in some case
RUN_CASES = {
    "ngn_md_v1-wd-coupled": (
        "--problem least_squares --dim 3 --n-samples 6 --batch-size 2 --optimizer ngn_md_v1 "
        "--c 0.5 --beta 0.9 --wd 0.1 --wd-mode coupled",
        "[problem]\nkind = least_squares\ndim = 3\nn_samples = 6\n[budget]\nbatch_size = 2\n"
        "[optimizers]\nkinds = ngn_md_v1\nwd = 0.1\nwd_mode = coupled\n[grid]\nc = 0.5\nbeta = 0.9\n"),
    "ngn-inv_sqrt_k": (
        "--problem least_squares --dim 3 --n-samples 6 --batch-size 2 --optimizer ngn --c 0.5 "
        "--schedule inv_sqrt_k",
        "[problem]\nkind = least_squares\ndim = 3\nn_samples = 6\n[budget]\nbatch_size = 2\n"
        "[optimizers]\nkinds = ngn\nschedule = inv_sqrt_k\n[grid]\nc = 0.5\nbeta = 0.0\n"),
    "least_squares-adam-every-flag": (
        "--problem least_squares --dim 3 --n-samples 6 --problem-seed 3 --interpolating "
        "--batch-size 2 --optimizer adam --c 0.5 --beta 0.9 --beta2 0.99 --eps 1e-6 "
        "--schedule inv_sqrt_step --success-loss 1e-4 --diverge-loss 1e3",
        "[problem]\nkind = least_squares\ndim = 3\nn_samples = 6\nseed = 3\ninterpolating = true\n"
        "[budget]\nbatch_size = 2\nsuccess_loss = 1e-4\ndiverge_loss = 1e3\n"
        "[optimizers]\nkinds = adam\nbeta2 = 0.99\neps = 1e-6\nschedule = inv_sqrt_step\n"
        "[grid]\nc = 0.5\nbeta = 0.9\n"),
    "least_squares-sgdm-diverge-loss": (
        "--problem least_squares --dim 3 --n-samples 6 --optimizer sgdm --c 3 --beta 0.9 "
        "--diverge-loss 20",
        "[problem]\nkind = least_squares\ndim = 3\nn_samples = 6\n[budget]\ndiverge_loss = 20\n"
        "[optimizers]\nkinds = sgdm\n[grid]\nc = 3\nbeta = 0.9\n"),
    "ridge-r": (
        "--problem ridge --dim 4 --r 0.5 --optimizer ngn_m --c 0.5 --beta 0.9",
        "[problem]\nkind = ridge\ndim = 4\nr = 0.5\n[budget]\n"
        "[optimizers]\nkinds = ngn_m\n[grid]\nc = 0.5\nbeta = 0.9\n"),
    "polynomial-coeffs-scale": (
        "--problem polynomial --coeffs 0,0.5,1 --scale 2 --optimizer ngn --c 0.1",
        "[problem]\nkind = polynomial\ncoeffs = 0, 0.5, 1\nscale = 2\n[budget]\n"
        "[optimizers]\nkinds = ngn\n[grid]\nc = 0.1\nbeta = 0.0\n"),
    "sgdm-least-squares-442": (
        "--problem least_squares --dim 10 --n-samples 442 --optimizer sgdm --c 0.05 --beta 0.5",
        "[problem]\nkind = least_squares\ndim = 10\nn_samples = 442\n[budget]\n"
        "[optimizers]\nkinds = sgdm\n[grid]\nc = 0.05\nbeta = 0.5\n"),
}


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_cli_run_matches_one_cell_sweep(tmp_path, capsys, case):
    run_args, config = RUN_CASES[case]
    assert cli(["run", "--steps", "60", "--seed", "4"] + run_args.split()) == 0
    printed = dict(field.split("=", 1) for field in capsys.readouterr().out.split())
    config = config.replace("[budget]\n", "[budget]\nmax_steps = 60\n") + "seeds = 4\n"
    (row,) = run_sweep(parse_config(write_config(tmp_path, config))).rows
    assert printed["status"] == row["status"]
    assert float(printed["final_loss"]).hex() == row["final_loss"].hex()
    assert float(printed["best_loss"]).hex() == row["best_loss"].hex()
    steps = row["steps_to_success"]
    assert printed["steps_to_success"] == ("" if steps is None else str(steps))


def test_run_cases_give_every_optional_flag():
    given = {arg for args, _ in RUN_CASES.values() for arg in args.split() if arg.startswith("--")}
    # every case gives --steps and --seed; --out and --x0 set no config key
    assert given | {"--steps", "--seed"} == set(RUN_FLAGS) - {"--out", "--x0"}


# every config key and `ngnopt run` flag (type, choices, required, nargs), pinned, so that
# reworking how they are declared can drop none of them
CONFIG_KEYS = {
    "problem": {"kind", "dim", "n_samples", "seed", "r", "coeffs", "scale", "interpolating",
                "x0"},
    "optimizers": {"kinds", "beta2", "eps", "wd", "wd_mode", "schedule"},
    "grid": {"c", "beta", "seeds", "x0", "x0_range"},
    "budget": {"max_steps", "success_loss", "diverge_loss", "batch_size"},
    "output": {"path"},
}
PROBLEM_CHOICES = ["least_squares", "multimodal", "multimodal_1d", "polynomial", "polynomial_1d",
                   "ridge", "ridge_quadratic", "rosenbrock"]
OPTIMIZER_CHOICES = ["adam", "dec_ngn_mdv1", "gdm", "ngn", "ngn_d", "ngn_m", "ngn_m_v1",
                     "ngn_m_v2", "ngn_md_v1", "ngn_md_v2", "ngn_mdv1w", "sgdm"]
RUN_FLAGS = {
    "--problem": (None, PROBLEM_CHOICES, True, None),
    "--optimizer": (None, OPTIMIZER_CHOICES, True, None),
    "--c": (float, None, True, None),
    "--beta": (float, None, False, None),
    "--beta2": (float, None, False, None),
    "--eps": (float, None, False, None),
    "--wd": (float, None, False, None),
    "--wd-mode": (None, ["decoupled", "coupled"], False, None),
    "--schedule": (None, ["constant", "inv_sqrt_k", "inv_sqrt_step"], False, None),
    "--steps": (int, None, False, None),
    "--batch-size": (None, None, False, None),
    "--seed": (int, None, False, None),
    "--out": (None, None, False, None),
    "--x0": (None, None, False, None),
    "--dim": (int, None, False, None),
    "--n-samples": (int, None, False, None),
    "--problem-seed": (int, None, False, None),
    "--r": (float, None, False, None),
    "--coeffs": (None, None, False, None),
    "--scale": (float, None, False, None),
    "--interpolating": (None, None, False, 0),
    "--success-loss": (float, None, False, None),
    "--diverge-loss": (float, None, False, None),
}


def test_config_keys_and_run_flags_are_pinned():
    assert {section: set(keys) for section, keys in harness._CONFIG_KEYS.items()} == CONFIG_KEYS
    (sub,) = [a for a in harness._build_parser()._actions if a.choices and "run" in a.choices]
    flags = {a.option_strings[-1]: (a.type, None if a.choices is None else list(a.choices),
                                    a.required, a.nargs)
             for a in sub.choices["run"]._actions if a.dest != "help"}
    assert flags == RUN_FLAGS


def assert_dataclass_defaults(obj) -> None:
    for field in dataclasses.fields(obj):
        if field.default is not dataclasses.MISSING:
            assert getattr(obj, field.name) == field.default, field.name


def test_omitted_keys_and_flags_take_the_dataclass_defaults(tmp_path, monkeypatch):
    text = ("[problem]\nkind = least_squares\n[optimizers]\nkinds = ngn\n"
            "[grid]\nc = 0.5\nbeta = 0.0\nseeds = 0\n[budget]\nmax_steps = 10\n")
    sweep = parse_config(write_config(tmp_path, text))
    seen = {}
    build, run = harness.build_problem, harness.run_once

    def spy_run(problem, spec, budget, seed, x0=None):
        seen.update(spec=spec, budget=budget, seed=seed)
        return run(problem, spec, budget, seed, x0=x0)

    monkeypatch.setattr(harness, "build_problem", lambda spec: build(seen.setdefault("problem", spec)))
    monkeypatch.setattr(harness, "run_once", spy_run)
    assert cli(["run", "--problem", "least_squares", "--optimizer", "ngn", "--c", "0.5"]) == 0
    built = [(sweep.problem, sweep.budget, make_optimizer_spec(sweep, "ngn", 0.5, 0.0)),
             (seen["problem"], seen["budget"], seen["spec"])]
    for problem, budget, spec in built:
        for obj in (problem, budget, spec):
            assert_dataclass_defaults(obj)
        assert sweep.schedule == spec.schedule and sweep.beta2 == spec.beta2
    assert (seen["budget"].max_steps, seen["seed"]) == (1000, 0)  # no dataclass defaults these


def test_cli_sweep(tmp_path, capsys):
    cfg = write_config(tmp_path, GOOD_CONFIG)
    out = tmp_path / "results.csv"
    code = cli(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 0
    rows = parse_summary_csv(str(out))
    assert len(rows) == 3 * 2 * 2 * 3


POLYNOMIAL_CONFIG = """
[problem]
kind = polynomial_1d
scale = {scale}
[optimizers]
kinds = ngn
[grid]
c = 1.0
beta = 0.0
seeds = 0, 1
[budget]
max_steps = 10
"""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_sweep_unbuildable_problem_is_validation_error(tmp_path, capsys, workers):
    # this process builds the problem before it starts any child, at any worker count
    out = tmp_path / "results.csv"
    code = cli(["sweep", "--config", write_config(tmp_path, POLYNOMIAL_CONFIG.format(scale=-1)),
                "--out", str(out), "--workers", workers])
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == "error: polynomial scale must be positive and finite\n"


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", "{config}", "--workers", "1"],
    ["sweep", "--config", "{config}", "--workers", "2"],
    ["run", "--problem", "polynomial", "--optimizer", "ngn", "--c", "1.0", "--steps", "10"],
], ids=["sweep-1", "sweep-2", "run"])
def test_cli_out_path_under_a_regular_file_is_io_error(tmp_path, capsys, argv):
    config = write_config(tmp_path, POLYNOMIAL_CONFIG.format(scale=1))
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    code = cli([arg.format(config=config) for arg in argv] + ["--out", str(blocker / "out.csv")])
    assert code == 2
    err = f"[Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: {str(blocker)!r}"
    assert capsys.readouterr().err == f"error: {err}\n"
    assert blocker.read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_sweep_bad_start_is_validation_error(tmp_path, capsys, workers):
    text = GOOD_CONFIG.replace("r = 0.5", "r = 0.5\nx0 = 1, 2")
    out = tmp_path / "results.csv"
    code = cli(["sweep", "--config", write_config(tmp_path, text),
                "--out", str(out), "--workers", workers])
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == "error: x0 has shape (2,), problem dimension is 8\n"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_sweep_prints_first_cell_errors(tmp_path, capsys, workers):
    text = GOOD_CONFIG.replace("c = 0.1, 1.0", "c = 0.1, -1.0, -2.0")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "results.csv"
    code = cli(["sweep", "--config", cfg, "--out", str(out), "--workers", workers])
    assert code == 1
    captured = capsys.readouterr()
    assert "36 cells recorded errors" in captured.out
    lines = captured.err.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("error: cell optimizer=ngn c=-1.0 beta=0.0 seed=0: ")
    assert lines[2].startswith("error: cell optimizer=ngn c=-1.0 beta=0.0 seed=2: ")
    assert all(ln.endswith(": c must be positive and finite") for ln in lines)
    sweep = parse_config(cfg)
    sweep.out_path = str(tmp_path / "direct.csv")
    run_sweep(sweep)
    assert filecmp.cmp(out, tmp_path / "direct.csv", shallow=False)


def test_cli_sweep_cell_errors_name_the_start(tmp_path, capsys):
    # a 1-d start grid on the 2-d Rosenbrock problem fails every cell
    text = ("[problem]\nkind = rosenbrock\n[optimizers]\nkinds = ngn\n"
            "[grid]\nc = 1.0\nbeta = 0.0\nseeds = 0\nx0 = 0.5, 2.0\n[budget]\nmax_steps = 5\n")
    code = cli(["sweep", "--config", write_config(tmp_path, text), "--out", str(tmp_path / "r.csv")])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    for line, start in zip(lines, ("0.5", "2")):
        assert line.startswith(f"error: cell optimizer=ngn c=1.0 beta=0.0 seed=0 x0={start}: x has shape")


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["run", "--help"], 0), (["sweep", "--help"], 0), ([], 1),
])
def test_cli_help_exits_zero_and_bad_usage_one(capsys, argv, code):
    assert cli(argv) == code
    out, err = capsys.readouterr()
    assert (out if code == 0 else err).startswith("usage: ngnopt")


def test_cli_sweep_missing_config_is_io_error(tmp_path):
    assert cli(["sweep", "--config", str(tmp_path / "none.cfg")]) == 2


def test_cli_sweep_bad_config_is_validation_error(tmp_path):
    path = write_config(tmp_path, "[problem]\nkind = least_squares\n")
    assert cli(["sweep", "--config", path]) == 1


def test_cli_bounds_pinned_values(capsys):
    code = cli(["bounds", "--c", "1.0", "--L", "1.0", "--K", "100",
                "--dist0", "1.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "rho 0.1666" in out
    assert "ngn_m_bound 0.09" in out
    assert "ngn_m_bound_decaying 0.75" in out


def test_cli_bounds_rejects_bad_input():
    assert cli(["bounds", "--c", "-1.0", "--L", "1.0", "--K", "100",
                "--dist0", "1.0"]) == 1


@pytest.mark.parametrize("flag, value", [
    ("--c", "nan"), ("--L", "inf"), ("--dist0", "nan"), ("--dist0", "-3"), ("--K", "0"),
])
def test_cli_bounds_checks_every_argument_before_printing(capsys, flag, value):
    args = {"--c": "1.0", "--L": "1.0", "--K": "100", "--dist0": "1.0", flag: value}
    assert cli(["bounds", *(item for pair in args.items() for item in pair)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {flag[2:]}")


@pytest.mark.parametrize("flag, value, message", [
    ("--c", "1e200", "ngn_m_bound(1e+200, 1.0, 10, 1.0, 0.0, 0.0) overflows a double"),
    ("--L", "1e300", "ngn_m_bound(1.0, 1e+300, 10, 1.0, 0.0, 0.0) overflows a double"),
    ("--dist0", "1e200", "dist0 squared overflows a double, got 1e+200"),
    ("--K", "1" + "0" * 400, "K must be finite and positive, got 1" + "0" * 400),
])
def test_cli_bounds_rejects_arguments_that_overflow(capsys, flag, value, message):
    args = {"--c": "1.0", "--L": "1.0", "--K": "10", "--dist0": "1.0", flag: value}
    assert cli(["bounds", *(item for pair in args.items() for item in pair)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_cli_verify_quick(tmp_path, capsys):
    out = tmp_path / "audits.csv"
    code = cli(["verify", "--quick", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert text.count("PASS") == 9
    assert "FAIL" not in text
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 10


@pytest.mark.parametrize("argv, message", [
    (["verify", "--seed", str(2**64), "--quick"],
     "seed must be a whole number in [0, 2**64), got 18446744073709551616"),
    (["run", "--problem", "least_squares", "--dim", "3", "--n-samples", "10", "--batch-size", "4",
      "--optimizer", "ngn", "--c", "0.1", "--seed", str(2**64)],
     "seeds must be below 2**64, got [18446744073709551616]"),
], ids=["verify", "run"])
def test_cli_names_a_seed_that_cannot_key_a_batch(capsys, argv, message):
    assert cli(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


def test_sweep_seeds_must_key_a_batch(tmp_path):
    assert small_sweep(seeds=[0, 2**64 - 1]).seeds == [0, 2**64 - 1]
    with pytest.raises(ValueError, match=r"seeds must be below 2\*\*64, got \[0, 18446744073709551616\]"):
        small_sweep(seeds=[0, 2**64])
    with pytest.raises(ConfigError, match=r"seeds must be below 2\*\*64"):
        parse_config(write_config(tmp_path, GOOD_CONFIG.replace("seeds = 0, 1, 2",
                                                                "seeds = 0, 18446744073709551616")))


def test_run_once_grad_norms_are_sqrt_of_batch_grad_sq():
    p = build_problem(ProblemSpec(kind="least_squares", dim=8, n_samples=40, seed=1))
    spec = OptimizerSpec(kind="ngn_md_v1", c=0.5, beta1=0.5)
    rec = run_once(p, spec, RunBudget(max_steps=60, batch_size=6), seed=4)
    assert len(rec.grad_norms) == 60
    for k, norm in enumerate(rec.grad_norms):
        g = evaluate(p, rec.iterates[k], sample_batch(p, 4, k, 6)).grad
        assert norm == math.sqrt(float(np.sum(g * g)))


def test_import_loads_neither_the_process_pool_nor_numpy_random():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, ngnopt; print(sorted(m for m in ('concurrent.futures', 'multiprocessing', "
            "'numpy.random') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
