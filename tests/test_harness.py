import filecmp
import math
import multiprocessing
import os

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
from ngnopt import harness
from ngnopt.harness import make_optimizer_spec, split_kind
from ngnopt.optimizers import OPTIMIZER_KINDS
from ngnopt.problems import evaluate, sample_batch

QUAD = ProblemSpec(kind="least_squares", dim=3, n_samples=6, seed=0)


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


MISSING_DATA = ProblemSpec(kind="linear_regression_data", data_path="/nonexistent/data.csv")


@pytest.mark.parametrize("workers", [1, 2])
def test_run_sweep_unbuildable_problem_raises(tmp_path, workers):
    sweep = small_sweep(tmp_path, problem=MISSING_DATA)
    with pytest.raises(FileNotFoundError):
        run_sweep(sweep, workers=workers)
    assert not (tmp_path / "summary.csv").exists()


def test_pool_worker_builds_the_problem_once(monkeypatch):
    expected = run_sweep(small_sweep()).rows
    built = []

    def counting_build(spec):
        built.append(spec)
        return build_problem(spec)

    monkeypatch.setattr(harness, "build_problem", counting_build)
    monkeypatch.setattr(harness, "_worker_problem", [])
    sweep = small_sweep()
    rows = [harness._cell_worker((sweep, cell)) for cell in sweep.cells()]
    assert len(built) == 1
    assert rows == expected
    other = small_sweep(problem=ProblemSpec(kind="least_squares", dim=3, n_samples=6, seed=1))
    harness._cell_worker((other, other.cells()[0]))
    assert len(built) == 2  # a different problem is rebuilt, not reused


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="counts builds through a patch the forked workers inherit")
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
    assert 1 <= len(pids) <= 2 < len(sweep.cells())
    assert len(set(pids)) == len(pids)


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


def test_parse_config_x0_range(tmp_path):
    text = """
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
    sweep = parse_config(write_config(tmp_path, text))
    assert len(sweep.x0_grid) == 5
    assert np.allclose(sweep.x0_grid, np.linspace(-2, 2, 5))


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


@pytest.mark.parametrize("run_args, optimizers", [
    (["--optimizer", "ngn_md_v1", "--beta", "0.9", "--wd", "0.1", "--wd-mode", "coupled"],
     "kinds = ngn_md_v1\nwd = 0.1\nwd_mode = coupled"),
    (["--optimizer", "ngn", "--schedule", "inv_sqrt_k"],
     "kinds = ngn\nschedule = inv_sqrt_k"),
], ids=["ngn_md_v1-wd-coupled", "ngn-inv_sqrt_k"])
def test_cli_run_matches_one_cell_sweep(tmp_path, capsys, run_args, optimizers):
    code = cli(["run", "--problem", "least_squares", "--dim", "3", "--n-samples", "6",
                "--c", "0.5", "--steps", "60", "--batch-size", "2", "--seed", "4"] + run_args)
    assert code == 0
    printed = dict(field.split("=", 1) for field in capsys.readouterr().out.split())
    beta = "0.9" if "--beta" in run_args else "0.0"
    text = (f"[problem]\nkind = least_squares\ndim = 3\nn_samples = 6\n"
            f"[optimizers]\n{optimizers}\n[grid]\nc = 0.5\nbeta = {beta}\nseeds = 4\n"
            f"[budget]\nmax_steps = 60\nbatch_size = 2\n")
    (row,) = run_sweep(parse_config(write_config(tmp_path, text))).rows
    assert printed["status"] == row["status"]
    assert float(printed["final_loss"]).hex() == row["final_loss"].hex()


def test_cli_sweep(tmp_path, capsys):
    cfg = write_config(tmp_path, GOOD_CONFIG)
    out = tmp_path / "results.csv"
    code = cli(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 0
    rows = parse_summary_csv(str(out))
    assert len(rows) == 3 * 2 * 2 * 3


MISSING_DATA_CONFIG = """
[problem]
kind = regression
data = /nonexistent/data.csv
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
def test_cli_sweep_unbuildable_problem_is_io_error(tmp_path, capsys, workers):
    out = tmp_path / "results.csv"
    code = cli(["sweep", "--config", write_config(tmp_path, MISSING_DATA_CONFIG),
                "--out", str(out), "--workers", workers])
    assert code == 2
    assert not out.exists()
    assert "No such file" in capsys.readouterr().err


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


def test_cli_verify_quick(tmp_path, capsys):
    out = tmp_path / "audits.csv"
    code = cli(["verify", "--quick", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert text.count("PASS") == 9
    assert "FAIL" not in text
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 10


def test_run_once_grad_norms_are_sqrt_of_batch_grad_sq():
    p = build_problem(ProblemSpec(kind="least_squares", dim=8, n_samples=40, seed=1))
    spec = OptimizerSpec(kind="ngn_md_v1", c=0.5, beta1=0.5)
    rec = run_once(p, spec, RunBudget(max_steps=60, batch_size=6), seed=4)
    assert len(rec.grad_norms) == 60
    for k, norm in enumerate(rec.grad_norms):
        g = evaluate(p, rec.iterates[k], sample_batch(p, 4, k, 6)).grad
        assert norm == math.sqrt(float(np.sum(g * g)))
