"""tools/outputs.py, the byte-identity corpus, with no CLI process: `compare`
on temporary directories, and the case list against the code it covers."""

import importlib.util
import re
from pathlib import Path

from ngnopt.optimizers import _FLOAT_MAX, OPTIMIZER_KINDS

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("outputs", ROOT / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outputs)

CASES = outputs.cases(Path("cfgs"))
NAMES = [name for name, _, _ in CASES]


def corpus(path, files):
    path.mkdir()
    for name, data in files.items():
        (path / name).write_bytes(data)
    return path


def test_compare_passes_identical_directories(tmp_path, capsys):
    files = {"traj_ngn.csv": b"step,loss\n0,1.5\n", "traj_ngn.status": b"status=converged\n"}
    a, b = corpus(tmp_path / "a", files), corpus(tmp_path / "b", files)
    assert outputs.compare(a, b) == []
    assert outputs.main(["compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == ""


def test_compare_lists_a_changed_byte_and_a_file_that_one_side_lacks(tmp_path, capsys):
    a = corpus(tmp_path / "a", {"same": b"1\n", "changed": b"1.0\n", "only_a": b"",
                                outputs.MANIFEST: b"a"})
    b = corpus(tmp_path / "b", {"same": b"1\n", "changed": b"1.5\n", "only_b": b"",
                                outputs.MANIFEST: b"b"})
    listed = ["changed: differs", f"only_a: only in {a}", f"only_b: only in {b}"]
    assert outputs.compare(a, b) == listed
    assert outputs.main(["compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == listed


def test_compare_prints_the_status_counts_under_a_differing_sweep(tmp_path):
    head = b"optimizer,c,beta,seed,status\n"
    a = corpus(tmp_path / "a", {"s.serial.csv": head + b"ngn,1,0,0,converged\nngn,1,0,1,converged\n"
                                                   b"sgdm,1,0,0,diverged\n"})
    b = corpus(tmp_path / "b", {"s.serial.csv": head + b"ngn,1,0,0,converged\nngn,1,0,1,diverged\n"
                                                   b"ngn,10,0,0,budget_exhausted\n"})
    assert outputs.compare(a, b) == [
        "s.serial.csv: differs",
        "  ngn c=1: converged 2 | converged 1, diverged 1",
        "  sgdm c=1: diverged 1 | -",
        "  ngn c=10: - | budget_exhausted 1",
    ]


def test_case_names_are_unique():
    assert len(set(NAMES)) == len(NAMES)


def test_every_case_writes_its_csv_under_its_own_name():
    # a relative name, which NGNOPT_OUT_DIR places in the output directory
    for name, args, _ in CASES:
        if "--out" in args:
            assert args[args.index("--out") + 1] == f"{name}.csv"


def test_every_kind_is_in_the_corpus():
    assert outputs.KINDS == OPTIMIZER_KINDS
    for kind in OPTIMIZER_KINDS:
        assert {f"traj_{kind}", f"traj_{kind}_inv_sqrt_step", f"traj_{kind}_inv_sqrt_k"} <= set(NAMES)


def test_every_shipped_config_is_a_case():
    for cfg in (ROOT / "configs").glob("*.cfg"):
        assert {f"{cfg.stem}.serial", f"{cfg.stem}.workers2"} <= set(NAMES)


def test_float_side_runs_straddle_the_threshold():
    float_side = [(name, args) for name, args, _ in CASES
                  if re.fullmatch(r"traj_(ngn|ngn_m_v1|sgdm)_d\d+_(full|minibatch)", name)]
    assert len(float_side) == 12
    assert {int(args[args.index("--dim") + 1]) for _, args in float_side} == {_FLOAT_MAX, _FLOAT_MAX + 1}
