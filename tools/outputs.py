"""The byte-identity corpus: the CLI outputs that no change may move
unless it says why.

    python tools/outputs.py write DIR [--tree PATH]
    python tools/outputs.py compare A B

`write` runs the `ngnopt` CLI of the checkout at PATH (default: this one)
in it, with PYTHONPATH=PATH/src, and writes each case's files into DIR:

- each shipped config (configs/*.cfg here) swept serially and with
  --workers 2, NAME.serial.csv and NAME.workers2.csv: `write` exits 1
  when the two fail or differ. Printed wall times gate nothing;
- `verify` at seeds 0 and 1, `--quick` at 3, with `exit N` in verify*.status;
  `verify --seed 0` runs again with os.cpu_count() patched to 1, so that
  its audits run in one process, and `write` exits 1 when that run's CSV
  or exit code differs from verify.csv's. That run is written outside
  DIR;
- `ngnopt run` trajectories, traj_*.csv with the status line in
  traj_*.status: every kind (KINDS, the OPTIMIZER_KINDS of this
  checkout) on mini-batch least squares under each schedule; ngn_m_v1
  and ngn_md_v2 on full-batch least squares; ngn, ngn_m_v1 and sgdm,
  full-batch and mini-batch, at d = _FLOAT_MAX and _FLOAT_MAX + 1 of
  this checkout, either side of the float-side threshold in
  optimizers.py; the lsq-minibatch benchmark's shape
  (n = 1000, batch 32), whose block draws mostly have distinct targets;
  ngn_m_v1 and sgdm on the three closed-form problems (one-point oracle);
  two runs that diverge on their loss and two on a non-finite iterate,
  the second at a full-loss checkpoint; and runs that set every optional
  flag off its default;
- sweeps of CONFIGS: three that between them set every optional key;
  every kind and two per-kind schedules on mini-batch least squares,
  two seeds making two lockstep groups stepped without history; and an
  x0 range with a bad c, whose error rows have empty, nan and
  empty-vector cells, with its stderr and `exit N`;
- `bounds` at three argument sets, either side of 2cL = 1, with and
  without noise terms: stdout, then `exit N`, in bounds_N.out;
- exit_codes.txt, each case's exit code, and SHA256SUMS, their manifest.

DIR must be new or empty, and no byte written depends on its path. Only
the CLI is driven, so PATH may be a commit older than this tool.
`compare A B` lists each file that differs or that one side lacks, and
exits 1 if there is one. Under each differing NAME.serial.csv, a shipped
config's sweep, it prints each (optimizer, c)'s status counts in A and B.
"""

from __future__ import annotations

import argparse
import collections
import configparser
import csv
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
# this checkout's float-side threshold, kinds and kinds that read --wd
from ngnopt.optimizers import _FLOAT_MAX, OPTIMIZER_KINDS as KINDS, WD_KINDS  # noqa: E402

MANIFEST = "SHA256SUMS"
_MAIN = 'import sys; from ngnopt.harness import main; sys.argv[0] = "ngnopt"; sys.exit(main())'
_ONE_CPU = "import os; os.cpu_count = lambda: 1; " + _MAIN  # set before ngnopt is imported


def run(cmd: list, tree: Path, **env: str) -> subprocess.CompletedProcess:
    """cmd run in the checkout at tree with PYTHONPATH=tree/src, its output kept as bytes."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree) / "src"), **env}
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True)


def ngnopt(tree: Path, args: list, **env: str) -> subprocess.CompletedProcess:
    """The `ngnopt` CLI of the checkout at tree, run in it."""
    return run([sys.executable, "-c", _MAIN, *args], tree, **env)


# What a case records besides the CLI's own files: suffix -> bytes, from its process.
STATUS = {".status": lambda p: b"exit %d\n" % p.returncode}
STDOUT = {".status": lambda p: p.stdout}
ERRORS = {".err": lambda p: p.stderr, **STATUS}
BOUNDS = {".out": lambda p: p.stdout + STATUS[".status"](p)}

# Sweep configs written for the corpus, each to NAME.cfg with output.path NAME.csv.
CONFIGS = {
    "every_key_least_squares": {
        "problem": dict(kind="least_squares", dim=3, n_samples=9, seed=2, interpolating="true",
                        x0="1, -1, 0.5", r="0.5", coeffs="0, 0.5, 1", scale=2),
        "optimizers": dict(kinds="ngn_mdv1w, adam@inv_sqrt_k, ngn_m", beta2="0.99", eps="1e-6",
                           wd="0.01", schedule="inv_sqrt_step"),
        "grid": dict(c="0.1, 1", beta="0, 0.9", seeds="0, 3"),
        "budget": dict(max_steps=500, success_loss="1e-6", diverge_loss="1e4", batch_size=3)},
    "every_key_polynomial": {
        "problem": dict(kind="polynomial_1d", coeffs="0, 0.5, 1", scale=2),
        "optimizers": dict(kinds="ngn_m, sgdm"),
        "grid": dict(c="1e-3, 1", beta="0.9", seeds=0, x0_range="-3, 3, 7"),
        "budget": dict(max_steps=2000)},
    "every_key_multimodal": {
        "problem": dict(kind="multimodal_1d"), "optimizers": dict(kinds="ngn"),
        "grid": dict(c="0.1, 1", beta=0, seeds=0, x0="0.5, -2"), "budget": dict(max_steps=300)},
    "every_kind": {
        "problem": dict(kind="least_squares", dim=5, n_samples=20),
        "optimizers": dict(kinds=", ".join(KINDS + ("ngn@inv_sqrt_step", "ngn_m_v1@inv_sqrt_k"))),
        "grid": dict(c="0.05, 0.5", beta="0.9", seeds="0, 1"),
        "budget": dict(max_steps=300, batch_size=5)},
    "error_rows": {
        "problem": dict(kind="polynomial"), "optimizers": dict(kinds="ngn_m, sgdm"),
        "grid": dict(c="-1, 1e-3", beta="0.9", seeds=0, x0_range="-2, 2, 3"),
        "budget": dict(max_steps=500)},
}


def shipped() -> list:
    return [cfg.stem for cfg in sorted((ROOT / "configs").glob("*.cfg"))]


def cases(cfgs: Path) -> list:
    """Every case, in the order `write` runs them: (name, CLI arguments,
    what it records). A case's files are its name plus a suffix; cfgs is
    the directory CONFIGS are written to."""
    out = []

    def case(name, args, record=None):
        out.append((name, args.split(), record or {}))

    def traj(name, args):
        case(name, f"run {args} --out {name}.csv", STDOUT)

    for stem in shipped():
        for name, workers in ((f"{stem}.serial", ""), (f"{stem}.workers2", " --workers 2")):
            case(name, f"sweep --config configs/{stem}.cfg --out {name}.csv{workers}")
    for name, flags in (("verify", "--seed 0"), ("verify_seed1", "--seed 1"),
                        ("verify_quick", "--quick --seed 3")):
        case(name, f"verify {flags} --out {name}.csv", STATUS)
    lsq = "--problem least_squares"
    for kind in KINDS:
        wd = " --wd 0.01" if kind in WD_KINDS else ""  # any other kind fails with it
        args = (f"{lsq} --dim 5 --n-samples 20 --batch-size 5 --optimizer {kind} --c 0.5"
                f" --beta 0.9{wd} --steps 300")
        traj(f"traj_{kind}", args)
        for schedule in ("inv_sqrt_step", "inv_sqrt_k"):
            traj(f"traj_{kind}_{schedule}", f"{args} --schedule {schedule}")
    for kind in ("ngn_m_v1", "ngn_md_v2"):
        traj(f"traj_fullbatch_{kind}",
             f"{lsq} --dim 5 --n-samples 20 --optimizer {kind} --c 0.5 --beta 0.9 --steps 300")
    for kind in ("ngn", "ngn_m_v1", "sgdm"):
        for d in (_FLOAT_MAX, _FLOAT_MAX + 1):
            args = (f"{lsq} --dim {d} --n-samples {4 * d} --optimizer {kind} --c 0.5 --beta 0.9"
                    " --steps 300")
            traj(f"traj_{kind}_d{d}_full", args)
            traj(f"traj_{kind}_d{d}_minibatch", f"{args} --batch-size {d}")
    traj("traj_lsq_minibatch", f"{lsq} --dim 50 --n-samples 1000 --interpolating --batch-size 32"
                               " --optimizer ngn_md_v1 --c 0.1 --beta 0.9 --steps 600")
    traj("traj_diverging", "--problem ridge --dim 10 --optimizer sgdm --c 5 --beta 0.9")
    for kind in ("ngn_m_v1", "sgdm"):
        for problem, c in (("polynomial --x0 3", "1e-3"), ("multimodal --x0 10", "0.1"),
                           ("rosenbrock", "1e-3")):
            traj(f"traj_{problem.split()[0]}_{kind}",
                 f"--problem {problem} --optimizer {kind} --c {c} --beta 0.9 --steps 3000")
    traj("traj_polynomial_diverging", "--problem polynomial --x0 3 --optimizer sgdm --c 1 --beta 0.9")
    traj("traj_non_finite_iterate",
         "--problem polynomial --x0 3 --optimizer sgdm --c 1e307 --diverge-loss inf --steps 10")
    traj("traj_non_finite_iterate_checkpoint",
         f"{lsq} --dim 5 --n-samples 20 --batch-size 5 --optimizer sgdm --c 1e200"
         f" --x0 {','.join(['1e150'] * 5)} --diverge-loss inf --steps 50")
    traj("traj_flags_least_squares",
         f"{lsq} --dim 4 --n-samples 12 --problem-seed 3 --interpolating --batch-size 3"
         " --optimizer adam --c 0.5 --beta 0.9 --beta2 0.99 --eps 1e-6 --schedule inv_sqrt_step"
         " --success-loss 1e-4 --diverge-loss 1e3 --steps 400 --seed 2 --x0 1,-1,0.5,2")
    traj("traj_flags_ngn_md_v1", f"{lsq} --dim 4 --n-samples 12 --batch-size 3 --optimizer ngn_mdv1w"
                                 " --c 0.5 --beta 0.9 --wd 0.01 --steps 300")
    traj("traj_flags_ridge", "--problem ridge --dim 6 --r 0.5 --problem-seed 1 --optimizer ngn_m"
                             " --c 0.5 --beta 0.9 --schedule inv_sqrt_k --steps 300")
    traj("traj_flags_polynomial", "--problem polynomial --coeffs 0,0.5,1 --scale 2 --x0 2"
                                  " --optimizer ngn --c 0.1 --steps 3000")
    for name in CONFIGS:  # the path kept whole, whatever it holds
        out.append((name, ["sweep", "--config", f"{cfgs / name}.cfg"],
                    ERRORS if name == "error_rows" else {}))
    for i, args in enumerate(["--c 1.0 --L 1.0 --K 100 --dist0 1.0",
                              "--c 2.0 --L 3.0 --K 500 --dist0 2.5 --sigma-int 0.3 --sigma-pos 0.7",
                              "--c 0.05 --L 4.0 --K 2000 --dist0 0.5 --sigma-int 1e-3 --sigma-pos 0.2"]):
        case(f"bounds_{i + 1}", f"bounds {args}", BOUNDS)
    return out


def write(out: Path, tree: Path) -> int:
    """Write every case's files and the manifest into out; 1 when a
    shipped config's serial and two-worker sweeps fail or differ, or
    `verify --seed 0` in one process differs from verify.csv."""
    out, tree = out.resolve(), tree.resolve()
    if out.exists() and any(out.iterdir()):
        sys.exit(f"error: {out} is not empty")
    out.mkdir(parents=True, exist_ok=True)

    def timed(case):
        start = time.perf_counter()
        return case, ngnopt(tree, case[1], NGNOPT_OUT_DIR=str(out)), time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="ngnopt-outputs-") as cfgs:
        for name, sections in CONFIGS.items():
            parser = configparser.ConfigParser()
            parser.read_dict({**sections, "output": {"path": f"{name}.csv"}})
            with open(Path(cfgs) / f"{name}.cfg", "w", encoding="utf-8") as fh:
                parser.write(fh)
        todo, alone = cases(Path(cfgs)), 2 * len(shipped())
        # the shipped sweeps alone, so that their wall times mean something
        done = list(map(timed, todo[:alone]))
        with ThreadPoolExecutor(2) as pool:
            done += pool.map(timed, todo[alone:])
        csv = Path(cfgs) / "verify.csv"
        code = run([sys.executable, "-c", _ONE_CPU, "verify", "--seed", "0", "--out", str(csv)],
                   tree).returncode
        one_cpu = code, csv.read_bytes() if csv.is_file() else None
    codes = {}
    for (name, _, record), p, seconds in done:
        print(f"{name:40s} exit {p.returncode}  {seconds:6.3f} s")
        codes[name] = p.returncode
        for suffix, data in record.items():
            (out / f"{name}{suffix}").write_bytes(data(p))
    (out / "exit_codes.txt").write_text("".join(f"{n} {c}\n" for n, c in codes.items()))
    (out / MANIFEST).write_text("".join(f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.name}\n"
                                        for f in sorted(out.iterdir())))
    status = 0
    csv = out / "verify.csv"
    if one_cpu != (codes["verify"], csv.read_bytes() if csv.is_file() else None):
        print("verify: one process and the pooled audits differ", file=sys.stderr)
        status = 1
    for stem in shipped():
        serial, workers = out / f"{stem}.serial.csv", out / f"{stem}.workers2.csv"
        if codes[serial.stem] or codes[workers.stem] or serial.read_bytes() != workers.read_bytes():
            print(f"{stem}: the serial and --workers 2 sweeps fail or differ", file=sys.stderr)
            status = 1
    return status


def status_counts(path: Path) -> dict:
    """{(optimizer, c): Counter of the status column} of a sweep's summary CSV."""
    counts = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            counts.setdefault((row["optimizer"], row["c"]), collections.Counter())[row["status"]] += 1
    return counts


def compare(a: Path, b: Path) -> list:
    """A line for each file of a or b, less the manifest, whose bytes
    differ or that one side lacks; a differing sweep's line is followed by
    one for each (optimizer, c), with its status counts in a and in b."""
    diffs = []
    for name in sorted({f.name for d in (a, b) for f in d.iterdir()} - {MANIFEST}):
        sides = [d for d in (a, b) if (d / name).is_file()]
        if len(sides) == 1 or (a / name).read_bytes() != (b / name).read_bytes():
            diffs.append(f"{name}: " + ("differs" if len(sides) == 2 else f"only in {sides[0]}"))
            if len(sides) == 2 and name.endswith(".serial.csv"):
                before, after = status_counts(a / name), status_counts(b / name)
                for key in {**before, **after}:
                    counts = [", ".join(f"{status} {n}" for status, n in sorted(side[key].items()))
                              if key in side else "-" for side in (before, after)]
                    diffs.append(f"  {key[0]} c={key[1]}: {counts[0]} | {counts[1]}")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    writep = sub.add_parser("write", help="write the outputs of a checkout's CLI into DIR")
    writep.add_argument("dir", type=Path)
    writep.add_argument("--tree", type=Path, default=ROOT, help="the checkout (default: this one)")
    comparep = sub.add_parser("compare", help="list the files that differ between A and B")
    comparep.add_argument("a", type=Path, metavar="A")
    comparep.add_argument("b", type=Path, metavar="B")
    args = parser.parse_args(argv)
    if args.command == "write":
        return write(args.dir, args.tree)
    diffs = compare(args.a, args.b)
    for line in diffs:
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
