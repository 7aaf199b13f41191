#!/usr/bin/env python3
"""A/B comparison of two angiosim trees on one benchmark workload.

    python3 tools/ab.py BASE CHANGE --workload run-2d --pairs 10 [--seed S]

BASE and CHANGE are source trees, each with src/ and configs/; a commit's tree
comes from `git archive REV | tar -x -C DIR`. Both are copied to paths of equal
length (peak RSS moves with the length of the paths a run opens). Each pair
then runs both sides, alternating which goes first. A side's run is
perfbench's: the workload's one-step probe config, then its full config, each
in a fresh interpreter running angiosim's command line from the copy's src/
with the inherited environment, and peak RSS from wait4. The package is
imported as perfbench's children import it: a warm-up child imports it once,
and no bytecode is compiled ahead, so under PYTHONDONTWRITEBYTECODE=1 every
child compiles it again, as every perfbench child does. The configs come from
perfbench/workloads.py.

Per metric it prints each side's median and interquartile range, and in how
many of the N pairs the change was better (ties count for neither). "gain"
marks a metric where the change won at least nine pairs in ten and its median
is better by more than the base's IQR. The exit status is 1 if any output file
differs from the base's first run, in either tree.

Noise floor: the parent tree against itself, 10 pairs, on a shared 2-core
x86-64 virtual machine (Intel Xeon 2.0 GHz, Python 3.11.7, numpy 2.4.6), with
PYTHONDONTWRITEBYTECODE=1 set.

    $ python3 tools/ab.py PARENT PARENT --workload run-2d --pairs 10
    workload run-2d, seed 0, 10 pairs, 30 steps x 1 point(s)
    metric       unit        base median [IQR]      change median [IQR] change/base   wins
    wall_s       s             0.4381 [0.0364]          0.4692 [0.0591]      1.0709   3/10
    setup_s      s             0.2639 [0.0328]          0.261 [0.00464]      0.9890   6/10
    steps_per_s  1/s              172.5 [43.5]             144.5 [39.8]      0.8374   3/10
    peak_rss_mb  MB              39.1 [0.0879]           39.09 [0.0967]      0.9997   6/10
    outputs: byte-identical in every run of both trees

    $ python3 tools/ab.py PARENT PARENT --workload sweep --pairs 10
    workload sweep, seed 0, 10 pairs, 1000 steps x 9 point(s)
    metric       unit        base median [IQR]      change median [IQR] change/base   wins
    wall_s       s             0.4042 [0.0104]           0.4279 [0.137]      1.0587   4/10
    setup_s      s             0.1717 [0.0316]           0.171 [0.0667]      0.9957   5/10
    steps_per_s  1/s      3.836e+04 [2.93e+03]      3.72e+04 [1.31e+04]      0.9696   5/10
    peak_rss_mb  MB             31.27 [0.0732]            31.28 [0.114]      1.0001   4/10
    outputs: byte-identical in every run of both trees

Every ratio is inside its BENCHMARK.json bound (0.25 for the times, 0.05 for
peak RSS), but steps_per_s moved 16% with no change: a time difference inside
these IQRs, or won in fewer than nine of ten pairs, is not a gain. A claim
clears this floor when it is won in nine pairs of ten by more than the base's
IQR, as in building each initial grid array once and dropping the stepper
before the last record:

    $ python3 tools/ab.py PARENT CHANGE --workload run-2d --pairs 10
    peak_rss_mb  MB              39.11 [0.109]            38.39 [0.041]      0.9816  10/10  gain

peak_rss_mb reads about what perfbench/run.py reads for the same tree (39.1
and 31.3 MB here; 38.5 and 31.3 MB from perfbench/run.py, whose runs open
other paths). Without PYTHONDONTWRITEBYTECODE, the warm-up child writes
bytecode into the copies, no child compiles, and the same tree reads about
1.1 MB lower on sweep (30.2 MB). A small peak RSS shift can hang on that:
the change above read sweep 0.25 MB higher here (31.34 to 31.59, 0/10), but
0.06 MB higher with bytecode written ahead (6 pairs) and 0.06 MB higher under
perfbench/run.py. Quote perfbench/run.py beside a peak RSS figure from here.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import WORKLOADS, config_text

CLI = "import sys; from angiosim.cli import main; sys.exit(main())"
# name, unit, and whether a higher value is better
METRICS = (("wall_s", "s", False), ("setup_s", "s", False), ("steps_per_s", "1/s", True),
           ("peak_rss_mb", "MB", False))


class Side:
    """One tree's copy, its two configs, and the metrics and output digests of
    its runs."""

    def __init__(self, name: str, source: str, tree: str, workload, seed: int):
        self.name, self.tree, self.workload = name, tree, workload
        for sub in ("src", "configs"):
            shutil.copytree(os.path.join(source, sub), os.path.join(self.tree, sub),
                            ignore=shutil.ignore_patterns("__pycache__"))
        self.cfg = {}
        for kind, steps in (("setup", 1), ("full", workload.steps)):
            self.cfg[kind] = os.path.join(self.tree, f"{kind}.cfg")
            with open(self.cfg[kind], "w") as fh:
                fh.write(config_text(workload, self.tree, seed, steps))
        self.samples = {name: [] for name, _, _ in METRICS}
        self.digests = {}
        # perfbench's warm-up: fills the page cache, and writes bytecode only where
        # the environment lets every child do so
        self._spawn([sys.executable, "-c", "import angiosim.cli"])

    def _spawn(self, argv: list[str]) -> tuple[float, float]:
        """Wall seconds and peak RSS (MB) of one child; exits if it fails."""
        env = dict(os.environ)
        src = os.path.join(self.tree, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        log_path = os.path.join(self.tree, "child.log")
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.tree, env=env, stdout=subprocess.DEVNULL,
                                    stderr=log)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        if os.waitstatus_to_exitcode(status) != 0:
            with open(log_path, errors="replace") as fh:
                sys.exit(f"ab: {self.name}: {' '.join(argv[3:])} failed:\n{fh.read()[-800:]}")
        return wall, usage.ru_maxrss / 1024.0

    def _run(self, kind: str) -> tuple[float, float]:
        out = os.path.join(self.tree, "out")
        shutil.rmtree(out, ignore_errors=True)
        wall, rss = self._spawn([sys.executable, "-c", CLI, self.workload.command,
                                 self.cfg[kind], "--out", out, "--quiet"])
        digest = hashlib.sha256()
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read() + b"\0")
        self.digests.setdefault(kind, []).append(digest.hexdigest())
        return wall, rss

    def measure(self) -> None:
        """One probe and one full run; the probe takes the first step, so the
        difference of their walls covers the other steps."""
        setup_s, _ = self._run("setup")
        wall_s, rss = self._run("full")
        steps = (self.workload.steps - 1) * self.workload.points
        for name, value in (("wall_s", wall_s), ("setup_s", setup_s),
                            ("steps_per_s", steps / (wall_s - setup_s)), ("peak_rss_mb", rss)):
            self.samples[name].append(value)


def summary(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def report(base: Side, change: Side, pairs: int) -> list[str]:
    lines = [f"{'metric':12s} {'unit':4s} {'base median [IQR]':>24s} "
             f"{'change median [IQR]':>24s} {'change/base':>11s} {'wins':>6s}"]
    for name, unit, higher in METRICS:
        b, c = base.samples[name], change.samples[name]
        (b_med, b_iqr), (c_med, c_iqr) = summary(b), summary(c)
        sign = 1.0 if higher else -1.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, c))
        gain = wins >= math.ceil(0.9 * pairs) and sign * (c_med - b_med) > b_iqr
        lines.append(f"{name:12s} {unit:4s} {f'{b_med:.4g} [{b_iqr:.3g}]':>24s} "
                     f"{f'{c_med:.4g} [{c_iqr:.3g}]':>24s} {c_med / b_med:11.4f} "
                     f"{f'{wins}/{pairs}':>6s}" + ("  gain" if gain else ""))
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.pairs < 2 or args.seed < 0:
        ap.error("--pairs must be >= 2 and --seed >= 0")
    for tree in (args.base, args.change):
        if not os.path.isfile(os.path.join(tree, "src", "angiosim", "cli.py")):
            ap.error(f"{tree} is not an angiosim tree (no src/angiosim/cli.py)")
    wl = WORKLOADS[args.workload]
    work = tempfile.mkdtemp(prefix="angiosim-ab-")
    try:
        base = Side("base", args.base, os.path.join(work, "a"), wl, args.seed)
        change = Side("change", args.change, os.path.join(work, "b"), wl, args.seed)
        for i in range(args.pairs):
            for side in (base, change) if i % 2 == 0 else (change, base):
                side.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {wl.name}, seed {args.seed}, {args.pairs} pairs, "
          f"{wl.steps} steps x {wl.points} point(s)")
    print("\n".join(report(base, change, args.pairs)))
    differ = sorted({f"{side.name}: {kind}" for side in (base, change)
                     for kind, digests in side.digests.items()
                     if set(digests) != {base.digests[kind][0]}})
    if differ:
        print("outputs differ from the base's first run: " + ", ".join(differ))
        return 1
    print("outputs: byte-identical in every run of both trees")
    return 0


if __name__ == "__main__":
    sys.exit(main())
