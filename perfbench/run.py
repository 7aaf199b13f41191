#!/usr/bin/env python3
"""angiosim benchmark: end-to-end and per-layer metrics of the CLI.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. Every timed repetition is a fresh
interpreter running angiosim's command line from the checkout's src/, started
by this one parent process, one child at a time. Nothing is installed or built.

--trace 0 interleaves set-up probes (the workload's command stopped after one
time step) with full repetitions for --seconds and reports the end-to-end
metrics. --trace 1 interleaves untraced repetitions with traced ones
(traced_cli.py) and reports the per-layer metrics. Every repetition, probes
and traced ones included, passes the gates in gates.py or counts as failed.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
--self-test runs the traced path on tiny configs and fails if any per-layer
metric is missing or reads zero where its layer runs. --record-reference
rewrites perfbench/reference/ from the current program.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import gates
from workloads import (
    RUN2D_DRAWS, WORKLOADS, Workload, config_text, max_parallel, nproc, seed_class,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
REFERENCE = os.path.join(HERE, "reference")
CLI = "import sys; from angiosim.cli import main; sys.exit(main())"
# Children are killed once the whole benchmark has run this long, so that it
# always exits (with failures counted) inside its 180 s limit.
STARTED = time.perf_counter()
BUDGET_S = 170.0
MIN_REPS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass(frozen=True)
class Case:
    """One benchmarked command: the full config and its one-step probe."""

    name: str
    command: str
    full_cfg: str
    probe_cfg: str
    steps: int
    points: int
    workers: int
    reference: dict | None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], log_path: str) -> tuple[float, int, float]:
    """Wall seconds from spawn to exit, exit code, peak RSS (MB) of the child
    and of the descendants it waited for. The child leads its own process
    group, so a kill also stops its pool workers."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), start_new_session=True,
                                stdout=subprocess.DEVNULL, stderr=log)
        remaining = max(0.1, BUDGET_S - (t0 - STARTED))
        killer = threading.Timer(remaining, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Runner:
    """Executes repetitions of one case and gates each of them."""

    def __init__(self, case: Case):
        self.case = case
        self.dir = os.path.join(WORK, case.name)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.cfg = {}
        for kind, text in (("full", case.full_cfg), ("setup", case.probe_cfg)):
            self.cfg[kind] = os.path.join(self.dir, f"{kind}.cfg")
            with open(self.cfg[kind], "w") as fh:
                fh.write(text)
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def execute(self, kind: str, traced: bool = False) -> tuple[float, float, dict | None]:
        """One repetition; returns wall s, peak RSS MB and the traced stats."""
        case = self.case
        out = os.path.join(self.dir, "out")
        shutil.rmtree(out, ignore_errors=True)
        stats_path = os.path.join(self.dir, "trace", "stats.json")
        cli_args = [case.command, self.cfg[kind], "--out", out, "--quiet"]
        if traced:
            os.makedirs(os.path.dirname(stats_path), exist_ok=True)
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), stats_path,
                    str(case.workers)] + cli_args
        else:
            argv = [sys.executable, "-c", CLI] + cli_args
        wall, code, rss = spawn(argv, os.path.join(self.dir, "child.log"))
        self.gate(kind, code, out)
        stats = None
        if traced and code == 0:
            with open(stats_path) as fh:
                stats = json.load(fh)
            if stats["missing"]:
                self.problems.append(f"trace: not found in angiosim: {stats['missing']}")
        return wall, rss, stats

    def gate(self, kind: str, code: int, out: str) -> None:
        case = self.case
        self.attempted += case.points
        if code != 0:
            with open(os.path.join(self.dir, "child.log"), errors="replace") as fh:
                tail = fh.read()[-400:]
            self._fail(case.points, f"{kind}: exit code {code}: {tail}")
            return
        try:
            obs = gates.observe(out, case.command)
            digest = gates.digest(out, case.command)
        except (OSError, IndexError, KeyError, ValueError) as exc:
            self._fail(case.points, f"{kind}: unreadable outputs: {exc!r}")
            return
        if self.digests.setdefault(kind, digest) != digest:
            self._fail(case.points, f"{kind}: outputs differ byte-wise from the first repetition")
            return
        try:
            per_point = gates.structural_problems(obs, case.command)
            if case.reference is not None:
                ref = gates.reference_problems(obs, case.reference[kind], case.command)
                per_point = [a + b for a, b in zip(per_point, ref)]
        except (KeyError, ValueError) as exc:
            per_point = [[f"outputs not in the expected form: {exc!r}"]] * case.points
        bad = [p for p in per_point if p]
        if bad:
            self._fail(len(bad), f"{kind}: " + "; ".join(bad[0][:3]))

    def _fail(self, units: int, message: str) -> None:
        self.failed += units
        self.problems.append(message)


def interleave(run_a, run_b, seconds: float, min_reps: int):
    """Alternate two measurements until the next pair would overrun `seconds`
    (at least min_reps pairs). Returns the two lists of results."""
    a, b, pair_s = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        a.append(run_a())
        b.append(run_b())
        pair_s.append(time.perf_counter() - t0)
        if len(a) >= min_reps and time.perf_counter() + statistics.median(pair_s) > deadline:
            return a, b


def warm_up(runner: Runner) -> None:
    """Compile angiosim's bytecode and fill the page cache before timing;
    an installed CLI pays neither on every run."""
    spawn([sys.executable, "-c", "import angiosim.cli"], os.path.join(runner.dir, "child.log"))


def measure_e2e(case: Case, seconds: float) -> tuple[dict, Runner]:
    runner = Runner(case)
    warm_up(runner)
    probes, fulls = interleave(lambda: runner.execute("setup"),
                               lambda: runner.execute("full"), seconds, MIN_REPS)
    setup_s = statistics.median(w for w, _, _ in probes)
    wall_s = statistics.median(w for w, _, _ in fulls)
    # the probe already takes one step per point, so the difference covers the rest
    loop_steps = (case.steps - 1) * case.points
    raw = {
        "wall_s": (wall_s, "s", [w for w, _, _ in fulls]),
        "setup_s": (setup_s, "s", [w for w, _, _ in probes]),
        "steps_per_s": (loop_steps / (wall_s - setup_s), "1/s", []),
        "peak_rss_mb": (statistics.median(r for _, r, _ in fulls), "MB",
                        [r for _, r, _ in fulls]),
    }
    return raw, runner


def measure_layers(case: Case, seconds: float) -> tuple[dict, Runner]:
    runner = Runner(case)
    warm_up(runner)
    plain, traced = interleave(lambda: runner.execute("full"),
                               lambda: runner.execute("full", traced=True), seconds, 2)
    runs = [stats["metrics"] for _, _, stats in traced if stats is not None]
    raw = {}
    if runs:
        for name, unit in layer_units().items():
            if name in runs[0]:
                raw[name] = (statistics.median(r[name] for r in runs), unit, [])
    overhead = statistics.median(w for w, _, _ in traced) / statistics.median(w for w, _, _ in plain) - 1.0
    raw["trace.overhead_frac"] = (overhead, "ratio", [])
    return raw, runner


def layer_units() -> dict[str, str]:
    """Per-layer metric names and units, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def workload_case(wl: Workload, seed: int, reference: dict | None) -> Case:
    return Case(
        name=wl.name,
        command=wl.command,
        full_cfg=config_text(wl, ROOT, seed, wl.steps),
        probe_cfg=config_text(wl, ROOT, seed, 1),
        steps=wl.steps,
        points=wl.points,
        workers=min(max_parallel(), wl.points),
        reference=reference,
    )


def machine_block() -> dict:
    info = {"nproc": nproc(), "cpu_model": "unknown", "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_root = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache_root)):
            def read(field, index=index):
                with open(os.path.join(cache_root, index, field)) as fh:
                    return fh.read().strip()
            if read("level") in ("2", "3"):
                info["caches"][f"L{read('level')}"] = read("size")
    except OSError:
        pass
    info["python"] = platform.python_version()
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            info[pkg] = "missing"
    info["commit"] = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            info["commit"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                            capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    info["blas_env"] = {k: os.environ.get(k) for k in BLAS_VARS}
    return info


def read_reference(wl: Workload, seed: int) -> dict:
    with open(os.path.join(REFERENCE, f"{wl.name}.json")) as fh:
        table = json.load(fh)
    key = seed_class(wl, seed)
    return {kind: table[kind][key] for kind in ("full", "setup")}


def report(wl_name: str, raw: dict, runner: Runner, extra: dict) -> None:
    print(f"workload {wl_name}: " + json.dumps(extra))
    for name, (value, unit, samples) in raw.items():
        spread = ""
        if samples:
            spread = f"  n={len(samples)}: " + " ".join(f"{x:.4g}" for x in samples)
        print(f"  {name:42s} {value:14.6g} {unit}{spread}")
    print(f"  {'fail_frac':42s} {runner.failed / max(runner.attempted, 1):14.6g} ratio"
          f"  ({runner.failed} of {runner.attempted} runs or sweep points)")
    for problem in runner.problems[:10]:
        print(f"  FAILED: {problem}", file=sys.stderr)


def result_line(raw: dict, runner: Runner) -> str:
    return json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in raw.items()},
    })


def require_checkout() -> None:
    for path in ("src/angiosim/cli.py", "configs/sweep_chi_mu.cfg", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, path)):
            sys.exit(f"perfbench: {path} not found; run from an angiosim checkout")


def benchmark(args) -> int:
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("perfbench: --seed must be >= 0 and --seconds > 0")
    case = workload_case(wl, args.seed, read_reference(wl, args.seed))
    print("machine: " + json.dumps(machine_block()))
    config_seed = args.seed % RUN2D_DRAWS if wl.name == "run-2d" else args.seed
    extra = {"seed": args.seed, "config_seed": config_seed, "max_parallel": max_parallel(),
             "steps_per_point": case.steps, "points": case.points, "trace": args.trace}
    measure = measure_layers if args.trace else measure_e2e
    raw, runner = measure(case, args.seconds)
    report(wl.name, raw, runner, extra)
    print(result_line(raw, runner))
    return 0


def self_test() -> int:
    """Traced run and sweep on 1D-16 grids; every per-layer metric must be
    present, and nonzero wherever its layer runs (failure counters: zero)."""
    run_cfg = ("preset = C2_logistic\nseed = 0\ngrid.cells = 16\nsolver.dt = 0.002\n"
               "solver.elliptic_tolerance = 1e-10\nsolver.t_end = {t}\n")
    sweep_cfg = run_cfg + "sweep.params.chi = 0.25, 0.5\nsweep.max_parallel = 2\n"
    sweep_only = {"config.overrides_s", "harness.sweep.point_s_p50",
                  "harness.sweep.point_s_max", "harness.sweep.parallel_eff"}
    run_only = {"elliptic.spectral_info_s"}
    ok = True
    for name, command, text, points, expect_zero in (
        ("selftest-run", "run", run_cfg, 1, sweep_only),
        ("selftest-sweep", "sweep", sweep_cfg, 2, run_only),
    ):
        case = Case(name, command, text.format(t=0.04), text.format(t=0.002), 20, points,
                    min(2, points), None)
        raw, runner = measure_layers(case, 0.0)
        for metric in layer_units():
            value = raw.get(metric, (None,))[0]
            zero_ok = metric in expect_zero or metric.endswith(".failed")
            if value is None or (value == 0) != zero_ok:
                print(f"FAIL {name} {metric} = {value}")
                ok = False
        if runner.failed or runner.problems:
            print(f"FAIL {name}: {runner.problems}")
            ok = False
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def record_reference() -> int:
    """Write reference outputs for every workload (all run-2d draws)."""
    global BUDGET_S
    BUDGET_S = float("inf")  # a maintenance run, not bound by the 180 s limit
    os.makedirs(REFERENCE, exist_ok=True)
    for wl in WORKLOADS.values():
        seeds = range(RUN2D_DRAWS) if wl.name == "run-2d" else [0]
        table = {"full": {}, "setup": {}}
        for seed in seeds:
            case = workload_case(wl, seed, None)
            runner = Runner(case)
            for kind in ("full", "setup"):
                runner.execute(kind)
                table[kind][seed_class(wl, seed)] = gates.observe(
                    os.path.join(runner.dir, "out"), case.command)
            if runner.failed:
                print(f"{wl.name} seed {seed}: {runner.problems}", file=sys.stderr)
                return 1
        with open(os.path.join(REFERENCE, f"{wl.name}.json"), "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"reference for {wl.name}: {len(seeds)} seed class(es)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    require_checkout()
    if args.self_test:
        return self_test()
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        ap.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
