"""Run angiosim's command line with a timing span around each layer's calls.

    python traced_cli.py STATS_JSON WORKERS <angiosim arguments...>

Nothing under src/ changes: after importing angiosim, each traced function is
replaced by a wrapper on every angiosim module that holds it, so calls made
through a name imported with `from .x import f` are caught too. Sweep points
run in forked pool workers, which inherit the wrappers; each worker writes
its spans next to STATS_JSON after every point and this process merges them.

STATS_JSON receives the per-layer metrics of this one invocation. WORKERS is
the sweep's worker count (min(max_parallel, points)), used for parallel_eff.
"""
import time

_t0 = time.perf_counter()
import angiosim.cli  # noqa: E402  (timed: the import is a measured layer)
IMPORT_S = time.perf_counter() - _t0

import functools  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

from angiosim import config, dynamics, elliptic, functionals, grid, harness, thresholds  # noqa: E402

MODULES = (sys.modules["angiosim"], angiosim.cli, config, dynamics, elliptic,
           functionals, grid, harness, thresholds)

# Self time of a span excludes the time of these child spans.
SELF_EXCLUDES = {
    "dynamics.step": ("dynamics.stable_dt", "elliptic.solve"),
    "harness.run_scenario": ("dynamics.make_initial", "elliptic.spectral_info", "dynamics.run"),
    "harness.sweep_row": ("config.overrides", "dynamics.make_initial", "dynamics.run"),
}


class Tracer:
    """Spans kept in memory per name; a stack tracks the open parents."""

    def __init__(self):
        self.pid = os.getpid()
        self.missing = []
        self.reset()

    def reset(self):
        self.durations = defaultdict(list)
        self.self_times = defaultdict(list)
        self.samples = defaultdict(list)
        self.failed = defaultdict(int)
        self.stack = []

    def wrap(self, name, fn, on_result=None, under=None):
        """Wrapper timing fn as span `name`; with `under`, only spans opened
        while a span of that name is open are recorded."""
        excluded = SELF_EXCLUDES.get(name)
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            if under is not None and not any(f[0] == under for f in stack):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed[name] += 1
                raise
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self.durations[name].append(dur)
                if excluded is not None:
                    self.self_times[name].append(dur - frame[1])
                if stack and name in SELF_EXCLUDES.get(stack[-1][0], ()):
                    stack[-1][1] += dur
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def worker_entry(self, fn, flush_dir):
        """Wrapper for the function a pool worker runs per task: drop the
        state inherited from the parent at fork, flush spans after each task."""

        @functools.wraps(fn)
        def entry(*args, **kwargs):
            if os.getpid() != self.pid:
                self.pid = os.getpid()
                self.reset()
            try:
                return fn(*args, **kwargs)
            finally:
                if self.pid != OWNER_PID:
                    self.flush(flush_dir)

        return entry

    def state(self):
        return {"durations": self.durations, "self_times": self.self_times,
                "samples": self.samples, "failed": self.failed}

    def flush(self, flush_dir):
        path = os.path.join(flush_dir, f"worker-{self.pid}-{time.monotonic_ns()}.json")
        with open(path, "w") as fh:
            json.dump(self.state(), fh)
        self.reset()

    def merge(self, state):
        for key, table in state.items():
            mine = getattr(self, key)
            for name, value in table.items():
                mine[name] += value


OWNER_PID = os.getpid()


def install(tracer, flush_dir):
    def patch(owner, attr, name, **kw):
        original = getattr(owner, attr, None)
        if original is None:
            tracer.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        wrapper = tracer.wrap(name, original, **kw)
        if name == "harness.sweep_row":
            wrapper = tracer.worker_entry(wrapper, flush_dir)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            return
        for mod in MODULES:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def on_solve(result):
        _w, residual, iterations = result
        tracer.samples["elliptic.solve.iterations"].append(iterations)
        tracer.samples["elliptic.solve.residual"].append(residual)

    patch(config, "parse_config", "config.parse")
    patch(config, "parse_sweep", "config.parse")
    patch(config, "scenario_with_overrides", "config.overrides")
    patch(elliptic, "solve_neumann_poisson", "elliptic.solve", on_result=on_solve)
    patch(elliptic, "spectral_info", "elliptic.spectral_info")
    patch(dynamics, "make_initial", "dynamics.make_initial")
    patch(dynamics, "stable_dt", "dynamics.stable_dt")
    patch(dynamics, "_face_speeds", "dynamics.face_speeds")
    patch(dynamics, "run", "dynamics.run")
    patch(dynamics.Stepper, "__init__", "dynamics.stepper_init")
    patch(dynamics.Stepper, "step", "dynamics.step")
    patch(grid.Field, "__init__", "grid.field", under="dynamics.step")
    patch(functionals, "diagnostics_record", "functionals.diagnostics_record")
    patch(functionals, "fit_decay_rate", "functionals.fit_decay_rate")
    patch(harness, "run_scenario", "harness.run_scenario")
    patch(harness, "run_sweep", "harness.run_sweep")
    patch(harness, "_sweep_row", "harness.sweep_row")


def layer_metrics(tracer, workers):
    """Per-layer metrics of one invocation; a layer the command never
    reached reads 0 (e.g. the sweep layers on a single run)."""
    d, st, sm, failed = tracer.durations, tracer.self_times, tracer.samples, tracer.failed

    def p50(xs):
        return statistics.median(xs) if xs else 0.0

    steps = len(d["dynamics.step"])
    per_step = (lambda n: n / steps) if steps else (lambda n: 0.0)
    iters = sm["elliptic.solve.iterations"]
    sweep_wall = sum(d["harness.run_sweep"])
    return {
        "cli.import_s": IMPORT_S,
        "config.parse_s": p50(d["config.parse"]),
        "config.overrides_s": p50(d["config.overrides"]),
        "elliptic.solve.calls": len(d["elliptic.solve"]),
        "elliptic.solve.busy_s": sum(d["elliptic.solve"]),
        "elliptic.solve.us_p50": 1e6 * p50(d["elliptic.solve"]),
        "elliptic.solve.iters_per_call": sum(iters) / len(iters) if iters else 0.0,
        "elliptic.solve.residual_max": max(sm["elliptic.solve.residual"], default=0.0),
        "elliptic.solve.failed": failed["elliptic.solve"],
        "elliptic.spectral_info_s": p50(d["elliptic.spectral_info"]),
        "dynamics.make_initial_s": p50(d["dynamics.make_initial"]),
        "dynamics.stepper_init_s": p50(d["dynamics.stepper_init"]),
        "dynamics.step.calls": steps,
        "dynamics.step.us_p50": 1e6 * p50(d["dynamics.step"]),
        "dynamics.step.self_us_p50": 1e6 * p50(st["dynamics.step"]),
        "dynamics.step.failed": failed["dynamics.step"],
        "dynamics.stable_dt.us_p50": 1e6 * p50(d["dynamics.stable_dt"]),
        "dynamics.face_speeds.per_step": per_step(len(d["dynamics.face_speeds"])),
        "grid.field.per_step": per_step(len(d["grid.field"])),
        "grid.field.us_p50": 1e6 * p50(d["grid.field"]),
        "functionals.diagnostics_record.calls": len(d["functionals.diagnostics_record"]),
        "functionals.diagnostics_record.us_p50": 1e6 * p50(d["functionals.diagnostics_record"]),
        "functionals.diagnostics_record.busy_s": sum(d["functionals.diagnostics_record"]),
        "functionals.fit_decay_rate_s": p50(d["functionals.fit_decay_rate"]),
        "harness.outputs_s": sum(st["harness.run_scenario"]) + sum(st["harness.sweep_row"]),
        "harness.sweep.point_s_p50": p50(d["harness.sweep_row"]),
        "harness.sweep.point_s_max": max(d["harness.sweep_row"], default=0.0),
        "harness.sweep.parallel_eff":
            sum(d["harness.sweep_row"]) / (workers * sweep_wall) if sweep_wall else 0.0,
    }


def main(argv):
    stats_path, workers, cli_args = argv[0], int(argv[1]), argv[2:]
    flush_dir = os.path.dirname(os.path.abspath(stats_path))
    for stale in glob.glob(os.path.join(flush_dir, "worker-*.json")):
        os.remove(stale)
    tracer = Tracer()
    install(tracer, flush_dir)
    code = angiosim.cli.main(cli_args)
    for path in sorted(glob.glob(os.path.join(flush_dir, "worker-*.json"))):
        with open(path) as fh:
            tracer.merge(json.load(fh))
        os.remove(path)
    with open(stats_path, "w") as fh:
        json.dump({"metrics": layer_metrics(tracer, workers), "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
