"""Benchmark of the propertyo CLI on four workloads, with a traced per-module run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Workloads and metrics, with their units, are named in BENCHMARK.json; the
workloads are described in workloads.py.  With ``--trace 0`` the
workload's CLI calls run as subprocesses, one at a time, in passes until
``--seconds`` is spent; the last stdout line is a JSON object with the
end-to-end metrics.  With ``--trace 1`` one untraced CLI pass is followed
by a traced pass (layers.py) that makes the same calls through
``propertyo.cli.main`` in one process, and the metrics are per module.  Every call's output is checked
(checks.py); a wrong verdict, a witness that does not check out, an
unexpected exit code, a crash or a timeout counts as a failed verdict and
never stops the run.  Run context, per-call figures and spans are written
to bench/out/.

Only the standard library is used; propertyo is run from ./src.
"""

from __future__ import annotations

import argparse
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

from checks import check_call
from workloads import (
    DEFAULT_SEED,
    construct_calls,
    derived_files,
    parse_graph_file,
    workload_calls,
    write_graph_file,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
OUT = os.path.join(BENCH, "out")

# set-up is repeated at least this often and for at least this long; the
# median is reported, because one import takes only about 0.1 s
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 2.0
IMPORT_REPEATS = 5
# A run stops launching work here and counts what is left as timed out, so
# that it ends within three minutes even when every call hangs.
RUN_BUDGET_S = 150.0
CALL_TIMEOUT_S = 60.0

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Runner:
    """Runs commands one at a time under a per-call timeout and a run budget.

    Each child leads its own process group, so a timeout kills its pool workers
    too.  Resource use comes from ``os.wait4`` on that child alone, which
    covers the workers it reaped; ``RUSAGE_CHILDREN`` would carry the
    largest child ever seen into every later call.
    """

    def __init__(self, cwd: str, deadline: float) -> None:
        self.cwd = cwd
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )

    def run(self, argv: list[str]) -> dict:
        timeout = min(CALL_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            return {"returncode": None, "stdout": "", "stderr": "run budget spent",
                    "wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0}
        out_path = os.path.join(self.cwd, ".stdout")
        err_path = os.path.join(self.cwd, ".stderr")
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.cwd, env=self.env, stdout=out, stderr=err,
                stdin=subprocess.DEVNULL, start_new_session=True,
            )
            lock = threading.Lock()
            state = {"reaped": False, "killed": False}

            def kill() -> None:
                with lock:
                    if state["reaped"]:
                        return
                    state["killed"] = True
                    try:
                        os.killpg(proc.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                with lock:
                    state["reaped"] = True
            finally:
                timer.cancel()
                timer.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
            # workers left behind by a killed or crashed CLI share its group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            stderr = err.read().decode("utf-8", "replace")
        return {
            "returncode": None if state["killed"] else proc.returncode,
            "stdout": stdout,
            "stderr": stderr[-2000:],
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }

    def cli(self, args: list[str]) -> dict:
        return self.run([sys.executable, "-m", "propertyo", *args])


def set_up(runner: Runner, workload: str, seed: int, files: dict | None = None) -> tuple[float, dict, dict]:
    """Build the workload's input files in the runner's directory.

    Returns (seconds, constructed graphs by family, derived files by name).
    The time covers interpreter start plus ``import propertyo``, every
    ``propertyo construct`` call, and writing the derived files.  Choosing
    the seeded random inputs is not timed; pass ``files`` from an earlier
    set-up to skip it.
    """
    start = time.perf_counter()
    result = runner.run([sys.executable, "-c", "import propertyo"])
    if result["returncode"] != 0:
        raise SystemExit(f"import propertyo failed: {result['stderr']}")
    constructed = {}
    for args in construct_calls(workload):
        result = runner.cli(args)
        if result["returncode"] != 0:
            raise SystemExit(f"propertyo {' '.join(args)} failed: {result['stderr']}")
        constructed[args[2]] = parse_graph_file(os.path.join(runner.cwd, args[-1]))
    elapsed = time.perf_counter() - start
    if files is None:
        files = derived_files(workload, seed, constructed)
    start = time.perf_counter()
    for name, graph in files.items():
        write_graph_file(os.path.join(runner.cwd, name), graph)
    return elapsed + time.perf_counter() - start, constructed, files


class Tally:
    """Verdicts attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)


def check_pass(calls: list[dict], outputs: list[dict]) -> list[list[str]]:
    """Problems per call in one pass's outputs; [] for a correct call.

    Beyond each call's own check, ``verify`` and ``verify --method dfs`` on
    the same file must give the same verdict.
    """
    found = []
    verdicts: dict[str, bool] = {}
    for call, output in zip(calls, outputs):
        returncode = output["returncode"]
        problems = check_call(call, returncode, output["stdout"])
        if returncode is not None and returncode not in (0, 1):
            problems.append(f"stderr: {output['stderr'].strip()[-300:]}")
        if call["kind"] == "verify" and returncode in (0, 1):
            holds = returncode == 0
            if verdicts.setdefault(call["file"], holds) != holds:
                problems.append("verify and verify --method dfs disagree")
        found.append(problems)
    return found


def run_pass(runner: Runner, calls: list[dict], tally: Tally) -> list[dict]:
    """One closed-loop pass over the calls; every call is checked."""
    records = [dict(runner.cli(call["args"]), args=call["args"]) for call in calls]
    for record, problems in zip(records, check_pass(calls, records)):
        tally.record("propertyo " + " ".join(record["args"]), problems)
        record["problems"] = problems
    return records


def machine_context(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


def end_to_end(workload: str, seed: int, seconds: float, runner: Runner, tally: Tally, report: dict) -> dict:
    setups = []
    files = None
    while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_S:
        elapsed, constructed, files = set_up(runner, workload, seed, files)
        setups.append(elapsed)
    calls = workload_calls(workload, seed, constructed, files)

    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(runner, calls, tally))
        elapsed = time.monotonic() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
        if time.monotonic() + elapsed / len(passes) > runner.deadline:
            break

    # per call, the median over passes; summed over the pass's calls
    wall = sum(statistics.median(p[i]["wall_s"] for p in passes) for i in range(len(calls)))
    report.update(setup_runs_s=setups, passes=passes)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["rss_mb"] for p in passes for r in p),
        "ok_frac": 1.0 - len(tally.failures) / tally.attempted,
    }


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[dict], cli_pass: list[dict], import_runs: list[float]) -> dict:
    """Per-module metrics from the traced pass and the untraced CLI pass."""
    by_id = {s["id"]: s for s in spans}

    def root(span):
        return by_id[span["trace"]]["name"]

    def named(name, under="cli.call"):
        return [s for s in spans if s["name"] == name and root(s) == under]

    def total(name, under="cli.call"):
        return sum(_duration(s) for s in named(name, under))

    def count(name, key, under="cli.call"):
        return sum(s["attrs"][key] for s in named(name, under))

    def census_time(n, k, under="cli.call"):
        return sum(_duration(s) for s in named("search.census", under)
                   if (s["attrs"]["n"], s["attrs"]["k"]) == (n, k))

    decisions = named("core.exhaustive") + named("core.backtracking")
    sample_ids = {s["id"] for s in named("montecarlo.sample")}
    decide = [s for s in named("core.backtracking") if s["parent"] in sample_ids]
    minimality_ids = {s["id"] for s in named("search.minimality")}
    sweep_j2 = census_time(5, 3)
    sweep_j1 = census_time(5, 3, under="check.census_jobs1")
    return {
        "cli.import_s": statistics.median(import_runs),
        "cli.startup_s": sum(r["wall_s"] for r in cli_pass) - total("cli.call", "cli.call"),
        "cli.calls": len(cli_pass),
        "cli.cpu_s": sum(r["cpu_s"] for r in cli_pass),
        "fileformat.read_s": total("fileformat.read"),
        "fileformat.write_s": total("fileformat.write", "setup"),
        "constructions.build_s": total("constructions.build", "setup"),
        "core.exhaustive.s": total("core.exhaustive"),
        "core.exhaustive.orders": count("core.exhaustive", "orders"),
        "core.exhaustive.orders_per_s": _rate(count("core.exhaustive", "orders"), total("core.exhaustive")),
        "core.histogram.s": total("core.histogram"),
        "core.histogram.orders_per_s": _rate(count("core.histogram", "orders"), total("core.histogram")),
        "core.backtracking.s": total("core.backtracking"),
        "core.backtracking.placements": count("core.backtracking", "placements"),
        "core.backtracking.placements_per_s": _rate(
            count("core.backtracking", "placements"), total("core.backtracking")),
        "core.holds_frac": _rate(sum(s["attrs"]["holds"] for s in decisions), len(decisions)),
        "search.census.sweep_s": sweep_j2,
        "search.census.build_s": census_time(8, 2),
        "search.census.tournaments": count("search.census", "tournaments"),
        "search.census.tournaments_per_s": _rate(
            count("search.census", "tournaments"), total("search.census")),
        "search.census.scaling_eff": _rate(sweep_j1, 2 * sweep_j2),
        "search.minimality.s": total("search.minimality"),
        "search.minimality.decisions": sum(s["parent"] in minimality_ids for s in decisions),
        "montecarlo.generate_s": total("montecarlo.generate"),
        "montecarlo.decide_s": sum(_duration(s) for s in decide),
        "montecarlo.trials_per_s": _rate(count("montecarlo.sample", "trials"), total("montecarlo.sample")),
    }


def traced(workload: str, seed: int, runner: Runner, tally: Tally, report: dict) -> dict:
    import_runs = []
    for _ in range(IMPORT_REPEATS):
        result = runner.run([sys.executable, "-c", "import propertyo"])
        tally.record("import propertyo", [] if result["returncode"] == 0 else ["import failed"])
        import_runs.append(result["wall_s"])
    _, constructed, files = set_up(runner, workload, seed)
    calls = workload_calls(workload, seed, constructed, files)
    cli_pass = run_pass(runner, calls, tally)

    spec_path = os.path.join(runner.cwd, "layers-spec.json")
    out_path = os.path.join(runner.cwd, "layers-out.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump({"construct": construct_calls(workload), "files": files, "calls": calls}, handle)
    if os.path.exists(out_path):
        os.remove(out_path)
    result = runner.run([sys.executable, os.path.join(BENCH, "layers.py"), spec_path, out_path])
    if result["returncode"] == 0:
        with open(out_path, encoding="utf-8") as handle:
            layers = json.load(handle)
    else:
        # a crashed or timed-out pass is a failed verdict; its layers read 0
        problem = f"traced pass exit {result['returncode']}: {result['stderr'].strip()[-300:]}"
        layers = {"spans": [], "results": [], "problems": [problem], "span_cost_s": 0.0}
    for problem in layers["problems"]:
        tally.record("traced pass", [problem])
    tally.record("traced pass", [])
    for call, found in zip(calls, check_pass(calls, layers["results"])):
        tally.record("in-process propertyo " + " ".join(call["args"]), found)

    spans = layers["spans"]
    traced_s = sum(_duration(s) for s in spans if s["parent"] is None)
    report.update(
        cli_pass=cli_pass,
        spans=spans,
        tracing_overhead_frac=_rate(layers["span_cost_s"] * len(spans), traced_s),
        import_runs_s=import_runs,
    )
    return layer_metrics(spans, cli_pass, import_runs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "propertyo", "__init__.py")):
        print(f"no propertyo sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(workdir, deadline)
    # compile the package's bytecode once, as an installed copy would have it
    runner.run([sys.executable, "-c", "import propertyo"])

    tally = Tally()
    context = machine_context(args.seed)
    report: dict = {"workload": args.workload, "trace": args.trace}
    if args.trace:
        values = traced(args.workload, args.seed, runner, tally, report)
        units = PER_LAYER
    else:
        values = end_to_end(args.workload, args.seed, args.seconds, runner, tally, report)
        units = END_TO_END
    context["loadavg_end"] = list(os.getloadavg())
    context["tracing_overhead_frac"] = report.pop("tracing_overhead_frac", None)
    context["failed_frac"] = len(tally.failures) / tally.attempted

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({"context": context, "metrics": metrics, "failures": tally.failures, **report},
                  handle, indent=1)
    print("context " + json.dumps(context))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
