"""Traced in-process pass: the workload's CLI calls made through ``propertyo.cli.main``.

Run as ``python bench/layers.py SPEC OUT`` with propertyo importable.  SPEC
is the JSON the harness writes: the workload's construct calls, derived
input files and decision calls.  Every call runs ``propertyo.cli.main`` in
this process, in the directory ``layers`` beside OUT, with stdout and
stderr captured.  Spans
come from swapping the module-level names that the CLI and the library look
up at call time for wrappers that time the real function; nothing here
repeats what a handler does.  Spans are kept in memory and written to OUT
with each call's exit code and output when the pass ends.

Span names are ``<module>.<operation>``.  Every call's spans hang under one
root span: ``cli.call`` for a workload call, ``setup`` for building and
writing the inputs, and ``check.*`` for cross-checks that are not part of
the workload (census at one worker, sample trials on the exhaustive
decider).  The root's id is the trace id shared by all spans beneath it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback
from contextlib import contextmanager

from propertyo import cli, core, montecarlo, search

from checks import report_fields
from workloads import write_graph_file

# sample trials re-decided by the exhaustive scan, per sample call
CROSS_CHECK_TRIALS = 4
# exit code recorded for a call that raised instead of returning one
CRASHED = -1
# report fields that must not depend on the census worker count
CENSUS_FIELDS = ("n", "k", "total_enumerated", "property_o_found", "first_witness")


class Tracer:
    """In-memory spans: id, parent, trace id, name, start, end and attributes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": len(self.spans),
            "parent": None if parent is None else parent["id"],
            "trace": len(self.spans) if parent is None else parent["trace"],
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def span_cost_s(samples: int = 2000) -> float:
    """Seconds one nested span costs, measured on a throwaway tracer."""
    tracer = Tracer()
    start = time.perf_counter()
    with tracer.span("calibrate"):
        for _ in range(samples):
            with tracer.span("calibrate.child"):
                pass
    return (time.perf_counter() - start) / (samples + 1)


def _decided(span, args, cert) -> None:
    span["name"] = "core." + cert.method
    span["attrs"].update(
        holds=cert.holds,
        orders=cert.orders_examined,
        placements=cert.nodes_expanded or 0,
    )


@contextmanager
def instrumented(tracer: Tracer, trials: list):
    """Swap the names the CLI and the library call for span-emitting wrappers.

    ``trials`` receives (tournament, holds) for every Monte Carlo decision.
    """

    def wrap(module, name, span_name, after=None):
        func = getattr(module, name)

        def wrapper(*args, **kwargs):
            with tracer.span(span_name) as span:
                result = func(*args, **kwargs)
                if after is not None:
                    after(span, args, result)
            return result

        return module, name, func, wrapper

    def trial(span, args, cert):
        _decided(span, args, cert)
        trials.append((args[0], cert.holds))

    def census(span, args, report):
        span["attrs"].update(n=args[0], k=args[1], tournaments=report.total_enumerated)

    patches = [
        wrap(cli, "read_hypergraph", "fileformat.read"),
        wrap(cli, "write_hypergraph", "fileformat.write"),
        *(wrap(cli, builder, "constructions.build") for builder in (
            "cyclic_triangle", "ten_edge_3graph", "double_cycle_3graph",
            "merged_ten_edge_3graph", "general_construction")),
        wrap(cli, "check_property_o", "core.decide", _decided),
        wrap(search, "check_property_o", "core.decide", _decided),
        wrap(montecarlo, "check_property_o", "core.decide", trial),
        wrap(cli, "coverage_histogram", "core.histogram",
             lambda span, args, h: span["attrs"].update(orders=h.total_orders())),
        wrap(cli, "edge_minimality", "search.minimality"),
        wrap(cli, "prove_vertex_lower_bound", "search.census", census),
        wrap(cli, "estimate_property_o_rate", "montecarlo.sample",
             lambda span, args, s: span["attrs"].update(trials=s.trials)),
        wrap(montecarlo, "random_tournament", "montecarlo.generate"),
    ]
    for module, name, _, wrapper in patches:
        setattr(module, name, wrapper)
    try:
        yield
    finally:
        for module, name, func, _ in patches:
            setattr(module, name, func)


def _cli(tracer: Tracer, root: str, args: list[str], **attrs) -> dict:
    """One ``propertyo`` call in-process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with tracer.span(root, args=" ".join(args), **attrs):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                returncode = cli.main(args)
            except Exception:
                returncode = CRASHED
                traceback.print_exc(file=err)
    return {"returncode": returncode, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def _cross_check(tracer: Tracer, call: dict, result: dict, trials: list) -> list[str]:
    """Checks beyond the workload call: census at one worker, sample trials
    on the exhaustive decider."""
    if call["kind"] == "census":
        args = call["args"][: call["args"].index("--jobs")] + ["--jobs", "1"]
        single = _cli(tracer, "check.census_jobs1", args)
        fields, single_fields = report_fields(result["stdout"]), report_fields(single["stdout"])
        if single["returncode"] != result["returncode"] or any(
            single_fields.get(f) != fields.get(f) for f in CENSUS_FIELDS
        ):
            return [f"census report differs between --jobs 1 and {' '.join(call['args'])}"]
    if call["kind"] == "sample":
        if len(trials) != call["trials"]:
            return [f"sample decided {len(trials)} trials, expected {call['trials']}"]
        problems = []
        with tracer.span("check.sample_exhaustive", n=call["n"], k=call["k"]):
            for t in range(0, len(trials), max(1, len(trials) // CROSS_CHECK_TRIALS)):
                tournament, holds = trials[t]
                if core.check_property_o(tournament, method=core.EXHAUSTIVE).holds != holds:
                    problems.append(f"sample trial {t}: exhaustive and backtracking disagree")
        return problems
    return []


def run(spec: dict) -> dict:
    """The traced pass, in the current directory."""
    tracer = Tracer()
    problems: list[str] = []
    results = []
    trials: list = []
    with instrumented(tracer, trials):
        for args in spec["construct"]:
            done = _cli(tracer, "setup", args)
            if done["returncode"] != 0:
                problems.append(f"propertyo {' '.join(args)} exit {done['returncode']}: {done['stderr']}")
        with tracer.span("setup"):
            for name, graph in spec["files"].items():
                write_graph_file(name, graph)
        for index, call in enumerate(spec["calls"]):
            trials.clear()
            result = _cli(tracer, "cli.call", call["args"], index=index)
            problems += _cross_check(tracer, call, result, trials)
            results.append(result)
    return {
        "spans": tracer.spans,
        "results": results,
        "problems": problems,
        "span_cost_s": span_cost_s(),
    }


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: layers.py SPEC OUT", file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    out_path = os.path.abspath(argv[2])
    workdir = os.path.join(os.path.dirname(out_path), "layers")
    os.makedirs(workdir, exist_ok=True)
    os.chdir(workdir)
    out = run(spec)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
