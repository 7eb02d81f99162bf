"""Correctness checks for the benchmark, independent of the propertyo package.

Nothing here imports propertyo: the predicate and the reference decider
are the benchmark's own, so a defect in the program cannot hide itself by
also breaking the check.  Every check returns a list of problems; an empty
list means the call's output is correct.
"""

from __future__ import annotations

import itertools
import math

Edge = tuple[int, ...]


def is_violating(order, n: int, edges) -> bool:
    """True when ``order`` is a permutation of range(n) consistent with no edge."""
    if sorted(order) != list(range(n)):
        return False
    pos = {v: i for i, v in enumerate(order)}
    return not any(
        all(pos[e[i]] < pos[e[i + 1]] for i in range(len(e) - 1)) for e in edges
    )


def first_violating_order(n: int, edges) -> tuple[int, ...] | None:
    """The lexicographically first violating order, or None under Property O.

    Depth-first over prefixes, smallest vertex first.  A prefix is dropped
    as soon as it completes some edge in orientation order, because every
    extension of it is then consistent with that edge; so the first
    complete order reached is the lex-first violating one.
    """
    ending_at: list[list[Edge]] = [[] for _ in range(n)]
    for e in edges:
        ending_at[e[-1]].append(tuple(e))
    pos: dict[int, int] = {}
    prefix: list[int] = []

    def completes_edge(v: int) -> bool:
        for e in ending_at[v]:
            last = -1
            for u in e[:-1]:
                p = pos.get(u)
                if p is None or p < last:
                    break
                last = p
            else:
                return True
        return False

    def extend() -> bool:
        if len(prefix) == n:
            return True
        for v in range(n):
            if v in pos:
                continue
            pos[v] = len(prefix)
            prefix.append(v)
            if not completes_edge(v) and extend():
                return True
            prefix.pop()
            del pos[v]
        return False

    return tuple(prefix) if extend() else None


def consistent_edge_counts(n: int, edges) -> dict[str, int]:
    """Orders of range(n) by their number of consistent edges, counted one
    order at a time; keys are the counts as strings, as in expected.json."""
    counts: dict[int, int] = {}
    for order in itertools.permutations(range(n)):
        pos = {v: i for i, v in enumerate(order)}
        c = sum(all(pos[e[i]] < pos[e[i + 1]] for i in range(len(e) - 1)) for e in edges)
        counts[c] = counts.get(c, 0) + 1
    return {str(c): m for c, m in sorted(counts.items())}


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split()]


def report_fields(stdout: str) -> dict[str, str]:
    """The key=value lines of a CLI report, by key."""
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            fields[key] = value
    return fields


def parse_verdict(stdout: str):
    """('holds', orders) or ('violated', order) from verify output, else None."""
    for line in stdout.splitlines():
        if line.startswith("PROPERTY_O "):
            fields = report_fields(line.replace(" ", "\n"))
            try:
                return "holds", int(fields.get("orders", "-1"))
            except ValueError:
                return None
        if line.startswith("VIOLATION order="):
            try:
                return "violated", tuple(_ints(line[len("VIOLATION order=") :]))
            except ValueError:
                return None
    return None


def check_call(call: dict, returncode: int | None, stdout: str) -> list[str]:
    """Problems with one CLI call's exit code and output; [] when correct.

    ``returncode`` is None for a call that timed out or never ran.
    """
    if returncode is None:
        return ["timed out"]
    kind = call["kind"]
    try:
        problems = _CHECKS[kind](call, returncode, stdout)
    except (ValueError, KeyError, IndexError) as exc:
        problems = [f"unparsable {kind} output: {exc!r}"]
    return problems


def _expect_exit(returncode: int, expected: int) -> list[str]:
    if returncode != expected:
        return [f"exit code {returncode}, expected {expected}"]
    return []


def _check_verify(call, returncode, stdout):
    graph = call["graph"]
    n, edges = graph["n"], graph["edges"]
    verdict = parse_verdict(stdout)
    if call["holds"]:
        problems = _expect_exit(returncode, 0)
        if verdict is None or verdict[0] != "holds":
            return problems + [f"verdict {verdict!r}, expected Property O"]
        if call.get("method") != "dfs" and verdict[1] != math.factorial(n):
            problems.append(f"orders={verdict[1]}, expected n!={math.factorial(n)}")
        return problems
    problems = _expect_exit(returncode, 1)
    if verdict is None or verdict[0] != "violated":
        return problems + [f"verdict {verdict!r}, expected a violating order"]
    order = verdict[1]
    if not is_violating(order, n, edges):
        problems.append(f"order {order} is not a violating order")
    witness = call.get("witness")
    if witness is not None and list(order) != list(witness):
        problems.append(f"order {order}, expected lex-first {tuple(witness)}")
    return problems


def _check_histogram(call, returncode, stdout):
    problems = _expect_exit(returncode, 0)
    counts = {}
    for line in stdout.splitlines():
        if line.startswith("count="):
            c, orders = line.split()
            counts[c[len("count=") :]] = int(orders[len("orders=") :])
    if counts != call["counts"]:
        problems.append(f"histogram {counts}, expected {call['counts']}")
    return problems


def _check_minimality(call, returncode, stdout):
    graph = call["graph"]
    n, edges = graph["n"], graph["edges"]
    problems = _expect_exit(returncode, 0)
    lines = [line for line in stdout.splitlines() if line.startswith("edge=")]
    if len(lines) != len(edges):
        return problems + [f"{len(lines)} edge verdicts, expected {len(edges)}"]
    for i, (line, witness) in enumerate(zip(lines, call["witnesses"])):
        head, _, rest = line.partition(" ")
        if head != f"edge={i}":
            problems.append(f"line {line!r} out of order")
            continue
        if witness is None:
            if rest != "redundant":
                problems.append(f"edge {i}: {rest!r}, expected redundant")
            continue
        if not rest.startswith("essential witness="):
            problems.append(f"edge {i}: {rest!r}, expected essential")
            continue
        order = _ints(rest[len("essential witness=") :])
        reduced = edges[:i] + edges[i + 1 :]
        if not is_violating(order, n, reduced):
            problems.append(f"edge {i}: witness {order} does not violate the reduced graph")
        elif order != list(witness):
            problems.append(f"edge {i}: witness {order}, expected lex-first {witness}")
    return problems


def _check_census(call, returncode, stdout):
    expect = call["expect"]
    fields = report_fields(stdout)
    found = expect["witness"] is not None
    problems = _expect_exit(returncode, 1 if found else 0)
    if int(fields["total_enumerated"]) != expect["total_enumerated"]:
        problems.append(
            f"total_enumerated={fields['total_enumerated']}, "
            f"expected {expect['total_enumerated']}"
        )
    if fields["first_witness"] != (expect["witness"] or "none"):
        problems.append(f"first_witness={fields['first_witness']} is not the expected one")
    if found:
        n = int(fields["n"])
        edges = [tuple(_ints(e)) for e in fields["first_witness"].split(",")]
        if first_violating_order(n, edges) is not None:
            problems.append("first_witness does not have Property O")
    return problems


def _check_sample(call, returncode, stdout):
    fields = report_fields(stdout)
    problems = _expect_exit(returncode, 0)
    trials, successes = int(fields["trials"]), int(fields["successes"])
    if trials != call["trials"]:
        problems.append(f"trials={trials}, expected {call['trials']}")
    if not 0 <= successes <= trials:
        problems.append(f"successes={successes} out of range")
    expected = call.get("successes")
    if expected is not None and successes != expected:
        problems.append(f"successes={successes}, expected {expected}")
    return problems


_CHECKS = {
    "verify": _check_verify,
    "histogram": _check_histogram,
    "minimality": _check_minimality,
    "census": _check_census,
    "sample": _check_sample,
}
