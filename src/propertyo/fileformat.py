"""Text file format for oriented hypergraphs.

The format is line oriented, UTF-8 with LF endings, and bit-exact so that
generated fixtures can serve as golden files:

    # optional comment lines start with '#'
    k 3
    n 6
    e 0 1 2
    e 2 0 4
    ...

The two header lines give the uniformity and the vertex count, in that
order; every following ``e`` line lists one edge's 0-based vertex indices
in orientation order.  Serialisation writes no comments and no trailing
whitespace, and preserves edge order, which is semantically irrelevant but
part of the golden-file contract.
"""

from __future__ import annotations

from .core import OrientedHypergraph, _violations


class HypergraphFormatError(ValueError):
    """Malformed hypergraph text; the message carries line numbers."""


def serialize_hypergraph(graph: OrientedHypergraph) -> str:
    lines = [f"k {graph.k}", f"n {graph.n}"]
    for edge in graph.edges:
        lines.append("e " + " ".join(str(v) for v in edge))
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> OrientedHypergraph:
    """Parse a hypergraph; malformed or invalid data raises with line numbers.

    The graph's constructor checks validity once.  Only when it refuses
    does the parser walk the violations again, to name each one's line.
    """
    k: int | None = None
    n: int | None = None
    edges: list[tuple[int, ...]] = []
    edge_lines: list[int] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "k":
            # an n header or an edge needs k first, so a second k is the
            # only k out of place
            if k is not None:
                raise HypergraphFormatError(f"duplicate k header, line {lineno}")
            k = _int_field(fields, lineno)
            if k < 2:
                raise HypergraphFormatError(f"k must be at least 2, line {lineno}")
        elif tag == "n":
            if n is not None:
                raise HypergraphFormatError(f"duplicate n header, line {lineno}")
            if k is None or edges:
                raise HypergraphFormatError(f"n header out of order, line {lineno}")
            n = _int_field(fields, lineno)
            if n < 0:
                raise HypergraphFormatError(f"n must be non-negative, line {lineno}")
        elif tag == "e":
            if k is None or n is None:
                raise HypergraphFormatError(
                    f"edge before k and n headers, line {lineno}"
                )
            try:
                edge = tuple(int(f) for f in fields[1:])
            except ValueError:
                raise HypergraphFormatError(
                    f"non-integer vertex index, line {lineno}"
                ) from None
            edges.append(edge)
            edge_lines.append(lineno)
        else:
            raise HypergraphFormatError(f"unknown line tag {tag!r}, line {lineno}")

    if k is None or n is None:
        raise HypergraphFormatError("missing k or n header")

    try:
        return OrientedHypergraph(k, n, edges)
    except ValueError:
        violations = _violations(k, n, edges)
        messages = (f"{message}, line {edge_lines[i]}" for i, message in violations)
        raise HypergraphFormatError("; ".join(messages)) from None


def _int_field(fields: list[str], line: int) -> int:
    if len(fields) != 2:
        raise HypergraphFormatError(f"header needs exactly one value, line {line}")
    try:
        return int(fields[1])
    except ValueError:
        raise HypergraphFormatError(f"non-integer header value, line {line}") from None


def read_hypergraph(path: str) -> OrientedHypergraph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_hypergraph(handle.read())


def write_hypergraph(graph: OrientedHypergraph, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(serialize_hypergraph(graph))
