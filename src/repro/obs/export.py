"""Exporters: JSONL traces, Prometheus text exposition, ASCII flamegraphs.

Three ways out of the observability layer:

* :func:`trace_to_jsonl` — one JSON object per span, depth-first, each line
  carrying ``name/path/depth/ids/start/duration/tags/events`` so downstream
  tools can stream-filter without reassembling the tree (and
  :func:`assemble_trace` reassembles one request's tree by ``trace_id``
  when a picture *is* wanted);
* :func:`prometheus_exposition` / :func:`parse_prometheus` — the classic
  ``# HELP``/``# TYPE``/sample text format and a parser that round-trips
  it (a test pins ``parse(expose(registry)) == registry samples``).
  Histogram bucket lines carry OpenMetrics-style exemplars
  (``... 5 # {trace_id="worker-1a"} 0.043``) linking slow buckets to
  request traces; the parser tolerates and skips the trailer;
* :func:`render_flamegraph` / :func:`render_timeline` — terminal pictures
  of a finished trace, sharing canvas conventions with
  :mod:`repro.util.ascii_plot` (via :func:`repro.util.ascii_plot.ascii_bar`).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.util.ascii_plot import ascii_bar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import Tracer


# -- JSONL trace dump --------------------------------------------------------


def trace_to_jsonl(tracer: "Tracer") -> str:
    """Serialize every recorded span, one JSON object per line, depth-first."""
    lines: list[str] = []
    for root in list(tracer.roots):
        path: list[str] = []
        for span, depth in root.walk():
            del path[depth:]
            path.append(span.name)
            lines.append(
                json.dumps(
                    {
                        "name": span.name,
                        "path": "/".join(path),
                        "depth": depth,
                        "trace_id": span.trace_id,
                        "span_id": span.span_id,
                        "parent_id": span.parent_id,
                        "start": round(span.start, 9),
                        "duration": round(span.duration, 9),
                        "tags": dict(span.tags),
                        "events": [dict(e) for e in span.events],
                    },
                    sort_keys=True,
                    default=str,
                )
            )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_trace_jsonl(text: str) -> list[dict]:
    """Parse a JSONL trace dump back into flat span records."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


class TraceNode:
    """A span revived from flat records — enough shape for the renderers."""

    __slots__ = (
        "name", "start", "end", "tags", "events", "children",
        "trace_id", "span_id", "parent_id",
    )

    def __init__(self, record: dict) -> None:
        self.name = str(record.get("name", "?"))
        self.start = float(record.get("start", 0.0))
        self.end = self.start + float(record.get("duration", 0.0))
        self.tags = dict(record.get("tags", {}))
        self.events = [dict(e) for e in record.get("events", [])]
        self.children: list[TraceNode] = []
        self.trace_id = str(record.get("trace_id", ""))
        self.span_id = str(record.get("span_id", ""))
        parent = record.get("parent_id")
        self.parent_id = str(parent) if parent is not None else None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def walk(self, depth: int = 0):
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)


def assemble_trace(records: list[dict], trace_id: str | None = None) -> list[TraceNode]:
    """Rebuild span trees from flat JSONL records via span/parent ids.

    With ``trace_id`` given, only that request's spans are kept — the roots
    returned are exactly what ``hslb trace --id`` renders.  Records whose
    parent is absent from the selection become roots themselves, so a
    partial dump still renders.  Input order is preserved among siblings.
    """
    picked = [
        r for r in records
        if trace_id is None or str(r.get("trace_id", "")) == trace_id
    ]
    nodes = [TraceNode(r) for r in picked]
    by_id = {n.span_id: n for n in nodes if n.span_id}
    roots: list[TraceNode] = []
    for node in nodes:
        parent = by_id.get(node.parent_id) if node.parent_id else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    return roots


# -- Prometheus text exposition ----------------------------------------------


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def prometheus_exposition(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text format (version 0.0.4).

    Histogram bucket samples whose native bucket holds an exemplar get the
    OpenMetrics trailer ``# {trace_id="..."} <observed value>`` appended —
    the link from a slow latency bucket to the request trace that filled it.
    """
    lines: list[str] = []
    for metric in registry:
        exemplars: dict[tuple, tuple[str, float]] = {}
        if isinstance(metric, Histogram):
            for key, le, trace_id, value in metric.exemplars():
                exemplars[(key, le)] = (trace_id, value)
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for name, key, value in metric.samples():
            if key:
                labels = ",".join(f'{k}="{_escape_label(v)}"' for k, v in key)
                line = f"{name}{{{labels}}} {value:g}"
            else:
                line = f"{name} {value:g}"
            if name.endswith("_bucket"):
                le = dict(key).get("le")
                base = tuple(kv for kv in key if kv[0] != "le")
                hit = exemplars.get((base, le))
                if hit is not None:
                    trace_id, observed = hit
                    line += f' # {{trace_id="{_escape_label(trace_id)}"}} {observed:g}'
            lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_label_block(line: str, start: int) -> tuple[tuple[tuple[str, str], ...], int]:
    """Parse ``{k="v",...}`` starting at ``line[start] == '{'``.

    Returns the label tuple and the index one past the closing brace.  The
    scan is quote-aware, so escaped quotes/backslashes and braces inside
    label values never end the block early.
    """
    labels: list[tuple[str, str]] = []
    i = start + 1
    while i < len(line) and line[i] != "}":
        eq = line.index("=", i)
        key = line[i:eq]
        if line[eq + 1] != '"':
            raise ValueError(f"unquoted label value in {line!r}")
        j = eq + 2
        chunk: list[str] = []
        while line[j] != '"':
            if line[j] == "\\":
                esc = line[j + 1]
                chunk.append({"n": "\n", '"': '"', "\\": "\\"}[esc])
                j += 2
            else:
                chunk.append(line[j])
                j += 1
        labels.append((key, "".join(chunk)))
        i = j + 1
        if i < len(line) and line[i] == ",":
            i += 1
    if i >= len(line):
        raise ValueError(f"unterminated label block in {line!r}")
    return tuple(labels), i + 1


def parse_prometheus(text: str) -> dict[str, dict[tuple[tuple[str, str], ...], float]]:
    """Parse exposition text into ``{sample_name: {label_key: value}}``.

    Understands exactly what :func:`prometheus_exposition` emits (quoted
    label values with escapes, ``# HELP``/``# TYPE`` comments, exemplar
    trailers on bucket lines — skipped, the sample value is what counts);
    used by the round-trip test, the ``hslb top`` dashboard, and ``repro
    metrics`` consumers in shell pipelines.
    """
    out: dict[str, dict[tuple[tuple[str, str], ...], float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            brace = line.find("{")
            space = line.find(" ")
            if brace != -1 and (space == -1 or brace < space):
                name = line[:brace]
                key_tuple, after = _parse_label_block(line, brace)
                rest = line[after:].split()
            else:
                parts = line.split()
                name, rest = parts[0], parts[1:]
                key_tuple = ()
            if not rest:
                raise ValueError("sample line without a value")
            value = float(rest[0])
        except ValueError as exc:
            raise ValueError(
                f"not Prometheus exposition text ({exc}): {line!r}"
            ) from None
        out.setdefault(name.strip(), {})[key_tuple] = value
    return out


# -- ASCII flamegraph / timeline ---------------------------------------------


def _roots_of(source) -> list:
    """Accept a Tracer, or any list of span-shaped roots (TraceNode, Span)."""
    return list(source.roots) if hasattr(source, "roots") else list(source)


def render_flamegraph(tracer: "Tracer", *, width: int = 72) -> str:
    """Indented span tree with duration bars — a terminal flamegraph.

    ``tracer`` may be the live tracer or a list of assembled roots (see
    :func:`assemble_trace`), so one request's tree renders the same way a
    whole process trace does.  Bar lengths are proportional to each span's
    share of its root's duration, so a glance shows where the pipeline's
    time went::

        hslb.run                 1.00s  ################################
          gather                 0.62s  ####################
          fit                    0.21s  ######
          solve                  0.15s  ####
    """
    roots = _roots_of(tracer)
    if not roots:
        return "(empty trace)"
    label_width = max(
        len("  " * depth + span.name) for root in roots for span, depth in root.walk()
    )
    bar_width = max(8, width - label_width - 12)
    lines: list[str] = []
    for root in roots:
        total = root.duration or max(
            (s.duration for s, _ in root.walk()), default=0.0
        )
        for span, depth in root.walk():
            label = "  " * depth + span.name
            share = (span.duration / total) if total > 0 else 0.0
            bar = ascii_bar(share, width=bar_width)
            suffix = f" +{len(span.events)}ev" if span.events else ""
            lines.append(
                f"{label:<{label_width}}  {span.duration * 1e3:9.3f}ms  {bar}{suffix}"
            )
    return "\n".join(lines)


def render_timeline(tracer: "Tracer", *, width: int = 72) -> str:
    """Gantt-style view: each span as a ``[===]`` segment on a shared clock.

    Accepts the live tracer or a list of assembled roots, like
    :func:`render_flamegraph`.
    """
    roots = _roots_of(tracer)
    spans = [(s, d) for root in roots for s, d in root.walk()]
    if not spans:
        return "(empty trace)"
    t0 = min(s.start for s, _ in spans)
    t1 = max((s.end if s.end is not None else s.start) for s, _ in spans)
    span_range = (t1 - t0) or 1.0
    label_width = max(len("  " * d + s.name) for s, d in spans)
    track = max(16, width - label_width - 3)
    lines = [f"{'':<{label_width}}  0s .. {span_range:.3g}s"]
    for span, depth in spans:
        lo = int((span.start - t0) / span_range * (track - 1))
        hi = int(((span.end if span.end is not None else span.start) - t0)
                 / span_range * (track - 1))
        row = [" "] * track
        row[lo] = "["
        row[min(hi + 1, track - 1)] = "]"
        for i in range(lo + 1, min(hi + 1, track - 1)):
            row[i] = "="
        lines.append(f"{'  ' * depth + span.name:<{label_width}}  {''.join(row)}")
    return "\n".join(lines)
