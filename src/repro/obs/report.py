"""Render accumulated trace + metrics + events as human reports.

Two renderings of the same data:

* :func:`render_text_report` — a terminal summary (root-span table,
  top-N hotspots from :func:`repro.obs.profile.aggregate`, metric
  tables, recent warning/error events), what ``Session.report()``
  prints.
* :func:`render_html_report` — the same content as a dependency-free
  standalone HTML document (inline CSS only), with the Chrome trace
  JSON embedded in a ``<script type="application/json">`` block so the
  file doubles as a Perfetto-loadable artifact.

:func:`result_report` is the per-result flavour used by every
``RunResult.report()``: the result summary plus the profile of its own
trace subtree.
"""

from __future__ import annotations

import html as _html
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import profile as _profile
from repro.obs.export import chrome_trace
from repro.obs.log import EventLog
from repro.obs.metrics import Metrics
from repro.obs.trace import Span, Tracer


def _text_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Minimal fixed-width table (first column left, rest right)."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [max([len(h)] + [len(r[i]) for r in cells])
              for i, h in enumerate(headers)]
    def fmt(row):
        first = f"{row[0]:<{widths[0]}}"
        rest = [f"{c:>{widths[i + 1]}}" for i, c in enumerate(row[1:])]
        return "  ".join([first] + rest)
    lines = [fmt(list(headers)),
             "  ".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in cells)
    return "\n".join(lines)


def _ms(value: Optional[float]) -> str:
    return "-" if value is None else f"{value * 1e3:.3f}"


def _root_span_rows(tracer: Tracer) -> List[List[Any]]:
    rows: List[List[Any]] = []
    for sp in tracer.spans:
        label = sp.name
        for key in ("circuit", "exp_id", "target"):
            if key in sp.attrs:
                label = f"{sp.name}[{sp.attrs[key]}]"
                break
        rows.append([label, _ms(sp.duration_s), _ms(sp.cpu_s),
                     len(sp.children)])
    return rows


def _metric_tables(metrics: Metrics) -> List[Tuple[str, Sequence[str],
                                                  List[List[Any]]]]:
    """The non-empty ``(label, headers, rows)`` metric tables, shared by
    the text and HTML renderers."""
    tables = [
        ("counters", ("name", "value"),
         [[n, c.value] for n, c in sorted(metrics.counters.items())]),
        ("gauges", ("name", "value"),
         [[n, "-" if g.value is None else f"{g.value:.6g}"]
          for n, g in sorted(metrics.gauges.items())]),
        ("histograms", ("name", "count", "mean", "min", "max"),
         [[n, h.count,
           "-" if h.mean is None else f"{h.mean:.3g}",
           "-" if not h.count else f"{h.min:.3g}",
           "-" if not h.count else f"{h.max:.3g}"]
          for n, h in sorted(metrics.histograms.items())]),
    ]
    return [table for table in tables if table[2]]


def _event_section(events: Optional[EventLog], tail: int = 10) -> Optional[str]:
    if events is None or events.is_empty():
        return None
    notable = [r for r in events.records()
               if r["level"] in ("warning", "error")] or events.records()
    lines = [f"events: {len(events)} buffered, {events.dropped} dropped"]
    for r in notable[-tail:]:
        fields = " ".join(f"{k}={v}" for k, v in r["fields"].items())
        where = f" @{r['span']}" if r.get("span") else ""
        lines.append(f"  [{r['level']:7s}] {r['name']}{where} {fields}")
    return "\n".join(lines)


def render_text_report(title: str, tracer: Tracer, metrics: Metrics,
                       events: Optional[EventLog] = None,
                       config: Optional[Dict[str, Any]] = None,
                       top: int = 10) -> str:
    """The terminal summary: spans, hotspots, metrics, notable events."""
    parts: List[str] = [f"=== {title} ==="]
    if config:
        parts.append("config: " + ", ".join(f"{k}={v}"
                                            for k, v in config.items()))
    if tracer.spans:
        parts.append("runs:\n" + _text_table(
            ("run", "wall ms", "cpu ms", "children"),
            _root_span_rows(tracer)))
        report = _profile.aggregate(tracer)
        parts.append(f"hotspots (top {top} by self time):\n"
                     + report.table(top=top))
    else:
        parts.append("runs: none recorded (observability off or no runs)")
    parts.extend(f"{label}:\n" + _text_table(headers, rows)
                 for label, headers, rows in _metric_tables(metrics))
    ev = _event_section(events)
    if ev:
        parts.append(ev)
    return "\n\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# HTML

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 64rem; color: #1a1a1a; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; font-size: 0.85rem; }
th, td { text-align: right; padding: 0.25rem 0.6rem;
         border-bottom: 1px solid #ddd; font-variant-numeric: tabular-nums; }
th:first-child, td:first-child { text-align: left; font-family: monospace; }
th { background: #f4f4f4; }
.level-warning { color: #9a6700; } .level-error { color: #b30000; }
footer { margin-top: 2rem; font-size: 0.8rem; color: #666; }
"""


def _html_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    head = "".join(f"<th>{_html.escape(str(h))}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_html.escape(str(c))}</td>" for c in row)
        + "</tr>" for row in rows)
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def render_html_report(title: str, tracer: Tracer, metrics: Metrics,
                       events: Optional[EventLog] = None,
                       config: Optional[Dict[str, Any]] = None,
                       top: int = 20) -> str:
    """Standalone HTML report; embeds the Chrome trace JSON."""
    sections: List[str] = [f"<h1>{_html.escape(title)}</h1>"]
    if config:
        cfg = ", ".join(f"{k}={v}" for k, v in config.items())
        sections.append(f"<p><code>{_html.escape(cfg)}</code></p>")
    if tracer.spans:
        sections.append("<h2>Runs</h2>")
        sections.append(_html_table(("run", "wall ms", "cpu ms", "children"),
                                    _root_span_rows(tracer)))
        prof = _profile.aggregate(tracer)
        sections.append(f"<h2>Hotspots (top {top} by self time)</h2>")
        sections.append(_html_table(
            ("path", "calls", "self ms", "total ms", "self cpu ms"),
            [[r.path, r.calls, f"{r.self_s * 1e3:.3f}",
              f"{r.total_s * 1e3:.3f}", f"{r.self_cpu_s * 1e3:.3f}"]
             for r in prof.by_self()[:top]]))
        sections.append(
            f"<p>attributed {prof.attributed_s * 1e3:.3f} ms wall over a "
            f"{prof.window_s * 1e3:.3f} ms window "
            f"(coverage {100.0 * prof.coverage:.1f}%)</p>")
    for label, headers, rows in _metric_tables(metrics):
        sections.append(f"<h2>{label.capitalize()}</h2>")
        sections.append(_html_table(headers, rows))
    if events is not None and not events.is_empty():
        sections.append(f"<h2>Events ({len(events)} buffered, "
                        f"{events.dropped} dropped)</h2>")
        rows = []
        for r in events.records()[-50:]:
            fields = " ".join(f"{k}={v}" for k, v in r["fields"].items())
            rows.append([r["name"], r["level"], r.get("span") or "-", fields])
        sections.append(_html_table(("event", "level", "span", "fields"),
                                    rows))
    trace_json = json.dumps(chrome_trace(tracer), default=str)
    sections.append(
        '<footer>Chrome trace embedded below — extract the JSON block and '
        'load it in <a href="https://ui.perfetto.dev">Perfetto</a>.</footer>')
    sections.append(f'<script type="application/json" id="chrome-trace">'
                    f"{trace_json}</script>")
    body = "\n".join(sections)
    return (f"<!DOCTYPE html><html><head><meta charset='utf-8'>"
            f"<title>{_html.escape(title)}</title><style>{_CSS}</style>"
            f"</head><body>{body}</body></html>\n")


# ---------------------------------------------------------------------------
# per-result reports


def _tracer_of(span: Span) -> Tracer:
    shim = Tracer()
    shim.spans = [span]
    return shim


def result_report(result: Any, top: int = 10) -> str:
    """Terminal report for one ``RunResult``: summary + trace profile.

    Works on any object with ``summary()`` and a ``trace`` attribute;
    degrades to the bare summary when the run was unobserved.
    """
    parts = [result.summary()]
    span = getattr(result, "trace", None)
    if span is not None:
        prof = _profile.aggregate(_tracer_of(span))
        parts.append(prof.table(top=top))
    else:
        parts.append("(no trace recorded — run under repro.obs.observe() "
                     "or a Session for per-span attribution)")
    return "\n\n".join(parts) + "\n"
