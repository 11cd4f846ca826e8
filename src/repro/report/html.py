"""Self-contained static HTML reports (ROADMAP item 5).

Two layers, deliberately separated:

* **Document builders** reduce live objects (point results, sessions,
  stores, schedules) to plain JSON-compatible dictionaries.  The HTTP
  gateway runs these on the engine thread (the only thread allowed to
  touch a session/store) and ships the neutral documents to its
  handler threads.
* :func:`render_html` turns a document into one static HTML page:
  inline CSS, inline SVG, **zero external references** — no scripts,
  no fonts, no ``http(s)://`` URLs anywhere in the output.  Rendering
  is deterministic: fixed float formats, sorted iteration, no
  timestamps of its own — the same document always renders to the same
  bytes, which is what lets the gateway serve reports under strong
  ETags and lets CI byte-compare cold and warm renders.

Everything here is stdlib-only.
"""

import html as _html

__all__ = [
    "store_analytics",
    "gantt_documents",
    "pareto_document",
    "sweep_document",
    "dashboard_document",
    "render_html",
]


# ----------------------------------------------------------------------
# Document builders (live objects -> neutral dictionaries)
# ----------------------------------------------------------------------
def store_analytics(store):
    """Reduce a :class:`~repro.engine.store.CacheStore` to report data.

    Returns ``{"root", "stages", "deltas", "compactions"}`` — per-stage
    entry counts and payload bytes, absorbed-delta compression
    accounting and the bounded compaction history — or ``None`` for
    store-less sessions.
    """
    if store is None:
        return None
    return {
        "root": store.root,
        "stages": {stage: {"entries": entries, "bytes": size}
                   for stage, (entries, size) in store.info().items()},
        "deltas": store.delta_stats(),
        "compactions": store.compaction_history(),
    }


def stats_document(stats):
    """Reduce a :class:`~repro.engine.cache.CacheStats` to report data."""
    return {
        "stages": {stage: {"hits": hits, "misses": misses}
                   for stage, (hits, misses)
                   in stats.snapshot().items()},
        "overall_hit_rate": stats.overall_hit_rate(),
        "hits": stats.hit_count(),
        "lookups": stats.hit_count() + stats.miss_count(),
        "frontend_compiles": stats.miss_count("compile"),
        "program_store_hits": stats.hit_count("compile"),
    }


def gantt_documents(session, apps):
    """ASAP-schedule Gantt data for each app's hottest BSB.

    Programs resolve through :meth:`Session.program`, so a warm store
    answers without frontend compiles.  One document per app, in the
    given order: ``{"app", "bsb", "length", "rows"}``.
    """
    from repro.sched.asap import asap_schedule
    from repro.viz.gantt import schedule_rows

    documents = []
    for app in apps:
        bsb = session.hottest_bsb(app)
        schedule = asap_schedule(bsb.dfg, library=session.library)
        documents.append({
            "app": app,
            "bsb": bsb.name,
            "length": schedule.length,
            "rows": schedule_rows(schedule),
        })
    return documents


def _result_row(result):
    point = result.point
    error = result.error
    return {
        "app": point.app,
        "area": point.area,
        "policy": point.policy or "designated",
        "quanta": point.quanta,
        "speedup": result.speedup,
        "datapath_area": result.datapath_area,
        "energy": result.energy,
        "hw_bsbs": list(result.hw_names),
        "allocation": (None if result.allocation is None
                       else str(result.allocation)),
        "error": (None if error is None
                  else "%s: %s" % (error.kind, error.message)),
    }


def pareto_document(results):
    """The dominance-filtered front of a result batch, as report data.

    Failed points never enter the front (they carry zero metrics and
    would pollute a minimising axis).  Vectors are the oriented
    (speed-up, -area, -energy) triples; points come back in the
    front's deterministic descending order.
    """
    from repro.core.objective import get_objective

    ranked = [result for result in results if result.error is None]
    front = get_objective("pareto").new_front()
    for result in ranked:
        front.add((result.speedup, -result.datapath_area,
                   -result.energy), result)
    points = []
    for (speedup, neg_area, neg_energy), payload in front.points():
        points.append({
            "app": payload.point.app,
            "area": payload.point.area,
            "policy": payload.point.policy or "designated",
            "speedup": speedup,
            "datapath_area": -neg_area,
            "energy": -neg_energy,
        })
    return {
        "points": points,
        "hypervolume": front.hypervolume(),
        "candidates": len(ranked),
    }


def sweep_document(results, stats=None, store=None, gantts=None,
                   title="Design-space sweep", job=None):
    """Assemble the full report document for a sweep or service job.

    ``results`` are :class:`~repro.engine.design_point.PointResult`
    objects; every other section is optional and renders only when
    provided.  ``job`` is a status projection for gateway-served
    reports (id/state/counts).
    """
    return {
        "kind": "sweep-report",
        "title": title,
        "job": job,
        "results": [_result_row(result) for result in results],
        "pareto": pareto_document(results),
        "stats": None if stats is None else stats_document(stats),
        "store": store,
        "gantts": gantts or [],
    }


def dashboard_document(info, jobs):
    """Assemble the live-service dashboard document.

    ``info`` is the service ping/info mapping (engines, queue depths),
    ``jobs`` the queue's job listing rows — both already neutral
    dictionaries built on the service loop.
    """
    return {
        "kind": "dashboard",
        "title": "Exploration service dashboard",
        "info": info,
        "jobs": jobs,
    }


# ----------------------------------------------------------------------
# Rendering (neutral dictionaries -> one self-contained HTML page)
# ----------------------------------------------------------------------
_CSS = """
body { font-family: Helvetica, Arial, sans-serif; margin: 2em auto;
       max-width: 64em; color: #222; }
h1 { border-bottom: 2px solid #444; padding-bottom: 0.2em; }
h2 { margin-top: 1.6em; color: #333; }
table { border-collapse: collapse; margin: 0.8em 0; }
th, td { border: 1px solid #bbb; padding: 0.25em 0.7em;
         text-align: left; font-size: 0.92em; }
th { background: #e8eef4; }
tr:nth-child(even) td { background: #f6f8fa; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.error { color: #a40000; }
.note { color: #666; font-size: 0.9em; }
svg { background: #fcfcfc; border: 1px solid #ddd; margin: 0.6em 0; }
"""


def _escape(value):
    return _html.escape(str(value), quote=True)


def _number(value, format_spec="%.2f"):
    if value is None:
        return "–"
    return format_spec % value


def _table(headers, rows, numeric=()):
    """An HTML table; ``numeric`` columns get right-aligned cells."""
    parts = ["<table>", "<tr>"]
    for header in headers:
        parts.append("<th>%s</th>" % _escape(header))
    parts.append("</tr>")
    for row in rows:
        parts.append("<tr>")
        for column, cell in enumerate(row):
            css = ' class="num"' if column in numeric else ""
            parts.append("<td%s>%s</td>" % (css, cell))
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)


def _svg_text(x, y, text, anchor="start", size=11, fill="#222"):
    return ('<text x="%.1f" y="%.1f" font-size="%d" fill="%s" '
            'text-anchor="%s" font-family="Helvetica">%s</text>'
            % (x, y, size, fill, anchor, _escape(text)))


def _axis_bounds(values, pad_fraction=0.1):
    low, high = min(values), max(values)
    span = high - low
    pad = span * pad_fraction if span else max(abs(high) * 0.1, 1.0)
    return low - pad, high + pad


def _pareto_svg(document):
    """Inline SVG scatter: data-path area vs speed-up, front marked."""
    results = [row for row in document["results"]
               if row["error"] is None]
    if not results:
        return '<p class="note">No successful points to plot.</p>'
    pareto = document["pareto"]
    front_keys = {(point["app"], point["datapath_area"],
                   point["speedup"]) for point in pareto["points"]}
    width, height = 640, 360
    margin = 52
    xs = [row["datapath_area"] for row in results]
    ys = [row["speedup"] for row in results]
    x_low, x_high = _axis_bounds(xs)
    y_low, y_high = _axis_bounds(ys)

    def sx(value):
        return margin + (value - x_low) / (x_high - x_low) \
            * (width - 2 * margin)

    def sy(value):
        return height - margin - (value - y_low) / (y_high - y_low) \
            * (height - 2 * margin)

    parts = ['<svg width="%d" height="%d" viewBox="0 0 %d %d" '
             'role="img" aria-label="Pareto scatter">'
             % (width, height, width, height)]
    # Axes + labels.
    parts.append('<line x1="%d" y1="%d" x2="%d" y2="%d" '
                 'stroke="#444"/>' % (margin, height - margin,
                                      width - margin, height - margin))
    parts.append('<line x1="%d" y1="%d" x2="%d" y2="%d" '
                 'stroke="#444"/>' % (margin, margin, margin,
                                      height - margin))
    parts.append(_svg_text(width / 2.0, height - 12,
                           "data-path area (GE)", anchor="middle"))
    parts.append('<g transform="rotate(-90 14 %d)">%s</g>'
                 % (height // 2,
                    _svg_text(14, height / 2.0, "speed-up (%)",
                              anchor="middle")))
    for tick in range(5):
        x_value = x_low + (x_high - x_low) * tick / 4.0
        y_value = y_low + (y_high - y_low) * tick / 4.0
        parts.append(_svg_text(sx(x_value), height - margin + 16,
                               "%.0f" % x_value, anchor="middle",
                               size=10, fill="#555"))
        parts.append(_svg_text(margin - 6, sy(y_value) + 4,
                               "%.0f" % y_value, anchor="end",
                               size=10, fill="#555"))
    # Front polyline (descending speed-up order = ascending area walk).
    front_points = [(sx(point["datapath_area"]), sy(point["speedup"]))
                    for point in pareto["points"]]
    if len(front_points) > 1:
        path = " ".join("%.1f,%.1f" % point for point in front_points)
        parts.append('<polyline points="%s" fill="none" '
                     'stroke="#3465a4" stroke-width="1.5" '
                     'stroke-dasharray="4 3"/>' % path)
    # Points: dominated grey, front blue.
    for row in results:
        key = (row["app"], row["datapath_area"], row["speedup"])
        on_front = key in front_keys
        parts.append('<circle cx="%.1f" cy="%.1f" r="%d" fill="%s" '
                     'stroke="#333" stroke-width="0.5"><title>%s</title>'
                     '</circle>'
                     % (sx(row["datapath_area"]), sy(row["speedup"]),
                        5 if on_front else 3,
                        "#3465a4" if on_front else "#bbbbbb",
                        _escape("%s area %.0f policy %s: SU %.0f%%, "
                                "data-path %.0f, energy %.2f"
                                % (row["app"], row["area"],
                                   row["policy"], row["speedup"],
                                   row["datapath_area"],
                                   row["energy"]))))
    parts.append(_svg_text(width - margin, margin - 8,
                           "hypervolume %.3f (%d front / %d points)"
                           % (pareto["hypervolume"],
                              len(pareto["points"]),
                              pareto["candidates"]),
                           anchor="end", size=11, fill="#3465a4"))
    parts.append("</svg>")
    return "".join(parts)


_GANTT_COLORS = {
    "mul": "#f4cccc", "div": "#ea9999", "mod": "#ea9999",
    "add": "#d9ead3", "sub": "#d9ead3", "const": "#fff2cc",
    "load": "#cfe2f3", "store": "#cfe2f3",
}


def _gantt_svg(gantt):
    """Inline SVG Gantt: one bar per operation over control steps."""
    rows = gantt["rows"]
    if not rows:
        return '<p class="note">Empty schedule.</p>'
    length = max(gantt["length"], 1)
    row_height, bar_height = 18, 12
    label_width, margin = 130, 28
    chart_width = max(24 * length, 240)
    width = label_width + chart_width + margin
    height = margin + row_height * len(rows) + 26

    def sx(step):
        # Steps are 1-based; step N's bar spans [N-1, N) chart units.
        return label_width + chart_width * (step - 1) / float(length)

    parts = ['<svg width="%d" height="%d" viewBox="0 0 %d %d" '
             'role="img" aria-label="Schedule Gantt">'
             % (width, height, width, height)]
    for step in range(1, length + 2):
        x = sx(step)
        parts.append('<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" '
                     'stroke="#e0e0e0"/>'
                     % (x, margin - 8, x,
                        margin + row_height * len(rows)))
        if step <= length:
            parts.append(_svg_text(x + chart_width / (2.0 * length),
                                   margin - 12, "t=%d" % step,
                                   anchor="middle", size=9,
                                   fill="#777"))
    for position, row in enumerate(rows):
        y = margin + position * row_height
        parts.append(_svg_text(label_width - 8, y + bar_height,
                               row["label"], anchor="end", size=10))
        color = _GANTT_COLORS.get(row["type"], "#eeeeee")
        if row["start"] is None:
            parts.append('<rect x="%.1f" y="%.1f" width="%.1f" '
                         'height="%d" fill="none" stroke="#999" '
                         'stroke-dasharray="3 2"><title>%s</title>'
                         '</rect>'
                         % (sx(1), y + 2.0, chart_width / float(length),
                            bar_height,
                            _escape("%s: unplaced" % row["label"])))
            continue
        bar_width = (chart_width * (row["finish"] - row["start"] + 1)
                     / float(length))
        parts.append('<rect x="%.1f" y="%.1f" width="%.1f" '
                     'height="%d" fill="%s" stroke="#333" '
                     'stroke-width="0.5"><title>%s</title></rect>'
                     % (sx(row["start"]), y + 2.0, bar_width,
                        bar_height, color,
                        _escape("%s: t=%d..%d (latency %d)"
                                % (row["label"], row["start"],
                                   row["finish"], row["latency"]))))
    parts.append("</svg>")
    return "".join(parts)


def _results_section(document):
    rows = []
    for row in document["results"]:
        if row["error"] is not None:
            rows.append([_escape(row["app"]),
                         _number(row["area"], "%.0f"),
                         _escape(row["policy"]),
                         "%d" % row["quanta"],
                         '<span class="error">%s</span>'
                         % _escape(row["error"]),
                         "–", "–", "–"])
            continue
        rows.append([
            _escape(row["app"]),
            _number(row["area"], "%.0f"),
            _escape(row["policy"]),
            "%d" % row["quanta"],
            "%.0f%%" % row["speedup"],
            "%.0f" % row["datapath_area"],
            "%.2f" % row["energy"],
            _escape(", ".join(row["hw_bsbs"]) or "(none)"),
        ])
    table = _table(["App", "Area", "Policy", "Quanta", "Speed-up",
                    "Data-path", "Energy", "HW BSBs"], rows,
                   numeric=(1, 3, 4, 5, 6))
    allocations = [row for row in document["results"]
                   if row["allocation"]]
    parts = ["<h2>Design points</h2>", table]
    if allocations:
        parts.append("<h2>Allocations</h2>")
        parts.append(_table(
            ["App", "Area", "Policy", "Allocation"],
            [[_escape(row["app"]), _number(row["area"], "%.0f"),
              _escape(row["policy"]), _escape(row["allocation"])]
             for row in allocations], numeric=(1,)))
    return "".join(parts)


def _pareto_section(document):
    pareto = document["pareto"]
    parts = ["<h2>Pareto front (speed-up, -area, -energy)</h2>",
             _pareto_svg(document)]
    if pareto["points"]:
        parts.append(_table(
            ["App", "Area", "Policy", "Speed-up", "Data-path",
             "Energy"],
            [[_escape(point["app"]), _number(point["area"], "%.0f"),
              _escape(point["policy"]), "%.0f%%" % point["speedup"],
              "%.0f" % point["datapath_area"],
              "%.2f" % point["energy"]]
             for point in pareto["points"]],
            numeric=(1, 3, 4, 5)))
        parts.append('<p class="note">hypervolume %.3f over %d '
                     'successful point(s)</p>'
                     % (pareto["hypervolume"], pareto["candidates"]))
    return "".join(parts)


def _stats_section(stats):
    rows = []
    for stage in sorted(stats["stages"]):
        entry = stats["stages"][stage]
        lookups = entry["hits"] + entry["misses"]
        rate = 100.0 * entry["hits"] / lookups if lookups else 0.0
        rows.append([_escape(stage), "%d" % entry["hits"],
                     "%d" % entry["misses"], "%.0f%%" % rate])
    return "".join([
        "<h2>Cache analytics (store replay)</h2>",
        _table(["Stage", "Hits", "Misses", "Hit rate"], rows,
               numeric=(1, 2, 3)),
        '<p class="note">overall hit rate %.1f%% (%d hits / %d '
        'lookups); frontend compiles %d (program store hits %d)</p>'
        % (100.0 * stats["overall_hit_rate"], stats["hits"],
           stats["lookups"], stats["frontend_compiles"],
           stats["program_store_hits"]),
    ])


def _store_section(store):
    parts = ["<h2>Store analytics</h2>",
             '<p class="note">%s</p>' % _escape(store["root"])]
    stages = store["stages"]
    if stages:
        rows = [[_escape(stage), "%d" % stages[stage]["entries"],
                 "%d" % stages[stage]["bytes"]]
                for stage in sorted(stages)]
        rows.append(["<em>total</em>",
                     "%d" % sum(entry["entries"]
                                for entry in stages.values()),
                     "%d" % sum(entry["bytes"]
                                for entry in stages.values())])
        parts.append(_table(["Stage", "Entries", "Bytes"], rows,
                            numeric=(1, 2)))
    else:
        parts.append('<p class="note">Empty store.</p>')
    deltas = store["deltas"]
    if deltas:
        parts.append("<h2>Absorbed store deltas</h2>")
        rows = []
        for engine in sorted(deltas):
            entry = deltas[engine]
            raw = entry["raw_bytes"]
            saved = (100.0 * (1.0 - entry["compressed_bytes"] / raw)
                     if raw else 0.0)
            rows.append([_escape(engine), "%d" % entry["frames"],
                         "%d" % raw, "%d" % entry["compressed_bytes"],
                         "%.1f%%" % saved])
        parts.append(_table(["Engine", "Frames", "Raw bytes",
                             "Compressed", "Saved"], rows,
                            numeric=(1, 2, 3, 4)))
    compactions = store["compactions"]
    if compactions:
        parts.append("<h2>Compaction history</h2>")
        rows = [["%d" % event.get("kept", 0),
                 "%d" % event.get("dropped", 0),
                 "%d" % event.get("bytes_before", 0),
                 "%d" % event.get("bytes_after", 0),
                 _escape(", ".join(
                     "%s -%d" % (stage, dropped)
                     for stage, (_, dropped)
                     in sorted(event.get("stages", {}).items())
                     if dropped) or "(nothing dropped)")]
                for event in compactions]
        parts.append(_table(["Kept", "Dropped", "Bytes before",
                             "Bytes after", "Stages"], rows,
                            numeric=(0, 1, 2, 3)))
    return "".join(parts)


def _job_section(job):
    rows = [[_escape(key), _escape(_flatten(job[key]))]
            for key in sorted(job)]
    return "".join(["<h2>Job</h2>",
                    _table(["Field", "Value"], rows)])


def _document_body(document):
    parts = ["<h1>%s</h1>" % _escape(document["title"])]
    if document.get("job"):
        parts.append(_job_section(document["job"]))
    parts.append(_results_section(document))
    parts.append(_pareto_section(document))
    if document.get("stats"):
        parts.append(_stats_section(document["stats"]))
    if document.get("store"):
        parts.append(_store_section(document["store"]))
    for gantt in document.get("gantts", []):
        parts.append("<h2>Schedule Gantt: %s / %s (%d steps)</h2>"
                     % (_escape(gantt["app"]), _escape(gantt["bsb"]),
                        gantt["length"]))
        parts.append(_gantt_svg(gantt))
    return "".join(parts)


def _dashboard_body(document):
    parts = ["<h1>%s</h1>" % _escape(document["title"])]
    info = document["info"]
    parts.append("<h2>Service</h2>")
    parts.append(_table(["Field", "Value"],
                        [[_escape(key), _escape(_flatten(info[key]))]
                         for key in sorted(info)]))
    jobs = document["jobs"]
    parts.append("<h2>Jobs</h2>")
    if jobs:
        columns = sorted({key for job in jobs for key in job})
        parts.append(_table(
            [column.replace("_", " ") for column in columns],
            [[_escape(_flatten(job.get(column, "–")))
              for column in columns] for job in jobs]))
    else:
        parts.append('<p class="note">No jobs.</p>')
    return "".join(parts)


def _flatten(value):
    """Human-readable scalar for nested info values."""
    if isinstance(value, dict):
        return ", ".join("%s=%s" % (key, _flatten(value[key]))
                         for key in sorted(value))
    if isinstance(value, (list, tuple)):
        return ", ".join(_flatten(each) for each in value)
    if isinstance(value, float):
        return "%.2f" % value
    return str(value)


def render_html(document):
    """Render a report/dashboard document to one self-contained page."""
    if document.get("kind") == "dashboard":
        body = _dashboard_body(document)
    else:
        body = _document_body(document)
    return ("<!DOCTYPE html>\n"
            '<html lang="en"><head><meta charset="utf-8">'
            "<title>%s</title>"
            "<style>%s</style></head>\n"
            "<body>%s</body></html>\n"
            % (_escape(document["title"]), _CSS, body))
