"""Exporters: JSONL event logs, Prometheus text, and CSV rows.

Three consumers, three formats:

* **JSONL** — one event per line, for offline analysis and replay;
* **Prometheus text exposition** — a point-in-time snapshot of the
  metrics registry, scrape-compatible;
* **CSV rows** — flat dicts that pair with ``repro.reporting.write_csv``.

``parse_prometheus_text`` inverts the snapshot for round-trip tests (and
for diffing two snapshots without a Prometheus server).
"""

import json

from repro.common.errors import ConfigurationError
from repro.obs.catalog import HELP
from repro.obs.metrics import COUNTER, GAUGE, HISTOGRAM


# -- JSONL events ------------------------------------------------------------
def _json_default(value):
    """Last-resort encoder for non-JSON-native event field values.

    Events are open dicts: a ``Money``, ``Decimal``, set, or exception
    leaking into a field must degrade to its string form, not crash the
    whole export.
    """
    return str(value)


def events_to_jsonl(events):
    """Serialize events (``Event`` objects or dicts) to JSONL text.

    Field values outside JSON's native types are rendered via ``str``
    so one odd field can never lose an entire event log.
    """
    lines = []
    for event in events:
        payload = event.to_dict() if hasattr(event, "to_dict") else event
        lines.append(json.dumps(payload, sort_keys=True,
                                default=_json_default))
    return "\n".join(lines) + ("\n" if lines else "")


def write_events_jsonl(path, events):
    with open(path, "w") as handle:
        handle.write(events_to_jsonl(events))
    return path


def read_events_jsonl(path):
    """Load a JSONL event log back into a list of dicts."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


# -- Prometheus text ---------------------------------------------------------
def _format_labels(labels):
    if not labels:
        return ""
    body = ",".join('{}="{}"'.format(key, labels[key])
                    for key in sorted(labels))
    return "{" + body + "}"


def _format_value(value):
    # Prometheus exposition spells the specials +Inf / -Inf / NaN;
    # Python's repr ("inf", "-inf", "nan") is not a valid token.
    value = float(value)
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    return repr(value)


def prometheus_text(registry):
    """Render a registry snapshot in the Prometheus text format.

    Each family opens with ``# HELP`` (text from
    :data:`repro.obs.catalog.HELP`; families the catalog does not know
    get none) and ``# TYPE``.
    """
    lines = []
    last_name = None
    for name, kind, labels, metric in registry.collect():
        if name != last_name:
            help_text = HELP.get(name)
            if help_text is not None:
                lines.append("# HELP {} {}".format(name, help_text))
            lines.append("# TYPE {} {}".format(name, kind))
            last_name = name
        if kind in (COUNTER, GAUGE):
            lines.append("{}{} {}".format(name, _format_labels(labels),
                                          _format_value(metric.value)))
        elif kind == HISTOGRAM:
            for upper, cumulative in metric.cumulative_buckets():
                bucket_labels = dict(labels)
                bucket_labels["le"] = (upper if upper == "+Inf"
                                       else repr(float(upper)))
                lines.append("{}_bucket{} {}".format(
                    name, _format_labels(bucket_labels),
                    _format_value(cumulative)))
            lines.append("{}_sum{} {}".format(name, _format_labels(labels),
                                              _format_value(metric.sum)))
            lines.append("{}_count{} {}".format(
                name, _format_labels(labels), _format_value(metric.count)))
        else:
            raise ConfigurationError("unknown metric kind {!r}".format(kind))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus_text(text):
    """Parse exposition text back to ``{(name, (label, value), ...): float}``.

    Inverse of :func:`prometheus_text` for round-trip tests; handles only
    the subset this module emits.
    """
    samples = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        labels = ()
        name = series
        if "{" in series:
            name, _, label_body = series.partition("{")
            label_body = label_body.rstrip("}")
            pairs = []
            for item in label_body.split(","):
                key, _, raw = item.partition("=")
                pairs.append((key, raw.strip('"')))
            labels = tuple(sorted(pairs))
        samples[(name,) + labels] = _parse_value(value)
    return samples


def _parse_value(token):
    """Inverse of :func:`_format_value`, specials included."""
    if token == "+Inf":
        return float("inf")
    if token == "-Inf":
        return float("-inf")
    if token == "NaN":
        return float("nan")
    return float(token)


# -- CSV rows ----------------------------------------------------------------
def metrics_to_rows(registry):
    """Flatten a registry into homogeneous CSV rows.

    One row per child metric; histogram rows carry count/mean/p50/p95/p99.
    Pairs with ``repro.reporting.write_csv``.
    """
    rows = []
    for name, kind, labels, metric in registry.collect():
        row = {
            "metric": name,
            "kind": kind,
            "labels": ";".join("{}={}".format(key, labels[key])
                               for key in sorted(labels)),
        }
        if kind == HISTOGRAM:
            empty = metric.count == 0
            row.update({
                "value": metric.sum,
                "count": metric.count,
                "mean": metric.mean,
                "p50": 0.0 if empty else metric.p50,
                "p95": 0.0 if empty else metric.p95,
                "p99": 0.0 if empty else metric.p99,
            })
        else:
            row.update({"value": metric.value, "count": 1, "mean":
                        metric.value, "p50": 0.0, "p95": 0.0, "p99": 0.0})
        rows.append(row)
    return rows


def traces_to_rows(traces):
    """Flatten traces into CSV rows (one row per span)."""
    rows = []
    for trace in traces:
        for span in trace.spans:
            rows.append({
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id if span.parent_id else 0,
                "name": span.name,
                "start": span.start,
                "end": span.end if span.end is not None else "",
                "tags": ";".join("{}={}".format(k, span.tags[k])
                                 for k in sorted(span.tags)),
            })
    return rows
