"""``hslb top`` — a live terminal dashboard over Prometheus samples.

:func:`render_dashboard` is a pure function from parsed exposition
samples (the :func:`repro.obs.export.parse_prometheus` shape) to one
screenful of text, so the tests never need a terminal or a server; the
:func:`top` loop just refetches, re-renders, and repaints.

Panels, in order:

* **SLO** — ``slo_burn_rate`` per target with a burn bar (full bar = 2x
  budget burn), ``slo_latency_seconds`` quantiles and outcome rates per
  priority;
* **Latency** — quantile rows of every ``*_seconds`` histogram;
* **Prediction error** — ``hslb_prediction_error`` per layout and
  component (``total`` is the makespan), as a pipeline's executed plan or
  dynlb's refitter last set it;
* **Traffic** — the serving-tier counters (requests, hits, sheds, ...).

The fetch side is pluggable: a URL (scraping the in-process
:class:`~repro.obs.http.MetricsServer`), a file, or any callable
returning exposition text.
"""

from __future__ import annotations

import time
import urllib.request
from collections.abc import Callable

from repro.obs.export import parse_prometheus
from repro.util.ascii_plot import ascii_bar

Samples = dict[str, dict[tuple[tuple[str, str], ...], float]]


def fetch_url(url: str, timeout: float = 5.0) -> str:
    """Scrape exposition text from an HTTP endpoint (stdlib only)."""
    with urllib.request.urlopen(url, timeout=timeout) as resp:  # noqa: S310
        return resp.read().decode()


def _labels(key: tuple[tuple[str, str], ...]) -> dict[str, str]:
    return dict(key)


def _fmt_seconds(v: float) -> str:
    return f"{v * 1e3:9.2f}ms" if v < 10 else f"{v:8.2f}s "


def _slo_panel(samples: Samples, width: int) -> list[str]:
    lines: list[str] = []
    burn = samples.get("slo_burn_rate", {})
    for key, value in sorted(burn.items()):
        target = _labels(key).get("target", "?")
        # Full bar at 2x budget burn: 1.0 sits mid-scale, visibly "half red".
        bar = ascii_bar(min(value / 2.0, 1.0), width=max(10, width - 46))
        mark = "ok" if value <= 1.0 else "BURN"
        lines.append(f"  {target:<22} {value:6.2f}x [{mark:>4}] {bar}")
    lat = samples.get("slo_latency_seconds", {})
    rate = samples.get("slo_outcome_rate", {})
    count = samples.get("slo_window_requests", {})
    priorities = sorted(
        {_labels(k).get("priority", "?") for k in (*lat, *count)}
    )
    for priority in priorities:
        qs = {
            _labels(k)["quantile"]: v
            for k, v in lat.items()
            if _labels(k).get("priority") == priority
        }
        rates = {
            _labels(k)["kind"]: v
            for k, v in rate.items()
            if _labels(k).get("priority") == priority
        }
        n = next(
            (v for k, v in count.items() if _labels(k).get("priority") == priority),
            0.0,
        )
        lines.append(
            f"  {priority:<12} n={int(n):<6d}"
            f" p50={_fmt_seconds(qs.get('p50', 0.0))}"
            f" p99={_fmt_seconds(qs.get('p99', 0.0))}"
            f" shed={rates.get('shed', 0.0):6.1%}"
            f" err={rates.get('error', 0.0):6.1%}"
        )
    return lines


def _latency_panel(samples: Samples) -> list[str]:
    lines: list[str] = []
    for name in sorted(samples):
        if not name.endswith("_seconds") or name.startswith("slo_"):
            continue
        rows = samples[name]
        quantiles = {
            (tuple(kv for kv in k if kv[0] != "quantile"),
             _labels(k).get("quantile")): v
            for k, v in rows.items()
            if "quantile" in _labels(k)
        }
        bases = sorted({base for base, _ in quantiles})
        for base in bases:
            label = ",".join(f"{k}={v}" for k, v in base) or "(all)"
            p50 = quantiles.get((base, "0.5"), 0.0)
            p99 = quantiles.get((base, "0.99"), 0.0)
            p999 = quantiles.get((base, "0.999"), 0.0)
            lines.append(
                f"  {name:<32} {label:<18}"
                f" p50={_fmt_seconds(p50)} p99={_fmt_seconds(p99)}"
                f" p999={_fmt_seconds(p999)}"
            )
    return lines


def _prediction_panel(samples: Samples) -> list[str]:
    rows = []
    for key, value in samples.get("hslb_prediction_error", {}).items():
        labels = _labels(key)
        layout, component = labels.get("layout", "?"), labels.get("component", "?")
        # Each layout's components by name, its makespan ("total") last.
        rows.append(((layout, component == "total", component), value))
    return [
        f"  {layout:<22} {component:<12} {value:9.3%}"
        for (layout, _, component), value in sorted(rows)
    ]


def _traffic_panel(samples: Samples) -> list[str]:
    lines: list[str] = []
    for name in sorted(samples):
        if name.endswith(("_seconds", "_bucket", "_sum", "_count")):
            continue
        if name.startswith("slo_") and name != "slo_window_requests":
            continue
        if name == "slo_window_requests":
            continue
        rows = samples[name]
        total = sum(rows.values())
        if total == 0:
            continue
        lines.append(f"  {name:<40} {total:12g}")
    return lines


def render_dashboard(samples: Samples, *, width: int = 78) -> str:
    """One screenful of tier health from parsed exposition samples."""
    title = "hslb top"
    out = [title, "=" * min(width, 78)]
    slo = _slo_panel(samples, width)
    if slo:
        out.append("SLO burn & rolling-window latency")
        out.extend(slo)
    latency = _latency_panel(samples)
    if latency:
        out.append("Latency histograms")
        out.extend(latency)
    prediction = _prediction_panel(samples)
    if prediction:
        out.append("Prediction error |predicted - actual| / actual")
        out.extend(prediction)
    traffic = _traffic_panel(samples)
    if traffic:
        out.append("Counters & gauges")
        out.extend(traffic)
    if len(out) == 2:
        out.append("(no samples)")
    return "\n".join(out)


def top(
    fetch: Callable[[], str],
    *,
    interval: float = 2.0,
    iterations: int | None = None,
    write: Callable[[str], object] = print,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """The refresh loop behind ``hslb top``: fetch, render, repaint.

    ``iterations=None`` runs until interrupted; tests pass a count and a
    no-op ``sleep``.  Returns the number of successful paints.
    """
    painted = 0
    while iterations is None or painted < iterations:
        try:
            text = fetch()
        except OSError as exc:
            write(f"hslb top: fetch failed: {exc}")
            return painted
        # Clear + home, like watch(1); harmless when redirected to a file.
        write("\x1b[2J\x1b[H" + render_dashboard(parse_prometheus(text)))
        painted += 1
        if iterations is None or painted < iterations:
            sleep(interval)
    return painted
