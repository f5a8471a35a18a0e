"""Everything that turns a ``RunResult`` into bytes or text: ``rows`` lists
a run's CSV records, ``run_summary`` its block of the text report (which the
command line prints too). docs/output-format.md lists every row and line.
"""
from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from . import energy as energy_mod

if TYPE_CHECKING:
    from .runner import RunResult

CSV_HEADER = "run_id,seed,link,metric,class,value,unit"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows(result: RunResult) -> list[tuple]:
    """The run's ``(link, metric, class, value, unit)`` records in CSV order."""
    out = []
    add = out.append
    m = result.metrics
    for link, c in m.links.items():
        for key in ("offered_pkts", "delivered_pkts", "dropped_pkts"):
            add((link, key, "all", c[key], "packets"))
        for key in ("offered_bits", "delivered_bits", "dropped_bits"):
            add((link, key, "all", c[key], "bits"))
        add((link, "loss_ratio", "all", m.loss_ratio(link), "ratio"))
        add((link, "throughput_bps", "all", m.throughput_bps(link), "bps"))
    for (link, cls), stats in m.latency.items():
        add((link, "latency_p50", cls, stats.p50_us, "us"))
        add((link, "latency_p95", cls, stats.p95_us, "us"))
        add((link, "latency_p99", cls, stats.p99_us, "us"))
        add((link, "latency_mean", cls, stats.mean_us, "us"))
        add((link, "latency_samples", cls, stats.count, "samples"))
    for i, r in enumerate(result.recovery_times_s):
        add(("swarm", "recovery_time", f"sample{i}", r, "s"))
    add(("swarm", "sd_reports_delivered", "all", result.sd_reports_delivered, "reports"))
    add(("swarm", "sd_reports_lost", "all", result.sd_reports_lost, "reports"))
    add(("swarm", "collected_targets", "all", len(result.collected_targets), "targets"))
    add(("swarm", "calls_started", "all", result.calls_started, "calls"))
    add(("swarm", "aborted", "all", result.aborted, "flag"))
    for drone_id, entry in sorted(result.energy.items()):
        for key in ("rotor_wh", "compute_wh", "total_wh"):
            add(("energy", key, f"drone{drone_id}", entry[key], "wh"))
    return out


def emit_csv(results: list[RunResult], path: str | Path) -> Path:
    """Fixed-column metrics CSV; byte-identical across reruns."""
    path = Path(path)
    lines = [CSV_HEADER]
    for result in results:
        prefix = f"{result.config['name']}#{result.seed},{result.seed}"
        lines.extend(f"{prefix},{link},{metric},{cls},{_fmt(value)},{unit}"
                     for link, metric, cls, value, unit in rows(result))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def run_summary(r: RunResult) -> str:
    """A run's block of the report, as ``emit_report`` writes it."""
    m = r.metrics
    lines = [
        f"run {r.config['name']} (seed {r.seed})" + (" [ABORTED]" if r.aborted else ""),
        f"  window: {m.window_us / 1e6:.1f} s",
    ]
    for link, c in m.links.items():
        lines.append(
            f"  {link}: offered {c['offered_pkts']} pkts, "
            f"loss {m.loss_ratio(link) * 100:.2f}%, "
            f"throughput {m.throughput_bps(link) / 1e3:.1f} kbps"
        )
    for (link, cls), stats in m.latency.items():
        lines.append(
            f"  {link}/{cls}: p50 {stats.p50_us} us, p95 {stats.p95_us} us, "
            f"mean {stats.mean_us:.0f} us over {stats.count} pkts"
        )
    if r.recovery_times_s:
        times = ", ".join(f"{t:.3f}" for t in r.recovery_times_s)
        lines.append(f"  recovery times: {times} s")
    lines.append(
        f"  reports delivered {r.sd_reports_delivered}, lost {r.sd_reports_lost}; "
        f"targets collected {len(r.collected_targets)}; calls {r.calls_started}"
    )
    lines += [f"  deviation: {d}" for d in r.deviations]
    return "\n".join(lines)


def emit_report(results: list[RunResult], path: str | Path) -> Path:
    """Plain-text report: each run's summary, then the battery durability
    table of the paper's reference plan."""
    path = Path(path)
    blocks = [run_summary(r) for r in results]
    blocks.append("battery durability (defaults)\n"
                  + energy_mod.format_durability(energy_mod.durability_report()))
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
    return path
