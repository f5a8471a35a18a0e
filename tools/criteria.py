"""Recompute the figures that acceptance criteria 04 to 09 bound, and write
each one's headroom to a Markdown table.

    python3 tools/criteria.py [--out docs/criteria.md]

Each criterion's test in ``tests/test_acceptance.py`` runs as it is, with
its own configs, while the helper it gets its results from is wrapped to
keep them: ``run_scenario`` for criteria 04, 05 and 07,
``max_simultaneous_calls`` for criterion 06, ``_edca_scene`` for criterion
08 and ``_failure_run`` for criterion 09. The tests are only imported and
called, never edited. A
criterion that fails stops the tool with its assertion, as it fails
tier-1. Every figure is deterministic, so the table changes only when a
change moves a criterion's figure.
"""
from __future__ import annotations

import argparse
import contextlib
import logging
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_acceptance as acceptance  # noqa: E402
from swarmsim.netsim import CONTROL  # noqa: E402

HEADER = """# Acceptance criteria headroom

How far each figure that a criterion of `tests/test_acceptance.py` bounds
lies from its bound, recomputed with the criterion's own configs. Headroom
is the distance to the nearest bound; a negative one would fail the test.
Regenerate with `python3 tools/criteria.py`; CI fails when the committed
table differs.

| criterion | value | bound | headroom |
|---|---|---|---|
"""


def recorded(test, helper: str) -> list:
    """Run ``test`` with the module-level ``helper`` wrapped to keep what
    each call returns; return those results in call order."""
    original, results = getattr(acceptance, helper), []

    def recording(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    setattr(acceptance, helper, recording)
    try:
        test()
    finally:
        setattr(acceptance, helper, original)
    return results


def criterion_04() -> list[tuple]:
    single = recorded(acceptance.test_criterion_04_flight_traffic_scales_linearly_with_swarm_size,
                      "run_scenario")[0]
    bits = sum(b for (link, _, src), b in single.metrics.offered_bits_by_src.items()
               if link == "wlan" and src == 2)
    off = abs(bits / 600.0 / 8549 - 1)
    return [("04 flight traffic per SD", f"{bits / 600.0:,.1f} bps ({off:.2%} off 8,549)",
             "8,549 bps ± 10%", f"{0.10 - off:.2%}")]


def criterion_05() -> list[tuple]:
    results = recorded(acceptance.test_criterion_05_status_traffic_scales_to_100_drones_in_band,
                       "run_scenario")
    p50 = [r.metrics.latency[("wlan", CONTROL)].p50_us for r in results]
    sizes = ", ".join(str(r.config["n_sds"]) for r in results)
    shown = ", ".join(str(v) for v in p50)
    loss = max(r.metrics.loss_ratio("wlan") for r in results)
    return [
        (f"05 WLAN control p50 at {sizes} SDs", f"{shown} µs", "50–1,000 µs",
         f"{min(min(v - 50, 1_000 - v) for v in p50)} µs"),
        ("05 p50 spread (max / min)", f"{max(p50) / min(p50):.4f}", "< 2",
         f"{2 - max(p50) / min(p50):.4f}"),
        ("05 WLAN loss, worst of the three", f"{loss:.4f}", "= 0", "none (equality)"),
    ]


class _LogCapture(logging.Handler):
    """The part of pytest's ``caplog`` fixture that criterion 06 uses."""

    def __init__(self):
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        record.message = record.getMessage()
        self.records.append(record)

    @contextlib.contextmanager
    def at_level(self, level: int, logger: str | None = None):
        log = logging.getLogger(logger)
        old = log.level
        log.setLevel(level)
        log.addHandler(self)
        try:
            yield
        finally:
            log.removeHandler(self)
            log.setLevel(old)


def criterion_06() -> list[tuple]:
    bounds = recorded(
        lambda: acceptance.test_criterion_06_video_call_capacity_with_logged_diagnostic(
            _LogCapture()),
        "max_simultaneous_calls")
    return [(f"06 call bound at {bw} Mbps", f"{calls} calls", f"{published} ± 1",
             f"{1 - abs(calls - published)}")
            for (bw, published), calls in zip(((2, 14), (4, 6), (6, 4)), bounds)]


def criterion_07() -> list[tuple]:
    rows = []
    for r in recorded(acceptance.test_criterion_07_loss_under_5pct_at_maximum_admitted_video_load,
                      "run_scenario"):
        loss = r.metrics.loss_ratio("wlan")
        rows.append((f"07 WLAN loss, {r.config['video']['bandwidth_mbps']:g} Mbps "
                     f"× {r.calls_started} calls", f"{loss:.4%}", "< 5%", f"{0.05 - loss:.4%}"))
    return rows


def criterion_08() -> list[tuple]:
    fifo, edca = recorded(acceptance.test_criterion_08_edca_improves_mean_latency_up_to_10pct,
                          "_edca_scene")

    def overall_mean(record):
        stats = record.latency.values()
        return sum(s.mean_us * s.count for s in stats) / sum(s.count for s in stats)

    gain = 1 - overall_mean(edca) / overall_mean(fifo)
    p95 = [r.latency[("wlan", CONTROL)].p95_us for r in (fifo, edca)]
    return [
        ("08 EDCA mean-latency gain", f"{gain:.4%}", "(0, 10%]",
         f"{min(gain, 0.10 - gain):.4%}"),
        ("08 WLAN control p95, FIFO → EDCA", f"{p95[0]:,} → {p95[1]:,} µs", "EDCA lower",
         f"{p95[0] - p95[1]:,} µs"),
    ]


def criterion_09() -> list[tuple]:
    results = recorded(acceptance.test_criterion_09_leader_handover_liveness_over_100_seeded_runs,
                       "_failure_run")
    kinds = [[f["kind"] for f in r.config["failures"]] for r in results]
    hard = [r for r, k in zip(results, kinds) if k == ["ld_sudden"]]
    soft = [r for r, k in zip(results, kinds) if k == ["ld_predicted"]]
    twins = {r.seed: r for r, k in zip(results, kinds) if not k}
    worst = max(r.recovery_times_s[0] for r in hard)
    lost = max(r.sd_reports_lost for r in soft + list(twins.values()))
    same = sum(r.sd_reports_delivered == twins[r.seed].sd_reports_delivered for r in soft)
    return [
        (f"09 worst hard-handover recovery of {len(hard)} flight kills", f"{worst:.3f} s",
         "≤ 1.01 s", f"{1.01 - worst:.3f} s"),
        (f"09 lost reports, worst of {len(soft)} soft cases and twins", f"{lost}", "= 0",
         "none (equality)"),
        ("09 soft cases' delivered reports equal to their twins'",
         f"{same} of {len(soft)}", "all", "none (equality)"),
    ]


def table() -> str:
    rows = (criterion_04() + criterion_05() + criterion_06() + criterion_07()
            + criterion_08() + criterion_09())
    return HEADER + "".join(f"| {' | '.join(row)} |\n" for row in rows)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=ROOT / "docs" / "criteria.md")
    args = ap.parse_args(argv)
    text = table()
    args.out.write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
