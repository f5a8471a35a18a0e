"""Run alternating parent/change pairs of the benchmark and write a BENCH file.

    python3 tools/ab_pairs.py --parent ../parent --change . --out BENCH_17.json

``--parent`` and ``--change`` are two checkouts of the repository, for
example a clone of the parent commit next to the working tree. For each
workload, pair ``i`` runs ``perfbench/run.py --workload W --seed S --seconds
N --trace 0`` once in each checkout, with seed ``S = first seed + i``; the
parent runs first on even pair indices and the change on odd ones. Each run
uses its own checkout's code and benchmark files. ``N`` defaults to the
change's ``BENCHMARK.json`` ``run_seconds``, the length the benchmark's own
runs have: ``peak_rss_mb`` grows with the pass count, so it is read at the
pass counts of that length.

The output has the layout of ``BENCH_14.json``'s ``workloads`` section: per
workload the seeds, the side that ran first, whether every run was correct,
the failed share of missions, each side's untraced pass count per run (a
run of fixed length makes more passes on faster code, and the benchmark
keeps every pass's output, so memory grows with it), and per end-to-end
metric of the change's ``BENCHMARK.json`` each side's runs, median and
quartiles (``statistics.quantiles(n=4)``), the change's median over the
parent's minus one, and the pairs the change won (ties count for neither
side). After writing the file it prints, per workload, each side's median
untraced pass count and their ratio, then one summary line per metric,
marked ``BEYOND BOUND`` where the change's median is worse than the
parent's by more than the metric's bound. Each line also gives the verdict
of the benchmark rules: whether the change's median moved beyond the
parent's quartile spread (the distance between its quartiles); ``gain
holds`` where the change is better, moved beyond that spread and won at
least 9 of 10 pairs; and ``UNRESOLVED`` where the parent's spread, over its
median, is wider than the metric's bound and not every change run beats
every parent run.
"""
from __future__ import annotations

import argparse
import json
import math
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def describe(checkout: Path) -> str:
    """The checkout's commit, marked ``-dirty`` when its tree has changes."""
    try:
        out = subprocess.run(
            ["git", "-C", str(checkout), "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def host() -> str:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"{cpu}, {platform.system()}, Python {platform.python_version()}"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its JSON result, the last output line,
    with the untraced pass count of its "N untraced passes" line (None if
    it printed none) as ``untraced_passes``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"ab_pairs: {' '.join(cmd)} in {checkout} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    passes = re.search(r"^(\d+) untraced passes\b", proc.stdout, re.MULTILINE)
    result["untraced_passes"] = int(passes[1]) if passes else None
    return result


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "runs": values}


def compare(metric: dict, runs: dict[str, list[dict]]) -> dict:
    """One end-to-end metric of ``BENCHMARK.json`` over both sides' runs."""
    name, lower = metric["name"], metric["better"] == "lower"
    values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
    out = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"]}
    out.update({side: summary(values[side]) for side in SIDES})
    parent_median = out["parent"]["median"]
    out["change_vs_parent"] = (out["change"]["median"] / parent_median - 1
                               if parent_median else None)
    out["pairs_won_by_change"] = sum(
        (c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
    return out


def beyond_bound(m: dict) -> bool:
    """Whether the change's median is worse than the parent's by more than
    the metric's bound."""
    delta = m["change_vs_parent"]
    if delta is None:
        return False
    return delta > m["bound"] if m["better"] == "lower" else delta < -m["bound"]


def verdict(m: dict, pairs: int) -> str:
    """The rules' reading of one compared metric (module docstring)."""
    parent, change = m["parent"], m["change"]
    # the change's move and runs, and the parent's runs, signed so that
    # lower is better
    sign = 1 if m["better"] == "lower" else -1
    moved = sign * (change["median"] - parent["median"])
    beyond = abs(moved) > parent["iqr"]
    notes = [f"{'beyond' if beyond else 'within'} the parent's quartile spread"]
    if beyond and moved < 0 and m["pairs_won_by_change"] * 10 >= 9 * pairs:
        notes.append("gain holds")
    spread = parent["iqr"] / parent["median"] if parent["median"] else math.inf
    worst_change = max(sign * v for v in change["runs"])
    if spread > m["bound"] and not worst_change < min(sign * v for v in parent["runs"]):
        notes.append(f"UNRESOLVED, parent spread {spread:.1%} over bound {m['bound']:.0%}")
    return ", ".join(notes)


def median_passes(counts: list[int | None]) -> float | None:
    """The median of the runs' untraced pass counts, None if none printed one."""
    known = [n for n in counts if n is not None]
    return statistics.median(known) if known else None


def summary_lines(workload: str, out: dict) -> list[str]:
    """Each side's median untraced pass count and the change's over the
    parent's (``peak_rss_mb`` grows with the pass count); then one line per
    end-to-end metric: the change's median against the parent's, the pairs
    the change won and the ``verdict``, marked when beyond its bound."""
    passes = {side: median_passes(out["untraced_passes"][side]) for side in SIDES}
    shown = {side: "n/a" if n is None else f"{n:g}" for side, n in passes.items()}
    ratio = ("n/a" if None in passes.values() or not passes["parent"]
             else f"{passes['change'] / passes['parent']:.3f}")
    lines = [f"{workload} untraced passes: parent median {shown['parent']}, "
             f"change median {shown['change']}, change/parent {ratio}"]
    if "metrics" not in out:
        return lines + [f"{workload}: not compared, a run was incorrect ({out['correct']})"]
    for name, m in out["metrics"].items():
        delta = m["change_vs_parent"]
        change = "n/a" if delta is None else f"{delta:+.1%}"
        lines.append(f"{workload} {name}: change vs parent {change}, "
                     f"pairs won {m['pairs_won_by_change']}/{out['pairs']} "
                     f"({m['better']} is better), {verdict(m, out['pairs'])}"
                     + (f" BEYOND BOUND {m['bound']:.0%}" if beyond_bound(m) else ""))
    return lines


def ab_workload(checkouts: dict[str, Path], workload: str, seeds: list[int],
                seconds: float, metrics: list[dict]) -> dict:
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    first_side = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first_side.append(order[0])
        for side in order:
            result = run_once(checkouts[side], workload, seed, seconds)
            runs[side].append(result)
            print(f"{workload} pair {i} seed {seed} {side}: correct={result['correct']} "
                  f"run_s={result['metrics'].get('run_s', {}).get('value')}", flush=True)
    out = {
        "pairs": len(seeds),
        "seeds": seeds,
        "first_side": first_side,
        "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
        "fail_ratio": {side: sum(r["failed"] for r in runs[side])
                       / sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "untraced_passes": {side: [r["untraced_passes"] for r in runs[side]] for side in SIDES},
    }
    if all(out["correct"].values()):
        out["metrics"] = {m["name"]: compare(m, runs) for m in metrics}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable); default: every workload of BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=901)
    ap.add_argument("--seconds", type=float,
                    help="length of each run; default: BENCHMARK.json's run_seconds")
    ap.add_argument("--what", default="", help="what the change is, for the file's 'what' field")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    result = {
        "what": args.what,
        "host": host(),
        "parent_commit": describe(checkouts["parent"]),
        "change_commit": describe(checkouts["change"]),
        "workload_runs": (
            f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
            "--trace 0, one parent and one change run per seed, the side that runs first "
            "alternating (parent first on even pair indices); quartiles are "
            "statistics.quantiles(n=4) over the per-run values"),
        "workloads": {w: ab_workload(checkouts, w, seeds, seconds, spec["end_to_end"])
                      for w in workloads},
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for workload, out in result["workloads"].items():
        print(*summary_lines(workload, out), sep="\n")
    return 0 if all(all(w["correct"].values()) for w in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
