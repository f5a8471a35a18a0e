"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload video_fifo --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json`` from untraced passes; with ``--trace 1`` it also makes
traced passes and reports the per-layer metrics. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

try:
    import swarmbench as sb
    from hostspeed import Gauge
    from swarmtrace import Tracer
except ImportError as exc:
    sys.exit(f"perfbench: {exc}")

MIN_PASSES = 3
MIN_TRACE_PASSES = 1


def _read(path: Path, default: str = "unknown") -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return default


def _git_commit(root: Path) -> str:
    head = _read(root / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(root / ".git" / ref, "")
    if commit:
        return commit
    for line in _read(root / ".git" / "packed-refs", "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo"), "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(sb.ROOT),
        "loadavg": _read(Path("/proc/loadavg")),
    }


def timed_passes(budget_s: float, min_passes: int, one_pass) -> list:
    """Run passes until the next one would end past ``budget_s``."""
    passes = []
    start = perf_counter()
    while True:
        gc.collect()
        t0 = perf_counter()
        passes.append(one_pass())
        now = perf_counter()
        if len(passes) >= min_passes and now - start + (now - t0) > budget_s:
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(sb.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((sb.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = json.loads(sb.EXPECTED_PATH.read_text(encoding="utf-8"))[args.workload]
    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           **environment()}
    checker = sb.Checker()
    gauge = Gauge()
    configs = sb.missions(args.workload, args.seed)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=sb.ROOT) as tmp:
        out_dir = Path(tmp)
        # warm-up: one untimed pass on the reference seed, checked against
        # the recorded digests
        reference = sb.missions(args.workload, sb.REFERENCE_SEED)
        if reference != expected["configs"]:
            checker.attempted += 1
            checker.failed += 1
            checker.problems.append("reference configs differ from expected.json")
        else:
            sb.run_pass(reference, out_dir, checker, "reference", expected=expected,
                        gauge=gauge)

        def untraced():
            return sb.run_pass(configs, out_dir, checker, "run", gauge=gauge)

        if not args.trace:
            passes = timed_passes(args.seconds, MIN_PASSES, untraced)
        else:
            passes = timed_passes(args.seconds / 3, MIN_PASSES - 1, untraced)
            tracer = Tracer()

            def traced():
                tracer.reset()
                runs = sb.run_pass(configs, out_dir, checker, "run", tracer=tracer,
                                   gauge=gauge)
                layers = sb.per_layer(runs, tracer)
                layers["pass_s"] = sum(r.scaled(r.cpu_s) for r in runs)
                return layers
            traced_passes = timed_passes(args.seconds * 2 / 3, MIN_TRACE_PASSES, traced)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    env["loadavg_end"] = _read(Path("/proc/loadavg"))
    print("env " + json.dumps(env, sort_keys=True))
    for problem in checker.problems:
        print(f"FAILED {problem}")
    fail_ratio = checker.failed / checker.attempted
    print(f"fail_ratio = {fail_ratio} ({checker.failed} of {checker.attempted} missions)")

    values = {}
    if checker.failed == 0:
        e2e = sb.end_to_end(passes)
        e2e["peak_rss_mb"] = peak_rss_mb
        pass_s = [sum(r.cpu_s for r in p) for p in passes]
        print(f"{len(passes)} untraced passes of {e2e['missions']} missions; "
              f"mission_s_tail is p{e2e['mission_s_tail_pct']:.1f}")
        print("untraced pass_s " + " ".join(f"{t:.4f}" for t in pass_s))
        print("host slowdown " + " ".join(
            f"{statistics.median(r.slowdown for r in p):.3f}" for p in passes))
        if not args.trace:
            values = e2e
            chosen = spec["end_to_end"]
        else:
            values = {k: statistics.median(p[k] for p in traced_passes)
                      for k in traced_passes[0]}
            values["trace.overhead_ratio"] = values["pass_s"] / e2e["run_s"]
            print(f"{len(traced_passes)} traced passes")
            chosen = spec["per_layer"]
        values = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
        for name, v in values.items():
            print(f"{args.workload} {name} = {v['value']:.6g} {v['unit']}")

    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
