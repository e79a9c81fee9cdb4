"""One end-to-end benchmark over the public API, with a per-layer breakdown.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py                       # every workload, 3 reps + traced run
    python3 benchmarks/e2e/run.py --quick               # toy sizes, 1 rep (seconds)
    python3 benchmarks/e2e/run.py --out benchmarks/e2e/results/run-1.json
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py --workload serve-churn --seed 3 --seconds 10 --trace 0

With ``--workload`` it measures one workload in this process and prints, as
its last line, ``{"correct", "attempted", "failed", "metrics"}`` holding the
``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``).  Without it, every (workload, rep)
runs in a fresh child, reps interleaved round-robin across workloads, then
one traced child per workload; the report gives medians and quartiles
across reps.  Any failed or wrong operation makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"

#: set-ups per run; ``setup_s`` reports their median
SETUP_REPS = 3
#: the timed loop runs past ``--seconds`` until it has this many operations,
#: so that ``op_ms_p90`` always has at least ten samples beyond it
MIN_OPS = 100
#: the host-speed probe runs again once this much time has passed in a loop
PROBE_EVERY_S = 0.02
#: normalised times read as seconds on a host where ``probe()`` takes 1 ms
PROBE_REF_S = 1e-3
#: finished spans kept as records in the trace file (aggregates cover all)
SPAN_KEEP = 100
#: prefix of the extra result line a child prints for the suite
DETAIL = "e2e-detail "
#: the suite warns when the probe's median moves more than this across reps
CALIB_WARN = 0.10


def declared() -> dict:
    return json.loads(BENCHMARK.read_text())


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0-100) of *values*, linearly interpolated."""
    ordered = sorted(values)
    rank = q / 100 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def eligible(samples: int, q: float) -> bool:
    """A percentile is reported only with at least ten samples beyond it."""
    return samples * (100 - q) / 100 >= 10 - 1e-9  # tolerance: 100 * 0.1 < 10 in floats


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def probe() -> float:
    """Seconds for a fixed pure-Python job of dict, set and tuple work, best of two.

    The host's speed drifts by up to 3x within minutes, while the code's
    does not.  Every end-to-end time is therefore divided by the probe time
    measured next to it and multiplied by ``PROBE_REF_S``, so that runs made
    at different moments compare; the raw times stay in the detail record.
    The cyclic collector is off while it runs: otherwise the probe pays for
    collecting the workload's young objects, ten times its own cost after a
    bulk-load operation.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            started = time.perf_counter()
            counts: dict = {}
            seen: set = set()
            for i in range(3000):
                key = (i % 97, i % 13)
                counts[key] = counts.get(key, 0) + 1
                if key in seen:
                    seen.discard(key)
                else:
                    seen.add(key)
            sorted(counts.items())
            best = min(best, time.perf_counter() - started)
        return best
    finally:
        if enabled:
            gc.enable()


def normalised(seconds: float, probe_s: float) -> float:
    return seconds * PROBE_REF_S / probe_s


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Ops:
    """The operations run so far: raw latency, answer and nearby probe time of each."""

    def __init__(self):
        self.raw: list[float] = []
        self.results: list = []
        self.probes: list[float] = []
        #: wall time spent probing, which is no part of the workload
        self.probe_s = 0.0

    def probe(self) -> float:
        started = time.perf_counter()
        seconds = probe()
        self.probe_s += time.perf_counter() - started
        return seconds

    def normalised(self, stop=None) -> list[float]:
        return [normalised(r, p) for r, p in zip(self.raw[:stop], self.probes[:stop])]


def _run_ops(workload, ops: Ops, *, until_ops, deadline=None, tracer=None):
    """Run operations from ``len(ops.raw)`` until both limits are reached.

    Each operation is charged the mean of the probes taken just before and
    just after the stretch of operations it belongs to.
    """
    from workloads import FAILED

    i = len(ops.raw)
    before, pending, probed_at = ops.probe(), 0, time.perf_counter()
    while i < until_ops or (deadline is not None and time.perf_counter() < deadline):
        workload.prepare(i)
        if tracer is not None:
            tracer.op = i
        started = time.perf_counter()
        try:
            result = workload.op(i)
        except Exception:  # counted as a failed operation, the loop goes on
            result = FAILED
            traceback.print_exc(file=sys.stderr)
        ops.raw.append(time.perf_counter() - started)
        ops.results.append(result)
        i += 1
        pending += 1
        if time.perf_counter() - probed_at >= PROBE_EVERY_S:
            after = ops.probe()
            ops.probes += [(before + after) / 2] * pending
            before, pending, probed_at = after, 0, time.perf_counter()
    if pending:
        ops.probes += [(before + ops.probe()) / 2] * pending


def _latency_summary(seconds: list[float]) -> dict:
    """p50 and the highest eligible tail percentile, in ms, with the count."""
    ms = [s * 1e3 for s in seconds]
    summary = {"samples": len(ms), "p50_ms": percentile(ms, 50) if eligible(len(ms), 50) else None}
    for q in (99.9, 99, 90):
        if eligible(len(ms), q):
            summary[f"p{q:g}_ms"] = percentile(ms, q)
            break
    return summary


def measure(name: str, *, seed: int, seconds: float, trace: bool, quick: bool = False,
            import_s: tuple[float, float] = (0.0, PROBE_REF_S)) -> dict:
    """Measure one workload; returns the detail record the result line is cut from.

    ``import_s`` is the raw import time with the probe time around it.
    """
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, quick)
    detail: dict = {"workload": name, "seed": seed, "quick": quick}
    if not trace:
        setups = []
        for _ in range(SETUP_REPS):
            workload.teardown()
            gc.collect()
            before = probe()
            started = time.perf_counter()
            workload.setup()
            setups.append((time.perf_counter() - started, (before + probe()) / 2))
        ops = Ops()
        _run_ops(workload, ops, until_ops=MIN_OPS, deadline=time.perf_counter() + seconds)
        norm = ops.normalised()
        ms = [s * 1e3 for s in norm]
        metrics = {
            "setup_s": (
                normalised(*import_s) + statistics.median(normalised(*s) for s in setups),
                "s",
            ),
            "op_ms_p50": (percentile(ms, 50), "ms"),
            "op_ms_p90": (percentile(ms, 90), "ms"),
            "ops_per_s": (len(norm) / sum(norm), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        detail["op"] = _latency_summary(norm)
        if hasattr(workload, "kind"):
            kinds = [workload.kind(i) for i in range(len(norm))]
            detail["by_kind"] = {
                kind: _latency_summary([s for s, k in zip(norm, kinds) if k == kind])
                for kind in sorted(set(kinds))
            }
        detail["raw"] = {
            "setup_s": import_s[0] + statistics.median(raw for raw, _ in setups),
            "op": _latency_summary(ops.raw),
        }
        checked, failed = workload.verify(ops.results)
        probes = ops.probes
    else:
        # untraced reference pass over the first cycle, for trace.overhead
        workload.setup()
        untraced = Ops()
        _run_ops(workload, untraced, until_ops=workload.cycle)
        checked, failed = workload.verify(untraced.results)
        workload.teardown()
        gc.collect()
        tracer = spans.Tracer(keep=SPAN_KEEP)
        ops = Ops()
        with spans.installed(tracer):
            started = time.perf_counter()
            workload.setup()
            _run_ops(workload, ops, until_ops=workload.cycle, tracer=tracer)
            counts, calls = tracer.counts.copy(), tracer.calls.copy()
            _run_ops(workload, ops, until_ops=0, tracer=tracer, deadline=started + seconds)
            wall_s = time.perf_counter() - started - ops.probe_s
        more_checked, more_failed = workload.verify(ops.results)
        checked, failed = checked + more_checked, failed + more_failed
        metrics = spans.layer_metrics(tracer, counts, calls, wall_s)
        overhead = sum(ops.normalised(workload.cycle)) / sum(untraced.normalised()) - 1
        metrics["trace.overhead"] = (overhead, "ratio")
        probes = untraced.probes + ops.probes
        detail["spans"] = tracer.spans
    detail["calib_ms"] = statistics.median(probes) * 1e3
    metrics["host.calib_ms"] = (detail["calib_ms"], "ms")
    detail["metrics"] = {key: {"value": v, "unit": u} for key, (v, u) in metrics.items()}
    detail["attempted"] = checked
    detail["failed"] = failed
    return detail


def result_line(detail: dict, trace: bool) -> dict:
    """The last output line: the verdict and exactly the metrics BENCHMARK.json declares."""
    names = [m["name"] for m in declared()["per_layer" if trace else "end_to_end"]]
    return {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: detail["metrics"][name] for name in names},
    }


# -- the suite ------------------------------------------------------------------------


def _child(name: str, *, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), "--detail",
    ] + (["--quick"] if quick else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=900)
    for line in done.stdout.splitlines():
        if line.startswith(DETAIL):
            return json.loads(line[len(DETAIL):])
    raise RuntimeError(f"{name} child exited {done.returncode}:\n{done.stderr[-2000:]}")


def _summary(values: list[float]) -> dict:
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "values": values}


def suite(args) -> int:
    from workloads import WORKLOADS

    names = list(WORKLOADS)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for rep in range(args.reps):
        for name in names:
            print(f"rep {rep + 1}/{args.reps} {name} ...", file=sys.stderr, flush=True)
            runs[name].append(_child(name, seed=args.seed, seconds=args.seconds,
                                     trace=False, quick=args.quick))
    traced = {}
    for name in names:
        print(f"traced {name} ...", file=sys.stderr, flush=True)
        traced[name] = _child(name, seed=args.seed, seconds=args.seconds, trace=True,
                              quick=args.quick)

    spec = declared()
    report = {"seed": args.seed, "reps": args.reps, "seconds": args.seconds,
              "quick": args.quick, "workloads": {}}
    bad = False
    for name in names:
        reps = runs[name]
        attempted = sum(r["attempted"] for r in reps) + traced[name]["attempted"]
        failed = sum(r["failed"] for r in reps) + traced[name]["failed"]
        bad |= failed > 0
        calib = [r["calib_ms"] for r in reps]
        entry = {
            "summary": {
                m["name"]: dict(_summary([r["metrics"][m["name"]]["value"] for r in reps]),
                                unit=m["unit"])
                for m in spec["end_to_end"]
            },
            "failed_ops_frac": failed / attempted,
            "attempted": attempted,
            "calib_ms": _summary(calib),
            "runs": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
            "per_layer": traced[name]["metrics"],
        }
        report["workloads"][name] = entry
        _print_workload(name, entry)
        if len(calib) > 1 and (max(calib) - min(calib)) / statistics.median(calib) > CALIB_WARN:
            print(f"  warning: host calibration spread across reps exceeds "
                  f"{CALIB_WARN:.0%} ({min(calib):.1f}-{max(calib):.1f} ms); "
                  "timings are unsteady")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1) + "\n")
        trace_file = out.parent / f"trace-{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"seed": args.seed,
             "workloads": {n: {"per_layer": t["metrics"], "spans": t["spans"]}
                           for n, t in traced.items()}},
            indent=1) + "\n")
        print(f"wrote {out} and {trace_file}")
    return 1 if bad else 0


def _print_workload(name: str, entry: dict) -> None:
    runs = entry["runs"]
    print(f"\n== {name}  (failed_ops_frac {entry['failed_ops_frac']:.3g} of "
          f"{entry['attempted']} attempted)")
    for metric, s in entry["summary"].items():
        samples = ""
        if metric.startswith("op_"):
            samples = f"  n={statistics.median(r['op']['samples'] for r in runs):.0f}/rep"
        print(f"  {metric:<14} {s['median']:>11.4g} {s['unit']:<6} "
              f"[q1 {s['q1']:.4g}, q3 {s['q3']:.4g}]{samples}")
    for kind, summary in (("op", runs[0]["op"]), *runs[0].get("by_kind", {}).items()):
        shown = ", ".join(f"{k} {v:.4g}" for k, v in summary.items() if k != "samples")
        print(f"  {kind:<14} {shown}  (n={summary['samples']}, rep 1)")
    per_layer = entry["per_layer"]
    print(f"  traced: coverage {per_layer['trace.coverage']['value']:.3f}, overhead "
          f"{per_layer['trace.overhead']['value']:+.3f}, calib "
          f"{per_layer['host.calib_ms']['value']:.1f} ms")
    for layer in sorted({k.rsplit('.', 1)[0] for k in per_layer if k.endswith(".self_s")}):
        self_s = per_layer[f"{layer}.self_s"]["value"]
        if self_s:
            print(f"    {layer:<13} self {self_s:8.4f} s  share "
                  f"{per_layer[f'{layer}.share']['value']:6.3f}  calls "
                  f"{per_layer[f'{layer}.calls']['value']}")


# -- compare --------------------------------------------------------------------------


def judge(base: list[float], new: list[float], bound: float, better: str) -> str:
    """Improved / no-worse / worse / unresolved for one (metric, workload).

    ``base`` and ``new`` are the per-rep values of two result sets; rep ``i``
    of one is paired with rep ``i`` of the other.  Improved: ``new`` wins at
    least nine tenths of the pairs and the medians differ by more than the
    base's interquartile range.  Unresolved: that range exceeds the bound
    and not every new run beats every base run.  Worse: the median moved
    the wrong way by more than the bound.
    """
    sign = 1 if better == "lower" else -1
    q1, base_median, q3 = quartiles(base)
    new_median = statistics.median(new)
    spread = q3 - q1
    change = sign * (new_median - base_median) / base_median
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) < 0 for b, n in pairs)
    if change < 0 and wins >= 0.9 * len(pairs) and abs(new_median - base_median) > spread:
        return "improved"
    all_better = max(sign * n for n in new) < min(sign * b for b in base)
    if spread / base_median > bound and not all_better:
        return "unresolved"
    return "worse" if change > bound else "no-worse"


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    metrics = declared()["end_to_end"]
    verdicts: dict[str, int] = {}
    print(f"{'workload':<14} {'metric':<12} {'A median':>11} {'B median':>11} "
          f"{'change':>8} {'bound':>6}  verdict")
    for name, entry in a["workloads"].items():
        if name not in b["workloads"]:
            continue
        for metric in metrics:
            base = entry["summary"][metric["name"]]["values"]
            new = b["workloads"][name]["summary"][metric["name"]]["values"]
            verdict = judge(base, new, metric["bound"], metric["better"])
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            base_median, new_median = statistics.median(base), statistics.median(new)
            print(f"{name:<14} {metric['name']:<12} {base_median:>11.4g} {new_median:>11.4g} "
                  f"{(new_median - base_median) / base_median:>+8.1%} "
                  f"{metric['bound']:>6.0%}  {verdict}")
    print(", ".join(f"{count} {verdict}" for verdict, count in sorted(verdicts.items())))
    return 1 if verdicts.get("worse") else 0


# -- entry point ----------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="timed loop length per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--quick", action="store_true", help="toy sizes, 1 rep")
    parser.add_argument("--out", help="write the suite's results JSON (and trace) here")
    parser.add_argument("--detail", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        if args.quick:
            args.reps = 1
        if args.seconds is None:
            args.seconds = 0.2 if args.quick else 5.0
        sys.path.insert(0, str(SRC))
        return suite(args)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # set iteration order feeds the engines: fix it so counts repeat
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.path.insert(0, str(SRC))
    before = probe()
    started = time.perf_counter()
    import repro.core  # noqa: F401  (the import is part of set-up)
    import repro.scenarios  # noqa: F401
    import repro.views  # noqa: F401
    import_s = (time.perf_counter() - started, (before + probe()) / 2)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    seconds = 10.0 if args.seconds is None else args.seconds
    detail = measure(args.workload, seed=args.seed, seconds=seconds,
                     trace=bool(args.trace), quick=args.quick, import_s=import_s)
    if args.detail:
        print(DETAIL + json.dumps(detail))
    print(json.dumps(result_line(detail, bool(args.trace))))
    return 0 if detail["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
