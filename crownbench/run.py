#!/usr/bin/env python3
"""crown-layout benchmark: seeded workloads against the library's functions.

    python3 crownbench/run.py --workload cloud-k100 --seed 1 --seconds 30 --trace 0

Workloads: cloud-k100, stars-hub, exact-solvers, or ``all`` (each in its own process, one
after another).  A run builds the workload's inputs from
the seed, then repeats whole passes over them until the items have taken
``--seconds`` in all, timing each item; finally it checks every output of
the first pass independently and that later passes emit the same bytes.

Timings are scaled to one reference speed of the machine (``calib.py``):
a shared host runs this VM at two speeds, 1.7-1.9 times apart, that swap
every few seconds and sometimes stay for minutes, so wall times of the
same code spread by a third between runs.  While an item runs, a fixed
reference kernel is timed every 25 ms and the item's wall time is scaled
by how fast the kernel ran; the ``ref_`` metrics are those scaled times.
An item's time is its median pass; ``ref_items_per_s`` and
``ref_item_ms.p50`` are taken over those.  A set-up is importing crown
in a fresh interpreter plus building the inputs, each timed and scaled
in the process that does it; ``setup_s`` is the median of five to seven,
taken before the first pass, after each of the first passes and at the
end.  The unscaled wall-clock figures are printed as ``wall`` lines.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one pass
untraced and one with spans around every layer call, prints per-layer
metrics and writes the spans to ``.crownbench/trace-<workload>-seed<n>.jsonl``.
Human-readable lines come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The workloads run
in one process and thread; only the set-up probes start interpreters.
Reads the repository's ``src/`` and ``corpus/`` only.
"""

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("cloud-k100", "stars-hub", "exact-solvers")
DEFAULT_SEED = 1
MIN_SETUPS, MAX_SETUPS = 5, 7  # set-ups per untraced run; setup_s is their median


def _digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
    return h.hexdigest()


def run_pass(workload, items, walls, sampler=None, scaled=None, tracer=None):
    """Run every item once; append the per-item wall nanoseconds to
    ``walls`` and, given a sampler, the times at the reference speed to
    ``scaled``."""
    results, wall_ns, ref_ns = [], [], []
    for item in items:
        if tracer is not None:
            tracer.item = item.id
        if sampler is not None:
            res, wall, ref = sampler.time(workload.run, item)
            ref_ns.append(ref)
        else:
            start = time.perf_counter_ns()
            try:
                res = workload.run(item)
            except Exception as exc:  # an unexpected raise is a failed item
                res = exc
            wall = time.perf_counter_ns() - start
        wall_ns.append(wall)
        results.append(res)
    walls.append(wall_ns)
    if scaled is not None:
        scaled.append(ref_ns)
    return results


def check_pass(workload, items, results):
    """Independent check of one pass: (summary rows, failure messages)."""
    rows, failures = [], []
    for item, res in zip(items, results):
        if isinstance(res, Exception):
            failures.append(f"{item.id}: raised {type(res).__name__}: {res}")
            continue
        try:
            rows.append(workload.check(item, res))
        except Exception as exc:  # malformed output fails the item, whatever it breaks
            failures.append(f"{item.id}: {type(exc).__name__}: {exc}")
    return rows, failures


def _item_digests(results):
    return [None if isinstance(r, Exception) else _digest(r.emitted) for r in results]


def _summary(rows):
    """Instance summary: how often each string value occurs, and [min, max]
    of whole numbers (lists flattened).  Exact ratios are left to quality."""
    out = {}
    for key in dict.fromkeys(k for row in rows for k in row):
        values = [row[key] for row in rows if key in row]
        if isinstance(values[0], str):
            out[key] = {v: values.count(v) for v in sorted(set(values))}
        elif isinstance(values[0], (int, list)):
            flat = [x for v in values for x in (v if isinstance(v, list) else [v])]
            out[key] = [min(flat), max(flat)]
    return out


def setup_seconds(workload, src, sampler):
    """(wall, reference-speed) seconds of one set-up: crown imported in a
    fresh interpreter, then the inputs built."""
    code = "import sys; sys.path[:0] = sys.argv[1:]; import calib; print(*calib.time_import('crown'))"
    probe = subprocess.run([sys.executable, "-c", code, str(src), str(HERE)], capture_output=True,
                           text=True, check=True, timeout=120)
    wall, ref = map(float, probe.stdout.split())
    out, build_wall, build_ref = sampler.time(lambda w: w.build(), workload)
    if isinstance(out, Exception):
        raise out
    return (wall + build_wall) / 1e9, (ref + build_ref) / 1e9


def run_one(args):
    src = ROOT / "src"
    if not (src / "crown" / "__init__.py").is_file():
        print(f"error: no crown package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import calib
    import crown
    import spans
    import workloads
    if Path(crown.__file__).resolve().parent != (src / "crown").resolve():
        print(f"error: imported crown from {crown.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.quick)
    items = workload.build()

    problems = []
    leaked = spans.installed(workloads.TARGETS)
    walls = []  # per pass, per item: wall nanoseconds
    if args.trace:
        base = run_pass(workload, items, walls)
        tracer = spans.Tracer(workloads.TARGETS)
        with tracer:
            results = run_pass(workload, items, walls, tracer=tracer)
        if _item_digests(results) != _item_digests(base):
            problems.append("traced pass emitted other bytes than the untraced pass")
    else:
        sampler = calib.Sampler()
        scaled = []  # per pass, per item: nanoseconds at the reference speed
        # Set-ups are spread over the run: one before it, one after each of
        # the first passes, the rest at the end.
        setups = [setup_seconds(workload, src, sampler)]
        results = None
        while True:
            out = run_pass(workload, items, walls, sampler, scaled)
            if len(setups) < MAX_SETUPS:
                setups.append(setup_seconds(workload, src, sampler))
            if results is None:
                results = out
            elif _item_digests(out) != _item_digests(results):
                problems.append(f"pass {len(walls)} emitted other bytes than pass 1")
            if sum(map(sum, walls)) / 1e9 >= args.seconds:
                break
        while len(setups) < MIN_SETUPS:
            setups.append(setup_seconds(workload, src, sampler))
    leaked += spans.installed(workloads.TARGETS)
    if leaked:
        problems.append(f"span wrappers installed outside the traced pass: {leaked}")

    rows, failures = check_pass(workload, items, results)
    busy = [sum(p) / 1e9 for p in walls]
    print(f"crownbench {workload.name} seed={args.seed} trace={args.trace} items={len(items)} "
          f"passes={len(walls)} pass_s=[{min(busy):.2f}, {max(busy):.2f}]")
    print("instances " + json.dumps(_summary(rows), sort_keys=True, default=str))
    print("digest sha256:" + _digest(t for r in results if not isinstance(r, Exception) for t in r.emitted))
    for name, value in workload.quality(rows).items():
        print(f"quality {name} = {value!r} %")
    for message in failures + problems:
        print(f"FAIL {message}")

    attempted = len(items) * len(walls)
    failed = len(failures) * len(walls) + len(problems)
    if args.trace:
        layers = tracer.metrics()
        layers.update(workload.verdicts(items, results))
        if layers.get("stars.planar.tested"):
            layers["stars.planar.kept_ratio"] = layers["stars.planar.kept"] / layers["stars.planar.tested"]
        layers["trace.overhead_ratio"] = busy[1] / busy[0]
        missing = [s for s in workload.expected_spans if not layers.get(s + ".calls")]
        if missing:
            print(f"FAIL expected spans recorded no calls: {missing}")
            failed += 1
        metrics = {name: float(layers.get(name, 0.0)) for name in workloads.PER_LAYER}
        units = workloads.PER_LAYER
        shares = sorted(
            ((v / busy[1], k[: -len(".self_s")]) for k, v in layers.items() if k.endswith(".self_s")),
            reverse=True,
        )
        print("self-time shares " + ", ".join(f"{n} {s:.3f}" for s, n in shares if s >= 0.005))
        out_path = ROOT / ".crownbench" / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(out_path)
        print(f"spans written to {out_path.relative_to(ROOT)}")
    else:
        # An item's time is its median pass at the reference speed.
        item_ms = [statistics.median(t) / 1e6 for t in zip(*scaled)]
        wall_ms = [statistics.median(t) / 1e6 for t in zip(*walls)]
        metrics = {
            "setup_s": statistics.median(ref for _, ref in setups),
            "ref_items_per_s": len(item_ms) / (sum(item_ms) / 1e3),
            "ref_item_ms.p50": statistics.median(item_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = workloads.END_TO_END
        samples = [t / 1e6 for p in scaled for t in p]
        if len(samples) >= 100:
            print(f"metric ref_item_ms.p90 = {statistics.quantiles(samples, n=10)[-1]!r} ms "
                  f"(all {len(samples)} timings)")
        else:
            print(f"metric ref_item_ms.p90 not reported: {len(samples)} timings < 100")
        print(f"wall setup_s = {statistics.median(wall for wall, _ in setups)!r} s")
        print(f"wall items_per_s = {len(wall_ms) / (sum(wall_ms) / 1e3)!r} 1/s")
        print(f"wall item_ms.p50 = {statistics.median(wall_ms)!r} ms")
        print(f"metric error_rate = {failed / attempted!r} ratio")
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in its own process, one after another."""
    worst = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs, for the benchmark's own test; not a benchmark")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
