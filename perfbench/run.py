"""vdplin benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Runs one workload (or each of them in turn, in child processes) from a
single process with one closed-loop client: the next operation starts when
the previous one has ended.  Operations run in whole cycles of the
workload's mix, and a cycle is started only if it is expected to end
within ``--seconds``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run first measures a third of
``--seconds`` untraced, then the rest with span tracing on, and reports the
per-layer metrics and the tracing overhead.  Metric names and units come
from BENCHMARK.json at the repository root; README.md beside this file says
what each one means and which workload moves it.

Everything the run writes goes under ``.bench_out/`` at the repository root:
a record of the run (stamp, metrics, every operation) and, when traced, the
spans.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, src_env  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="do the workload's set-up, print its time as JSON "
                        "and exit (used to sample set-up time)")
    return p.parse_args(argv)


def stamp() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "vdplin").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0"
                 + p.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "commit": commit, "source_sha256": h.hexdigest(),
            "machine": platform.machine()}


# -- measuring -----------------------------------------------------------------

def measure(w, seconds: float, first: int = 0):
    """Whole cycles of the mix until the next cycle would overrun.

    The workload's reference runs before the first cycle and after each
    one; every operation of a cycle gets the mean of the two reference
    times around it."""
    ops = []
    w.reference()  # the first call pays for warming up
    ref = w.reference()
    t0 = perf_counter()
    deadline = t0 + seconds
    i = first
    while True:
        c0 = perf_counter()
        cycle = []
        for _ in range(w.cycle):
            if w.tracer is not None:
                w.tracer.begin_op(i)
            cycle.append(w.op(i))
            if w.tracer is not None:
                w.tracer.end_op()
            i += 1
        after = w.reference()
        for o in cycle:
            o.ref_s = (ref + after) / 2.0
        ops += cycle
        ref = after
        now = perf_counter()
        if now + (now - c0) > deadline:
            break
    return ops, perf_counter() - t0


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    rank as a percentage; the maximum when there are ten samples or fewer."""
    times = sorted(times)
    n = len(times)
    k = n - 10 if n > 10 else n
    return times[k - 1], 100.0 * k / n


def setup_samples(args, first: float) -> list[float]:
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        r = subprocess.run([sys.executable, str(HERE / "run.py"),
                            "--workload", args.workload, "--seed",
                            str(args.seed), "--seconds", "0", "--setup-only"],
                           capture_output=True, text=True, timeout=170)
        if r.returncode != 0:
            raise RuntimeError(f"set-up sample failed: {r.stderr.strip()[-500:]}")
        samples.append(json.loads(r.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def end_to_end(w, ops, elapsed) -> tuple[dict, dict]:
    """Every end-to-end metric but setup_s, which is sampled afterwards.
    Times are calibrated against the workload's reference."""
    cal = [w.calibrated(o.seconds, o.ref_s) for o in ops]
    good = [c for c, o in zip(cal, ops) if o.ok]
    if not good:
        raise RuntimeError("no operation succeeded; nothing to time")
    who = resource.RUSAGE_SELF if w.in_process else resource.RUSAGE_CHILDREN
    tail_s, tail_pct = tail(good)
    values = {
        "op_p50_s": statistics.median(good),
        "op_tail_s": tail_s,
        "ops_per_s": len(good) / sum(cal),
        "ok_frac": len(good) / len(ops),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    detail = {"timed_ops": len(good), "tail_percentile": tail_pct,
              "elapsed_s": elapsed,
              "failed_frac": 1.0 - len(good) / len(ops),
              "wall_op_p50_s": statistics.median(o.seconds for o in ops if o.ok),
              "reference_p50_s": statistics.median(o.ref_s for o in ops)}
    return values, detail


def import_metrics(env) -> dict:
    """Cold import of vdplin.cli: wall time of a fresh interpreter, and the
    -X importtime breakdown (medians of IMPORT_SAMPLES runs each)."""
    walls, parts = [], []
    for _ in range(IMPORT_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import vdplin.cli"], env=env,
                       check=True, timeout=120)
        walls.append(perf_counter() - t0)
        r = subprocess.run([sys.executable, "-X", "importtime", "-c",
                            "import vdplin.cli"], env=env, check=True,
                           capture_output=True, text=True, timeout=120)
        parts.append(tracing.import_breakdown(r.stderr))
    out = {"import.cold_s": statistics.median(walls)}
    for key in parts[0]:
        out[key] = statistics.median(p[key] for p in parts)
    return out


def per_layer(w, untraced, traced) -> dict:
    t = w.tracer
    good_a = [w.calibrated(o.seconds, o.ref_s) for o in untraced if o.ok]
    good_ids = [i for i, o in traced if o.ok]
    values = tracing.layer_times(t.spans, good_ids)
    values["expr.eval_s"] = tracing.mean_counter(t.counts, "expr.eval_s", good_ids)
    values["expr.eval_calls"] = tracing.mean_counter(t.counts, "expr.eval_calls",
                                                     good_ids)
    first_cycle = [i for i, _ in traced[:w.cycle]]
    counts = tracing.first_cycle_counts(t.counts, first_cycle)
    for key in ("odesolve.poles", "odesolve.bracket_width_max",
                "odesolve.skipped_segments", "odesolve.residual_max",
                "expr.nodes_f", "expr.nodes_f_roundtrip",
                "colehopf.ledger_entries", "colehopf.ledger_disagree",
                "cli.bytes_written"):
        values[key] = counts.get(key, 0)
    entries = counts.get("colehopf.ledger_entries", 0)
    values["colehopf.ledger_evaluated_frac"] = (
        counts.get("colehopf.ledger_evaluated", 0) / entries if entries else 0.0)
    good_b = [w.calibrated(o.seconds, o.ref_s) for _, o in traced if o.ok]
    values["trace.overhead_s"] = (statistics.median(good_b)
                                  - statistics.median(good_a)
                                  if good_a and good_b else 0.0)
    values.update(import_metrics(src_env(ROOT)))
    return values


# -- one workload --------------------------------------------------------------

def run_one(args, spec) -> int:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    w = WORKLOADS[args.workload](ROOT, args.seed, work)
    try:
        w.setup()
        setup_wall = perf_counter() - T_START
        w.reference()
        setup_first = w.calibrated(setup_wall, w.reference())
        if args.setup_only:
            print(json.dumps({"setup_s": setup_first, "wall_s": setup_wall}))
            return 0
        if args.trace:
            untraced, _ = measure(w, args.seconds / 3.0)
            w.tracer = tracing.Tracer()
            if w.in_process:
                w.tracer.install()
            start = len(untraced)
            ops_b, _ = measure(w, args.seconds * 2.0 / 3.0, start)
            traced = list(enumerate(ops_b, start))
            values = per_layer(w, untraced, traced)
            ops = untraced + ops_b
            metrics = spec["per_layer"]
            detail = {"untraced_ops": len(untraced), "traced_ops": len(ops_b)}
        else:
            ops, elapsed = measure(w, args.seconds)
            values, detail = end_to_end(w, ops, elapsed)
            detail["setup_samples_s"] = setup_samples(args, setup_first)
            values["setup_s"] = statistics.median(detail["setup_samples_s"])
            metrics = spec["end_to_end"]
        report(args, w, ops, values, detail, metrics)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(args, w, ops, values, detail, metrics) -> None:
    failed = [o for o in ops if not o.ok]
    wrong = [o for o in ops if o.wrong]
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stamp": stamp(), "detail": detail,
              "values": values,
              "ops": [[o.kind, o.ok, o.wrong, round(o.seconds, 6), o.note,
                       round(o.ref_s, 6)]
                      for o in ops]}
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if w.tracer is not None:
        w.tracer.dump(OUT / f"{tag}.spans.json", {"workload": w.name,
                                                 "seed": args.seed})

    print(f"perfbench {w.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("stamp " + json.dumps(record["stamp"]))
    print(f"operations: {len(ops)} attempted, {len(failed)} failed "
          f"(failed_frac {len(failed) / len(ops):.4f}), {len(wrong)} wrong")
    seen = set()
    for o in failed:
        if o.kind not in seen:
            seen.add(o.kind)
            print(f"  failed {o.kind}: {o.note}")
    for m in metrics:
        note = ""
        if m["name"] == "op_tail_s":
            note = (f"  (p{detail['tail_percentile']:.1f} of "
                    f"{detail['timed_ops']} timed operations)")
        elif m["name"] == "setup_s":
            note = "  (median of " + ", ".join(
                f"{s:.3f}" for s in detail["setup_samples_s"]) + ")"
        print(f"  {m['name']:<42} {values[m['name']]:>14.6g} {m['unit']}{note}")
    if "wall_op_p50_s" in detail:
        print(f"  times above are calibrated; wall-clock op p50 "
              f"{detail['wall_op_p50_s']:.6g} s, reference p50 "
              f"{detail['reference_p50_s']:.6g} s")
    result = {"correct": not wrong, "attempted": len(ops),
              "failed": len(failed),
              "metrics": {m["name"]: {"value": values[m["name"]],
                                      "unit": m["unit"]} for m in metrics}}
    print(json.dumps(result), flush=True)


# -- all workloads ---------------------------------------------------------------

def run_all(args, spec) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        r = subprocess.run([sys.executable, str(HERE / "run.py"),
                            "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)],
                           stdout=subprocess.PIPE, text=True, timeout=900)
        lines = r.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if r.returncode != 0:
            print(f"{name}: exit {r.returncode}", file=sys.stderr)
            return r.returncode
        doc = json.loads(lines[-1])
        merged["correct"] &= doc["correct"]
        merged["attempted"] += doc["attempted"]
        merged["failed"] += doc["failed"]
        for k, v in doc["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "vdplin" / "cli.py").is_file():
        print(f"error: no vdplin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # one CPU for the runner and its children, so that the reference
    # kernel and the operations it calibrates share a processor
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
