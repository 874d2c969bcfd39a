"""qreflect benchmark: one workload per run, seeded inputs, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload v4-sweep --seed 1 --seconds 20 --trace 0

Workloads are ``v4-sweep``, ``table-cli`` and ``mathieu-curve`` (see
``workloads.py`` and ``README.md``). A run imports qreflect from the
checkout's ``src/``, times repeated set-ups in a fresh interpreter, warms up,
then repeats identical passes over the workload's operations (closed loop, one
caller) until ``--seconds`` have elapsed and the last pass has finished.
Operation and set-up times are scaled to a nominal machine speed
(``calibration.py``).

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs half the time untraced and half traced, and reports the per-layer
metrics, the tracing overhead and the ROADMAP baseline rows the workload
contains. The spans of a traced run are written to ``perfbench/out/``.
Human-readable lines come first; the last line of stdout is one JSON object.
"""

import os

# one process, one BLAS thread: pinned before numpy loads, and inherited by
# the set-up probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 40
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

# ROADMAP baseline rows that fall inside a workload: (metric, unit, workload,
# op label); None takes the median over all of the workload's operations
ROADMAP_ROWS = (
    ("roadmap.v4_direct_ms.kl0.119", "ms", "v4-sweep", ("direct", 0.119)),
    ("roadmap.v4_direct_ms.kl1", "ms", "v4-sweep", ("direct", 1.0)),
    ("roadmap.v4_direct_ms.kl10", "ms", "v4-sweep", ("direct", 10.0)),
    ("roadmap.v4_coupled_ms.kl0.119", "ms", "v4-sweep", ("coupled", 0.119)),
    ("roadmap.v4_transformed_ms.kl0.119", "ms", "v4-sweep", ("transformed", 0.119)),
    ("roadmap.solve_v4_ms", "ms", "mathieu-curve", None),
    ("roadmap.table_wall_s", "s", "table-cli", ("wall", "100")),
    ("roadmap.table_scatlength_s", "s", "table-cli", ("scatlength", None)),
)


@dataclass
class Pass:
    labels: list
    durations: list[float]    # raw seconds per operation
    scale: float              # nominal / measured reference-loop time
    ok: list[bool]
    accuracy: dict[str, float]

    @property
    def rate(self) -> float:
        """Operations per nominal second."""
        return len(self.durations) / (sum(self.durations) * self.scale)

    @property
    def raw_rate(self) -> float:
        """Operations per raw (unscaled) second."""
        return len(self.durations) / sum(self.durations)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="qreflect benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import qreflect from this checkout's src/, never from elsewhere."""
    init = ROOT / "src" / "qreflect" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found: run from a qreflect checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import qreflect

    if Path(qreflect.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported qreflect from {qreflect.__file__}, not {init}")


def time_setup(args, scratch) -> tuple[float, float]:
    """Set-up time, nominal and raw medians over repeats in one fresh process.

    Each repeat's time is scaled by the ``definitions`` reference sampled right
    after it (see ``setup_probe.py`` and ``calibration.py``).
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), args.workload,
         str(args.seed), scratch, str(SETUP_REPEATS)],
        capture_output=True, text=True, timeout=120, check=True)
    pairs = [tuple(map(float, line.split())) for line in proc.stdout.splitlines()]
    scaled = statistics.median(setup / ref for setup, ref in pairs)
    return (scaled * calibration.DEFINITIONS_NOMINAL_S,
            statistics.median(setup for setup, _ in pairs))


def run_passes(workload, ops, seconds, tracer=None) -> list[Pass]:
    passes = []
    errors = 0
    with calibration.SpeedSampler() as speed:
        if tracer is not None:
            tracer.clock = speed.clock
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            results, durations = [], []
            first_sample = len(speed.samples)
            for i, (label, fn) in enumerate(ops):
                if tracer is not None:
                    tracer.op_id = f"{len(passes)}:{i}"
                t0 = speed.clock()
                try:
                    out = fn()
                except Exception:  # a raised exception is a failed operation
                    out = None
                    errors += 1
                    if errors <= 3:
                        print(f"operation {label} raised:\n{traceback.format_exc()}",
                              file=sys.stderr)
                durations.append(speed.clock() - t0)
                results.append((label, out))
            speed.sample()  # at least one sample in every pass
            scale = speed.scale(first_sample)
            ok, accuracy = workload.check(results)
            passes.append(Pass([label for label, _ in ops], durations, scale, ok, accuracy))
    if tracer is not None:
        tracer.op_id = None
    return passes


def throughput(passes) -> float:
    return statistics.median(p.rate for p in passes)


def tail(durations):
    """(percentile, seconds) of the highest listed percentile with >= 10 samples beyond."""
    xs = sorted(durations)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * len(xs))  # nearest rank
        if len(xs) - rank >= 10:
            return pct, xs[rank - 1]
    return None


def nominal(passes) -> list[float]:
    """Operation times in nominal seconds (see calibration.py)."""
    return [d * p.scale for p in passes for d in p.durations]


def end_to_end(passes, setup) -> tuple[dict, list[str]]:
    durations = nominal(passes)
    n_ops = len(durations)
    failed = sum(not ok for p in passes for ok in p.ok)
    metrics = {
        "setup_s": (setup[0], "s"),
        "ops_per_s": (throughput(passes), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    lines = [f"{name:<22} {value:<14.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"{'op_p50_ms':<22} {statistics.median(durations) * 1e3:<14.6g} ms")
    found = tail(durations)
    if found is None:
        lines.append(f"{'op_tail_ms':<22} {'omitted':<14} fewer than 10 of {n_ops} "
                     "operations beyond p75")
    else:
        pct, value = found
        beyond = n_ops - math.ceil(pct / 100.0 * n_ops)
        lines.append(f"{'op_tail_ms':<22} {value * 1e3:<14.6g} ms  (p{pct:g} of {n_ops} "
                     f"operations, {beyond} beyond)")
    for name in sorted({k for p in passes for k in p.accuracy}):
        worst = max(p.accuracy.get(name, 0.0) for p in passes)
        lines.append(f"{name:<22} {worst:<14.6g} 1")
    lines.append(f"{'fail_ratio':<22} {failed / n_ops:<14.6g} 1  ({failed} of {n_ops})")
    raw_rate = statistics.median(p.raw_rate for p in passes)
    raw_p50 = statistics.median(d for p in passes for d in p.durations) * 1e3
    lines.append(f"raw (unscaled): ops_per_s {raw_rate:.6g}  op_p50_ms {raw_p50:.6g}  "
                 f"setup_s {setup[1]:.6g}")
    return metrics, lines


def roadmap_rows(workload_name, passes) -> dict:
    by_label: dict = {}
    for p in passes:
        for label, d in zip(p.labels, p.durations):
            by_label.setdefault(label, []).append(d * p.scale)
    rows = {}
    for name, unit, where, label in ROADMAP_ROWS:
        value = 0.0  # the row lies in another workload
        if where == workload_name:
            value = statistics.median(nominal(passes) if label is None else by_label[label])
        rows[name] = (value * (1e3 if unit == "ms" else 1.0), unit)
    return rows


def traced_run(args, workload, ops) -> tuple[dict, list[Pass], list[str]]:
    half = args.seconds / 2.0
    plain = run_passes(workload, ops, half)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(workload, ops, half, tracer)
    finally:
        tracer.uninstall()
    tracer.counts["wkb.phase_span_rad"] = tracer.phase_span()
    scale = statistics.median(p.scale for p in traced)
    metrics = {name: (value * scale if unit == "s" else value, unit)
               for name, (value, unit) in tracer.layer_metrics(len(traced)).items()}
    untraced_rate, traced_rate = throughput(plain), throughput(traced)
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.raw_ops_per_s"] = (statistics.median(p.raw_rate for p in plain), "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (untraced_rate - traced_rate) / untraced_rate, "%")
    metrics.update(roadmap_rows(workload.name, plain))
    spans_path = OUT / f"spans-{workload.name}-s{args.seed}.json"
    tracer.write_spans(spans_path, {"workload": workload.name, "seed": args.seed,
                                    "traced_passes": len(traced),
                                    "time": "work clock: wall seconds minus calibration samples"})
    lines = [f"per-layer figures are per pass ({len(traced)} traced, {len(plain)} untraced), "
             f"times in nominal seconds (traced-pass scale {scale:.4f}); "
             f"spans in {spans_path.relative_to(ROOT)}"]
    lines += [f"{name:<40} {value:<14.6g} {unit}" for name, (value, unit) in metrics.items()]
    return metrics, plain + traced, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"input-{args.workload}-s{args.seed}-p{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, str(scratch))
    try:
        workload.write_inputs()
        setup = None if args.trace else time_setup(args, str(scratch))
        workload.setup()
        workload.prepare()
        ops = workload.ops()
        try:  # warm-up: lazy imports and first-call costs stay out of the timing
            ops[0][1]()
        except Exception:  # noqa: BLE001  (the timed passes count and report it)
            pass
        if args.trace:
            metrics, passes, lines = traced_run(args, workload, ops)
        else:
            passes = run_passes(workload, ops, args.seconds)
            metrics, lines = end_to_end(passes, setup)
    finally:
        for path in OUT.glob(scratch.name + "*"):
            if path.is_dir():  # the set-up probe's bytecode cache
                shutil.rmtree(path)
            else:
                path.unlink()

    attempted = sum(len(p.ok) for p in passes)
    failed = sum(not ok for p in passes for ok in p.ok)
    print(f"qreflect benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"inputs: {workload.describe()}")
    print(f"passes={len(passes)} operations={attempted} failed={failed}; pass scales "
          + " ".join(f"{p.scale:.3f}" for p in passes))
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
