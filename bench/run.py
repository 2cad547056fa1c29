"""Run one workload of the uncond benchmark and print its metrics.

    python3 bench/run.py --workload {exact,search,decide} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: the package is imported from ``src/``.
The run measures whole rounds of operations, one at a time from a single
thread, until ``--seconds`` have passed, checks every output, and prints as
its last stdout line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` each round runs
twice, untraced and traced, and the metrics are the per-layer ones, with the
tracing overhead.  Results and spans are also written under ``.bench_out/``.
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

# Operations run from a single thread: a BLAS thread pool on a 2-vCPU guest
# made the Sylvester Gram products 2-10x slower whenever the host was busy.
# Set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from calibration import calibrate, host_factor  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
#: Fresh interpreters timed per run for setup_s (after one discarded warm-up).
SETUP_PROBES = 5


def import_uncond():
    src = ROOT / "src"
    if not (src / "uncond" / "__init__.py").is_file():
        sys.exit(f"bench: no uncond package under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import uncond
    import uncond.cli  # noqa: F401  (what every CLI call imports)

    if Path(uncond.__file__).resolve().parent != (src / "uncond").resolve():
        sys.exit(f"bench: imported uncond from {uncond.__file__}, not from {src}")
    return uncond


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time from a fresh interpreter through ``import uncond`` to built inputs,
    and the host factor of the interpreter kernel timed between the probes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    times, cal = [], []
    for i in range(SETUP_PROBES + 1):
        cal += [calibrate("python") for _ in range(20)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times), host_factor({"python": cal})


class Tally:
    def __init__(self, kernels):
        self.times: list[tuple[str, float]] = []
        self.quotients: list[float] = []
        self.attempted = self.failed = 0
        self.crashes: list[str] = []
        self.errors: list[str] = []  # wrong outputs
        self.calibration = {k: [] for k in kernels}

    def run(self, ops, check_error, tracer=None):
        """Time each op alone, then check its output; returns the summed op time."""
        total = 0.0
        for op in ops:
            self.attempted += 1
            if tracer is not None:
                tracer.install()
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception:
                self.failed += 1
                self.crashes.append(f"{op.name} raised:\n{traceback.format_exc()}")
                continue
            finally:
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.uninstall()
            self.times.append((op.name, t1 - t0))
            total += t1 - t0
            try:
                q = op.check(out)
            except check_error as exc:
                self.errors.append(f"{op.name}: {exc}")
            else:
                if q is not None:
                    self.quotients.append(q)
            for kind, samples in self.calibration.items():
                samples.append(calibrate(kind))
        return total


def tail_percentile(values):
    """The highest of p99/p90 with at least ten samples beyond it, or None."""
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    U = import_uncond()
    from references import CheckError
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.setup_probe:
        WORKLOADS[args.workload](U, args.seed).round(0)
        print(repr(time.monotonic()))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_raw_s, setup_host = measure_setup(args.workload, args.seed) if not args.trace else (None, None)
    workload = WORKLOADS[args.workload](U, args.seed)
    tally = Tally(workload.CALIBRATION)
    try:
        workload.preflight()
    except CheckError as exc:
        tally.errors.append(f"preflight: {exc}")
    except Exception:
        tally.errors.append(f"preflight raised:\n{traceback.format_exc()}")

    # the harness's own objects stay out of the program's garbage collections
    gc.collect()
    gc.freeze()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(U)
    plain_s = traced_s = 0.0
    rounds = 0
    start = time.monotonic()
    while rounds == 0 or time.monotonic() - start < args.seconds:
        if tracer is None:
            tally.run(workload.round(rounds), CheckError)
        else:
            # paired passes over the same inputs, alternating which goes first
            for traced in ((False, True) if rounds % 2 == 0 else (True, False)):
                t = tally.run(workload.round(rounds), CheckError, tracer if traced else None)
                if traced:
                    traced_s += t
                else:
                    plain_s += t
        rounds += 1
    elapsed = time.monotonic() - start

    for err in tally.crashes + tally.errors:
        print(f"bench: {err}", file=sys.stderr)
    op_s = [t for _, t in tally.times]
    if not op_s or not tally.quotients:
        sys.exit("bench: no operation completed, so there is nothing to measure")
    by_class: dict[str, list[float]] = {}
    for name, t in tally.times:
        by_class.setdefault(name, []).append(t)
    host = host_factor(tally.calibration)
    if tracer is None:
        measured = {
            "ops_per_s": len(op_s) / sum(op_s) / host,
            "op_p50_ms": statistics.median(op_s) * 1e3 * host,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_raw_s * setup_host,
            "quotient_mean": statistics.fmean(tally.quotients),
        }
        section = "end_to_end"
    else:
        measured = tracer.per_layer(rounds)
        measured["trace.overhead"] = traced_s / plain_s - 1.0
        section = "per_layer"
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in spec[section]}

    tail = tail_percentile(op_s)
    summary = (
        f"{args.workload} seed={args.seed} trace={args.trace}: {rounds} rounds in {elapsed:.1f} s, "
        f"{len(op_s)} ops timed; raw wall times: ops/s {len(op_s) / sum(op_s):.3f}, p50 {statistics.median(op_s) * 1e3:.2f} ms"
    )
    if tail:
        summary += f", p{tail[0]} {tail[1] * 1e3:.2f} ms over {len(op_s)} samples"
    summary += f"; host speed factor {host:.4f}"
    if setup_raw_s is not None:
        summary += f", setup {setup_raw_s:.4f} s raw at factor {setup_host:.4f}"
    print(summary)
    print("per-class median ms: " + ", ".join(f"{k}={statistics.median(v) * 1e3:.2f}" for k, v in by_class.items()))
    result = {"correct": not tally.errors, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = {"rounds": rounds, "elapsed_s": elapsed, "host_speed_factor": host, "setup_raw_s": setup_raw_s,
             "ops_per_s_raw": len(op_s) / sum(op_s), "calibration_median_s": {k: statistics.median(v) for k, v in tally.calibration.items()}, "op_p50_ms_raw": statistics.median(op_s) * 1e3, "class_median_ms": {k: statistics.median(v) * 1e3 for k, v in by_class.items()},
             "errors": tally.crashes + tally.errors}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({**result, **extra}, indent=1) + "\n")
    if tracer is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
