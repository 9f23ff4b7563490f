"""swapbound benchmark: bound every pair of a workload, check it, print metrics.

    python3 perfbench/run.py --workload manifest --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``. ``--trace 0`` runs three fresh worker processes one after
another; each sets up and times passes over the workload for a third of
``--seconds``, and the end-to-end metrics pool them. ``--trace 1`` sets up
once, spends half the time on untraced passes and half on traced ones, and
prints the per-layer metrics. Every pass's outputs are checked. Stdout ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. Details, per-pass
samples and the run's context go to ``perfbench/out/``. See README.md.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from speed import SpeedProbe
from workloads import WORKLOADS

# One BLAS thread: the pipeline's matrices are tiny, and threads only add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKERS = 3  # processes per end-to-end run; each sets up once and times passes
MIN_WORKER_PASSES = 1  # per worker, whatever its share of --seconds
MIN_TRACE_PASSES = 2  # of each kind in a --trace 1 run
STOP_AFTER_S = 120  # a process starts no new pass after this...
RUN_LIMIT_S = 170  # ...and the workers must end by this, so that a run ends within 180 s

END_TO_END = {"wall_s": "s", "slowest_pair_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "circuits.parse_ms": "ms",
    "assignment.ms": "ms",
    "assignment.vf2_ms": "ms",
    "assignment.vf2_hit_ratio": "ratio",
    "assignment.subsets": "count",
    "assignment.subsets_ms": "ms",
    "assignment.canonical_calls": "count",
    "assignment.canonical_ms": "ms",
    "assignment.ged_calls": "count",
    "assignment.ged_ms": "ms",
    "assignment.dense_ms": "ms",
    "uncomplexity.sweep_ms": "ms",
    "uncomplexity.runs": "count",
    "uncomplexity.iterations": "count",
    "uncomplexity.us_per_iteration": "us",
    "uncomplexity.forced_swaps": "count",
    "uncomplexity.stalled_runs": "count",
    "uncomplexity.useful_runs_ratio": "ratio",
    "spectral.laplacian_calls": "count",
    "spectral.cache_hit_ratio": "ratio",
    "spectral.eigvalsh_calls": "count",
    "spectral.eigvalsh_matrices": "count",
    "spectral.eigvalsh_ms": "ms",
    "oracle.ms": "ms",
    "oracle.calls": "count",
    "oracle.skipped_guard": "count",
    "circuits.self_ms": "ms",
    "assignment.self_ms": "ms",
    "uncomplexity.self_ms": "ms",
    "spectral.self_ms": "ms",
    "oracle.self_ms": "ms",
    "bench.self_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def require_source():
    if not (SRC / "swapbound" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'swapbound'} not found; run from a swapbound source checkout")


def load_library():
    """Import swapbound from this checkout's src/, never from anywhere else."""
    package = SRC / "swapbound"
    require_source()
    sys.path.insert(0, str(SRC))
    import swapbound

    if Path(swapbound.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported swapbound from {swapbound.__file__}, not {package}")


class Ledger:
    """Counts pair runs and the ones that raised, stalled or failed a check."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.timed_out: set[str] = set()

    def check(self, runs):
        from pipeline import check_outcome

        for run in runs:
            self.attempted += 1
            if run.error:
                issues = [run.error]
                if run.error.startswith("PairTimeout"):
                    self.timed_out.add(run.pair_id)
            elif run.pair_id not in self.expected:
                issues = ["no recorded outputs for this pair and seed"]
            else:
                issues = check_outcome(run.outcome, self.expected[run.pair_id])
            if issues:
                self.failed += 1
                for issue in issues:
                    message = f"{run.pair_id}: {issue}"
                    if message not in self.problems:
                        self.problems.append(message)


def measure(pairs, api, ledger, probe, seconds, min_passes, tracer=None):
    """Timed passes until ``seconds`` have gone and ``min_passes`` are done.

    Times are normalised to the reference speed (see speed.py); the raw
    wall times are kept next to them.
    """
    from pipeline import run_pass
    from swapbound.spectral import laplacian_spectrum
    from tracing import pass_metrics

    samples = []
    begin = time.perf_counter()
    while len(samples) < min_passes or time.perf_counter() - begin < seconds:
        if samples and time.perf_counter() - _T0 > STOP_AFTER_S:
            break
        if tracer:
            tracer.clear()
        with tracer.patched() if tracer else contextlib.nullcontext():
            start, end, runs = run_pass(pairs, api, tracer, frozenset(ledger.timed_out))
        factor = probe.factor(start, end)
        pair_s = {r.pair_id: probe.normalised(r.start, r.end) for r in runs}
        sample = {
            "wall_s": probe.normalised(start, end, factor),
            "slowest_pair_s": max(pair_s.values()),
            "raw_wall_s": end - start,
            "speed_factor": factor,
            "pair_s": pair_s,
        }
        if tracer:
            info = laplacian_spectrum.cache_info()  # the pass began with cache_clear()
            layers = pass_metrics(tracer.spans, tracer.counts, info.hits, info.misses)
            # Span times are raw and include the probes: scale them to the pass's
            # normalised time, so that the layers add up to it.
            scale = sample["wall_s"] / (end - start)
            for name in layers:
                if PER_LAYER[name] in ("ms", "us"):
                    layers[name] *= scale
            layers["oracle.skipped_guard"] = sum(
                1 for r in runs if r.outcome is not None and r.outcome.oracle is None
            )
            layers["bench.self_ms"] = sample["wall_s"] * 1000.0 - sum(
                layers[k] for k in layers if k.endswith(".self_ms")
            )
            sample["layers"] = layers
        ledger.check(runs)
        samples.append(sample)
    return samples


def run_workers(args) -> tuple[list[dict], list[str]]:
    """Run ``WORKERS`` fresh processes one after another; return their reports."""
    reports, problems = [], []
    command = [sys.executable, str(HERE / "run.py"), "--worker", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS)]
    for _ in range(WORKERS):
        left = max(5.0, RUN_LIMIT_S - (time.perf_counter() - _T0))
        try:
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=left)
        except subprocess.TimeoutExpired:
            problems.append(f"worker took over {left:.0f} s")
            continue
        try:
            reports.append(json.loads(done.stdout.strip().splitlines()[-1]))
        except (IndexError, json.JSONDecodeError):
            problems.append(f"worker failed ({done.returncode}): {done.stderr[-500:]}")
    return reports, problems


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_identity() -> dict:
    """Hash and line count of src/swapbound/*.py (the count is metadata, not gated)."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "swapbound").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_sha256": digest.hexdigest(), "src_lines": lines}


def context(args) -> dict:
    """Machine, versions and source identity, recorded with every result."""
    import numpy
    from workloads import variant_of

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "relabelling": variant_of(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": _git_commit(),
        **source_identity(),
    }


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    if args.trace == 0 and not args.worker:
        return end_to_end(args)
    probe = SpeedProbe()
    probe.start()
    try:
        return in_process(args, probe)
    finally:
        probe.stop()


def set_up(args, probe):
    """Import, make the inputs, run the untimed warm-up pass; time all of it."""
    load_library()
    from pipeline import plain_api, run_pass
    from workloads import variant_of, variant_pairs

    variant = variant_of(args.workload, args.seed)
    pairs = variant_pairs(args.workload, variant, ROOT)
    recorded = json.loads((HERE / "expected.json").read_text())["outputs"]
    ledger = Ledger(recorded.get(args.workload, {}).get(str(variant), {}))
    api = plain_api()
    _, _, warm_runs = run_pass(pairs, api)  # lazy LAPACK set-up, first imports
    setup_s = probe.normalised(_T0, time.perf_counter())
    ledger.check(warm_runs)
    return pairs, api, ledger, setup_s


def in_process(args, probe) -> int:
    """A worker of an end-to-end run, or a whole traced run."""
    pairs, api, ledger, setup_s = set_up(args, probe)
    from tracing import Tracer

    if args.worker:
        samples = measure(pairs, api, ledger, probe, args.seconds, MIN_WORKER_PASSES)
        print(json.dumps({
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "problems": ledger.problems,
            "per_pass": samples,
        }))
        return 0

    plain = measure(pairs, api, ledger, probe, args.seconds / 2, MIN_TRACE_PASSES)
    tracer = Tracer()
    traced = measure(pairs, tracer.wrap_api(api), ledger, probe, args.seconds / 2,
                     MIN_TRACE_PASSES, tracer)
    layers = [s["layers"] for s in traced]
    metrics = {name: statistics.median(l[name] for l in layers)
               for name in PER_LAYER if name != "trace.overhead_frac"}
    metrics["trace.overhead_frac"] = _median(traced, "wall_s") / _median(plain, "wall_s") - 1.0
    record = {
        "context": context(args),
        "samples": {"untraced_passes": len(plain), "traced_passes": len(traced)},
        "setup_s": setup_s,
        "per_pass": {"untraced": plain, "traced": traced},
    }
    OUT.mkdir(exist_ok=True)  # the last traced pass's spans, times in us from its start
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    spans = [[n, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p, pair]
             for n, s, e, p, pair in tracer.spans]
    (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
        {"context": record["context"], "fields": ["name", "start_us", "end_us", "parent", "pair"],
         "spans": spans}, separators=(",", ":")))
    return report(args, record, metrics, PER_LAYER, ledger.attempted, ledger.failed,
                  ledger.problems)


def end_to_end(args) -> int:
    """Untraced run: ``WORKERS`` processes each set up and time a share of the passes.

    Fresh processes differ by a few percent in speed (memory layout, hash
    seeds), so pooling the passes of several makes run medians steadier.
    """
    reports, problems = run_workers(args)
    if not reports:
        sys.exit("error: no worker finished\n" + "\n".join(problems))
    samples = [s for r in reports for s in r["per_pass"]]
    setups = [r["setup_s"] for r in reports]
    metrics = {
        "wall_s": _median(samples, "wall_s"),
        "slowest_pair_s": _median(samples, "slowest_pair_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
    }
    for r in reports:
        problems += [p for p in r["problems"] if p not in problems]
    record = {
        "context": context(args),
        "samples": {"workers": len(reports), "passes": len(samples), "setups": len(setups)},
        "setup_s": setups,
        "per_pass": samples,
    }
    print(f"raw_wall_s {_median(samples, 'raw_wall_s'):.6g} s (not normalised, not gated)")
    return report(args, record, metrics, END_TO_END, sum(r["attempted"] for r in reports),
                  sum(r["failed"] for r in reports), problems)


def report(args, record, metrics, units, attempted, failed, problems) -> int:
    """Write the result file, print the summary and, last, the result JSON line."""
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record.update(result=result, problems=problems)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print(f"workload={args.workload} seed={args.seed} samples={json.dumps(record['samples'])}")
    print(f"failed_frac {failed / max(attempted, 1):.6g} ratio ({failed} of {attempted} pair runs)")
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
