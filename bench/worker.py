"""The benchmark process: set up, warm up, measure, check, report.

Started by run.py with the BLAS thread count fixed; see README.md.  The
last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

import os
import time

T_START = float(os.environ.get("BENCH_T0", time.monotonic()))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
from cases import describe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

T_IMPORTED = time.monotonic()
ROOT = Path(__file__).resolve().parent.parent


def run_pass(wl, inputs):
    """One untimed pass; {label: output} of the ops that did not fail."""
    outputs = {}
    for label, op in wl.ops(inputs):
        try:
            outputs[label] = op()
        except Exception:
            pass
    return outputs


def measure(wl, inputs, ref, seconds, tracer):
    """Whole passes until `seconds` have elapsed; with a tracer, every other
    pass is traced and the passes between give the untraced comparison."""
    lat, traced, plain = [], [], []
    attempted = failed = 0
    mismatched, reported = [], set()
    start = perf_counter()
    passes = 0
    while True:
        on = tracer is not None and passes % 2 == 0
        if on:
            tracer.install()
        try:
            for label, op in wl.ops(inputs):
                if tracer is not None:
                    tracer.op = attempted
                t0 = perf_counter()
                try:
                    out, exc = op(), None
                except Exception as e:
                    exc = e
                dt = perf_counter() - t0
                attempted += 1
                lat.append(dt)
                (traced if on else plain).append(dt)
                if exc is not None:
                    failed += 1
                    if label not in reported:
                        reported.add(label)
                        print(f"op {label} failed:\n" + "".join(traceback.format_exception(exc)), file=sys.stderr)
                elif label in ref and not wl.agrees(out, ref[label]):
                    mismatched.append(label)
        finally:
            if on:
                tracer.uninstall()
        passes += 1
        if perf_counter() - start >= seconds and (tracer is None or passes >= 2):
            break
    return {"seconds": perf_counter() - start, "lat": lat, "traced": traced, "plain": plain,
            "attempted": attempted, "failed": failed, "mismatched": mismatched, "passes": passes}


@contextlib.contextmanager
def scratch_dir(tag):
    """A fresh directory under .bench_work/, removed with its parent when empty."""
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def setup(wl):
    """Seeded inputs and the warm-up pass, whose outputs the checks read;
    also the seconds from process start to the end of set-up."""
    inputs = wl.generate()
    ref = run_pass(wl, inputs)
    return inputs, ref, time.monotonic() - T_START


def run(workload, seed, seconds, trace, setup_samples):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with scratch_dir(workload) as work:
        wl = WORKLOADS[workload](seed, "full", work)
        inputs, ref, own_setup = setup(wl)
        setup_s = statistics.median([own_setup] + setup_samples)

        check_failures = wl.failures(inputs, ref)
        for f in check_failures:
            print(f"check failed: {f}", file=sys.stderr)

        tracer = Tracer() if trace else None
        m = measure(wl, inputs, ref, seconds, tracer)
    for label in sorted(set(m["mismatched"])):
        print(f"op {label}: output differs from the checked warm-up output", file=sys.stderr)
    correct = not check_failures and not m["mismatched"]

    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.per_op(len(m["traced"])).items()}
        p50_traced, p50_plain = statistics.median(m["traced"]), statistics.median(m["plain"])
        metrics["trace.op_s.p50"] = {"value": p50_traced, "unit": "s"}
        metrics["trace.overhead"] = {"value": p50_traced / p50_plain - 1.0, "unit": "ratio"}
        metrics["trace.top_share"] = {"value": tracer.top_level / sum(m["traced"]), "unit": "ratio"}
        tracer.write(out_dir / f"spans-{workload}-seed{seed}.json")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": m["attempted"] / m["seconds"], "unit": "1/s"},
            "op_s.p50": {"value": statistics.median(m["lat"]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": m["attempted"], "failed": m["failed"], "metrics": metrics}
    detail = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace, passes=m["passes"],
                  latencies=m["lat"], setup_samples=[own_setup] + setup_samples,
                  imports_s=T_IMPORTED - T_START, check_failures=check_failures,
                  blas_threads=os.environ.get("OPENBLAS_NUM_THREADS"))
    with open(out_dir / f"result-{workload}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(f"{workload} seed {seed}: {m['attempted']} ops in {m['passes']} passes, "
          f"{m['failed']} failed, setup {setup_s:.3f} s, p50 {statistics.median(m['lat']):.4f} s")
    print(json.dumps(result))
    return 0


def selftest():
    """Each workload at a tiny size: the checks pass on the program's outputs
    and each named check fails when one reported value is perturbed."""
    bad = 0
    for name, cls in WORKLOADS.items():
        with scratch_dir(f"selftest-{name}") as work:
            wl = cls(1, "tiny", work)
            inputs, ref, _ = setup(wl)
            missing = [label for label, _ in wl.ops(inputs)
                       if label not in ref and not label.startswith("malformed")]
            items = wl.check_items(inputs, ref)
        fails = [f for it in items for f in checks.run_checks(wl.checks, it)]
        ok = not missing and not fails
        bad += not ok
        print(f"{name}: tiny pass {'ok' if ok else 'FAILED'} {missing} {fails[:3]}")
        if set(wl.PERTURB) != set(wl.checks):
            print(f"{name}: perturbations do not cover every check")
            bad += 1
        for check, perturb in wl.PERTURB.items():
            mutated = copy.deepcopy(items)
            perturb(mutated)
            caught = any(f.startswith(check + ":") for it in mutated for f in checks.run_checks(wl.checks, it))
            bad += not caught
            print(f"{name}: '{check}' {'fails' if caught else 'DOES NOT FAIL'} on a perturbed value")
    print("selftest", "passed" if not bad else f"failed ({bad})")
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description="finspec benchmark (see bench/README.md)")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cases", action="store_true", help="print the case make-up for --seed and exit")
    ap.add_argument("--selftest", action="store_true", help="run the checks' self-test and exit")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up (imports, inputs, warm-up pass), print setup_s and exit")
    ap.add_argument("--setup-samples", default="",
                    help="setup_s of earlier --setup-only processes; setup_s is the median with this one")
    args = ap.parse_args(argv)
    if args.cases:
        print(describe(args.seed))
        return 0
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.setup_only:
        with scratch_dir(args.workload) as work:
            print(json.dumps({"setup_s": setup(WORKLOADS[args.workload](args.seed, "full", work))[2]}))
        return 0
    samples = [float(x) for x in args.setup_samples.split(",") if x]
    return run(args.workload, args.seed, args.seconds, bool(args.trace), samples)


if __name__ == "__main__":
    sys.exit(main())
