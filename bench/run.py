#!/usr/bin/env python3
"""Benchmark of finspec: workloads axioms, lift and cli.

    python3 bench/run.py --workload axioms --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --cases --seed 1      # the case make-up for a seed
    python3 bench/run.py --selftest            # the checks catch perturbed values

Run from the root of a checkout.  The measuring process is started here
with one BLAS/OpenMP thread, fixed before numpy is imported; finspec is
imported from ./src.  An untraced run first sets up in two more processes
of their own, and reports the median set-up time of the three.  See
bench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 175
EXTRA_SETUPS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env():
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _worker(args, deadline, capture=False):
    """Run worker.py to its end; (exit code, captured stdout)."""
    env = _env()
    env["BENCH_T0"] = repr(time.monotonic())
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + args, env=env, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        print(f"error: benchmark process exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3, None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    deadline = time.monotonic() + TIMEOUT_S
    if not (ROOT / "src" / "finspec" / "__init__.py").is_file():
        print(f"error: no finspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    argv = sys.argv[1:]
    ap = argparse.ArgumentParser(add_help=False)
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--cases", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    known, _ = ap.parse_known_args(argv)
    if known.workload and known.trace == "0" and not (known.cases or known.selftest):
        samples = []
        for _ in range(EXTRA_SETUPS):
            rc, out = _worker(["--workload", known.workload, "--seed", known.seed, "--setup-only"],
                              deadline, capture=True)
            if rc != 0:
                return rc
            samples.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
        argv = argv + ["--setup-samples", ",".join(repr(s) for s in samples)]
    return _worker(argv, deadline)[0]


if __name__ == "__main__":
    sys.exit(main())
