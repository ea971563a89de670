"""eqvec benchmark: one workload per run, one JSON result on the last line.

    python3 bench/run.py --workload train-p200 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table
    python3 bench/run.py --selftest                   # seconds-long smoke test

Run it from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics from a traced run.  Metric names,
units and directions are in ``BENCHMARK.json``; what each workload is for
and which end-to-end metric each per-layer metric should move are in
``bench/README.md``.  Full results (environment, sample counts, errors)
and, for traced runs, every span go to ``bench/out/``.
"""

import argparse
import hashlib
import json
import logging
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_eqvec():
    """Import eqvec from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "eqvec", "__init__.py")):
        sys.exit(f"error: no eqvec sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import eqvec

    if not os.path.abspath(eqvec.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: eqvec was imported from {eqvec.__file__}, not from {SRC}")
    # Hostile documents make extraction warn once each; keep them off stderr.
    log = logging.getLogger("eqvec")
    log.addHandler(logging.NullHandler())
    log.propagate = False
    return eqvec


def git_commit():
    """HEAD of the checkout, read without running git; None outside a clone."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def source_sha256() -> str:
    """Digest of every file under src/, so results name the code they measured."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__" and not d.endswith(".egg-info"))
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment(seed: int, trace: bool) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": source_sha256(),
        "seed": seed,
        "trace": trace,
    }


def declared_metrics(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Run one workload in this process and return its full result."""
    import clock
    import spans
    import workloads

    tracer = spans.Tracer() if trace else None
    host = clock.HostClock()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    run = workloads.Run(seed, seconds, sizes or workloads.Sizes(), tracer, host, workdir)
    metrics, samples = {}, {}
    if tracer is not None:
        tracer.install()
    host.start()
    try:
        metrics, samples = workloads.WORKLOADS[name](run)
    except workloads.Abort as exc:
        run.fail(f"run abandoned: {exc}")
    finally:
        host.stop()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    samples["host_slowdown"] = host.summary()
    if tracer is not None:
        metrics = spans.layer_metrics(tracer.spans, host, run.overhead_frac)
        spans_path = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl")
        tracer.write(spans_path)
        samples["spans"] = len(tracer.spans)
        samples["spans_file"] = os.path.relpath(spans_path, ROOT)
    units = declared_metrics(trace)
    missing = [m for m in units if not _is_number(metrics.get(m))]
    if missing:
        run.errors.append(f"metrics not measured: {missing}")
    return {
        "workload": name,
        "environment": environment(seed, trace),
        "correct": run.failed == 0 and not missing,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_ratio": run.failed / max(run.attempted, 1),
        "metrics": {m: {"value": metrics.get(m), "unit": u} for m, u in units.items()},
        "samples": samples,
        "errors": run.errors,
    }


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def contract_line(result: dict) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({k: result[k] for k in keys})


def report(result: dict):
    print(f"workload {result['workload']}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']!s:>24} {m['unit']}")
    print(f"  {'fail_ratio':36s} {result['fail_ratio']:>24} fraction "
          f"({result['failed']} of {result['attempted']} operations)")
    print("samples " + json.dumps(result["samples"], sort_keys=True))
    for e in result["errors"]:
        print("error: " + e.rstrip(), file=sys.stderr)


def main_one(args) -> int:
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
    report(result)
    print(contract_line(result))
    return 0


def main_all(args) -> int:
    """Every workload in its own process (so peak RSS is its own), one
    after the other; prints one combined table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main_selftest() -> int:
    """Every workload on tiny inputs, untraced and traced: every declared
    metric must be emitted and nothing may fail."""
    import workloads

    problems = []
    for name in WORKLOAD_NAMES:
        for trace in (False, True):
            t0 = time.perf_counter()
            res = run_workload(name, seed=1, seconds=0.5, trace=trace, sizes=workloads.SMALL)
            missing = [m for m, v in res["metrics"].items() if not _is_number(v["value"])]
            status = "ok" if res["correct"] and res["failed"] == 0 and not missing else "FAIL"
            print(f"selftest {name} trace={int(trace)}: {status} "
                  f"({res['attempted']} operations, fail_ratio {res['fail_ratio']}, "
                  f"{len(res['metrics'])} metrics, {time.perf_counter() - t0:.1f}s)")
            if status != "ok":
                problems.append((name, trace, missing, res["errors"]))
    for p in problems:
        print(f"  {p}", file=sys.stderr)
    return 1 if problems else 0


WORKLOAD_NAMES = ("train-p200", "ingest-p2000", "query-p200")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    if not args.selftest and args.workload is None:
        p.error("--workload or --selftest is required")
    import_eqvec()
    if args.selftest:
        return main_selftest()
    if args.workload == "all":
        return main_all(args)
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())
