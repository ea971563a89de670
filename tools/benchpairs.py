"""Before/after benchmark pairs: a base revision against this checkout, alternating.

    python3 tools/benchpairs.py --base HEAD~1 --pairs 10 --label mychange
    python3 tools/benchpairs.py --workloads ingest-p2000 --pairs 5 --seconds 20 --label mychange

Extracts ``--base`` with ``git archive REV | tar -x`` into a temporary
directory (local, and ``.git`` is left as it is), then copies this
checkout's ``bench/`` and ``BENCHMARK.json`` into it, so that both sides
are measured by the same instrument.  Pair i runs seed i + 1 of each
workload as ``python3 bench/run.py --workload W --seed S --trace 0`` in
the base tree and in this checkout, one after the other; the base goes
first at odd seeds and the change at even ones.  Each run's result JSON is
read from its tree's ``bench/out/``.  The temporary directory is removed
on exit, on failure too.

Writes ``BENCH_<label>.json`` (``--out`` to put it elsewhere) holding both
commits and the ``src/`` sha256 of each side, whether this checkout has
uncommitted changes under ``src/``, ``bench/`` or ``BENCHMARK.json``, the
environment, and per workload and end-to-end metric each side's median
and IQR, the signed relative change of each pair (change over base, minus
1), the pairs that improved, the metric's bound from ``BENCHMARK.json``
and whether the change of the medians passes it; ``correct`` and
``failed`` of every run; and the runs whose sampled host slowdown
(``samples.host_slowdown.p50``) lies far outside the workload's runs,
which are flagged, not dropped.  It prints the same as a table.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("query-p200", "train-p200", "ingest-p2000")
FENCE = 3.0  # a run is flagged outside quartile -/+ FENCE x IQR of its workload's host slowdowns
IQR_FLOOR = 0.02  # of the median slowdown, so that identical runs do not flag every other one
MEASURED = ("src", "bench", "BENCHMARK.json")  # what a run reads of this checkout


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _relative(change: float, base: float) -> float:
    if base == 0:
        return 0.0 if change == 0 else float("inf") if change > 0 else float("-inf")
    return change / base - 1.0


def _summary(runs: list) -> dict:
    return {"correct": bool(runs and all(r.get("correct") for r in runs)),
            "failed": sum(r.get("failed") or 0 for r in runs), "runs": len(runs)}


def _slowdown(result: dict) -> float | None:
    return result.get("samples", {}).get("host_slowdown", {}).get("p50")


def _verdict(result: dict) -> dict:
    return {"correct": result.get("correct", False), "failed": result.get("failed"),
            "attempted": result.get("attempted"), "host_slowdown_p50": _slowdown(result)}


def aggregate(spec: dict, pairs: dict) -> dict:
    """The per-workload report of ``pairs``, ``{workload: [(base result,
    change result), ...]}`` as ``bench/run.py`` writes them (a run that
    left no result is ``{}``), against ``spec``, ``BENCHMARK.json``."""
    out = {}
    for workload, runs in pairs.items():
        metrics = {}
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            value = lambda r: r.get("metrics", {}).get(name, {}).get("value")  # noqa: E731
            both = [(value(b), value(c)) for b, c in runs]
            both = [(b, c) for b, c in both if isinstance(b, (int, float)) and isinstance(c, (int, float))]
            if not both:
                continue
            sides = {}
            for side, vals in (("base", [b for b, _ in both]), ("change", [c for _, c in both])):
                q1, median, q3 = _quartiles(vals)
                sides[side] = {"median": median, "iqr": q3 - q1}
            changes = [_relative(c, b) for b, c in both]
            change = _relative(sides["change"]["median"], sides["base"]["median"])
            worse = change if lower else -change
            metrics[name] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"], **sides,
                "pair_changes": changes,
                "improved": sum((c < 0) if lower else (c > 0) for c in changes),
                "pairs": len(changes),
                "median_change": change,
                "within_bound": worse <= m["bound"],
            }
        slow = [(i, side, _slowdown(r)) for i, pair in enumerate(runs) for side, r in zip(("base", "change"), pair)]
        known = [s for _, _, s in slow if s is not None]
        flagged = []
        if len(known) >= 4:
            q1, median, q3 = _quartiles(known)
            spread = FENCE * max(q3 - q1, IQR_FLOOR * median)
            flagged = [{"pair": i, "side": side, "host_slowdown_p50": s} for i, side, s in slow
                       if s is not None and not q1 - spread <= s <= q3 + spread]
        out[workload] = {
            "metrics": metrics,
            "base": _summary([b for b, _ in runs]),
            "change": _summary([c for _, c in runs]),
            "runs": [{"pair": i, "base": _verdict(b), "change": _verdict(c)} for i, (b, c) in enumerate(runs)],
            "flagged": flagged,
        }
    return out


def table(workloads: dict) -> str:
    lines = []
    for workload, w in workloads.items():
        lines.append(f"{workload}: base correct={w['base']['correct']} failed={w['base']['failed']}, "
                     f"change correct={w['change']['correct']} failed={w['change']['failed']}, "
                     f"{len(w['flagged'])} runs flagged")
        lines.append(f"  {'metric':22s} {'base median':>14s} {'IQR':>10s} {'change median':>14s} {'IQR':>10s} "
                     f"{'change':>8s} {'improved':>9s} {'bound':>6s} verdict")
        for name, m in w["metrics"].items():
            lines.append(
                f"  {name:22s} {m['base']['median']:14.6g} {m['base']['iqr']:10.3g} {m['change']['median']:14.6g} "
                f"{m['change']['iqr']:10.3g} {100 * m['median_change']:+7.2f}% {m['improved']:>4d} of {m['pairs']:<2d} "
                f"{m['bound']:6.2f} {'ok' if m['within_bound'] else 'WORSE'}")
    return "\n".join(lines)


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout.strip()


def uncommitted_changes() -> bool:
    """Whether this checkout differs from its commit under the paths a run
    measures (``MEASURED``); an edit elsewhere changes no result."""
    return bool(_git("status", "--porcelain", "--", *MEASURED))


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    path = tree / "bench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    path.unlink(missing_ok=True)  # a run that writes none must not read an earlier one's
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL)
    if proc.returncode or not path.is_file():
        print(f"warning: {workload} seed {seed} in {tree} exited {proc.returncode}", file=sys.stderr)
        return {}
    return json.loads(path.read_text())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", default="HEAD~1", help="the revision to measure against (default HEAD~1)")
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0, help="each run's --seconds")
    p.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    p.add_argument("--out", help="the output file (default BENCH_<label>.json at the repository root)")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base_commit = _git("rev-parse", args.base)
    pairs = {w: [] for w in args.workloads}
    with tempfile.TemporaryDirectory(prefix="benchpairs-") as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        archive = subprocess.run(["git", "archive", base_commit], cwd=ROOT, check=True, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        shutil.rmtree(base / "bench", ignore_errors=True)
        shutil.copytree(ROOT / "bench", base / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", base / "BENCHMARK.json")
        for i in range(args.pairs):
            seed = i + 1
            for w in args.workloads:
                order = (("base", base), ("change", ROOT)) if seed % 2 else (("change", ROOT), ("base", base))
                got = {side: _run(tree, w, seed, args.seconds) for side, tree in order}
                pairs[w].append((got["base"], got["change"]))
                print(f"pair {seed} of {args.pairs}: {w} done", file=sys.stderr)
    results = [r for runs in pairs.values() for pair in runs for r in pair if r]
    env = dict(results[0]["environment"]) if results else {}
    for key in ("git_commit", "src_sha256", "seed", "trace"):
        env.pop(key, None)
    src = lambda side: sorted({r["environment"]["src_sha256"] for runs in pairs.values()  # noqa: E731
                               for pair in runs for r in [pair[side]] if r})
    report = {
        "label": args.label,
        "base": {"rev": args.base, "commit": base_commit, "src_sha256": src(0)},
        "change": {"commit": _git("rev-parse", "HEAD"), "uncommitted_changes": uncommitted_changes(),
                   "src_sha256": src(1)},
        "pairs": args.pairs, "seconds": args.seconds, "environment": env,
        "workloads": aggregate(spec, pairs),
    }
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(table(report["workloads"]))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
