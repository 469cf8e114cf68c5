"""The antipal benchmark.

    python3 perfbench/run.py --workload {scan,deciders,census,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
jobs untraced and then traced, serially, and prints the per-layer metrics
and the tracing overhead.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A JSON record of the run (the
environment, the input digest and every figure) goes to ``.perfbench_out/``,
and in a traced run the spans go beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5

# Per-layer metrics from the span groups in spans.py: a self time for each
# group and the counts listed here.  The rest of the per-layer metrics come
# from the untraced pass or from subprocesses (see layer_metrics).
SPAN_COUNTS = {
    "words.longest_antipalindrome": ("calls", "letters"),
    "words.smallest_period": ("calls", "letters"),
    "morphisms.fixed_point_prefix": ("calls", "letters"),
    "morphisms.conjugacy_chain": ("calls", "chain_len"),
    "morphisms.square": (),
    "membership.witnesses": ("calls", "hits"),
    "membership.classify": ("calls",),
    "equations.decompose": ("calls",),
    "language.build_index": ("calls",),
    "language.census": ("lengths",),
    "language.bispecials": (),
    "language.e_closure_check": (),
    "language.antipal_center": (),
    "cli.main": (),
    "cli.scan": (),
}


class Context:
    def __init__(self, work: Path):
        self.src = SRC
        self.work = work
        self.cache: dict = {}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it (p50 at least)."""
    return min(99, max(50, math.floor(100 * (1 - 10 / n))))


def median_wall(argv: list[str], env: dict, cwd: Path, repeats: int) -> tuple[float, list[str]]:
    """Median wall seconds of a fresh subprocess, after one unmeasured warm-up run."""
    walls, outputs = [], []
    for i in range(repeats + 1):
        start = perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=cwd)
        wall = perf_counter() - start
        if proc.returncode != 0:
            fail(f"{' '.join(argv[:3])} failed: {proc.stderr[-500:]}")
        if i:
            walls.append(wall)
            outputs.append(proc.stdout.strip())
    return statistics.median(walls), outputs


def import_times(env: dict, cwd: Path) -> dict[str, float]:
    """Interpreter start-up and `antipal.cli` / numpy import times, medians in ms."""
    interpreter, _ = median_wall([sys.executable, "-c", "pass"], env, cwd, IMPORT_REPEATS)
    cli, numpy = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import antipal.cli"],
                              capture_output=True, text=True, env=env, cwd=cwd)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1000
        cli.append(cumulative["antipal.cli"])
        numpy.append(cumulative.get("numpy", 0.0))
    return {"cli.import_ms": statistics.median(cli), "cli.import_numpy_ms": statistics.median(numpy),
            "cli.interpreter_ms": interpreter * 1000}


def environment(inputs_digest: str, seed: int, rounds: int) -> dict:
    import numpy

    import inputs

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "antipal").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_digest": source.hexdigest()[:16],
        "seed": seed,
        "rounds": rounds,
        "inputs_digest": inputs_digest,
        "scan_bound": inputs.SCAN_BOUND,
        "evidence_prefix_len": inputs.EVIDENCE_PREFIX,
        "evidence_factor": 4,
        "census_prefix_len": inputs.CENSUS_PREFIX,
        "census_n_max": inputs.CENSUS_NMAX,
        "grid_n_max": inputs.GRID_NMAX,
        "fixedpoint_length": inputs.FIXEDPOINT_LENGTH,
    }


def peak_rss_mb(workload: str) -> float:
    """ru_maxrss of the process doing the work: the CLI subprocesses for `cli`,
    otherwise the larger of this process and its children (the scan's pool)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (children if workload == "cli" else max(own, children)) / 1024


def layer_metrics(tracer, untraced, traced, imports) -> dict[str, tuple[float, str]]:
    self_s = tracer.self_times()
    out = {}
    for name, counts in SPAN_COUNTS.items():
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        for key in counts:
            out[f"{name}.{key}"] = (tracer.counts[name][key], "count")
    witnesses = tracer.counts["membership.witnesses"]
    out["membership.witnesses.hit_ratio"] = (witnesses["hits"] / max(1, witnesses["calls"]), "ratio")
    out["language.stable_up_to"] = (tracer.counts["language.build_index"]["stable_up_to"], "count")
    fig = untraced.figures
    out["cli.scan.p2_per_s"] = (fig.get("p2_per_s", 0.0), "1/s")
    out["cli.scan.p2_efficiency"] = (fig.get("p2_efficiency", 0.0), "ratio")
    out["cli.resume.wall_s"] = (fig.get("resume_wall_s", 0.0), "s")
    out["cli.resume.records_reused"] = (fig.get("records_reused", 0), "count")
    out["cli.resume.records_redone"] = (fig.get("records_redone", 0), "count")
    out.update({k: (v, "ms") for k, v in imports.items()})
    out["trace.overhead_pct"] = ((traced.first_pass_s / untraced.first_pass_s - 1) * 100, "%")
    return out


def predictions(workload: str, tracer, metrics) -> list[tuple[str, bool]]:
    """The layer shares the benchmark's design predicts, checked on this trace."""
    self_s = tracer.self_times()
    ranked = sorted(self_s, key=self_s.get, reverse=True)
    if workload == "scan":
        return [("words.longest_antipalindrome has the largest self time", ranked[0] == "words.longest_antipalindrome")]
    if workload == "deciders":
        a1 = tracer.self_times(lambda job: job.endswith(":a1"))
        chain = a1.get("membership.witnesses", 0) + a1.get("morphisms.conjugacy_chain", 0)
        rest = max(v for k, v in a1.items() if k not in ("membership.witnesses", "morphisms.conjugacy_chain"))
        return [(f"on A1-built members, witnesses + conjugacy_chain ({chain:.2f} s) outweigh any other layer "
                 f"({rest:.2f} s)", chain > rest)]
    if workload == "census":
        language = sum(v for k, v in self_s.items() if k.startswith("language."))
        return [("words.longest_antipalindrome has 0 calls", tracer.counts["words.longest_antipalindrome"]["calls"] == 0),
                (f"language.* dominates ({language / sum(self_s.values()):.0%} of traced self time)",
                 language > sum(self_s.values()) / 2)]
    calls = [job for job in {s[4] for s in tracer.spans} if job.endswith(":classify")]
    per_call = {k: v / len(calls) * 1000 for k, v in tracer.self_times(lambda job: job.endswith(":classify")).items()}
    biggest = max(v for k, v in per_call.items() if k != "cli.import")
    import_ms = metrics["cli.import_ms"][0]
    return [(f"cli.import_ms ({import_ms:.0f} ms) is the largest part of a classify call "
             f"(next: {biggest:.0f} ms, interpreter {metrics['cli.interpreter_ms'][0]:.0f} ms)",
             import_ms > max(biggest, metrics["cli.interpreter_ms"][0]))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "antipal" / "__init__.py").is_file():
        fail(f"no antipal package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import antipal

    if Path(antipal.__file__).resolve().parent != (SRC / "antipal").resolve():
        fail(f"antipal was imported from {antipal.__file__}, not from {SRC}")
    import inputs
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    rounds = workloads.rounds(workload, args.seconds)
    if args.trace:
        rounds = math.ceil(rounds / 2)  # one untraced and one traced pass share the run length
    data = workload.inputs(args.seed, rounds)
    digest = inputs.digest(data)

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        (work / "inputs.json").write_text(json.dumps(data))
        setup_s, probe_digests = median_wall(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), args.workload, str(work / "inputs.json")],
            env, work, SETUP_REPEATS)
        expected = inputs.digest(workload.texts(data))
        setup_ok = all(d == expected for d in probe_digests)

        ctx = Context(work)
        workloads.warm_up(ctx, args.workload)
        # A traced run times one untraced pass against one traced pass.
        untraced = workload.run(ctx, data, passes=1 if args.trace else None)
        traced = tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = workload.run(ctx, data, tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [o for o in (untraced, traced) if o is not None]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace,
              "environment": environment(digest, args.seed, rounds),
              "setup_digest_ok": setup_ok, "failed_ratio": failed / attempted,
              "figures": untraced.figures, "problems": [p for o in outcomes for p in o.problems]}

    print(f"workload {args.workload}: seed {args.seed}, {rounds} round(s), inputs digest {digest}")
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.4f} jobs")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    if not setup_ok:
        print("  FAILED setup: the program parsed different morphism texts than were generated")

    if args.trace:
        metrics = layer_metrics(tracer, untraced, traced, import_times(env, ROOT))
        self_s = tracer.self_times()
        total = sum(self_s.values())
        print(f"traced self time by layer ({total:.3f} s in {len(tracer.spans)} spans):")
        for name in sorted(self_s, key=self_s.get, reverse=True):
            print(f"  {name:<32} {self_s[name]:9.4f} s {self_s[name] / total:7.1%}")
        print(f"tracing overhead: untraced {untraced.first_pass_s:.3f} s, traced {traced.first_pass_s:.3f} s "
              f"for the same jobs ({metrics['trace.overhead_pct'][0]:+.1f} %)")
        if args.workload == "scan":
            fig = untraced.figures
            print(f"p2 efficiency: p1 wall {fig['p1_wall_s']:.3f} s / (2 x p2 wall {fig['p2_wall_s']:.3f} s)")
        for claim, holds in predictions(args.workload, tracer, metrics):
            print(f"  prediction {'holds' if holds else 'DOES NOT HOLD'}: {claim}")
        tracer.dump(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        best = untraced.best_s()
        lat = [t * 1000 for t in best]
        p = tail_percentile(len(lat))
        metrics = {
            "setup_s": (setup_s, "s"),
            "throughput_per_s": (len(best) / sum(best), "1/s"),
            "latency_ms.p50": (statistics.median(lat), "ms"),
            "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
        }
        # The tail is reported but not a gated metric: on the shared host its
        # run-to-run spread exceeds any bound the benchmark may set.
        tail = {"value": percentile(lat, p), "unit": "ms", "percentile": p, "samples": len(lat),
                "beyond": len(lat) - math.ceil(len(lat) * p / 100)}
        record["latency_ms.tail"] = tail
        passes = max(len(times) for times in untraced.samples.values())
        print(f"{len(best)} jobs, each timed in up to {passes} passes and kept at its best")
        print(f"latency_ms.tail {tail['value']:.6g} ms (p{p} of {len(lat)} samples, {tail['beyond']} beyond)")
        for name, fig in untraced.figures.items():
            print(f"  {name} {fig:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps({"correct": failed == 0 and setup_ok, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
