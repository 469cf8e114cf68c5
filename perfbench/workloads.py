"""The four workloads: timed jobs against the public API and the CLI, and
the checks on every output.

Each workload does a fixed amount of work per run: ``rounds`` turns the
requested run length into whole rounds through the time one pass of a round
took on the seed commit, so job counts, percentiles and trace counts are the
same on every commit and a faster program simply finishes sooner.  Every job
is a closed loop with one caller: the next job starts when the previous one
returns.

The host this was built on runs other tenants' work beside ours and swings
between a fast and a slow state every few seconds (a fixed pure-Python loop
takes 70 ms or 100-120 ms, and a slow state can last minutes).  So an untraced run makes several passes over
the same jobs, one after another, and keeps each job's best time: a job is
slow in its best pass only if the host was slow in every pass.  With a
tracer, each job runs once, serially, through the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import inputs
import reference

BENCH_DIR = Path(__file__).resolve().parent


class Outcome:
    """What the passes over a workload's jobs did."""

    def __init__(self):
        self.samples: dict[int, list[float]] = defaultdict(list)  # job -> seconds, one per pass
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.figures: dict[str, float] = {}
        self.first_pass_s = 0.0  # wall of the first pass over the jobs, for the tracing overhead

    def job(self, problems: list[str], what: str):
        """Count one job run; it fails if any of its checks failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems[:3])}")

    def best_s(self) -> list[float]:
        """Each job's best time over the passes."""
        return [min(times) for times in self.samples.values()]


def witness_problems(report: dict) -> list[str]:
    """Every witness in a report must be valid and rebuild m, m^2 or a conjugate of either."""
    from antipal.membership import witness_from_dict

    image0, image1 = inputs.images(report["morphism"])
    allowed = reference.conjugates(image0, image1) | reference.conjugates(*inputs.square(image0, image1))
    out = []
    for cls in ("class_p", "class_ep", "class_a1", "class_a2"):
        entry = report[cls]
        found = [entry["witness"]] + [entry[k]["witness"] for k in ("conjugate", "square_conjugate") if entry[k]]
        for d in filter(None, found):
            witness = witness_from_dict(d)
            built = witness.build()
            if not witness.is_valid() or not reference.witness_shape_ok(d):
                out.append(f"{cls} witness {d} is not valid")
            elif (built.image0, built.image1) not in allowed:
                out.append(f"{cls} witness {d} rebuilds neither m, m^2 nor a conjugate")
    return out


def warm_up(ctx, workload):
    """Let lazy set-up finish before timing: one small job through each layer,
    and for the CLI one unmeasured command (the first may compile bytecode)."""
    from antipal import language, membership, morphisms

    m = morphisms.parse_morphism("0->01,1->10")
    membership.classify(m)
    language.build_index(m, "0", 4096, 64).census()
    if workload == "cli":
        subprocess.run([sys.executable, "-m", "antipal", "classify", "0->01,1->10"], capture_output=True,
                       env=dict(os.environ, PYTHONPATH=str(ctx.src)), cwd=ctx.work)


@contextlib.contextmanager
def _timed_records(cli, sink: list[float]):
    """Time each record's classify call inside an untraced serial scan."""
    original = cli.classify

    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(perf_counter() - start)

    cli.classify = timed
    try:
        yield
    finally:
        cli.classify = original


class Scan:
    """The conjecture hunt: `antipal scan` in-process over the whole small space.

    One round is a fresh pass at p1 and a p1 resume from a copy of the p1
    output cut inside a seeded record early in the file, so the resume
    redoes most records and gives them a second timing; each record keeps
    its best time over all rounds.  The untraced pass
    of a traced run (``passes=1``) also makes a fresh pass at p2, which must
    write the same bytes and gives the pool's figures; untraced-only runs
    leave it out to stay within the run length.
    """

    name = "scan"
    passes = 1
    round_s = 18.0

    def inputs(self, seed: int, rounds: int) -> list:
        space = inputs.small_space(inputs.SCAN_BOUND)
        return [space, [inputs.scan_cut(seed + r) for r in range(rounds)]]

    def texts(self, data) -> list[str]:
        return data[0]

    def setup(self, data) -> list[str]:
        from antipal.cli import scan_space
        from antipal.morphisms import format_morphism, parse_morphism

        return [format_morphism(parse_morphism(t)) for t in scan_space(inputs.SCAN_BOUND)]

    @staticmethod
    def _pass(cli, out: Path, extra: list[str], sink=None):
        buf = io.StringIO()
        argv = ["scan", "--max-image-len", str(inputs.SCAN_BOUND), "--out", str(out), "--format", "json"]
        timer = _timed_records(cli, sink) if sink is not None else contextlib.nullcontext()
        start = perf_counter()
        with timer, contextlib.redirect_stdout(buf):
            code = cli.main(argv + extra)
        wall = perf_counter() - start
        try:
            summary = json.loads(buf.getvalue())
        except json.JSONDecodeError:
            summary = {}
        problems = [] if code == 0 else [f"exit code {code}"]
        if summary.get("counterexample_candidates") != []:
            problems.append(f"counterexample candidates {summary.get('counterexample_candidates')}")
        return wall, summary, problems

    def run(self, ctx, data, tracer=None, passes=None) -> Outcome:
        from antipal import cli

        space, cuts = data
        res = Outcome()
        walls = defaultdict(float)
        reused = 0
        for index, (cut_record, keep) in enumerate(cuts):
            p1, p2, resumed = (ctx.work / f"{tag}-{index}.jsonl" for tag in ("p1", "p2", "resume"))

            if tracer:
                tracer.job = f"{index}:p1"
            times: list[float] = []
            wall, summary, pass_problems = self._pass(cli, p1, ["--overwrite"], None if tracer else times)
            walls["p1"] += wall
            fresh = p1.read_bytes() if p1.exists() else b""
            lines = fresh.split(b"\n")
            if summary.get("records") != len(space):
                pass_problems.append(f"{summary.get('records')} records, expected {len(space)}")
            for i, text in enumerate(space):
                problems = list(pass_problems)
                try:
                    record = json.loads(lines[i])
                    if record["morphism"] != text:
                        problems.append(f"record {i} is {record['morphism']}")
                    if record["counterexample_candidate"]:
                        problems.append("counterexample candidate")
                    problems += witness_problems(record)
                except (IndexError, ValueError, KeyError) as exc:
                    problems.append(f"unreadable record: {exc!r}")
                res.job(problems, f"p1 {text}")
            for i, t in enumerate(times):
                res.samples[i].append(t)

            if passes == 1:
                wall, summary, pass_problems = self._pass(cli, p2, ["--overwrite", "--parallelism", "2"])
                walls["p2"] += wall
                self._compare(res, "p2", p2, fresh, space, pass_problems)

            # Resume from a copy of the p1 output cut inside one record.
            offset = sum(len(line) + 1 for line in lines[:cut_record]) + max(1, int(len(lines[cut_record]) * keep))
            resumed.write_bytes(fresh[:offset])
            if tracer:
                tracer.job = f"{index}:resume"
            times = []
            wall, summary, pass_problems = self._pass(cli, resumed, [], None if tracer else times)
            walls["resume"] += wall
            if summary.get("resumed") != cut_record:
                pass_problems.append(f"resumed {summary.get('resumed')} records, expected {cut_record}")
            self._compare(res, "resume", resumed, fresh, space, pass_problems, first=cut_record)
            for i, t in enumerate(times):
                res.samples[cut_record + i].append(t)
            reused += cut_record

        res.first_pass_s = walls["p1"] + walls["resume"]
        res.figures = {f"{tag}_wall_s": wall for tag, wall in walls.items()}
        res.figures.update(records_reused=reused, records_redone=len(space) * len(cuts) - reused)
        if walls["p2"]:
            res.figures["p2_per_s"] = len(space) * len(cuts) / walls["p2"]
            res.figures["p2_efficiency"] = walls["p1"] / (2 * walls["p2"])
        return res

    @staticmethod
    def _compare(res, tag, path: Path, fresh: bytes, space, pass_problems, first=0):
        """Records from another pass must be byte-identical to the fresh p1 output."""
        got = (path.read_bytes() if path.exists() else b"").split(b"\n")
        want = fresh.split(b"\n")
        if got[len(space):] != want[len(space):]:
            pass_problems = pass_problems + ["bytes after the last record differ"]
        for i in range(first, len(space)):
            problems = list(pass_problems)
            if i >= len(got) or got[i] != want[i]:
                problems.append("record differs from the p1 output")
            res.job(problems, f"{tag} {space[i]}")


class _Jobs:
    """A list of independent jobs, each timed on its own, in passes."""

    passes = 1

    def run(self, ctx, data, tracer=None, passes=None) -> Outcome:
        res = Outcome()
        first: dict[int, object] = {}
        for _ in range(1 if tracer else passes or self.passes):
            for i, job in enumerate(data):
                if tracer:
                    tracer.job = f"{i}:{self.kind(job)}"
                start = perf_counter()
                try:
                    result, problems = self.execute(ctx, job, tracer), []
                except Exception as exc:  # a raising job is a failed job
                    result, problems = None, [f"raised {exc!r}"]
                res.samples[i].append(perf_counter() - start)
                if result is not None:
                    if i in first:
                        if self.comparable(result) != first[i]:
                            problems.append("result differs from the same job's first pass")
                    else:
                        first[i] = self.comparable(result)
                        problems += self.problems(ctx, job, result)
                res.job(problems, self.describe(job))
        res.first_pass_s = sum(times[0] for times in res.samples.values())
        return res


class Deciders(_Jobs):
    """`classify` on long-image morphisms, where membership and the chains dominate."""

    name = "deciders"
    passes = 3
    round_s = 2.4

    def inputs(self, seed: int, rounds: int) -> list:
        return inputs.deciders_jobs(seed, rounds)

    def texts(self, data) -> list[str]:
        return [t for _, t in data]

    def setup(self, data) -> list[str]:
        from antipal.morphisms import format_morphism, parse_morphism

        return [format_morphism(parse_morphism(t)) for _, t in data]

    @staticmethod
    def kind(job):
        return job[0]

    @staticmethod
    def describe(job):
        return f"{job[0]} {job[1]}"

    @staticmethod
    def execute(ctx, job, tracer):
        from antipal import membership, morphisms

        return membership.classify(morphisms.parse_morphism(job[1]))

    @staticmethod
    def comparable(rep):
        return rep.to_dict()

    @staticmethod
    def problems(ctx, job, rep) -> list[str]:
        kind = job[0]
        d = rep.to_dict()
        verdict = d["antipalindromic"]["verdict"]
        out = witness_problems(d)
        own = {"a1": rep.class_a1.any_hit, "a2": rep.class_a2.any_hit,
               "family": rep.class_a1.direct is not None and rep.class_p.direct is not None}
        if kind in own and (verdict != "proven-infinite" or not own[kind]):
            out.append(f"{kind}-built member came back {verdict} without its own class hit")
        return out


class Census(_Jobs):
    """Factor-language censuses of fixed-point prefixes (the `language` layer)."""

    name = "census"
    passes = 3
    round_s = 9.3

    def inputs(self, seed: int, rounds: int) -> list:
        return inputs.census_jobs(seed, rounds)

    def texts(self, data) -> list[str]:
        return [j["morphism"] for j in data]

    def setup(self, data) -> list[str]:
        from antipal.morphisms import format_morphism, parse_morphism, prolongable_letters

        parsed = [parse_morphism(j["morphism"]) for j in data]
        return [format_morphism(m) for m in parsed if prolongable_letters(m)]

    @staticmethod
    def kind(job):
        return job["name"]

    @staticmethod
    def describe(job):
        return f"{job['kind']} {job['morphism']}"

    @staticmethod
    def execute(ctx, job, tracer):
        from antipal import language, morphisms

        m = morphisms.parse_morphism(job["morphism"])
        if job["kind"] == "index":
            idx = language.build_index(m, job["letter"], inputs.CENSUS_PREFIX, inputs.CENSUS_NMAX)
            return idx.prefix, (idx.census(), idx.bispecials(), idx.e_closure_check(),
                                idx.antipal_center(inputs.CENSUS_CENTER), idx.stable_up_to)
        idx = language.build_index(m, job["letter"], inputs.CENSUS_PREFIX, inputs.GRID_NMAX)
        return idx.prefix, (idx.census(inputs.GRID), idx.stable_up_to)

    @staticmethod
    def comparable(result):
        return result[1]

    @staticmethod
    def problems(ctx, job, result) -> list[str]:
        prefix, result = result
        out = []
        ref = inputs.fixed_prefix(*inputs.images(job["morphism"]), job["letter"], inputs.CENSUS_PREFIX)
        if prefix != ref:
            return ["fixed-point prefix differs from plain iteration"]
        rows, stable = result[0], result[-1]
        by_length = {r.length: r for r in rows}
        for n in [*range(1, 9), 16, 32, 64]:
            r = by_length[n]
            if (r.factor_count, r.palindrome_count, r.antipalindrome_count) != reference.exact_row(ref, n):
                out.append(f"census row {n} differs from the exact string sets")
        for r in rows:
            if r.certified != (r.length <= stable):
                out.append(f"row {r.length} certified={r.certified} with stable_up_to {stable}")
        certified = [r for r in rows if r.certified]
        if job["name"] in ("thue-morse", "thue-morse-squared"):
            bad = [r.length for r in certified if r.factor_count != reference.thue_morse_complexity(r.length)]
            if bad:
                out.append(f"Thue-Morse complexity differs from the closed form at n={bad[:5]}")
        if job["name"] == "fibonacci":
            bad = [r.length for r in certified if (r.factor_count, r.palindrome_count) != reference.sturmian_row(r.length)]
            if bad:
                out.append(f"Fibonacci rows are not Sturmian at n={bad[:5]}")
        if job["kind"] != "index":
            return out
        _, bispecials, closed, center, _ = result
        for w in bispecials:
            if not all(x in ref for x in (w + "0", w + "1", "0" + w, "1" + w)):
                out.append(f"{w!r} is not bispecial")
        small = [{ref[i : i + n] for i in range(len(ref) - n + 1)} for n in range(1, min(stable, 8) + 1)]
        if any(inputs.exchange(w) not in fs for fs in small for w in fs):
            if closed:
                out.append("e_closure_check is True but a short factor's exchange is missing")
        elif job["name"].startswith("thue-morse") and not closed:
            out.append("Thue-Morse factors are closed under exchange, e_closure_check says no")
        cap = min(inputs.CENSUS_CENTER, stable // 2)
        if len(center) > cap or inputs.exchange(center) + center not in ref:
            out.append(f"antipal_center {center!r} is not a certified center")
        elif len(center) < cap and any(inputs.exchange(center + a) + center + a in ref for a in "01"):
            out.append(f"antipal_center {center!r} extends by one letter")
        return out


class Cli(_Jobs):
    """Fresh-interpreter `antipal` commands: start-up, import, argparse and rendering."""

    name = "cli"
    passes = 3
    round_s = 5.0

    def inputs(self, seed: int, rounds: int) -> list:
        return inputs.cli_jobs(seed, rounds)

    def texts(self, data) -> list[str]:
        return [args[1] for args in data]

    def setup(self, data) -> list[str]:
        from antipal.morphisms import format_morphism, parse_morphism

        return [format_morphism(parse_morphism(args[1])) for args in data]

    @staticmethod
    def kind(args):
        return args[0]

    @staticmethod
    def describe(args):
        return " ".join(args[:2])

    @staticmethod
    def execute(ctx, args, tracer):
        env = dict(os.environ, PYTHONPATH=str(ctx.src))
        spans_file = ctx.work / "spans.json"
        if tracer:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_file), *args]
        else:
            argv = [sys.executable, "-m", "antipal", *args]
        proc = subprocess.run(argv, capture_output=True, env=env, cwd=ctx.work)
        if tracer and spans_file.exists():
            recorded = json.loads(spans_file.read_text())
            tracer.add_spans(recorded["spans"], tracer.job)
            tracer.add_counts(recorded["counts"])
        return proc

    @staticmethod
    def comparable(proc):
        return proc.returncode, proc.stdout

    @staticmethod
    def problems(ctx, args, proc) -> list[str]:
        if proc.returncode != 0:
            return [f"exit code {proc.returncode}: {proc.stderr[-300:]!r}"]
        try:
            payload = json.loads(proc.stdout)
        except ValueError:
            return ["output is not JSON"]
        command, text = args[0], args[1]
        if command == "fixedpoint":
            reference_prefix = inputs.fixed_prefix(*inputs.images(text), "0", inputs.FIXEDPOINT_LENGTH)
            return [] if payload.get("prefix") == reference_prefix else ["fixed-point prefix differs"]
        out = [] if payload.get("morphism") == text else [f"report is for {payload.get('morphism')}"]
        out += witness_problems(payload)
        if command == "classify":
            ctx.cache[text] = payload
        elif text in ctx.cache:
            if any(payload[k] != v for k, v in ctx.cache[text].items()):
                out.append("analyze and classify disagree")
            if not payload.get("census") or payload["census"]["stable_up_to"] < 1:
                out.append("analyze gave no certified census")
        return out


WORKLOADS = {w.name: w for w in (Scan(), Deciders(), Census(), Cli())}


def rounds(workload, seconds: float) -> int:
    """Whole rounds whose passes take about ``seconds`` on the seed commit."""
    return max(1, round(seconds / (workload.round_s * workload.passes)))
