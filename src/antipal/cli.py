"""Command line front end and the exhaustive small-morphism scan.

Exit codes: 0 success, 1 parse or usage problem, 2 a consistency check
failed or the scan produced counterexample candidates (loudly reported;
either a bug or a genuine discovery).

The scan enumerates every morphism with image lengths up to a bound,
deduplicated under the relabeling that swaps the two letters everywhere,
classifies each one, and writes one JSON record per line.  A morphism and
its relabeling agree on the primitive, uniform and cyclic flags, on the
hits of each class, on a proven-infinite verdict and, when primitive, on
the palindromic status; the rest can differ, since each reads the fixed
point of its own least prolongable letter and its periodicity from a
prefix.  The enumeration order is lexicographic in the morphism text;
work is chunked and merged in order, so output files are byte-identical
for every parallelism level.  A resume keeps the complete records on disk
untouched, cuts a damaged tail in place, and refuses a file made under
other evidence settings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import deque
from contextlib import nullcontext
from fractions import Fraction
from itertools import product, repeat
from pathlib import Path

from . import equations
from .errors import AntipalError, BadBounds, ConsistencyError, NoSolution, NotProlongable, ParseError
from .membership import EvidenceConfig, classify
from .morphisms import (
    Morphism,
    fixed_point_source,
    format_morphism,
    is_primitive,
    letter_frequencies,
    parse_morphism,
)
from .words import complement, parse_word

_SCAN_CHUNK = 8
# Chunks a scan keeps submitted to its pool and not yet written, per worker:
# enough to keep every worker busy, few enough that a large space never
# queues all of its chunks at once.
_IN_FLIGHT = 4


def __getattr__(name: str):
    """``build_index`` resolves on first access, so importing this module
    loads no numpy."""
    if name == "build_index":
        from .language import build_index

        return build_index
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _index(args, m: Morphism, n_max: int | None):
    """Factor index on the fixed point read for m; ``n_max`` defaults to ``min(64, prefix_len // 4)``."""
    from .language import build_index

    source = fixed_point_source(m, args.seed_letter)
    if source is None:
        raise NotProlongable(f"neither {format_morphism(m)} nor its square has a prolongable letter")
    _, host, letter = source
    if n_max is None:
        n_max = min(64, args.prefix_len // 4)
        if n_max < 1:
            raise BadBounds(
                f"--max-len defaults to min(64, --prefix-len // 4), which needs --prefix-len >= 4, "
                f"got --prefix-len {args.prefix_len}; give a larger --prefix-len or a --max-len"
            )
    elif n_max > args.prefix_len:
        raise BadBounds(
            f"--max-len must be at most --prefix-len, got --max-len {n_max} and --prefix-len {args.prefix_len}"
        )
    return build_index(host, letter, args.prefix_len, n_max)


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)


# ---------------------------------------------------------------- analyze


def _frequencies_payload(m: Morphism):
    if not is_primitive(m):
        return None
    fv = letter_frequencies(m)
    exact = isinstance(fv.rho0, Fraction)
    rho0, rho1 = fv.as_floats()
    payload = {"rho0": rho0, "rho1": rho1, "exact": exact}
    if exact:
        payload["rho0_fraction"] = str(fv.rho0)
        payload["rho1_fraction"] = str(fv.rho1)
    return payload


def _membership_text(name, mem):
    parts = []
    for label, value in (
        ("direct", mem["direct"]),
        ("conjugate", mem["conjugate"] is not None),
        ("square", mem["square"]),
        ("square-conjugate", mem["square_conjugate"] is not None),
    ):
        parts.append(f"{label}={'yes' if value else 'no'}")
    line = f"  {name:<4} " + " ".join(parts)
    if mem["witness"]:
        line += f"  witness={mem['witness']}"
    return line


def _report_text(report: dict) -> str:
    flags = report["flags"]
    lines = [
        f"morphism: {report['morphism']}",
        "flags: "
        + f"primitive={flags['primitive']} uniform={flags['uniform']} "
        + f"cyclic={flags['cyclic']} periodicity={flags['periodicity']}",
        "classes:",
        _membership_text("P", report["class_p"]),
        _membership_text("EP", report["class_ep"]),
        _membership_text("A1", report["class_a1"]),
        _membership_text("A2", report["class_a2"]),
        f"palindromic: {report['palindromic']['status']} ({report['palindromic']['basis']})",
        f"antipalindromic: {report['antipalindromic']['verdict']} ({report['antipalindromic']['basis']})",
    ]
    ev = report["antipalindromic"]["evidence"]
    if ev:
        lines.append(
            f"evidence: A({ev['prefix_len']})={ev['a_small']}  A({ev['big_len']})={ev['a_big']}"
            f"  [{ev['source']}, seed {ev['letter']}]"
        )
    if report["counterexample_candidate"]:
        lines.append("counterexample_candidate: TRUE")
    return "\n".join(lines)


def cmd_classify(args) -> int:
    m = parse_morphism(args.morphism)
    cfg = EvidenceConfig(args.prefix_len, args.seed_letter)
    report = classify(m, cfg).to_dict()
    _emit(args, report, _report_text(report))
    return 0


def cmd_analyze(args) -> int:
    m = parse_morphism(args.morphism)
    cfg = EvidenceConfig(args.prefix_len, args.seed_letter)
    full = classify(m, cfg)
    report = full.to_dict()
    chain = full.chain
    payload = dict(report)
    payload["chain"] = {
        "cyclic": chain.cyclic,
        "elements": [format_morphism(e) for e in chain.chain],
        "q_full": chain.q_full,
    }
    payload["frequencies"] = _frequencies_payload(m)

    census_payload = None
    if full.evidence is not None and args.prefix_len >= 4:  # no census without a fixed point, nor below 4 letters
        idx = _index(args, m, None)
        rows = idx.census()
        census_payload = {
            "prefix_len": idx.prefix_len,
            "stable_up_to": idx.stable_up_to,
            "factors": sum(r.factor_count for r in rows if r.certified),
            "palindromes": sum(r.palindrome_count for r in rows if r.certified),
            "antipalindromes": sum(r.antipalindrome_count for r in rows if r.certified),
        }
    payload["census"] = census_payload

    text = [_report_text(report)]
    text.append(f"chain: {' | '.join(payload['chain']['elements'])}  q={chain.q_full!r}")
    if payload["frequencies"]:
        f = payload["frequencies"]
        text.append(f"frequencies: rho0={f['rho0']:.6f} rho1={f['rho1']:.6f}")
    if census_payload:
        c = census_payload
        text.append(
            f"census (lengths 1..certified {c['stable_up_to']}): {c['factors']} factors, "
            f"{c['palindromes']} palindromes, {c['antipalindromes']} antipalindromes"
        )
    _emit(args, payload, "\n".join(text))
    return 0


# ------------------------------------------------------- fixedpoint, factors


def cmd_fixedpoint(args) -> int:
    from .morphisms import fixed_point_prefix

    m = parse_morphism(args.morphism)
    source = fixed_point_source(m, args.letter)
    if source is None or source[0] == "square":  # the prefix printed is of a fixed point of m itself
        raise NotProlongable(f"{format_morphism(m)} has no prolongable letter")
    letter = source[2]
    word = fixed_point_prefix(m, letter, args.length)
    if args.format == "json":
        print(json.dumps({"morphism": format_morphism(m), "letter": letter, "prefix": word}))
    else:
        print(word)
    return 0


def cmd_factors(args) -> int:
    m = parse_morphism(args.morphism)
    idx = _index(args, m, args.max_len)
    rows = idx.census()
    if args.format == "csv":
        print("length,factor_count,palindrome_count,antipalindrome_count,certified")
        for r in rows:
            print(
                f"{r.length},{r.factor_count},{r.palindrome_count},"
                f"{r.antipalindrome_count},{str(r.certified).lower()}"
            )
    elif args.format == "json":
        print(
            json.dumps(
                {
                    "morphism": format_morphism(m),
                    "stable_up_to": idx.stable_up_to,
                    "census": [r.__dict__ for r in rows],
                }
            )
        )
    else:
        for r in rows:
            mark = "" if r.certified else "  (uncertified)"
            line = (
                f"n={r.length}: {r.factor_count} factors, {r.palindrome_count} palindromes, "
                f"{r.antipalindrome_count} antipalindromes{mark}"
            )
            if args.list and r.length <= 8:
                line += "  " + " ".join(sorted(idx.factors(r.length)))
            print(line)
    return 0


def cmd_bispecials(args) -> int:
    from .language import bispecial_orbit

    m = parse_morphism(args.morphism)
    if args.orbit is not None:
        fixed_point_source(m, args.seed_letter)  # rejects an unusable --seed-letter like every command
        seed = parse_word(args.orbit)
        steps = list(bispecial_orbit(m, seed, args.steps))
        _emit(args, {"seed": seed, "steps": steps}, "\n".join([seed or "(empty)"] + steps))
        return 0
    idx = _index(args, m, args.max_len)
    bs = idx.bispecials()
    if args.format == "json":
        print(json.dumps({"stable_up_to": idx.stable_up_to, "bispecials": list(bs)}))
    else:
        for w in bs:
            print(w or "(empty)")
    return 0


# ------------------------------------------------------------------ equation


def _fields(fields: dict):
    return fields, " ".join(f"{name}={value}" for name, value in fields.items())


def _solution(s):
    return _fields(dict(vars(s)))


def _split_lines(splits):
    return {"splits": [list(s) for s in splits]}, "\n".join(f"{p}|{q}" for p, q in splits) or "(no split)"


# kind -> (word count, solver, render); render turns a solution into the
# JSON fields that follow "ok" and the text output.
_EQUATIONS = {
    "commutation": (2, equations.solve_commutation, _solution),
    "transfer": (3, equations.solve_transfer, _solution),
    "pal-antipal": (2, equations.solve_pal_antipal, _solution),
    "fine-wilf": (3, equations.fine_wilf_root, lambda z: _fields({"z": z})),
    "two-palindromes": (1, equations.decompose_two_palindromes, _split_lines),
    "two-antipalindromes": (1, equations.decompose_two_antipalindromes, _split_lines),
    "normal-form": (1, equations.antipal_periodic_normal_form, lambda ck: _fields({"c": ck[0], "k": ck[1]})),
}


def cmd_equation(args) -> int:
    arity, solve, render = _EQUATIONS[args.kind]
    ws = [parse_word(w) for w in args.words]
    if len(ws) != arity:
        raise ParseError(f"equation {args.kind} expects {arity} word(s), got {len(ws)}")
    try:
        fields, text = render(solve(*ws))
        payload = {"ok": True, **fields}
    except NoSolution as exc:
        payload = {"ok": False, "error": type(exc).__name__, "detail": str(exc)}
        text = f"no solution: {type(exc).__name__}: {exc}"
    _emit(args, payload, text)
    return 0


# ---------------------------------------------------------------------- scan


def scan_space(max_image_len: int) -> list[str]:
    """Canonical morphism texts, lexicographically sorted.

    Of each text ``0->a,1->b`` and its letter swap ``0->b',1->a'`` (each
    letter of the images flipped, see ``complement``) only the
    lexicographically smaller survives.
    """
    images = [
        "".join(bits)
        for n in range(1, max_image_len + 1)
        for bits in product("01", repeat=n)
    ]
    texts = []
    for i0 in images:
        for i1 in images:
            t = f"0->{i0},1->{i1}"
            if t <= f"0->{complement(i1)},1->{complement(i0)}":
                texts.append(t)
    texts.sort()
    return texts


def _classify_chunk(chunk: list[str], cfg: EvidenceConfig) -> list[str]:
    lines = []
    for text in chunk:
        report = classify(parse_morphism(text), cfg)
        lines.append(json.dumps(report.to_dict(), separators=(",", ":")))
    return lines


def _pooled(pool, workers: int, chunks, cfg: EvidenceConfig):
    """``_classify_chunk`` over ``chunks`` on ``pool``, in chunk order, with at
    most ``_IN_FLIGHT * workers`` chunks submitted and not yet yielded."""
    pending = deque()
    for chunk in chunks:
        pending.append(pool.submit(_classify_chunk, chunk, cfg))
        if len(pending) == _IN_FLIGHT * workers:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _complete_records(path: Path, space: list[str], cfg: EvidenceConfig) -> tuple[int, int, dict[str, int], list[str]]:
    """Count and byte size of the complete, in-order records that open the file, all made under ``cfg``,
    with the count of each verdict among them and the morphisms of those that are counterexample candidates.

    A complete record out of order or past the end of ``space`` was made under another ``--max-image-len``.
    """
    settings = (cfg.prefix_len, cfg.big_len)
    count = size = 0
    verdicts: dict[str, int] = {}
    candidates = []
    with path.open("rb") as fh:
        for line in fh:
            try:  # a tail of NUL bytes is not UTF-8 to json; [] or a partial object is not a record
                record = json.loads(line)
                morphism, result = record["morphism"], record["antipalindromic"]
                verdict, ev, candidate = result["verdict"], result["evidence"], record["counterexample_candidate"]
                made = ev and (ev["prefix_len"], ev["big_len"])
            except (ValueError, LookupError, TypeError):
                break
            if not line.endswith(b"\n"):
                break
            if count >= len(space) or morphism != space[count]:
                raise ParseError(f"{path} was made with another --max-image-len (record {count + 1} is {morphism}); see --overwrite")
            if made and made != settings:
                raise ParseError(f"{path} was made with evidence lengths {made}, not {settings}; see --overwrite")
            count += 1
            size += len(line)
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            if candidate:
                candidates.append(morphism)
    return count, size, verdicts, candidates


def cmd_scan(args) -> int:
    cfg = EvidenceConfig(args.prefix_len)
    space = scan_space(args.max_image_len)
    out = Path(args.out)

    resumed = size = 0
    if out.exists() and not args.overwrite:
        resumed, size, _, _ = _complete_records(out, space, cfg)

    starts = range(resumed, len(space), _SCAN_CHUNK)
    chunks = (space[i : i + _SCAN_CHUNK] for i in starts)
    workers = min(args.parallelism, len(starts), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        import numpy  # noqa: F401  (imported once before the fork, not by every worker)
    with out.open("a") as fh, ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        fh.truncate(size)
        results = _pooled(pool, workers, chunks, cfg) if pool else map(_classify_chunk, chunks, repeat(cfg))
        for lines in results:
            fh.write("\n".join(lines) + "\n")
            fh.flush()

    records, _, verdicts, candidates = _complete_records(out, space, cfg)
    summary = {
        "records": records,
        "resumed": resumed,
        "verdicts": dict(sorted(verdicts.items())),
        "counterexample_candidates": candidates,
        "out": str(out),
    }
    text = [f"records: {records} (resumed {resumed}) -> {out}"]
    text += [f"  {v}: {n}" for v, n in summary["verdicts"].items()]
    text.append(f"counterexample candidates: {len(candidates)}")
    _emit(args, summary, "\n".join(text))
    if candidates:
        print(
            "CONSISTENCY ALERT: counterexample candidate(s) found: "
            + ", ".join(candidates),
            file=sys.stderr,
        )
        return 2
    return 0


# ---------------------------------------------------------------------- main


def _at_least(low: int):
    """An argparse type for an integer count no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _parser() -> argparse.ArgumentParser:
    prefix = argparse.ArgumentParser(add_help=False)
    prefix.add_argument("--prefix-len", type=int, default=25_000)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed-letter", choices=("0", "1"), default=None)

    parser = argparse.ArgumentParser(
        prog="antipal",
        description="Analyze binary morphisms and the antipalindromic structure of their fixed points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, parents=(), formats=("text", "json")):
        p = sub.add_parser(name, parents=list(parents), help=summary)
        p.add_argument("--format", choices=formats, default="text")
        p.set_defaults(func=func)
        return p

    p = command("analyze", cmd_analyze, "full report: classes, chain, frequencies, census", (prefix, seed))
    p.add_argument("morphism")

    p = command("classify", cmd_classify, "classification report only", (prefix, seed))
    p.add_argument("morphism")

    p = command("fixedpoint", cmd_fixedpoint, "print a fixed-point prefix")
    p.add_argument("morphism")
    p.add_argument("--letter", choices=("0", "1"), default=None)
    p.add_argument("--length", type=_at_least(0), default=64)

    p = command("factors", cmd_factors, "per-length factor census of a fixed-point prefix", (prefix, seed),
                formats=("text", "json", "csv"))
    p.add_argument("morphism")
    p.add_argument("--max-len", type=_at_least(1), default=None)
    p.add_argument("--list", action="store_true", help="also list factors of length <= 8")

    p = command("bispecials", cmd_bispecials, "bispecial factors, or a successor orbit", (prefix, seed))
    p.add_argument("morphism")
    p.add_argument("--max-len", type=_at_least(1), default=None)
    p.add_argument("--orbit", default=None, help="seed word for the successor orbit")
    p.add_argument("--steps", type=_at_least(0), default=3)

    p = command("equation", cmd_equation, "solve one of the supported word equations")
    p.add_argument("kind", choices=tuple(_EQUATIONS))
    p.add_argument("words", nargs="+")

    p = command("scan", cmd_scan, "classify every small morphism, hunting counterexamples", (prefix,))
    p.add_argument("--max-image-len", type=_at_least(1), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--parallelism", type=_at_least(1), default=1, help="capped at the core count")
    p.add_argument("--overwrite", action="store_true")

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"CONSISTENCY ALERT: {exc}", file=sys.stderr)
        return 2
    except AntipalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
