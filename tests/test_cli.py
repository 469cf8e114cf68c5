import argparse
import concurrent.futures
import json
import os
import re
import signal
import subprocess
import sys
from collections import Counter
from concurrent.futures import Future
from pathlib import Path

import pytest

import antipal
from antipal import cli
from antipal.cli import main, scan_space
from antipal.membership import witness_from_dict
from antipal.morphisms import conjugacy_chain, parse_morphism, square
from bruteforce import bf_scan_space


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fixedpoint_command(capsys):
    code, out, _ = run(capsys, "fixedpoint", "0->01,1->0", "--letter", "0", "--length", "18")
    assert code == 0
    assert out.strip() == "010010100100101001"


def test_fixedpoint_auto_letter(capsys):
    code, out, _ = run(capsys, "fixedpoint", "0->10,1->01", "--length", "4")
    assert code == 1  # no prolongable letter


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "0->01,1->10", "--format", "json",
                       "--prefix-len", "2000")
    assert code == 0
    payload = json.loads(out)
    assert payload["class_a1"]["square"] is True
    assert payload["antipalindromic"]["verdict"] == "proven-infinite"
    assert payload["chain"]["q_full"] == ""
    assert payload["frequencies"]["rho0"] == 0.5
    assert payload["census"]["antipalindromes"] > 0


def test_classify_example_bounded(capsys):
    code, out, _ = run(capsys, "classify", "0->0101,1->1100", "--format", "json",
                       "--prefix-len", "2000")
    payload = json.loads(out)
    assert payload["class_ep"]["direct"] is True
    assert payload["class_a1"]["direct"] is False
    assert payload["class_a1"]["square"] is False
    assert payload["antipalindromic"]["verdict"] == "proven-finite"


def test_classify_fibonacci_frequencies(capsys):
    code, out, _ = run(capsys, "analyze", "0->01,1->0", "--format", "json",
                       "--prefix-len", "2000")
    payload = json.loads(out)
    assert abs(payload["frequencies"]["rho0"] - 0.618034) < 1e-5
    assert payload["palindromic"]["status"] == "proven"


def test_factors_csv(capsys):
    code, out, _ = run(capsys, "factors", "0->01,1->10", "--max-len", "2",
                       "--prefix-len", "512", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "length,factor_count,palindrome_count,antipalindrome_count,certified"
    assert lines[2].startswith("2,4,2,2,")


def test_bispecials_and_orbit(capsys):
    code, out, _ = run(capsys, "bispecials", "0->01,1->10", "--prefix-len", "2000")
    assert code == 0
    assert "(empty)" in out.split("\n")[0]
    code, out, _ = run(capsys, "bispecials", "0->01,1->10", "--orbit", "0",
                       "--steps", "2", "--prefix-len", "512", "--format", "json")
    assert json.loads(out) == {"seed": "0", "steps": ["01", "0110"]}
    code, out, _ = run(capsys, "bispecials", "0->01,1->0", "--orbit", "eps", "--steps", "3")
    assert code == 0 and out == "(empty)\n0\n010\n010010\n"
    code, out, _ = run(capsys, "bispecials", "0->01,1->0", "--orbit", "eps", "--steps", "3", "--format", "json")
    assert out == json.dumps({"seed": "", "steps": ["0", "010", "010010"]}, indent=2) + "\n"
    # the orbit needs no factor index, hence no prolongable letter
    code, out, _ = run(capsys, "bispecials", "0->10,1->01", "--orbit", "0", "--steps", "2")
    assert code == 0 and out.split() == ["0", "10", "0110"]


def test_equation_commands(capsys):
    code, out, _ = run(capsys, "equation", "pal-antipal", "010", "101")
    assert code == 0 and out.strip() == "u=0 i=1 j=1"
    code, out, _ = run(capsys, "equation", "commutation", "0101", "01", "--format", "json")
    assert json.loads(out) == {"ok": True, "u": "01", "i": 2, "j": 1}
    code, out, _ = run(capsys, "equation", "commutation", "0", "1", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["ok"] is False and payload["error"] == "NotCommuting"
    code, out, _ = run(capsys, "equation", "fine-wilf", "0101", "01", "010101")
    assert out.strip() == "z=01"
    code, out, _ = run(capsys, "equation", "normal-form", "0101")
    assert out.strip() == "c=0 k=2"
    code, out, _ = run(capsys, "equation", "transfer", "01", "0", "10", "--format", "json")
    assert json.loads(out) == {"ok": True, "u": "0", "v": "1", "i": 0}
    code, out, _ = run(capsys, "equation", "transfer", "01", "0", "01")
    assert code == 0 and out.strip() == "no solution: EquationFails: '01'+'0' != '0'+'01'"
    code, out, _ = run(capsys, "equation", "two-palindromes", "0110")
    assert out.strip() == "|0110\n0110|"
    code, out, _ = run(capsys, "equation", "two-antipalindromes", "0101", "--format", "json")
    assert json.loads(out) == {"ok": True, "splits": [["", "0101"], ["01", "01"], ["0101", ""]]}
    code, out, _ = run(capsys, "equation", "two-antipalindromes", "011")
    assert code == 0 and out.strip() == "(no split)"
    code, _, err = run(capsys, "equation", "commutation", "01")
    assert code == 1 and err.strip() == "error: equation commutation expects 2 word(s), got 1"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "0->0x,1->1")
    assert code == 1 and "error" in err
    code, _, _ = run(capsys, "nonsense-command")
    assert code == 1


def test_scan_space_counts():
    # one text of each letter-swap pair: the 36 raw pairs at image length
    # <= 2 collapse to 21; the list is the one a Morphism per pair gives
    for bound, count in zip(range(1, 7), (3, 21, 105, 465, 1953, 8001)):
        space = scan_space(bound)
        assert len(space) == count
        assert space == bf_scan_space(bound)


def _recount(path):
    """The summary fields of a finished scan file, counted line by line."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    verdicts = Counter(r["antipalindromic"]["verdict"] for r in records)
    return {
        "records": len(records),
        "verdicts": dict(sorted(verdicts.items())),
        "counterexample_candidates": [r["morphism"] for r in records if r["counterexample_candidate"]],
    }


def test_scan_deterministic_and_resumable(tmp_path, capsys):
    out1 = tmp_path / "p1.jsonl"
    out2 = tmp_path / "p2.jsonl"
    code, _, _ = run(capsys, "scan", "--max-image-len", "2", "--out", str(out1),
                     "--prefix-len", "2000", "--overwrite")
    assert code == 0
    code, _, _ = run(capsys, "scan", "--max-image-len", "2", "--out", str(out2),
                     "--prefix-len", "2000", "--parallelism", "3", "--overwrite")
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()

    # damage the tail, then resume
    lines = out1.read_text().splitlines()
    trunc = tmp_path / "resume.jsonl"
    trunc.write_text("\n".join(lines[:5]) + "\n" + lines[5][: len(lines[5]) // 2])
    code, out, _ = run(capsys, "scan", "--max-image-len", "2", "--out", str(trunc),
                       "--prefix-len", "2000")
    assert code == 0
    assert "resumed 5" in out
    assert trunc.read_bytes() == out1.read_bytes()
    recount = _recount(trunc)
    assert out.splitlines() == [
        f"records: {recount['records']} (resumed 5) -> {trunc}",
        *(f"  {v}: {n}" for v, n in recount["verdicts"].items()),
        f"counterexample candidates: {len(recount['counterexample_candidates'])}",
    ]


def test_scan_records_round_trip(tmp_path, capsys):
    out = tmp_path / "corpus.jsonl"
    run(capsys, "scan", "--max-image-len", "2", "--out", str(out),
        "--prefix-len", "2000", "--overwrite")
    for line in out.read_text().splitlines():
        record = json.loads(line)
        m = parse_morphism(record["morphism"])
        chain = conjugacy_chain(m)
        chain2 = conjugacy_chain(square(m))
        for key in ("class_p", "class_ep", "class_a1", "class_a2"):
            mem = record[key]
            if mem["witness"] is not None:
                w = witness_from_dict(mem["witness"])
                assert w.is_valid()
                # the witness rebuilds the member it was found on
                candidates = [m, square(m)] + list(chain.chain) + list(chain2.chain)
                assert w.build() in candidates
            for hit_key in ("conjugate", "square_conjugate"):
                hit = mem[hit_key]
                if hit is not None:
                    host = chain if hit_key == "conjugate" else chain2
                    rebuilt = witness_from_dict(hit["witness"]).build()
                    assert rebuilt == host.chain[hit["index"]]


def test_bad_numeric_arguments_rejected(capsys):
    code, _, err = run(capsys, "classify", "0->01,1->10", "--evidence-factor", "4")
    assert code == 1 and "unrecognized arguments: --evidence-factor 4" in err
    code, _, err = run(capsys, "classify", "0->01,1->10", "--prefix-len", "0")
    assert code == 1 and err.startswith("error: PreconditionViolated")
    code, _, err = run(capsys, "factors", "0->01,1->10", "--max-len", "0")
    assert code == 1 and "argument --max-len: must be at least 1, got 0" in err


def test_short_prefix_without_max_len_names_the_options(capsys):
    """Below 4 letters the default --max-len, a quarter of --prefix-len, is
    0: the error names the two options the user can change, not an n_max
    they never gave, and a --max-len that fits is answered."""
    for command in ("factors", "bispecials"):
        for prefix_len in ("1", "2", "3"):
            code, out, err = run(capsys, command, "0->01,1->10", "--prefix-len", prefix_len)
            assert code == 1 and out == "", (command, prefix_len)
            assert err.startswith("error: BadBounds") and "--prefix-len" in err and "--max-len" in err, err
            assert "n_max" not in err, err
            code, _, err = run(capsys, command, "0->01,1->10", "--prefix-len", prefix_len, "--max-len", "1")
            assert code == 0 and err == "", (command, prefix_len)


@pytest.mark.parametrize("command", ["factors", "bispecials"])
def test_max_len_bounds_name_the_options(capsys, command):
    """A --max-len below 1 is refused by the parser, and one past
    --prefix-len by an error that names both options, not an n_max the
    user never typed."""
    for max_len in ("0", "-3"):
        code, out, err = run(capsys, command, "0->01,1->10", "--max-len", max_len)
        assert code == 1 and out == "", max_len
        assert f"argument --max-len: must be at least 1, got {max_len}" in err, err
    for options in (("--max-len", "30000"), ("--max-len", "401", "--prefix-len", "400")):
        code, out, err = run(capsys, command, "0->01,1->10", *options)
        assert code == 1 and out == "", options
        assert err.startswith("error: BadBounds") and "--max-len" in err and "--prefix-len" in err, err
        assert "n_max" not in err, err
    code, _, err = run(capsys, command, "0->01,1->10", "--max-len", "400", "--prefix-len", "400")
    assert code == 0 and err == ""


@pytest.mark.parametrize("command", ["classify", "analyze", "factors", "bispecials", "bispecials-orbit", "fixedpoint"])
def test_unusable_seed_letter_rejected(capsys, command):
    # 1 is prolongable neither on the Fibonacci morphism nor on its square
    letter = ("--letter", "1") if command == "fixedpoint" else ("--seed-letter", "1", "--prefix-len", "400")
    orbit = ("--orbit", "0", "--steps", "2") if command == "bispecials-orbit" else ()
    code, out, err = run(capsys, command.removesuffix("-orbit"), "0->01,1->0", *letter, *orbit)
    assert code == 1 and out == ""
    assert err.startswith("error: PreconditionViolated")


@pytest.mark.parametrize("text", scan_space(2))
def test_commands_agree_on_the_fixed_point(capsys, text):
    for seed in (None, "0", "1"):
        common = ("--prefix-len", "400", "--format", "json") + (("--seed-letter", seed) if seed else ())
        results = {
            command: run(capsys, command, text, *common)
            for command in ("classify", "analyze", "factors", "bispecials")
        }
        codes = {command: code for command, (code, _, _) in results.items()}
        if seed is not None and 1 in codes.values():
            assert set(codes.values()) == {1}, (text, seed, codes)
            continue
        assert codes["classify"] == codes["analyze"] == 0, (text, seed, codes)
        census = json.loads(results["analyze"][1])["census"]
        if census is None:
            assert codes["factors"] == codes["bispecials"] == 1, (text, seed, codes)
            continue
        assert codes["factors"] == codes["bispecials"] == 0, (text, seed, codes)
        factors = json.loads(results["factors"][1])
        rows = [r for r in factors["census"] if r["certified"]]
        assert factors["stable_up_to"] == census["stable_up_to"], (text, seed)
        for key, column in (("factors", "factor_count"), ("palindromes", "palindrome_count"),
                            ("antipalindromes", "antipalindrome_count")):
            assert census[key] == sum(r[column] for r in rows), (text, seed, key)


def test_seed_letter_picks_the_evidence_seed(capsys):
    code, out, _ = run(capsys, "classify", "0->01,1->10", "--seed-letter", "1",
                       "--prefix-len", "400", "--format", "json")
    assert code == 0
    evidence = json.loads(out)["antipalindromic"]["evidence"]
    assert (evidence["source"], evidence["letter"]) == ("self", "1")
    # no letter is prolongable on 0->10,1->01, both are on its square
    code, out, _ = run(capsys, "analyze", "0->10,1->01", "--seed-letter", "1",
                       "--prefix-len", "400", "--format", "json")
    assert code == 0
    evidence = json.loads(out)["antipalindromic"]["evidence"]
    assert (evidence["source"], evidence["letter"]) == ("square", "1")


def test_analyze_short_prefix_has_no_census(capsys):
    # below 4 letters no census length fits, so the census is null
    code, out, _ = run(capsys, "analyze", "0->01,1->10", "--prefix-len", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["census"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["fixedpoint", "0->01,1->10", "--length", "-5"],
        ["bispecials", "0->01,1->10", "--orbit", "0", "--steps", "-2"],
        ["scan", "--max-image-len", "1", "--parallelism", "0"],
        # options a subcommand never reads are not offered
        ["scan", "--max-image-len", "1", "--seed-letter", "1"],
        ["fixedpoint", "0->01,1->10", "--seed-letter", "1"],
        ["equation", "commutation", "01", "01", "--prefix-len", "5"],
        ["classify", "0->01,1->10", "--format", "csv"],
        # one option, --prefix-len, sets both evidence scales
        ["analyze", "0->01,1->10", "--evidence-factor", "4"],
        ["scan", "--max-image-len", "1", "--evidence-factor", "4"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_options_rejected_at_parse_time(tmp_path, capsys, argv):
    out = tmp_path / "scan.jsonl"
    if argv[0] == "scan":
        argv = argv + ["--out", str(out), "--prefix-len", "100"]
    code, stdout, err = run(capsys, *argv)
    assert code == 1 and stdout == ""
    assert "usage:" in err
    assert not out.exists()


def test_readme_option_table_matches_the_parser():
    """Each row of README's option table lists exactly the options that
    subcommand's parser offers, --help aside."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = dict(re.findall(r"^\| `([a-z]+)` +\| (.*) \|$", readme.read_text(), re.MULTILINE))
    subparsers = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert rows.keys() == subparsers.choices.keys()
    for name, listed in rows.items():
        offered = [o for a in subparsers.choices[name]._actions for o in a.option_strings if o.startswith("--")]
        assert sorted(re.findall(r"`(--[a-z-]+)`", listed)) == sorted(o for o in offered if o != "--help"), name


def _scan(capsys, out, *extra):
    return run(capsys, "scan", "--max-image-len", "2", "--out", str(out), "--format", "json", *extra)


def test_scan_redoes_damaged_tail(tmp_path, capsys):
    full = tmp_path / "full.jsonl"
    _scan(capsys, full, "--prefix-len", "2000", "--overwrite")
    lines = full.read_bytes().split(b"\n")
    head = b"".join(line + b"\n" for line in lines[:12])
    # the last record is complete JSON, but a record ends with its newline;
    # a crash can also leave a tail of NUL bytes, or a line that is valid
    # JSON but not a record
    partial = json.dumps({"morphism": json.loads(lines[12])["morphism"]}).encode()
    for damaged, resumed in (
        (full.read_bytes()[:-1], 20),
        (head + b"\x00" * 64, 12),
        (head + b"[]\n", 12),
        (head + partial + b"\n" + lines[13] + b"\n", 12),
    ):
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(damaged)
        code, out, _ = _scan(capsys, cut, "--prefix-len", "2000")
        summary = json.loads(out)
        assert code == 0 and summary["resumed"] == resumed
        assert cut.read_bytes() == full.read_bytes()
        assert {key: summary[key] for key in ("records", "verdicts", "counterexample_candidates")} == _recount(cut)


def test_scan_resume_refuses_other_settings(tmp_path, capsys):
    full = tmp_path / "full.jsonl"
    _scan(capsys, full, "--prefix-len", "1000", "--overwrite")
    lines = full.read_bytes().split(b"\n")
    damaged = b"\n".join(lines[:8]) + b"\n" + lines[8][:40]
    # records whose longer scale is twice, not four times, the shorter one
    halved = damaged.replace(b'"big_len":4000', b'"big_len":2000')
    assert halved != damaged
    out = tmp_path / "resume.jsonl"
    for made, prefix_len, lengths in ((damaged, "2000", "(1000, 4000)"), (halved, "1000", "(1000, 2000)")):
        out.write_bytes(made)
        code, stdout, err = _scan(capsys, out, "--prefix-len", prefix_len)
        assert code == 1 and stdout == ""
        assert f"made with evidence lengths {lengths}" in err
        assert out.read_bytes() == made
    out.write_bytes(damaged)
    code, stdout, _ = _scan(capsys, out, "--prefix-len", "1000")
    assert code == 0 and json.loads(stdout)["resumed"] == 8
    assert out.read_bytes() == full.read_bytes()
    # complete records made under another --max-image-len, longer or shorter
    for made, resumed in (("2", "1"), ("1", "2")):
        other = tmp_path / f"max{made}.jsonl"
        run(capsys, "scan", "--max-image-len", made, "--out", str(other), "--prefix-len", "100")
        before = other.read_bytes()
        code, stdout, err = run(capsys, "scan", "--max-image-len", resumed, "--out", str(other), "--prefix-len", "100")
        assert code == 1 and stdout == ""
        assert "made with another --max-image-len (record 2 is" in err
        assert other.read_bytes() == before


def test_scan_crash_keeps_finished_records(tmp_path, capsys):
    full = tmp_path / "full.jsonl"
    _scan(capsys, full, "--prefix-len", "2000", "--overwrite")
    lines = full.read_bytes().split(b"\n")
    finished = b"".join(line + b"\n" for line in lines[:15])
    out = tmp_path / "resume.jsonl"
    out.write_bytes(finished + lines[15][:100])
    # a resume whose first classify call kills its own process
    argv = ["scan", "--max-image-len", "2", "--out", str(out), "--prefix-len", "2000"]
    script = (
        "import os, signal, sys\n"
        "from antipal import cli\n"
        "cli.classify = lambda *args: os.kill(os.getpid(), signal.SIGKILL)\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    src = str(Path(antipal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=120)
    assert proc.returncode == -signal.SIGKILL
    assert out.read_bytes() == finished


class _CountingPool:
    """Stands in for ProcessPoolExecutor: records the worker count, runs in-process.

    When ``out`` is set, each submit also records how many chunks have been
    submitted and not yet written to that file.
    """

    workers = []
    in_flight = []
    out = None

    def __init__(self, max_workers):
        self.workers.append(max_workers)
        self.submitted = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted += 1
        if self.out is not None:
            written = self.out.read_text().count("\n") // cli._SCAN_CHUNK
            self.in_flight.append(self.submitted - written)
        future = Future()
        future.set_result(fn(*args))
        return future


def test_scan_pool_is_capped(tmp_path, capsys, monkeypatch):
    # 21 records make 3 chunks; nothing is spawned, the pool is a stand-in
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingPool)
    monkeypatch.setattr(_CountingPool, "workers", [])
    for cores, expected in ((2, 2), (8, 3)):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        code, _, _ = _scan(capsys, tmp_path / "pool.jsonl", "--prefix-len", "100", "--overwrite",
                           "--parallelism", "64")
        assert code == 0
    assert _CountingPool.workers == [2, 3]


def test_scan_bounds_the_chunks_in_flight(tmp_path, capsys, monkeypatch):
    # the <= 3 space is 105 records in 14 chunks, more than 2 workers may
    # hold submitted and not yet written; the bytes match the in-process run
    out, serial = tmp_path / "p2.jsonl", tmp_path / "p1.jsonl"
    bound = cli._IN_FLIGHT * 2
    assert bound < 14
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingPool)
    monkeypatch.setattr(_CountingPool, "workers", [])
    monkeypatch.setattr(_CountingPool, "in_flight", [])
    monkeypatch.setattr(_CountingPool, "out", out)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for path, parallelism in ((out, "2"), (serial, "1")):
        code, _, _ = run(capsys, "scan", "--max-image-len", "3", "--out", str(path), "--prefix-len", "100",
                         "--parallelism", parallelism)
        assert code == 0
    assert _CountingPool.workers == [2]
    assert len(_CountingPool.in_flight) == 14
    assert max(_CountingPool.in_flight) <= bound
    assert out.read_bytes() == serial.read_bytes()


_COLD_START = """
import contextlib, io, json, sys
import antipal
import antipal.cli

heavy = ("numpy", "antipal.language", "concurrent.futures.process")
loaded = {"import": [name for name in heavy if name in sys.modules]}
lazy_listed = {"CensusRow", "FactorIndex", "bispecial_orbit", "bispecial_successor", "build_index"} <= set(dir(antipal))
for argv in (["--help"], ["equation", "pal-antipal", "010", "101"], ["fixedpoint", "0->01,1->0", "--length", "18"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert antipal.cli.main(argv) == 0, argv
    loaded[argv[0]] = [name for name in heavy if name in sys.modules]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = antipal.cli.main(sys.argv[1:])
json.dump({"loaded": loaded, "lazy_listed": lazy_listed, "code": code, "out": out.getvalue(),
           "numpy": "numpy" in sys.modules,
           "same_build_index": antipal.build_index is antipal.language.build_index}, sys.stdout)
"""


def test_cold_start_loads_numpy_on_first_use(capsys):
    # a fresh interpreter: the commands that compute nothing with numpy load
    # neither numpy, the factor index nor the process pool
    classify = ["classify", "0->0101,1->1100", "--format", "json"]
    src = str(Path(antipal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _COLD_START, *classify], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["loaded"] == {"import": [], "--help": [], "equation": [], "fixedpoint": []}
    assert report["lazy_listed"]
    assert report["numpy"] and report["same_build_index"]
    assert (report["code"], report["out"]) == run(capsys, *classify)[:2]
