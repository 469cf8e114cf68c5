import json

from antipal.cli import main, scan_space
from antipal.membership import witness_from_dict
from antipal.morphisms import conjugacy_chain, parse_morphism, square


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
    assert json.loads(out)["steps"] == ["01", "0110"]
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
    # 36 raw pairs at image length <= 2 collapse to 21 under relabeling
    space = scan_space(2)
    assert len(space) == 21
    assert space == sorted(space)


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
    code, _, err = run(capsys, "classify", "0->01,1->10", "--evidence-factor", "1")
    assert code == 1 and err.startswith("error: PreconditionViolated")
    code, _, err = run(capsys, "classify", "0->01,1->10", "--prefix-len", "0")
    assert code == 1 and err.startswith("error: PreconditionViolated")
    code, _, err = run(capsys, "factors", "0->01,1->10", "--max-len", "0")
    assert code == 1 and err.startswith("error: BadBounds")
