import argparse
import csv
import decimal
import io
import json
import math
import os
from collections import Counter
from itertools import product

import pytest

from twoadic import analysis, cli, numtheory, verify
from twoadic.sequences import ADMISSIBLE_W, BinarySequence, construction_params, su_sequence

SU13 = "0101000011100101100111001001011101110111100000101010"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------- construct

def test_construct_reference(capsys):
    code, out, _ = run(capsys, "construct", "--p", "13", "--g", "2", "--w", "0101")
    assert code == 0
    header, body = out.strip().splitlines()
    assert header == "# p=13 g=2 a=-3 b=1 d=10 w=0101"
    assert body == f"N=52;{SU13}"
    assert len(body.split(";")[1]) == 52


def test_parser_is_built_once_per_process(capsys):
    cli._build_parser.cache_clear()
    for argv in (["construct", "--p", "13"], ["analyze", "--p", "13"],
                 ["verify", "--limit", "60"], ["survey", "--limit", "60"]):
        assert run(capsys, *argv)[0] == 0
    assert cli._build_parser.cache_info().misses == 1


def test_parser_keeps_no_state_after_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])  # --limit is required
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "construct", "--p", "13", "--g", "2", "--w", "0101")
    assert code == 0
    assert out == f"# p=13 g=2 a=-3 b=1 d=10 w=0101\nN=52;{SU13}\n"


def test_construct_defaults_to_smallest_root(capsys):
    code, out, _ = run(capsys, "construct", "--p", "13")
    assert code == 0 and "g=2" in out


def test_construct_rejects_bad_primes(capsys):
    code, _, err = run(capsys, "construct", "--p", "12")
    assert code == 2 and "eligible" in err
    code, _, err = run(capsys, "construct", "--p", "17")
    assert code == 2  # 17 - 4 is not a perfect square
    code, out, err = run(capsys, "construct", "--p", "-13")
    assert (code, out) == (2, "") and "p=-13 is not an eligible prime" in err


@pytest.mark.parametrize("command", ["construct", "analyze"])
@pytest.mark.parametrize("p", ["1054733", "1000014000053"])
def test_p_over_the_period_limit_exits_2(monkeypatch, capsys, command, p):
    # eligible primes whose period 4p exceeds what a sequence file may hold;
    # the refusal comes before the O(p) cyclotomy (a TB at the second p)
    def no_cyclotomy(p):
        raise AssertionError(f"the cyclotomy of {p} was built")

    monkeypatch.setattr(numtheory, "_cyclotomy", no_cyclotomy)
    code, out, err = run(capsys, command, "--p", p)
    assert (code, out) == (2, "")
    assert err == (f"twoadic: p={p} is too large: its period 4p exceeds the "
                   f"{cli.MAX_SEQUENCE_FILE_BYTES} bits a sequence file may hold\n")


def test_construct_rejects_non_primitive_root(capsys):
    code, _, err = run(capsys, "construct", "--p", "13", "--g", "4")
    assert code == 3 and "primitive" in err


def test_construct_w_validation(capsys):
    code, _, _ = run(capsys, "construct", "--p", "13", "--w", "01a1")
    assert code == 2
    code, _, _ = run(capsys, "construct", "--p", "13", "--w", "0110")
    assert code == 2
    code, out, _ = run(capsys, "construct", "--p", "13", "--w", "0110",
                       "--allow-any-w")
    assert code == 0 and "w=0110" in out


def test_construct_every_w_is_the_offset_pattern(capsys):
    # Column j of the construction is complemented exactly when w(j) = 1, so
    # every w, admissible or forced, is the w = 0000 sequence XOR a repeated
    # nibble; g = 8 has e = 3 relative to the smallest root 2 of 29.
    p, g = 29, 8
    base = su_sequence(construction_params(p, g, (0, 0, 0, 0))).value
    for w in product((0, 1), repeat=4):
        text = "".join(map(str, w))
        nibble = sum(bit << j for j, bit in enumerate(w))
        expected = str(BinarySequence(4 * p, base ^ nibble * ((16 ** p - 1) // 15)))
        for extra in ([], ["--allow-any-w"]):
            code, out, _ = run(capsys, "construct", "--p", str(p), "--g", str(g),
                               "--w", text, *extra)
            if w not in ADMISSIBLE_W and not extra:
                assert code == 2
                continue
            assert code == 0
            assert out == f"# p=29 g=8 a=5 b=-1 d=22 w={text}\nN=116;{expected}\n"


def test_construct_to_file_round_trips(tmp_path, capsys):
    target = tmp_path / "seq.txt"
    code, _, _ = run(capsys, "construct", "--p", "13", "--out", str(target))
    assert code == 0
    from twoadic.sequences import parse_sequence_literal
    assert str(parse_sequence_literal(target.read_text())) == SU13


# ----------------------------------------------------------------- analyze

def test_analyze_reference_plain(capsys):
    code, out, _ = run(capsys, "analyze", "--p", "13")
    assert code == 0
    assert "gcd(S(2), 2^N-1): 5" in out
    assert "two-adic complexity: 49" in out


def test_analyze_reference_json(capsys):
    code, out, _ = run(capsys, "analyze", "--p", "13", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"] == {"p": 13, "g": 2, "w": "0101", "a": -3, "b": 1, "d": 10}
    assert payload["two_adic"]["gcd"] == "5"
    assert payload["two_adic"]["phi"] == 49
    assert payload["two_adic"]["s2"] == "1479869254444810"


def test_analyze_histogram_counts(capsys):
    code, out, _ = run(capsys, "analyze", "--p", "5", "--format", "json")
    payload = json.loads(out)
    assert payload["ac_histogram"]["0"] == 4  # p - 1 zero shifts


def test_analyze_sequence_file(tmp_path, capsys):
    f = tmp_path / "ones.txt"
    f.write_text("N=8;11111111\n")
    code, out, _ = run(capsys, "analyze", "--sequence-file", str(f),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"] is None
    assert payload["two_adic"]["phi"] == 1
    assert payload["linear_complexity"] == 1


def test_analyze_file_errors(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", "--sequence-file",
                       str(tmp_path / "missing.txt"))
    assert code == 4
    bad = tmp_path / "bad.txt"
    bad.write_text("N=9;0101\n")
    code, _, _ = run(capsys, "analyze", "--sequence-file", str(bad))
    assert code == 4


def test_analyze_refuses_oversized_file(tmp_path, capsys):
    limit = cli.MAX_SEQUENCE_FILE_BYTES
    assert limit >= 10 * 4 * 10**5  # well past periods N = 4p at p ~ 10^5
    big = tmp_path / "big.txt"
    big.write_bytes(b"")
    os.truncate(big, limit + 1)  # sparse: one byte over, nothing written
    code, out, err = run(capsys, "analyze", "--sequence-file", str(big))
    assert code == 4 and out == ""
    assert err == f"twoadic: sequence file is larger than {limit} bytes\n"
    os.truncate(big, limit)  # at the bound the file is read and parsed
    code, _, err = run(capsys, "analyze", "--sequence-file", str(big))
    assert code == 4 and "cannot read sequence file" in err


def test_analyze_needs_an_input(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 2 and "--p" in err


def test_analyze_rejects_both_inputs(tmp_path, capsys):
    f = tmp_path / "s.txt"
    f.write_text("0101\n")
    code, _, err = run(capsys, "analyze", "--p", "13", "--sequence-file", str(f))
    assert code == 2 and "not both" in err


@pytest.mark.parametrize("flags", [["--w", "1111"], ["--w", "0101"], ["--g", "99"],
                                   ["--g", "0"], ["--allow-any-w"],
                                   ["--w", "1111", "--g", "99", "--allow-any-w"]])
def test_analyze_sequence_file_refuses_instance_flags(tmp_path, capsys, flags):
    # --g, --w and --allow-any-w describe a constructed instance; a file has none
    f = tmp_path / "s.txt"
    f.write_text("N=8;11111111\n")
    code, out, err = run(capsys, "analyze", "--sequence-file", str(f), *flags)
    assert (code, out) == (2, "")
    assert err == "twoadic: --g, --w and --allow-any-w need --p, not --sequence-file\n"
    code, out, _ = run(capsys, "analyze", "--sequence-file", str(f))
    assert code == 0 and out.startswith("period: 8\n")


def test_analyze_csv(capsys):
    code, out, _ = run(capsys, "analyze", "--p", "13", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["gcd"] == "5" and cells["phi"] == "49"


def test_analyze_past_decimal_digit_limit(capsys):
    # S(2) of period 16916 has about 5100 decimal digits, more than str()
    # converts by default; every output format must still print it exactly.
    code, out, _ = run(capsys, "construct", "--p", "4229")
    assert code == 0
    payload = out.splitlines()[1].split(";")[1]
    n = len(payload)
    s2 = int(payload[::-1], 2) % ((1 << n) - 1)

    code, out, err = run(capsys, "analyze", "--p", "4229", "--format", "json")
    assert code == 0 and err == ""
    report = json.loads(out)["two_adic"]
    assert len(report["s2"]) > 4300
    assert int(decimal.Decimal(report["s2"])) == s2
    gcd, f = (int(decimal.Decimal(report[k])) for k in ("gcd", "f"))
    assert gcd * f == (1 << n) - 1 and gcd == math.gcd(s2, (1 << n) - 1)
    assert report["phi"] == (f + 1).bit_length() - 1

    for fmt in ("plain", "csv"):
        code, out, _ = run(capsys, "analyze", "--p", "4229", "--format", fmt)
        assert code == 0 and report["s2"] in out and report["f"] in out


def test_verify_json_past_decimal_digit_limit(capsys):
    code, out, err = run(capsys, "verify", "--limit", "5000", "--w", "all",
                         "--format", "json")
    assert code == 1  # only the documented w = 0000/1111 failures
    records = json.loads(out)
    assert max(len(r["witnesses"].get("s2", "")) for r in records) > 4300
    assert {r["w"] for r in records if not r["pass"]} == {"0000", "1111"}
    assert "FAIL" in err


@pytest.mark.parametrize("argv", [
    ("construct", "--p", "13"),
    ("analyze", "--p", "13"),
    ("verify", "--limit", "30"),
    ("survey", "--limit", "30"),
])
def test_unwritable_out_exits_5(tmp_path, capsys, argv):
    target = tmp_path / "missing-dir" / "x"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == cli.EXIT_BAD_OUTPUT == 5
    assert out == ""
    assert err.startswith("twoadic: cannot write output") and "Traceback" not in err
    assert not target.exists()


# ------------------------------------------------------------------ verify

@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(capsys, "verify", "--limit", "60", "--jobs", jobs)
    assert code == 2
    assert out == "" and "jobs" in err


def test_verify_small_grid_green(capsys):
    code, out, err = run(capsys, "verify", "--limit", "60")
    assert code == 0
    assert "passed 20 of 20 checks" in out
    assert err == ""


def test_verify_empty_grid(capsys):
    code, out, _ = run(capsys, "verify", "--limit", "4")
    assert code == 0
    assert "passed 0 of 0 checks" in out


def test_verify_csv_shape(tmp_path, capsys):
    target = tmp_path / "r.csv"
    code, _, _ = run(capsys, "verify", "--limit", "60", "--format", "csv",
                     "--out", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0].startswith("p,g,w,b,check,pass")
    assert len(lines) == 21


def test_verify_deterministic_output(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "verify", "--limit", "60", "--format", "json", "--out", str(a))
    run(capsys, "verify", "--limit", "60", "--format", "json", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_verify_parallel_matches_serial(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "verify", "--limit", "60", "--format", "csv", "--out", str(a))
    run(capsys, "verify", "--limit", "60", "--format", "csv", "--jobs", "2",
        "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_verify_exit_one_on_corrupted_fixture(monkeypatch, capsys):
    real = su_sequence

    def tampered(params):
        s = real(params)
        return BinarySequence(s.period, s.value ^ 1) if params.p == 5 else s

    monkeypatch.setattr(verify, "su_sequence", tampered)
    code, out, err = run(capsys, "verify", "--limit", "60")
    assert code == 1
    assert "FAIL" in out
    assert "FAIL" in err and "p=5" in err


def test_verify_shows_a_missing_b_used_as_empty(monkeypatch, capsys):
    # a closed form matching at neither sign of b leaves the witness b_used None;
    # its 20 orbit values are patched at their one source, which both the
    # symmetry certificate and the packed closed form read
    monkeypatch.setattr(analysis, "_closed_form_values", lambda n, b, eps: (0,) * 4 + (n,) + (0,) * 15)
    code, out, err = run(capsys, "verify", "--limit", "5", "--format", "csv")
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(out)))
    gate = next(row for row in rows if row["check"] == verify.SPECTRUM_CHECK)
    assert (gate["pass"], gate["b_used"]) == ("false", "")
    assert err.startswith("twoadic: FAIL autocorrelation-spectrum p=5 ")
    assert " b_used= magnitude_ok=true" in err
    assert "None" not in out + err


def test_verify_rejects_bad_explicit_root(capsys):
    # the code and wording construct uses: 4 is a square mod 5
    for command in ("verify", "survey"):
        code, out, err = run(capsys, command, "--limit", "30", "--g", "4")
        assert (code, out, err) == (3, "", "twoadic: g=4 is not a primitive root of 5\n")
    # 3 generates Z_5* but has order 3 mod 13: the first prime refusing g is named
    code, _, err = run(capsys, "verify", "--limit", "30", "--g", "3")
    assert (code, err) == (3, "twoadic: g=3 is not a primitive root of 13\n")


def test_grid_rejects_inadmissible_explicit_w(capsys):
    for command in ("verify", "survey"):
        code, out, err = run(capsys, command, "--limit", "30", "--w", "0110")
        assert (code, out) == (2, "")
        assert err == "twoadic: w=0110 is not admissible (need w0=w2, w1=w3)\n"


def test_verify_all_roots_policy(capsys):
    code, out, _ = run(capsys, "verify", "--limit", "13", "--g", "all")
    assert code == 0
    # p=5 has 2 primitive roots, p=13 has 4; each (p,g) runs 4 checks,
    # plus one coprimality check per prime
    assert "passed 26 of 26 checks" in out


# One flag per grid axis: each --g and --w value and the library policy it names.
GRID_G = {"smallest": "smallest", "all": "all", "2": 2}
GRID_W = {"default": "default", "all": "all", "1010": (1, 0, 1, 0)}
SURVEY_ROWS_AT_30 = {("smallest", "default"): 3, ("all", "default"): 18, ("all", "all"): 72}


@pytest.mark.parametrize("w", GRID_W)
@pytest.mark.parametrize("g", GRID_G)
def test_grid_flags_name_the_library_policies(capsys, g, w):
    rows = verify.survey_conjecture(30, GRID_G[g], GRID_W[w])
    code, out, err = run(capsys, "survey", "--limit", "30", "--g", g, "--w", w,
                         "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps([r.to_record() for r in rows], indent=2) + "\n"
    if (g, w) in SURVEY_ROWS_AT_30:
        assert len(rows) == SURVEY_ROWS_AT_30[g, w]

    reports, summary = verify.run_all(30, GRID_G[g], GRID_W[w])
    code, out, _ = run(capsys, "verify", "--limit", "30", "--g", g, "--w", w,
                       "--format", "json")
    assert code == (1 if summary["failed"] else 0)
    assert out == json.dumps([r.to_record() for r in reports], indent=2) + "\n"


@pytest.mark.parametrize("flags", [["--g-policy", "all"], ["--w-policy", "all"],
                                   ["--g", "x"], ["--g", "+2"], ["--g", "all", "--g-policy", "all"]])
@pytest.mark.parametrize("command", ["verify", "survey"])
def test_grid_refuses_the_old_policy_flags_and_a_bad_g(capsys, command, flags):
    try:
        code = cli.main([command, "--limit", "30", *flags])
    except SystemExit as exc:  # argparse: unrecognized arguments
        code = exc.code
    assert (code, capsys.readouterr().out) == (2, "")


@pytest.mark.parametrize("argv", [
    ["construct", "--p", "\uff11\uff13"],  # full-width 13
    ["construct", "--p", "+13"],
    ["analyze", "--p", "13", "--g", " 2"],
    ["survey", "--limit", "\uff13\uff10"],
    ["survey", "--limit", "1_0_0"],
    ["survey", "--limit", "30", "--jobs", "\uff12"],
])
def test_integer_flags_take_ascii_digits_only(capsys, argv):
    # --p, --limit, --jobs and the instance --g, as the grid --g does
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert f"invalid int value: {argv[-1]!r}" in captured.err


# ------------------------------------------------------------------ survey

def test_survey_csv_full_range(capsys):
    code, out, _ = run(capsys, "survey", "--limit", "500", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("p,g,w,gcd_full,gcd_minus,gcd_plus,phi,"
                        "lower_bound,upper_bound,gcd_plus_is_5")
    assert len(lines) == 8  # header + 7 eligible primes
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[4] == "1" and cells[5] == "5" and cells[9] == "true"


def test_survey_json_and_policies(capsys):
    code, out, _ = run(capsys, "survey", "--limit", "60", "--w", "all",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 16
    ws = {r["w"] for r in rows}
    assert ws == {"0000", "0101", "1010", "1111"}


def test_survey_empty(capsys):
    code, out, _ = run(capsys, "survey", "--limit", "4", "--format", "plain")
    assert code == 0 and "0 rows" in out


def test_survey_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "survey", "--limit", "60", "--format", "csv", "--out", str(a))
    run(capsys, "survey", "--limit", "60", "--format", "csv", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_survey_parallel_matches_serial(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "survey", "--limit", "300", "--g", "all", "--w", "all",
        "--format", "csv", "--out", str(a))
    run(capsys, "survey", "--limit", "300", "--g", "all", "--w", "all",
        "--format", "csv", "--jobs", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_survey_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(capsys, "survey", "--limit", "60", "--jobs", jobs)
    assert code == 2
    assert out == "" and "jobs must be >= 1" in err


# ------------------------------------------------------- witness rendering

@pytest.fixture
def renders(monkeypatch):
    """Every int handed to decimal_str by the verify and cli modules."""
    seen = []

    def counting(n):
        seen.append(n)
        return str(decimal.Decimal(n))

    for module in (cli, verify):
        monkeypatch.setattr(module, "decimal_str", counting)
    return seen


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_renders_each_witness_once(renders, capsys, fmt):
    for g_policy in ("smallest", "all"):
        renders.clear()
        code, out, err = run(capsys, "verify", "--limit", "300", "--g", g_policy,
                             "--w", "all", "--format", fmt)
        assert code == 1 and "FAIL" in err  # the stderr line reads the same records
        reports, _ = verify.run_all(300, g_policy=g_policy, w_policy="all")
        expected = [v for r in reports for v in r.witnesses.values()
                    if isinstance(v, int) and not isinstance(v, bool)]
        big = [v for v in expected if v >= 1 << 64]
        assert big
        if g_policy == "all":  # the roots of one construction share its witnesses
            assert len(big) > len(set(big))
        # the identity cells p, g and b are small ints, written by str()
        assert Counter(renders) == Counter(set(expected))


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_all_g_survey_renders_each_gcd_once(renders, capsys, fmt):
    code, out, err = run(capsys, "survey", "--limit", "300", "--g", "all",
                         "--w", "all", "--format", fmt)
    assert code == 0 and err == ""
    rows = verify.survey_conjecture(300, "all", "all")
    gcds = [v for r in rows for v in (r.gcd_full, r.gcd_minus, r.gcd_plus)]
    assert len(gcds) > 3 * len(set(gcds))
    assert set(gcds) <= set(renders) and max(Counter(renders).values()) == 1


def test_green_plain_verify_renders_no_witness(renders, capsys):
    code, out, err = run(capsys, "verify", "--limit", "300")
    assert code == 0 and err == "" and "passed" in out
    assert renders == []


def test_parser_adds_each_flag_set_in_help_order(monkeypatch):
    # one ArgumentParser for the program and one per subcommand, no parent
    # parsers; each subcommand lists its flags in the order --help shows them
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    parser = cli._build_parser.__wrapped__()
    assert len(built) == 5
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: [a.option_strings[0] for a in p._actions] for name, p in sub.choices.items()}
    instance, grid = ["--g", "--w", "--allow-any-w"], ["--limit", "--g", "--w", "--jobs"]
    assert flags == {"construct": ["-h", *instance, "--out", "--p"],
                     "analyze": ["-h", *instance, "--out", "--format", "--p", "--sequence-file"],
                     "verify": ["-h", *grid, "--out", "--format"],
                     "survey": ["-h", *grid, "--out", "--format"]}
