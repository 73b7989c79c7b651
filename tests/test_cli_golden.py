"""Golden CLI outputs: the sha256 of stdout and stderr, and the exit code.

Each command runs in process through ``cli.main`` from a temporary working
directory, so relative paths in error messages are fixed. The digests pin
every byte of the reports, the JSON/CSV layouts and the one-line error
messages. No case reaches argparse's usage or ``--help`` text.
"""

import hashlib

import pytest

from twoadic import cli

ALL = ("--g", "all", "--w", "all")

CASES = {
    "verify-plain": ("verify", "--limit", "300", *ALL),
    "verify-csv": ("verify", "--limit", "300", *ALL, "--format", "csv"),
    "verify-json": ("verify", "--limit", "300", *ALL, "--format", "json"),
    "survey-plain": ("survey", "--limit", "1100", *ALL),
    "survey-csv": ("survey", "--limit", "1100", *ALL, "--format", "csv"),
    "survey-json": ("survey", "--limit", "1100", *ALL, "--format", "json"),
    "analyze-plain": ("analyze", "--p", "2213", "--g", "27"),
    "analyze-csv": ("analyze", "--p", "2213", "--g", "27", "--format", "csv"),
    "analyze-json": ("analyze", "--p", "2213", "--g", "27", "--format", "json"),
    "construct-any-w": ("construct", "--p", "9413", "--g", "27", "--w", "0110",
                        "--allow-any-w"),
    "err-ineligible-p": ("construct", "--p", "12"),
    "err-non-primitive-g": ("construct", "--p", "13", "--g", "4"),
    "err-inadmissible-w": ("construct", "--p", "13", "--w", "0110"),
    "err-malformed-w": ("construct", "--p", "13", "--w", "01a1"),
    "err-analyze-no-input": ("analyze",),
    "err-analyze-both-inputs": ("analyze", "--p", "13", "--sequence-file", "s.txt"),
    "err-missing-sequence-file": ("analyze", "--sequence-file", "missing.txt"),
    "err-verify-jobs-0": ("verify", "--limit", "60", "--jobs", "0"),
    "err-verify-non-primitive-g": ("verify", "--limit", "30", "--g", "4"),
    "err-survey-inadmissible-w": ("survey", "--limit", "30", "--w", "0110"),
    "err-out-missing-dir": ("construct", "--p", "13", "--out", "missing/x.txt"),
}

EMPTY = hashlib.sha256(b"").hexdigest()
# stderr of the verify cases: the one FAIL line of the first failing check
# (small-factor-gcds at p = 5, w = 0000), whatever the format.
FAIL_LINE = "13bd1c06dbdd1f46145b12332a4e924a5e685b6ddd8ab28016b3b36b88468dfb"

# (exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = {
    "analyze-csv": (0, "ea3997787ce8a498e97e6021ce47a70e185a1764c09d68b807f4b36bd47ed343", EMPTY),
    "analyze-json": (0, "0658668e43c497f140e67dd3236aa2fa38d9f8d26c38fa76a4b69ab992da391b", EMPTY),
    "analyze-plain": (0, "00d602fe0b606803e12fe0d8154b6d18e89494b90d388a28a84c7979166fa734", EMPTY),
    "construct-any-w": (0, "12f67048e37d6353cc1ff03ebeacaa16547c141f5bf0cdd58ad24416fa4c15d9", EMPTY),
    "err-analyze-both-inputs": (2, EMPTY, "2d3a3683ea8218943ee18cdc0bfd75c7aa536648af4cd0555663acf47571ae06"),
    "err-analyze-no-input": (2, EMPTY, "7a91e3158bb2ddca4ef4bf3f226d3eab0670f96ccd0ff9c2a6e0296d66f732a7"),
    "err-inadmissible-w": (2, EMPTY, "fdb72e94c6e0cd619e20cb866c88b47ef20324bf26decbbd412c8e630089bb98"),
    "err-ineligible-p": (2, EMPTY, "c910273bf7ab0183f614c04ef541fe6c52f8ea6f41628ab54696146955ad8bfa"),
    "err-malformed-w": (2, EMPTY, "2f85471e748e9bcdba335dbf2a59a1e47377fc103f59d160f5b966c3788932e9"),
    "err-missing-sequence-file": (4, EMPTY, "349aca8bc4c73f3dc900fcb4a8e058d0302977e36f48b0d8129b59ddf7f958c7"),
    "err-non-primitive-g": (3, EMPTY, "f915b19f20e8d6831449699fb62c85bf823ba6f08d39fa01ae92cd369dd6f228"),
    "err-out-missing-dir": (5, EMPTY, "f67c3e5281ef9a8e7e5e6b413015d28f3090bd2bb2cf640df545598f126b47e1"),
    "err-survey-inadmissible-w": (2, EMPTY, "f89b0b2a8bf4a4c8f958c42820601ffd004e61d7faf1366576d45d226ea95d5c"),
    "err-verify-jobs-0": (2, EMPTY, "124191256433005447db3a30d4c9ebd8f491dae01b76c3896054b8df8af11487"),
    "err-verify-non-primitive-g": (3, EMPTY, "97e7bf989ccf45a03e25828579b2af4c3a27a0e1d384731162fc2887e4b796e9"),
    "survey-csv": (0, "64aa5ffe360930a9863fb72fc8d0943951c63aae2227207aa5b5c1d4d08db3c6", EMPTY),
    "survey-json": (0, "061891f445ba3118303596cb568375164b3b7ba0f4f941900081c4f422919426", EMPTY),
    "survey-plain": (0, "e7be810a88dceb14e18e184019911157910a86e48d2b4f22a96677cb471f3bd7", EMPTY),
    "verify-csv": (1, "292b3b9068b4c5cd5cd6cb5e8deaeb3735837368e6bf2133b00d267ffec0fdcc", FAIL_LINE),
    "verify-json": (1, "e2052f12b8e6679c05d6fe007150b6c383f5ec8ca516a601bb4dda50f4b4d6b6", FAIL_LINE),
    "verify-plain": (1, "ebb3f2d10089bdd1396604f4e0c23abdb84676980cc9200e10502bea6b5259ac", FAIL_LINE),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_case(argv, capsys) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, _digest(captured.out), _digest(captured.err)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.txt").write_text("0101\n")
    assert run_case(CASES[name], capsys) == GOLDEN[name]


def test_verify_parallel_matches_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_case((*CASES["verify-csv"], "--jobs", "2"), capsys) == GOLDEN["verify-csv"]


def test_survey_parallel_matches_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_case((*CASES["survey-csv"], "--jobs", "2"), capsys) == GOLDEN["survey-csv"]
