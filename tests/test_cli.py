"""End to end tests of the command line front end (in process)."""

import hashlib
import json
import os
import re
import shlex
from pathlib import Path

import pytest

from hldecomp import cli
from hldecomp.cli import main

RANK8_ARGS = ["--n", "8", "--pi", "2:0,3:3,4:0,5:3,7:-1"]
# the rank 12 benchmark word drawn by seed 1, and the SHA-256 of its
# decompose --format json output as an earlier version of the lattice
# count wrote it, so a change to any answer or to the layout shows here
RANK12_ARGS = ["--n", "12", "--pi", "1:-2,3:2,5:-2,7:2,9:-2,11:2,12:-1"]
RANK12_JSON_SHA256 = "76aa1685fa97e11d86ff883dc9141477fa55f78cff7eaeb2d9b7179d33b0851a"
# a rank 14 word with alternating exponents on the odd nodes, pinned the
# same way; most of its capacity survivors have a pair that no point can
# meet, which the search drops
RANK14_ARGS = ["--n", "14", "--pi", "1:0,3:4,5:0,7:4,9:0,11:4,13:0,14:3"]
RANK14_JSON_SHA256 = "e2064b306ed4d87bcf51ffefc17c25fb9595169a53d7ce894135b8b8dc609727"
# a rank 10 word whose first two factors sit on adjacent nodes, so its
# pair (1, 2) spans two nodes and no gap, pinned the same way
RANK10_ARGS = ["--n", "10", "--pi", "1:0,2:3,4:-1,6:3,8:-1,10:3"]
RANK10_JSON_SHA256 = "d6c688f0c40fc18fe126747fb221802a1a24f125f26f0c3c6a7aa7762a8ada1a"
# oracle --format json output of the dual realization as an earlier
# version wrote it, for full-mode jobs and a pair-mode job; the rank
# 1 job is the graded tensor square of V(2), V(4) + q V(2) + q^2 V(0),
# whose one node's pole conditions are the whole problem
ORACLE_JSON_SHA256 = {
    "--n 1 --lambda 4 --xi 2":
        "132a73e863d6eb83b5c2ac8927c4eaeac20fe7bec2f9e786d3de0ff21abb4076",
    "--n 2 --lambda 4,4 --xi 2":
        "f93cb8986789d4ecf5b2698aa00ce9a89bed4755e20972e326fee1b4e1225fd5",
    # builds pole rows on the grade, on the orbits its pole filter keeps
    "--n 2 --lambda 3,3 --xi 3":
        "d60c8512d7ee8d00d469efeeb651b5f87a680a7254777a1f9f2d997f9feea12f",
    "--n 5 --pi 3:0,4:3,5:0":
        "49a0ae63dd11e87694607eca6a00cbefd30988b50e2f72e223302e84876f569a",
    # full mode at n = 3 and 4, where the orbit walk runs over more than
    # two nodes: criterion 5's xi = 1 on (2,2,2), and the local Weyl
    # module of (2,1,1,1) with the CI loop's xi_alpha = lam(h_alpha)
    "--n 3 --lambda 2,2,2 --xi 1":
        "4f8f649b0d1f7644c3f8a8d85d92cc47857888bfe53ad22296b188ea1cd0ecdd",
    "--n 4 --lambda 2,1,1,1 --xi 1-1:2,1-2:3,1-3:4,1-4:5,2-2:1,2-3:2,2-4:3,3-3:1,3-4:2,4-4:1":
        "c292691e056364e6cfe21e3a525e08095a7af9ce1679f1aebae94e5211e17eab",
}
README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- decompose

def test_decompose_json_payload(capsys):
    code, out, _ = run(capsys, "decompose", "--n", "2",
                       "--pi", "1:0,2:3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2
    assert data["pi"] == [[1, 0], [2, 3]]
    assert data["weight"] == [1, 1]
    assert data["domain"] == [[0, 0], [1, 1]]
    assert data["entries"] == [{"gamma": [0, 0], "mu_weight": [1, 1],
                                "dim": 8, "poly": {"0": 1}}]


def test_decompose_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "decompose", "--n", "3",
                         "--pi", "1:0,2:3,3:0", "--format", "json")
    code2, out2, _ = run(capsys, "decompose", "--n", "3",
                         "--pi", "1:0,2:3,3:0", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_decompose_json_bytes_of_the_rank12_word(capsys):
    code, out, _ = run(capsys, "decompose", *RANK12_ARGS, "--format", "json")
    assert code == 0
    assert len(json.loads(out)["entries"]) == 400
    assert hashlib.sha256(out.encode()).hexdigest() == RANK12_JSON_SHA256


def test_decompose_json_bytes_of_the_rank10_word(capsys):
    code, out, _ = run(capsys, "decompose", *RANK10_ARGS, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RANK10_JSON_SHA256


@pytest.mark.slow
def test_decompose_json_bytes_of_the_rank14_word(capsys):
    code, out, _ = run(capsys, "decompose", *RANK14_ARGS, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RANK14_JSON_SHA256


def test_decompose_kappa_equals_pi(capsys):
    _, from_pi, _ = run(capsys, "decompose", "--n", "3",
                        "--pi", "1:0,3:4", "--format", "json")
    code, from_kappa, _ = run(capsys, "decompose", "--n", "3",
                              "--kappa", "0,1,2", "--interval", "1:3",
                              "--format", "json")
    assert code == 0
    assert from_kappa == from_pi


def test_decompose_rank8_gamma(capsys):
    gamma = "1,3,4,4,3,2,1,0"
    code, out, _ = run(capsys, "decompose", *RANK8_ARGS, "--gamma", gamma)
    assert code == 0
    assert "2q^4 + q^5" in out
    assert "checked 1 dominant gamma, 1 nonzero" in out
    code, out, _ = run(capsys, "decompose", *RANK8_ARGS, "--gamma", gamma,
                       "--format", "latex")
    assert code == 0
    assert "2q^{4}+q^{5}" in out


def test_decompose_bad_input(capsys):
    # malformed word: spacing violation
    code, _, err = run(capsys, "decompose", "--n", "3", "--pi", "1:0,2:1")
    assert code == 2 and err.startswith("error:")
    # no word at all
    code, _, err = run(capsys, "decompose", "--n", "3")
    assert code == 2 and "need --pi" in err
    # both word descriptions at once
    code, _, err = run(capsys, "decompose", "--n", "3", "--pi", "1:0",
                       "--kappa", "0,1,2", "--interval", "1:1")
    assert code == 2
    # gamma of the wrong rank, negative, or landing outside the cone: the
    # messages are gamma_domain's, prefixed with the flag
    code, _, err = run(capsys, "decompose", "--n", "2", "--pi", "1:0,2:3",
                       "--gamma", "1,1,1")
    assert code == 2 and err.startswith("error: --gamma: gamma has rank 3, expected 2")
    code, _, err = run(capsys, "decompose", "--n", "2", "--pi", "1:0,2:3",
                       "--gamma=-1,0")
    assert code == 2 and err.startswith("error: --gamma: ") and "(-1, 0)" in err
    code, _, err = run(capsys, "decompose", "--n", "2", "--pi", "1:0,2:3",
                       "--gamma", "5,0")
    assert code == 2 and err.startswith("error: --gamma: ")
    assert "not dominant" in err and "(5, 0)" in err
    # an empty value is a parse error, not a request for every gamma
    code, out, err = run(capsys, "decompose", "--n", "2", "--pi", "1:0,2:3", "--gamma=")
    assert code == 2 and out == ""
    assert err.startswith("error: --gamma: ") and "got ''" in err


@pytest.mark.parametrize("argv, flag", [
    (["decompose", "--n", "2", "--pi="], "--pi"),
    (["decompose", "--n", "3", "--kappa=", "--interval", "1:3"], "--kappa"),
    (["hl-info", "--n", "3", "--kappa", "0,1,2", "--interval="], "--interval"),
    (["oracle", "--n", "2", "--lambda=", "--xi", "1"], "--lambda"),
    (["character", "--n", "2", "--lambda="], "--lambda"),
    (["decompose", "--n", "2", "--pi", "1:0,2:3", "--cache="], "--cache"),
    (["oracle", "--n", "2", "--lambda", "2,2", "--xi", "1", "--cache="], "--cache"),
])
def test_empty_flag_value_is_bad_input(capsys, argv, flag):
    # a flag given with an empty value is present, and its value is bad
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: %s: " % flag) and "got ''" in err


def test_errors_while_computing_are_not_bad_input(capsys, monkeypatch):
    # only the resolution of the inputs turns a ValueError into exit code
    # 2; one raised by the computation itself stays a traceback
    def broken(*args, **kwargs):
        raise ValueError("broken computation")

    monkeypatch.setattr(cli.dmod, "graded_decomposition", broken)
    with pytest.raises(ValueError, match="broken computation"):
        main(["decompose", "--n", "2", "--pi", "1:0,2:3"])
    assert "error:" not in capsys.readouterr().err


def test_missing_required_flag_exits_via_argparse(capsys):
    for argv in (["decompose"],
                 # the relaxed capacity rule and its flag are gone
                 ["decompose", "--n", "2", "--pi", "1:0,2:3", "--relaxed-empty-groups"],
                 ["crosscheck", "--n", "2", "--pi", "1:0,2:3", "--relaxed-empty-groups"]):
        with pytest.raises(SystemExit):
            main(argv)


@pytest.mark.parametrize("argv", [
    ["decompose", "--n", "0", "--pi", "1:0"],
    ["hl-info", "--n", "-1", "--pi", "1:0"],
    ["crosscheck", "--n", "0", "--pi", "1:0"],
    ["oracle", "--n", "0", "--lambda", "1", "--xi", "1"],
    ["character", "--n", "-2", "--lambda", "1"],
])
def test_bad_rank_is_bad_input(capsys, argv):
    # the rank is checked where --n is parsed: exit code 2 and a message,
    # not a traceback
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "rank must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["hl-info", "decompose", "crosscheck"])
def test_factor_node_out_of_range_is_bad_input(capsys, command):
    code, _, err = run(capsys, command, "--n", "2", "--pi", "3:0")
    assert code == 2
    assert err.startswith("error: --pi:") and "out of range for rank 2" in err


# ------------------------------------------------------------------- oracle

def test_oracle_full_mode_rank2(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "2",
                       "--lambda", "7,5", "--xi", "2", "--gamma", "2,1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pi"] is None
    assert data["xi"] == [[1, 1, 2], [1, 2, 2], [2, 2, 2]]
    # dim V(4, 5) = 5 * 6 * 11 / 2
    assert data["entries"] == [{"gamma": [2, 1], "mu_weight": [4, 5],
                                "dim": 165, "poly": {"2": 1, "3": 1}}]


def test_oracle_full_mode_requires_xi_and_lambda(capsys):
    code, _, err = run(capsys, "oracle", "--n", "2",
                       "--lambda", "7,5")
    assert code == 2 and "--xi" in err
    code, _, err = run(capsys, "oracle", "--n", "2",
                       "--xi", "2")
    assert code == 2 and "--lambda" in err
    code, _, err = run(capsys, "oracle", "--n", "2",
                       "--lambda", "7,-5", "--xi", "2")
    assert code == 2
    assert err.startswith("error: --lambda: weight must be dominant") and "(7, -5)" in err
    code, _, err = run(capsys, "oracle", "--n", "2",
                       "--lambda", "7,5", "--xi", "1-1:1")
    assert code == 2 and err.startswith("error: --xi: missing roots 1-2, 2-2")


def test_oracle_pair_mode_matches_decompose(capsys):
    _, want, _ = run(capsys, "decompose", "--n", "3",
                     "--pi", "1:0,2:3,3:0", "--format", "json")
    code, got, _ = run(capsys, "oracle", "--n", "3",
                       "--pi", "1:0,2:3,3:0", "--format", "json")
    assert code == 0
    assert got == want


@pytest.mark.parametrize("args", [pytest.param(args, id=args.replace(" ", "_"))
                                  for args in ORACLE_JSON_SHA256])
def test_oracle_json_bytes_are_pinned(capsys, args):
    code, out, _ = run(capsys, "oracle", *args.split(), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_JSON_SHA256[args]


@pytest.mark.parametrize("argv", [
    ["--pi", "1:0,2:3", "--lambda", "5,5", "--xi", "7"],
    ["--lambda", "1,1", "--xi", "1", "--pi", "1:0,2:3"],
    ["--kappa", "0,1", "--interval", "1:2", "--xi", "1"],
])
def test_oracle_refuses_flags_of_both_modes(capsys, argv):
    # a word chooses pair mode and --lambda with --xi full mode; neither
    # set of flags is dropped in silence when both are given
    code, out, err = run(capsys, "oracle", "--n", "2", *argv)
    assert code == 2 and out == ""
    for flag in argv[::2]:
        assert flag in err


def test_oracle_full_mode_names_the_missing_flag(capsys):
    code, _, err = run(capsys, "oracle", "--n", "2", "--lambda", "7,5")
    assert code == 2 and "--lambda without --xi" in err
    code, _, err = run(capsys, "oracle", "--n", "2", "--xi", "2")
    assert code == 2 and "--xi without --lambda" in err
    code, _, err = run(capsys, "oracle", "--n", "2")
    assert code == 2 and "--pi" in err and "--lambda with --xi" in err


def test_oracle_has_no_mode_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--n", "2", "--mode", "pair", "--pi", "1:0,2:3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("xi, message", [
    ("-1", "pole depths must be nonnegative, got 1-1:-1"),
    ("1-1:1,1-2:-2,2-2:1", "pole depths must be nonnegative, got 1-2:-2"),
    ("1-1:1,1-2:1,2-2:1,1-1:5", "root 1-1 given twice"),
    ("1-1:1,1-2:1,2-2:1,3-3:1", "roots 3-3 out of range for rank 2"),
    ("1-1:1,2-2:1", "missing roots 1-2"),
    ("", "expected i-j:v entries or a single constant, got ''"),
    ("1-1:1,1x2:1,2-2:1", "expected i-j:v entries"),
    ("1-1:1,1-2,2-2:1", "expected i-j:v entries"),
])
def test_oracle_rejects_bad_xi(capsys, xi, message):
    code, out, err = run(capsys, "oracle", "--n", "2", "--lambda", "2,2", "--xi=" + xi)
    assert code == 2 and out == ""
    assert err.startswith("error: --xi: ") and message in err


# --------------------------------------------------------------- crosscheck

def test_crosscheck_ok(capsys):
    code, out, _ = run(capsys, "crosscheck", "--n", "3", "--pi", "1:0,2:3,3:0")
    assert code == 0
    assert "crosscheck ok" in out


# ------------------------------------------------------------------ hl-info

def test_hl_info_from_word(capsys):
    code, out, _ = run(capsys, "hl-info", "--n", "3", "--pi", "1:0,3:4")
    assert code == 0
    assert "kappa: [0, 1, 2]" in out
    assert "interval: [1, 3]" in out
    assert "sinks: [1]" in out
    assert "sources: [3]" in out
    assert "weight: [1, 0, 1]" in out
    assert "pairs: [(1, 3)]" in out
    assert "xi: 1-1:1 1-2:1 1-3:1 2-2:0 2-3:1 3-3:1" in out


def test_hl_info_reports_problems(capsys):
    # the same one-line report on stderr as every command reading a word
    code, out, err = run(capsys, "hl-info", "--n", "3", "--pi", "1:0,2:1")
    assert code == 2 and out == ""
    assert err.startswith("error: --pi:") and "exponent step" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["crosscheck", "hl-info"])
def test_format_only_where_read(capsys, command):
    # these commands print plain text only, so --format is no flag of theirs
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "3", "--pi", "1:0,2:3,3:0", "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


# ---------------------------------------------------------------- character

def test_character_plain(capsys):
    code, out, _ = run(capsys, "character", "--n", "2", "--lambda", "1,1")
    assert code == 0
    assert "dim: 8" in out and "(7 distinct weights)" in out
    assert "  [0, 0]  2" in out


def test_character_json(capsys):
    code, out, _ = run(capsys, "character", "--n", "2", "--lambda", "1,1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 8
    assert len(data["multiplicities"]) == 7
    assert data["multiplicities"][0] == {"weight": [0, 0], "mult": 2}


def test_character_bad_weight(capsys):
    code, _, err = run(capsys, "character", "--n", "2", "--lambda", "1,-1")
    assert code == 2 and err.startswith("error: --lambda: weight must be dominant")
    assert "(1, -1)" in err
    code, _, err = run(capsys, "character", "--n", "2", "--lambda", "1,1,1")
    assert code == 2 and err.startswith("error: --lambda: weight has rank 3, expected 2")
    code, _, err = run(capsys, "character", "--n", "2")
    assert code == 2 and "--lambda" in err


# -------------------------------------------------------------------- cache

def test_cache_round_trip(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ["decompose", "--n", "3", "--pi", "1:0,2:3,3:0",
            "--format", "json", "--cache", cache]
    code, first, _ = run(capsys, *args)
    assert code == 0
    entries = os.listdir(cache)
    assert len(entries) == 1 and entries[0].endswith(".json")
    code, second, _ = run(capsys, *args)
    assert code == 0
    assert second == first
    # format switches reuse the same entry: still a single file
    code, plain_out, _ = run(capsys, "decompose", "--n", "3",
                             "--pi", "1:0,2:3,3:0", "--cache", cache)
    assert code == 0
    assert len(os.listdir(cache)) == 1
    _, plain_fresh, _ = run(capsys, "decompose", "--n", "3",
                            "--pi", "1:0,2:3,3:0")
    assert plain_out == plain_fresh


def test_cache_restricted_gamma_transparent(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ["decompose", *RANK8_ARGS, "--gamma", "1,3,4,4,3,2,1,0",
            "--cache", cache]
    _, fresh, _ = run(capsys, "decompose", *RANK8_ARGS,
                      "--gamma", "1,3,4,4,3,2,1,0")
    code, first, _ = run(capsys, *args)
    code, cached, _ = run(capsys, *args)
    assert code == 0
    assert first == fresh
    assert cached == fresh
    assert "checked 1 dominant gamma, 1 nonzero" in cached


def test_cache_corrupt_entry_recomputed(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ["decompose", "--n", "2", "--pi", "1:0,2:3",
            "--format", "json", "--cache", cache]
    _, first, _ = run(capsys, *args)
    (entry,) = os.listdir(cache)
    path = os.path.join(cache, entry)
    with open(path, "w") as fh:
        fh.write("{ not json")
    code, out, err = run(capsys, *args)
    assert code == 0
    assert out == first
    assert "ignoring unreadable cache entry" in err
    # the corrupt entry was replaced by a good one
    with open(path) as fh:
        assert json.load(fh)["n"] == 2


def test_cache_entry_without_domain_recomputed(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ["decompose", "--n", "3", "--pi", "1:0,2:3,3:0",
            "--format", "json", "--cache", cache]
    _, first, _ = run(capsys, *args)
    (entry,) = os.listdir(cache)
    path = os.path.join(cache, entry)
    # every entry is written with its domain; one without it is unreadable
    with open(path) as fh:
        data = json.load(fh)
    del data["domain"]
    with open(path, "w") as fh:
        json.dump(data, fh)
    code, out, err = run(capsys, *args)
    assert code == 0
    assert out == first
    assert "ignoring unreadable cache entry" in err
    with open(path) as fh:
        assert "domain" in json.load(fh)


@pytest.mark.parametrize("coefficient", [2.5, True])
def test_cache_entry_with_non_integer_coefficient_recomputed(tmp_path, capsys, coefficient):
    cache = str(tmp_path / "cache")
    args = ["decompose", "--n", "3", "--pi", "1:0,2:3,3:0", "--cache", cache]
    _, first, _ = run(capsys, *args)
    (entry,) = os.listdir(cache)
    path = os.path.join(cache, entry)
    with open(path) as fh:
        data = json.load(fh)
    (grade,) = data["entries"][-1]["poly"]
    assert grade == "1" and "  q\n" in first
    data["entries"][-1]["poly"] = {grade: coefficient}
    with open(path, "w") as fh:
        json.dump(data, fh)
    code, out, err = run(capsys, *args)
    assert code == 0
    assert out == first
    assert "ignoring unreadable cache entry" in err
    with open(path) as fh:
        assert json.load(fh)["entries"][-1]["poly"] == {"1": 1}


# edits of a stored entry whose first gamma is 0; the rank 3 word's
# full domain holds 0 and (1, 1, 1), both nonzero


def _repeated_entry(entries):
    entries.append(dict(entries[0]))


def _repeat_gamma_0(entries):
    entries.append({**entries[0], "poly": {"1_0": 7}})


def _underscored_grade(entries):
    # int() reads "1_0" as 10, to_json writes "10"
    entries[0]["poly"] = {"1_0": 7}


def _padded_grade(entries):
    entries[0]["poly"] = {" 0": 1}


def _stale_dim(entries):
    entries[0]["dim"] += 1


def _stale_mu_weight(entries):
    entries[0]["mu_weight"] = [0, 1, 0]


def _outside_domain(entries):
    entries.append({"gamma": [1, 0, 0], "mu_weight": [-1, 2, 1], "dim": 0, "poly": {"0": 1}})


def _far_gamma(entries):
    entries.append({**entries[0], "gamma": [5, 5, 5]})


def _dominant_outside_the_job(entries):
    # the entry of (1, 1, 1) as the full-domain job writes it: a repeat
    # there, and outside the domain of the job restricted to gamma 0
    entries.append({"gamma": [1, 1, 1], "mu_weight": [0, 1, 0], "dim": 6, "poly": {"1": 1}})


@pytest.mark.parametrize("edit", [
    _repeated_entry, _repeat_gamma_0, _underscored_grade, _padded_grade, _stale_dim,
    _stale_mu_weight, _outside_domain, _far_gamma, _dominant_outside_the_job])
def test_cache_entry_that_does_not_round_trip_recomputed(tmp_path, capsys, edit):
    # an entry is served only if it is exactly what the job would write
    # with the entry's polynomials; each edit is tried on the full-domain
    # job and on the job restricted to gamma 0
    for restrict in ([], ["--gamma", "0,0,0"]):
        job = ["decompose", "--n", "3", "--pi", "1:0,2:3,3:0", *restrict]
        cache = str(tmp_path / ("cache%d" % len(restrict)))
        _, fresh, _ = run(capsys, *job)
        run(capsys, *job, "--cache", cache)
        (entry,) = os.listdir(cache)
        path = os.path.join(cache, entry)
        with open(path) as fh:
            written = fh.read()
        data = json.loads(written)
        assert data["entries"][0]["gamma"] == [0, 0, 0]
        edit(data["entries"])
        with open(path, "w") as fh:
            json.dump(data, fh)
        code, out, err = run(capsys, *job, "--cache", cache)
        assert code == 0
        assert out == fresh
        assert "ignoring unreadable cache entry" in err
        assert "does not match the job in entries)" in err
        with open(path) as fh:
            assert fh.read() == written


def test_cache_entry_with_a_wider_domain_recomputed(tmp_path, capsys):
    # widened in the order to_json_dict writes, the stored domain still
    # lists every stored gamma, and the entries are those of the job; only
    # the job's own domain can tell that (1, 0) and (2, 2) do not belong
    cache = str(tmp_path / "cache")
    args = ["decompose", "--n", "2", "--pi", "1:0,2:3", "--cache", cache]
    _, fresh, _ = run(capsys, "decompose", "--n", "2", "--pi", "1:0,2:3")
    assert "checked 2 dominant gamma" in fresh
    run(capsys, *args)
    (entry,) = os.listdir(cache)
    path = os.path.join(cache, entry)
    with open(path) as fh:
        data = json.load(fh)
    assert data["domain"] == [[0, 0], [1, 1]]
    data["domain"] = [[0, 0], [1, 0], [1, 1], [2, 2]]
    with open(path, "w") as fh:
        json.dump(data, fh)
    code, out, err = run(capsys, *args)
    assert code == 0
    assert out == fresh
    assert "ignoring unreadable cache entry" in err
    assert "does not match the job in domain)" in err
    with open(path) as fh:
        assert json.load(fh)["domain"] == [[0, 0], [1, 1]]


def test_cache_hit_of_a_full_mode_oracle_job(tmp_path, capsys, monkeypatch):
    # the job, not the entry, gives the weight, the truncation data xi and
    # the domain, full or restricted to one gamma
    job = ["oracle", "--n", "2", "--lambda", "2,0", "--xi", "2", "--format", "json"]
    for restrict in ([], ["--gamma", "1,0"]):
        _, fresh, _ = run(capsys, *job, *restrict)
        assert json.loads(fresh)["xi"] == [[1, 1, 2], [1, 2, 2], [2, 2, 2]]
        cache = str(tmp_path / ("cache%d" % len(restrict)))
        code, first, err = run(capsys, *job, *restrict, "--cache", cache)
        assert code == 0 and first == fresh and err == ""
        with monkeypatch.context() as m:
            # with nothing to compute it, only a served entry can answer
            m.setattr(cli.omod, "oracle_decomposition", None)
            code, hit, err = run(capsys, *job, *restrict, "--cache", cache)
        assert code == 0 and err == ""
        assert hit == fresh
    assert json.loads(hit)["domain"] == [[1, 0]]


def test_cache_entry_for_another_job_is_a_miss(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    other = tmp_path / "other"
    _, first, _ = run(capsys, "decompose", "--n", "2", "--pi", "1:0,2:3",
                      "--format", "json", "--cache", cache)
    (entry,) = os.listdir(cache)
    path = os.path.join(cache, entry)
    run(capsys, "decompose", "--n", "3", "--pi", "1:0,2:3,3:0",
        "--format", "json", "--cache", str(other))
    (other_entry,) = os.listdir(other)
    # an entry whose n, pi, weight and domain belong to another job
    os.replace(other / other_entry, path)
    code, out, err = run(capsys, "decompose", "--n", "2", "--pi", "1:0,2:3",
                         "--format", "json", "--cache", cache)
    assert code == 0
    assert out == first
    assert "ignoring unreadable cache entry" in err
    assert "does not match the job in domain, entries, n, pi, weight)" in err
    # the JSON output is the entry as written
    assert Path(path).read_text() == first


def test_cache_entry_for_another_xi_is_a_miss(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    other = tmp_path / "other"
    job = ["oracle", "--n", "2", "--lambda", "2,2",
           "--format", "json"]
    _, first, _ = run(capsys, *job, "--xi", "1", "--cache", cache)
    (entry,) = os.listdir(cache)
    path = os.path.join(cache, entry)
    _, other_out, _ = run(capsys, *job, "--xi", "2", "--cache", str(other))
    assert other_out != first
    (other_entry,) = os.listdir(other)
    # same n, lambda and domain; only the truncation data differs
    os.replace(other / other_entry, path)
    code, out, err = run(capsys, *job, "--xi", "1", "--cache", cache)
    assert code == 0
    assert out == first
    assert "ignoring unreadable cache entry" in err
    assert "does not match the job in xi)" in err
    assert Path(path).read_text() == first


def test_cache_entry_for_another_gamma_is_a_miss(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ["decompose", "--n", "2", "--pi", "1:0,2:3", "--gamma", "0,0",
            "--format", "json", "--cache", cache]
    _, first, _ = run(capsys, *args)
    (entry,) = os.listdir(cache)
    path = os.path.join(cache, entry)
    # a stored entry whose domain alone disagrees with the named gamma
    with open(path) as fh:
        data = json.load(fh)
    data["domain"] = [[1, 1]]
    with open(path, "w") as fh:
        json.dump(data, fh)
    code, out, err = run(capsys, *args)
    assert code == 0
    assert out == first
    assert "ignoring unreadable cache entry" in err
    assert "does not match the job in domain)" in err
    assert Path(path).read_text() == first


def test_cache_write_failure_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", refuse)
    code, out, err = run(capsys, "decompose", "--n", "2", "--pi", "1:0,2:3",
                         "--cache", str(cache))
    assert code == 0 and "multiplicity" in out
    assert "warning: could not write cache entry (disk full)" in err
    assert os.listdir(cache) == []


def test_cache_key_depends_on_version_and_schema(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    args = ["decompose", "--n", "2", "--pi", "1:0,2:3", "--cache", str(cache)]
    run(capsys, *args)
    monkeypatch.setattr(cli, "__version__", "0.0.0-older")
    run(capsys, *args)
    assert len(os.listdir(cache)) == 2
    monkeypatch.setattr(cli, "_CACHE_SCHEMA", cli._CACHE_SCHEMA + 1)
    run(capsys, *args)
    assert len(os.listdir(cache)) == 3


def test_cache_env_overrides_flag(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "env_cache"
    flag_dir = tmp_path / "flag_cache"
    monkeypatch.setenv("HLDECOMP_CACHE", str(env_dir))
    code, _, _ = run(capsys, "decompose", "--n", "2", "--pi", "1:0,2:3",
                     "--cache", str(flag_dir))
    assert code == 0
    assert len(os.listdir(env_dir)) == 1
    assert not flag_dir.exists()


def test_empty_cache_env_is_unset(tmp_path, capsys, monkeypatch):
    # an empty HLDECOMP_CACHE neither overrides --cache nor is an error
    flag_dir = tmp_path / "flag_cache"
    monkeypatch.setenv("HLDECOMP_CACHE", "")
    code, _, err = run(capsys, "decompose", "--n", "2", "--pi", "1:0,2:3",
                       "--cache", str(flag_dir))
    assert code == 0 and err == ""
    assert len(os.listdir(flag_dir)) == 1
    # ... but --cache= stays bad input whatever the environment says
    monkeypatch.setenv("HLDECOMP_CACHE", str(tmp_path / "env_cache"))
    code, out, err = run(capsys, "decompose", "--n", "2", "--pi", "1:0,2:3", "--cache=")
    assert code == 2 and out == "" and err.startswith("error: --cache: ")
    assert not (tmp_path / "env_cache").exists()


def test_uncached_run_builds_no_job(tmp_path, capsys, monkeypatch):
    # the job, with its gamma_domain, only makes the cache key; without a
    # cache directory it is never built
    calls = []
    real = cli.gamma_domain
    monkeypatch.setattr(cli, "gamma_domain", lambda *a: calls.append(a) or real(*a))
    monkeypatch.delenv("HLDECOMP_CACHE", raising=False)
    jobs = [["decompose", "--n", "2", "--pi", "1:0,2:3"],
            ["oracle", "--n", "2", "--pi", "1:0,2:3"],
            ["oracle", "--n", "2", "--lambda", "1,1", "--xi", "2"]]
    for argv in jobs:
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "multiplicity" in out
    assert calls == []
    for argv in jobs:
        run(capsys, *argv, "--cache", str(tmp_path / "cache"))
    assert len(calls) == len(jobs)


# ------------------------------------------------------------------- README

def test_readme_command_lines_run(capsys):
    # every hldecomp line of README's sh blocks, continuations joined, is a
    # command the parser accepts and runs; the docs cannot drift from it
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("hldecomp ")]
    assert len(commands) >= 8
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
