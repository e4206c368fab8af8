"""End to end tests of the command line front end (in process)."""

import json
import os

import pytest

from hldecomp import cli
from hldecomp.cli import main

RANK8_ARGS = ["--n", "8", "--pi", "2:0,3:3,4:0,5:3,7:-1"]


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
    # gamma of the wrong rank, negative, or landing outside the cone
    code, _, _ = run(capsys, "decompose", "--n", "2", "--pi", "1:0,2:3",
                     "--gamma", "1,1,1")
    assert code == 2
    code, _, _ = run(capsys, "decompose", "--n", "2", "--pi", "1:0,2:3",
                     "--gamma=-1,0")
    assert code == 2
    code, _, err = run(capsys, "decompose", "--n", "2", "--pi", "1:0,2:3",
                       "--gamma", "5,0")
    assert code == 2 and "not dominant" in err


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
    code, out, _ = run(capsys, "oracle", "--n", "2", "--mode", "full",
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
    code, _, err = run(capsys, "oracle", "--n", "2", "--mode", "full",
                       "--lambda", "7,5")
    assert code == 2 and "--xi" in err
    code, _, err = run(capsys, "oracle", "--n", "2", "--mode", "full",
                       "--xi", "2")
    assert code == 2 and "--lambda" in err
    code, _, _ = run(capsys, "oracle", "--n", "2", "--mode", "full",
                     "--lambda", "7,-5", "--xi", "2")
    assert code == 2
    code, _, err = run(capsys, "oracle", "--n", "2", "--mode", "full",
                       "--lambda", "7,5", "--xi", "1-1:1")
    assert code == 2 and "missing roots" in err


def test_oracle_pair_mode_matches_decompose(capsys):
    _, want, _ = run(capsys, "decompose", "--n", "3",
                     "--pi", "1:0,2:3,3:0", "--format", "json")
    code, got, _ = run(capsys, "oracle", "--n", "3", "--mode", "pair",
                       "--pi", "1:0,2:3,3:0", "--format", "json")
    assert code == 0
    assert got == want


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
    code, out, _ = run(capsys, "hl-info", "--n", "3", "--pi", "1:0,2:1")
    assert code == 2
    assert "not valid" in out
    assert "exponent step" in out


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
    code, _, _ = run(capsys, "character", "--n", "2", "--lambda", "1,-1")
    assert code == 2
    code, _, _ = run(capsys, "character", "--n", "2", "--lambda", "1,1,1")
    assert code == 2
    code, _, _ = run(capsys, "character", "--n", "2")
    assert code == 2


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
    assert "does not match the job in n, pi, weight" in err


def test_cache_entry_for_another_xi_is_a_miss(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    other = tmp_path / "other"
    job = ["oracle", "--n", "2", "--mode", "full", "--lambda", "2,2",
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
    assert "does not match the job in xi)" in err


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
    assert "does not match the job in domain)" in err


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
