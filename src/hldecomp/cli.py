"""Command line front end.

Subcommands: decompose (lattice point count), oracle (dual realization),
crosscheck (both, compared), hl-info (height function and word
diagnostics), character (weight multiplicities).  Exit codes: 0 on
success, 1 on an internal inconsistency such as a crosscheck mismatch,
2 on bad input.  Results of decompose and oracle jobs can be cached as
JSON files; the HLDECOMP_CACHE environment variable overrides --cache.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

from . import __version__
from . import decomposition as dmod
from . import functional_oracle as omod
from .hl_category import (DrinfeldWord, InvalidWord, consecutive_pairs,
                          marked_vertices, normalize_xi, pi_from_interval,
                          pi_to_height_interval, validate_word, weight_of,
                          xi_from_weight)
from .root_system import (check_rank, is_dominant, positive_roots, weight_minus_gamma,
                          weyl_dim)
from .weyl_characters import weight_multiplicities


class InputError(ValueError):
    """Bad command line input; reported with exit code 2."""


def _rank(text):
    # type of --n, so a bad rank exits with code 2 before any command runs
    try:
        return check_rank(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError("rank must be a positive integer, got %r" % text)


def _ints(text, flag):
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InputError("%s: expected comma separated integers, got %r" % (flag, text))


def _parse_pi(text):
    factors = []
    for tok in text.split(","):
        head, sep, tail = tok.partition(":")
        if not sep:
            raise InputError("--pi: expected i:m pairs, got %r" % tok)
        try:
            factors.append((int(head), int(tail)))
        except ValueError:
            raise InputError("--pi: expected integers in %r" % tok)
    return factors


def _parse_interval(text):
    head, sep, tail = text.partition(":")
    if not sep:
        raise InputError("--interval: expected LO:HI, got %r" % text)
    try:
        return (int(head), int(tail))
    except ValueError:
        raise InputError("--interval: expected integers in %r" % text)


def _parse_xi(text, n):
    text = text.strip()
    if ":" not in text:
        try:
            const = int(text)
        except ValueError:
            raise InputError("--xi: expected i-j:v entries or a single constant, got %r" % text)
        return {root: const for root in positive_roots(n)}
    out = {}
    for tok in text.split(","):
        span, sep, val = tok.partition(":")
        lo, dash, hi = span.partition("-")
        if not sep or not dash:
            raise InputError("--xi: expected i-j:v entries, got %r" % tok)
        try:
            out[(int(lo), int(hi))] = int(val)
        except ValueError:
            raise InputError("--xi: expected integers in %r" % tok)
    missing = [r for r in positive_roots(n) if r not in out]
    if missing:
        raise InputError("--xi: missing roots %s" % ", ".join("%d-%d" % r for r in missing))
    extra = [r for r in out if r not in positive_roots(n)]
    if extra:
        raise InputError("--xi: roots %s out of range" % ", ".join("%d-%d" % r for r in extra))
    return out


def _word_from_args(args):
    if args.pi and (args.kappa or args.interval):
        raise InputError("give either --pi or --kappa with --interval, not both")
    if args.pi:
        try:
            return DrinfeldWord(args.n, _parse_pi(args.pi))
        except InvalidWord as exc:
            raise InputError("--pi: %s" % exc)
    if args.kappa and args.interval:
        kappa = _ints(args.kappa, "--kappa")
        if len(kappa) != args.n:
            raise InputError("--kappa: got %d values for rank %d" % (len(kappa), args.n))
        try:
            return pi_from_interval(kappa, _parse_interval(args.interval))
        except (ValueError, InvalidWord) as exc:
            raise InputError("--kappa/--interval: %s" % exc)
    raise InputError("need --pi or both --kappa and --interval")


def _gamma_from_args(args, lam):
    if not args.gamma:
        return None
    gamma = _ints(args.gamma, "--gamma")
    if len(gamma) != len(lam):
        raise InputError("--gamma: got %d values for rank %d" % (len(gamma), len(lam)))
    if any(g < 0 for g in gamma):
        raise InputError("--gamma: coordinates must be nonnegative")
    if not is_dominant(weight_minus_gamma(lam, gamma)):
        raise InputError("--gamma: weight - gamma is not dominant")
    return [gamma]


def _lam_from_args(args):
    if not args.lam:
        raise InputError("--lambda is required here")
    lam = _ints(args.lam, "--lambda")
    if len(lam) != args.n:
        raise InputError("--lambda: got %d values for rank %d" % (len(lam), args.n))
    if not is_dominant(lam):
        raise InputError("--lambda: weight must be dominant")
    return lam


def _cache_dir(args):
    return os.environ.get("HLDECOMP_CACHE") or args.cache


# bump when the layout or the meaning of a cache entry changes
_CACHE_SCHEMA = 1


def _job_key(payload) -> str:
    # the package version is part of the key, so a release with an
    # algorithm fix never serves entries computed before it
    job = {"version": __version__, "schema": _CACHE_SCHEMA, "job": payload}
    text = json.dumps(job, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _entry_fields(payload, lam):
    """Fields of the result JSON that an entry for this job must carry.

    A job without a gamma covers the full default domain; that case is
    left to the versioned key rather than re-enumerated on every load.
    """
    fields = {"n": payload["n"], "pi": payload.get("pi"), "weight": list(lam)}
    if "xi" in payload:
        fields["xi"] = payload["xi"]
    if payload["gamma"]:
        fields["domain"] = [payload["gamma"]]
    return fields


def _cache_load(cachedir, key, fields):
    path = os.path.join(cachedir, key + ".json")
    try:
        with open(path) as fh:
            data = json.load(fh)
        wrong = sorted(f for f, v in fields.items() if data.get(f) != v)
        if wrong:
            raise ValueError("does not match the job in %s" % ", ".join(wrong))
        return dmod.from_json_dict(data)
    except FileNotFoundError:
        return None
    except Exception as exc:
        print("warning: ignoring unreadable cache entry %s (%s)" % (path, exc),
              file=sys.stderr)
        return None


def _cache_store(cachedir, key, dec):
    # write-then-rename so a crashed run never leaves a torn entry
    try:
        os.makedirs(cachedir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cachedir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(dmod.to_json_text(dec))
        os.replace(tmp, os.path.join(cachedir, key + ".json"))
    except OSError as exc:
        print("warning: could not write cache entry (%s)" % exc, file=sys.stderr)


def _cached(args, payload, lam, compute):
    cachedir = _cache_dir(args)
    if not cachedir:
        return compute()
    key = _job_key(payload)
    dec = _cache_load(cachedir, key, _entry_fields(payload, lam))
    if dec is None:
        dec = compute()
        _cache_store(cachedir, key, dec)
    return dec


def cmd_decompose(args) -> int:
    word = _word_from_args(args)
    lam = weight_of(word)
    gammas = _gamma_from_args(args, lam)
    payload = {
        "cmd": "decompose",
        "n": args.n,
        "pi": [list(f) for f in word.factors],
        "gamma": list(gammas[0]) if gammas else None,
    }
    dec = _cached(args, payload, lam, lambda: dmod.graded_decomposition(
        word, gammas=gammas))
    sys.stdout.write(dmod.report(dec, args.format))
    return 0


def cmd_oracle(args) -> int:
    if args.mode == "pair":
        word = _word_from_args(args)
        lam = weight_of(word)
        gammas = _gamma_from_args(args, lam)
        payload = {
            "cmd": "oracle",
            "mode": "pair",
            "n": args.n,
            "pi": [list(f) for f in word.factors],
            "gamma": list(gammas[0]) if gammas else None,
        }
        dec = _cached(args, payload, lam, lambda: omod.oracle_decomposition(
            mode="pair", word=word, gammas=gammas))
    else:
        lam = _lam_from_args(args)
        if not args.xi:
            raise InputError("full mode needs --xi")
        xi = normalize_xi(args.n, _parse_xi(args.xi, args.n))
        gammas = _gamma_from_args(args, lam)
        payload = {
            "cmd": "oracle",
            "mode": "full",
            "n": args.n,
            "lambda": list(lam),
            "xi": [[i, j, v] for (i, j), v in sorted(xi.items())],
            "gamma": list(gammas[0]) if gammas else None,
        }
        dec = _cached(args, payload, lam, lambda: omod.oracle_decomposition(
            lam=lam, mode="full", xi=xi, gammas=gammas))
    sys.stdout.write(dmod.report(dec, args.format))
    return 0


def cmd_crosscheck(args) -> int:
    word = _word_from_args(args)
    ok, mismatches = dmod.crosscheck(word)
    if ok:
        print("crosscheck ok: lattice count and dual realization agree "
              "on all dominant gamma")
        return 0
    print("crosscheck FAILED on %d gamma:" % len(mismatches))
    for gamma, a, b in mismatches:
        print("  gamma=%s  lattice=%s  dual=%s" % (list(gamma), a.plain(), b.plain()))
    return 1


def cmd_hl_info(args) -> int:
    if args.pi and not (args.kappa or args.interval):
        factors = _parse_pi(args.pi)
        problems = validate_word(factors)
        if problems:
            print("word %s is not valid:" % args.pi)
            for prob in problems:
                print("  " + prob)
            return 2
        word = _word_from_args(args)
        kappa, J = pi_to_height_interval(word)
    else:
        word = _word_from_args(args)
        kappa = _ints(args.kappa, "--kappa")
        J = _parse_interval(args.interval)
    sinks, sources = marked_vertices(kappa, J)
    lam = weight_of(word)
    print("kappa: %s" % (list(kappa),))
    print("interval: [%d, %d]" % J)
    print("sinks: %s" % (list(sinks),))
    print("sources: %s" % (list(sources),))
    print("pi: %s" % " ".join("%d:%d" % f for f in word.factors))
    print("weight: %s" % (list(lam),))
    print("pairs: %s" % (list(consecutive_pairs(word)),))
    xi = xi_from_weight(lam)
    print("xi: %s" % " ".join("%d-%d:%d" % (i, j, v)
                              for (i, j), v in sorted(xi.items())))
    return 0


def cmd_character(args) -> int:
    lam = _lam_from_args(args)
    table = weight_multiplicities(args.n, lam)
    dim = sum(table.values())
    if dim != weyl_dim(args.n, lam):
        raise ArithmeticError("weight multiplicities add up to %d, Weyl dimension is %d"
                              % (dim, weyl_dim(args.n, lam)))
    order = sorted(table, key=lambda w: (-table[w], w))
    if args.format == "json":
        payload = {
            "n": args.n,
            "weight": list(lam),
            "dim": dim,
            "multiplicities": [{"weight": list(w), "mult": table[w]} for w in order],
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return 0
    if args.format == "latex":
        print(r"\begin{tabular}{lr}")
        print(r"weight & multiplicity\\")
        print(r"\hline")
        for w in order:
            print(r"$%s$ & %d\\" % (list(w), table[w]))
        print(r"\end{tabular}")
        return 0
    print("weight: %s  dim: %d  (%d distinct weights)" % (list(lam), dim, len(table)))
    for w in order:
        print("  %s  %d" % (list(w), table[w]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hldecomp",
        description="Graded decompositions of prime level-one modules, "
                    "by lattice point counting and by a dual realization.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, word=True, cache=True):
        p.add_argument("--n", type=_rank, required=True, help="rank of the diagram")
        if word:
            p.add_argument("--pi", help='word as "i1:m1,i2:m2,..."')
            p.add_argument("--kappa", help='height function as "k1,k2,..."')
            p.add_argument("--interval", help='interval as LO:HI')
        p.add_argument("--format", choices=("plain", "json", "latex"),
                       default="plain")
        if cache:
            p.add_argument("--cache", help="cache directory (HLDECOMP_CACHE overrides)")

    p = sub.add_parser("decompose", help="lattice point decomposition of a word")
    add_common(p)
    p.add_argument("--gamma", help="restrict to one gamma (simple root coordinates)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("oracle", help="dual realization decomposition")
    add_common(p)
    p.add_argument("--mode", choices=("pair", "full"), default="full")
    p.add_argument("--xi", help='xi tuple as "i-j:v,..." or a single constant '
                               '(normalized automatically)')
    p.add_argument("--lambda", dest="lam", help='weight as "l1,...,ln"')
    p.add_argument("--gamma", help="restrict to one gamma (simple root coordinates)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("crosscheck",
                       help="run both computations and compare them")
    add_common(p, cache=False)
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("hl-info",
                       help="sinks, sources, word and weight diagnostics")
    add_common(p, cache=False)
    p.set_defaults(func=cmd_hl_info)

    p = sub.add_parser("character", help="weight multiplicities of V(lambda)")
    add_common(p, word=False, cache=False)
    p.add_argument("--lambda", dest="lam", help='weight as "l1,...,ln"')
    p.set_defaults(func=cmd_character)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print("internal inconsistency: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
