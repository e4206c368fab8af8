"""Command line front end.

Subcommands: decompose (lattice point count), oracle (dual realization:
pair mode from a word, full mode from --lambda with --xi), crosscheck
(both, compared), hl-info (height function and word diagnostics),
character (weight multiplicities).  Exit codes: 0 on success, 1 on an
internal inconsistency such as a crosscheck mismatch, 2 on bad input.
Results of decompose and oracle jobs can be cached as JSON files, keyed
by the job: its command, rank, weight, word or xi, and domain.  An entry
is served only if it is exactly what the job would write with the
entry's polynomials.  A nonempty HLDECOMP_CACHE environment variable
overrides --cache.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile

from . import __version__
from . import decomposition as dmod
from . import functional_oracle as omod
from .hl_category import (DrinfeldWord, consecutive_pairs, marked_vertices, normalize_xi,
                          pi_from_interval, pi_to_height_interval, weight_of,
                          xi_from_weight)
from .polytope_count import QPolynomial
from .root_system import check_rank, check_weight, gamma_domain, positive_roots, weyl_dim
from .weyl_characters import weight_multiplicities


class InputError(ValueError):
    """Bad command line input; reported with exit code 2."""


def _checked(flag, rule, *args):
    """rule(*args) for a library rule that decides whether an input is
    valid; its ValueError becomes bad input, prefixed with the flag."""
    try:
        return rule(*args)
    except ValueError as exc:
        raise InputError("%s: %s" % (flag, exc)) from None


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


def _int_pair(tok, sep, flag, shape):
    """The two integers of one "a<sep>b" token: i:m of --pi, LO:HI of
    --interval, or the root i-j of an --xi entry."""
    head, found, tail = tok.partition(sep)
    try:
        if found:
            return int(head), int(tail)
    except ValueError:
        pass
    raise InputError("%s: expected %s, got %r" % (flag, shape, tok))


def _parse_xi(text, n):
    """The normalized xi tuple of --xi; `normalize_xi` checks its roots."""
    text = text.strip()
    if ":" not in text:
        try:
            const = int(text)
        except ValueError:
            raise InputError("--xi: expected i-j:v entries or a single constant, got %r" % text)
        out = dict.fromkeys(positive_roots(n), const)
    else:
        out = {}
        for tok in text.split(","):
            span, _, val = tok.partition(":")
            root = _int_pair(span, "-", "--xi", "i-j:v entries")
            if root in out:
                raise InputError("--xi: root %d-%d given twice" % root)
            try:
                out[root] = int(val)
            except ValueError:
                raise InputError("--xi: expected i-j:v entries, got %r" % tok)
    return _checked("--xi", normalize_xi, n, out)


def _height_from_args(args):
    kappa = _ints(args.kappa, "--kappa")
    if len(kappa) != args.n:
        raise InputError("--kappa: got %d values for rank %d" % (len(kappa), args.n))
    return kappa, _int_pair(args.interval, ":", "--interval", "LO:HI")


def _word_from_args(args):
    if args.pi is not None and (args.kappa is not None or args.interval is not None):
        raise InputError("give either --pi or --kappa with --interval, not both")
    if args.pi is not None:
        factors = [_int_pair(tok, ":", "--pi", "i:m pairs") for tok in args.pi.split(",")]
        return _checked("--pi", DrinfeldWord, args.n, factors)
    if args.kappa is not None and args.interval is not None:
        return _checked("--kappa/--interval", pi_from_interval, *_height_from_args(args))
    raise InputError("need --pi or both --kappa and --interval")


def _gamma_from_args(args, lam):
    if args.gamma is None:
        return None
    return _checked("--gamma", gamma_domain, lam, [_ints(args.gamma, "--gamma")])


def _lam_from_args(args):
    if args.lam is None:
        raise InputError("--lambda is required here")
    return _checked("--lambda", check_weight, args.n, _ints(args.lam, "--lambda"))


def _cache_dir(args):
    if args.cache == "":
        raise InputError("--cache: expected a directory, got ''")
    # an empty HLDECOMP_CACHE counts as unset, as is usual for the environment
    return os.environ.get("HLDECOMP_CACHE") or args.cache


# bump when the layout or the meaning of a cache entry changes
_CACHE_SCHEMA = 2


def _job_key(job) -> str:
    # the package version is part of the key, so a release with an
    # algorithm fix never serves entries computed before it
    job = {"version": __version__, "schema": _CACHE_SCHEMA, "job": job}
    text = json.dumps(job, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _cache_load(cachedir, key, job):
    """The job's decomposition with the polynomials of a stored entry, or
    None.  job is the empty decomposition of the job; only the (gamma,
    poly) pairs are read from disk, and those of gammas in job's domain
    fill it.  The result is served only if to_json_dict of it is exactly
    the stored entry, so a foreign header, an edited domain, a repeated
    or out-of-domain gamma, an odd grade key or a stale mu_weight or dim
    is recomputed."""
    path = os.path.join(cachedir, key + ".json")
    try:
        with open(path) as fh:
            data = json.load(fh)
        polys = {tuple(e["gamma"]): QPolynomial.from_json(e["poly"])
                 for e in data["entries"]}
        dec = dmod.GradedDecomposition(job.n, job.lam,
                                       {g: polys[g] for g in job.domain if g in polys},
                                       job.domain, word=job.word, xi=job.xi)
        written = dmod.to_json_dict(dec)
        wrong = sorted(k for k in written.keys() | data.keys()
                       if written.get(k) != data.get(k))
        if wrong:
            raise ValueError("does not match the job in %s" % ", ".join(wrong))
        return dec
    except FileNotFoundError:
        return None
    except Exception as exc:
        print("warning: ignoring unreadable cache entry %s (%s)" % (path, exc),
              file=sys.stderr)
        return None


def _cache_store(cachedir, key, dec):
    # write-then-rename so a crashed run never leaves a torn entry
    tmp = None
    try:
        os.makedirs(cachedir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cachedir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(dmod.to_json_text(dec))
        os.replace(tmp, os.path.join(cachedir, key + ".json"))
    except OSError as exc:
        print("warning: could not write cache entry (%s)" % exc, file=sys.stderr)
        if tmp:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _cached(args, compute, lam, gammas, word=None, xi=None):
    """compute(), or, when a cache directory is set, the stored result
    of the same job.  The job is the empty decomposition of the run:
    everything its result holds but the polynomials, with the domain
    computed by gamma_domain.  Its JSON, with the command, makes the
    cache key; without a cache directory it is never built."""
    cachedir = _cache_dir(args)
    if not cachedir:
        return compute()
    job = dmod.GradedDecomposition(args.n, lam, {}, gamma_domain(lam, gammas),
                                   word=word, xi=xi)
    key = _job_key({"cmd": args.command, **dmod.to_json_dict(job)})
    dec = _cache_load(cachedir, key, job)
    if dec is None:
        dec = compute()
        _cache_store(cachedir, key, dec)
    return dec


def _word_inputs(args):
    word = _word_from_args(args)
    lam = weight_of(word)
    return word, lam, _gamma_from_args(args, lam)


def cmd_decompose(args) -> int:
    word, lam, gammas = _word_inputs(args)
    dec = _cached(args, lambda: dmod.graded_decomposition(word, gammas=gammas),
                  lam, gammas, word=word)
    sys.stdout.write(dmod.report(dec, args.format))
    return 0


_MODES = ("a word (--pi, or --kappa with --interval) runs pair mode, "
          "--lambda with --xi full mode")


def cmd_oracle(args) -> int:
    word_flags = [f for f, v in (("--pi", args.pi), ("--kappa", args.kappa),
                                 ("--interval", args.interval)) if v is not None]
    full_flags = [f for f, v in (("--lambda", args.lam), ("--xi", args.xi)) if v is not None]
    if word_flags and full_flags:
        raise InputError("%s with %s: %s, not both"
                         % ("/".join(word_flags), "/".join(full_flags), _MODES))
    if len(full_flags) == 1:
        other = "--xi" if args.lam is not None else "--lambda"
        raise InputError("%s without %s: %s" % (full_flags[0], other, _MODES))
    if not (word_flags or full_flags):
        raise InputError("no input: %s" % _MODES)
    if word_flags:
        word, lam, gammas = _word_inputs(args)
        xi = None
        compute = lambda: omod.oracle_decomposition(mode="pair", word=word, gammas=gammas)
    else:
        word = None
        lam = _lam_from_args(args)
        xi = _parse_xi(args.xi, args.n)
        gammas = _gamma_from_args(args, lam)
        compute = lambda: omod.oracle_decomposition(lam=lam, mode="full", xi=xi,
                                                    gammas=gammas)
    dec = _cached(args, compute, lam, gammas, word=word, xi=xi)
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
    word = _word_from_args(args)
    kappa, J = pi_to_height_interval(word) if args.pi is not None else _height_from_args(args)
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

    def command(name, func, help, word=True, fmt=True, cache=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--n", type=_rank, required=True, help="rank of the diagram")
        if word:
            p.add_argument("--pi", help='word as "i1:m1,i2:m2,..."')
            p.add_argument("--kappa", help='height function as "k1,k2,..."')
            p.add_argument("--interval", help='interval as LO:HI')
        if fmt:
            p.add_argument("--format", choices=("plain", "json", "latex"),
                           default="plain")
        if cache:
            p.add_argument("--cache", help="cache directory (HLDECOMP_CACHE overrides)")
        return p

    p = command("decompose", cmd_decompose, "lattice point decomposition of a word")
    p.add_argument("--gamma", help="restrict to one gamma (simple root coordinates)")

    p = command("oracle", cmd_oracle, "dual realization decomposition: pair mode "
                "from a word, full mode from --lambda with --xi")
    p.add_argument("--xi", help='xi tuple as "i-j:v,..." or a single constant '
                               '(normalized automatically)')
    p.add_argument("--lambda", dest="lam", help='weight as "l1,...,ln"')
    p.add_argument("--gamma", help="restrict to one gamma (simple root coordinates)")

    command("crosscheck", cmd_crosscheck, "run both computations and compare them",
            fmt=False, cache=False)
    command("hl-info", cmd_hl_info, "sinks, sources, word and weight diagnostics",
            fmt=False, cache=False)

    p = command("character", cmd_character, "weight multiplicities of V(lambda)",
                word=False, cache=False)
    p.add_argument("--lambda", dest="lam", help='weight as "l1,...,ln"')

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
